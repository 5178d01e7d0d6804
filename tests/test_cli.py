import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darbocert.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_UNDECIDED,
    ConfigError,
    _json_text,
    parse_config,
    run,
)

UNIT_BOX = {
    "headLo": [],
    "headHi": [],
    "tailLo": {"terms": [], "beta": -1.0},
    "tailHi": {"terms": [], "beta": 1.0},
}
HALF_SCALING = {
    "dHead": [],
    "dTail": {"terms": [], "beta": 0.5},
    "eHead": [],
    "eTail": {"terms": [], "beta": 0.0},
}
IDENTITY_OP = {
    "dHead": [],
    "dTail": {"terms": [], "beta": 1.0},
    "eHead": [],
    "eTail": {"terms": [], "beta": 0.0},
}
RATIONAL_PAIR = {
    "psiSeq": "(2*n*(1+t)+2*t+1)/(n+1)",
    "phiSeq": "(n*(2+t)+1)/n",
    "psiLimit": "2+2*t",
    "phiLimit": "2+t",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def certify_config(tmp_path, operator=HALF_SCALING, **extra):
    payload = {"set": UNIT_BOX, "operator": operator, "pair": RATIONAL_PAIR}
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestDemo:
    def test_exit_zero_and_byte_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
        assert run(["demo", "--out", str(out1)]) == EXIT_PASS
        assert run(["demo", "--out", str(out2)]) == EXIT_PASS
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_console_table(self, capsys):
        assert run(["demo"]) == EXIT_PASS
        captured = capsys.readouterr()
        assert "contraction bound table" in captured.out
        assert "CERTIFIED after 30 steps" in captured.out
        assert "elapsed" in captured.err  # timing goes to stderr only

    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        run(["demo", "--out", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["schemaVersion"] == 1
        assert report["certificate"]["outcome"] == "CERTIFIED"
        assert len(report["certificate"]["trace"]) == 31
        assert report["contractionBound"]["details"]["perN"]["1"]["bound"] == 1.5

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "darbocert", "demo"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "CERTIFIED" in proc.stdout


class TestCheckAxioms:
    AXIOMS = {"m1": 20, "m2": 40, "m3": 20, "m4": 40, "m5": 40,
              "m6Chains": 4, "m6Depth": 20, "oracle": 5, "homogeneity": 20}

    def test_pass_with_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"axioms": self.AXIOMS})
        out = tmp_path / "r.json"
        assert run(["check-axioms", "--config", cfg, "--seed", "42", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["seed"] == 42
        assert report["allPassed"] is True
        assert {g["name"] for g in report["axioms"]} >= {"M1", "M2", "M3", "M4", "M5", "M6"}

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"axioms": self.AXIOMS})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["check-axioms", "--config", cfg, "--seed", "7", "--out", str(out1)])
        run(["check-axioms", "--config", cfg, "--seed", "7", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_box_in_config_is_exit_three(self, tmp_path, capsys):
        bad = dict(UNIT_BOX)
        bad["tailLo"] = {"terms": [], "beta": 0.5}  # asym(lo) > 0: empty set
        cfg = write_config(tmp_path, {"set": bad})
        assert run(["check-axioms", "--config", cfg]) == EXIT_CONFIG
        assert "empty" in capsys.readouterr().err

    def test_zero_counts_vacuous_pass(self, tmp_path, capsys):
        zeros = {k: 0 for k in self.AXIOMS}
        zeros["m6Depth"] = 1
        cfg = write_config(tmp_path, {"axioms": zeros})
        assert run(["check-axioms", "--config", cfg]) == EXIT_PASS
        capsys.readouterr()

    def test_runs_without_config(self, tmp_path, capsys):
        # full default counts; uses the acceptance-scale suite
        out = tmp_path / "r.json"
        assert run(["check-axioms", "--seed", "0", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()


class TestCheckPair:
    def test_rational_pair_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pair": RATIONAL_PAIR})
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        verdicts = {name: c["verdict"] for name, c in report["checks"].items()}
        assert set(verdicts.values()) == {"PASS"}

    def test_broken_pair_exit_one_with_witness(self, tmp_path, capsys):
        pair = {"psiSeq": "t", "phiSeq": "t+1", "psiLimit": "t", "phiLimit": "t+1"}
        cfg = write_config(tmp_path, {"pair": pair})
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["checks"]["condition_i"]["verdict"] == "FAIL"
        assert report["checks"]["condition_i"]["counterexample"] is not None

    def test_divergent_pair_without_limits_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pair": {"psiSeq": "n*t", "phiSeq": "2+t"}})
        assert run(["check-pair", "--config", cfg]) == EXIT_UNDECIDED
        capsys.readouterr()

    def test_pair_constant_in_t_without_limits_writes_a_report(self, tmp_path, capsys):
        # phi_n = 2 evaluates to a scalar; its limit estimate covers the grid
        cfg = write_config(tmp_path, {"pair": {"psiSeq": "t", "phiSeq": "2"}})
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        assert "Traceback" not in capsys.readouterr().err
        checks = json.loads(out.read_text())["checks"]
        assert checks["condition_i"]["counterexample"] == {
            "reading": "limit", "u": 0.1, "v": 0.0, "psiU": 0.1, "phiV": 2.0,
        }
        assert checks["uniform_convergence"]["verdict"] == "PASS"

    def test_pair_undefined_at_a_ladder_n_is_config_error(self, tmp_path, capsys):
        # phi_4 divides by zero; every check sees the whole ladder, so the
        # verdicts never depend on how far one check got before n = 4
        cfg = write_config(tmp_path, {"pair": {"psiSeq": "0-n*t", "phiSeq": "t/(n-4)"}})
        assert run(["check-pair", "--config", cfg]) == EXIT_CONFIG
        assert "division by zero in 't/(n-4)'" in capsys.readouterr().err

    def test_missing_pair_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert run(["check-pair", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    def test_unparseable_expression_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pair": {"psiSeq": "2*x", "phiSeq": "t"}})
        assert run(["check-pair", "--config", cfg]) == EXIT_CONFIG
        assert "unknown identifier" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["check-pair", "--config", str(path)]) == EXIT_CONFIG
        capsys.readouterr()


class TestCertify:
    def test_main_mode_certifies(self, tmp_path, capsys):
        cfg = certify_config(tmp_path)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["certificate"]["outcome"] == "CERTIFIED"
        assert len(report["certificate"]["trace"]) == 31
        assert report["config"]["pair"] == RATIONAL_PAIR  # config echo

    def test_identity_operator_refuted(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, operator=IDENTITY_OP)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["certificate"]["refutation"]["lhs"] == 4.0
        assert report["certificate"]["refutation"]["rhs"] == 3.0

    def test_iteration_budget_exhaustion_is_exit_two(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, maxIter=1)
        assert run(["certify", "--config", cfg]) == EXIT_UNDECIDED
        capsys.readouterr()

    def test_classic_mode(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, classicK=0.5)
        assert run(["certify", "--config", cfg, "--mode", "classic"]) == EXIT_PASS
        cfg2 = certify_config(tmp_path, classicK=0.4)
        assert run(["certify", "--config", cfg2, "--mode", "classic"]) == EXIT_FAIL
        capsys.readouterr()

    def test_weak_mode(self, tmp_path, capsys):
        pair = {"psiSeq": "t", "phiSeq": "t/2", "psiLimit": "t", "phiLimit": "t/2"}
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": pair})
        assert run(["certify", "--config", cfg, "--mode", "weak"]) == EXIT_PASS
        cfg2 = write_config(tmp_path, {"set": UNIT_BOX, "operator": IDENTITY_OP, "pair": pair})
        assert run(["certify", "--config", cfg2, "--mode", "weak"]) == EXIT_FAIL
        capsys.readouterr()

    def test_weak_mode_with_psi_constant_in_t_writes_a_report(self, tmp_path, capsys):
        pair = {"psiSeq": "1", "phiSeq": "1+t"}
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": pair})
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--mode", "weak", "--out", str(out)]) == EXIT_FAIL
        capsys.readouterr()
        cert = json.loads(out.read_text())["certificate"]
        # psi(mu(TA)) = 1 > psi(mu(A)) - phi(mu(A)) = -1 at the first step
        assert cert["outcome"] == "REFUTED"
        assert cert["refutation"] == {"step": 0, "n": "limit", "lhs": 1.0, "rhs": -1.0}

    def test_identity_mode_uses_identity_psi(self, tmp_path, capsys):
        pair = {"psiSeq": "2*t", "phiSeq": "t/2", "psiLimit": "2*t", "phiLimit": "t/2"}
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": pair})
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--mode", "identity", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()

    def test_missing_operator_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "pair": RATIONAL_PAIR})
        assert run(["certify", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    def test_classic_without_k_is_config_error(self, tmp_path, capsys):
        cfg = certify_config(tmp_path)
        assert run(["certify", "--config", cfg, "--mode", "classic"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_precondition_failure_is_config_error(self, tmp_path, capsys):
        # doubling operator is not a self map of the unit box
        doubling = {
            "dHead": [], "dTail": {"terms": [], "beta": 2.0},
            "eHead": [], "eTail": {"terms": [], "beta": 0.0},
        }
        cfg = certify_config(tmp_path, operator=doubling)
        assert run(["certify", "--config", cfg]) == EXIT_CONFIG
        assert "does not map" in capsys.readouterr().err

    def test_non_finite_report_value_is_config_error(self, tmp_path, capsys):
        # phi_n = t*n**60 overflows to inf at n = 10**6, and so does its margin
        phi = "*".join(["t"] + ["n"] * 60)
        pair = {"psiSeq": "t", "phiSeq": phi, "psiLimit": "t", "phiLimit": "t"}
        cfg = certify_config(tmp_path, pair=pair, enforcePairChecks=False)
        out = tmp_path / "r.json"
        with pytest.warns(UserWarning, match="checks overridden"):
            assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: report: ") and "JSON compliant: inf" in err
        assert not out.exists()

    def test_non_finite_report_leaves_one_line_on_stderr(self, tmp_path):
        # the same run in a fresh interpreter: numpy's overflow in t*n*...*n
        # must not print a RuntimeWarning; the expected override warning of
        # the pair checks is silenced
        phi = "*".join(["t"] + ["n"] * 60)
        pair = {"psiSeq": "t", "phiSeq": phi, "psiLimit": "t", "phiLimit": "t"}
        cfg = certify_config(tmp_path, pair=pair, enforcePairChecks=False)
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::UserWarning", "-m", "darbocert", "certify",
             "--config", cfg, "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (
            "error: report: Out of range float values are not JSON compliant: inf\n"
        )

    def test_late_settling_multiplier_is_config_error(self, tmp_path, capsys):
        # d = 0.5 - 1e6*0.99999**i would pad a head of 1,450,858 coordinates
        late = dict(HALF_SCALING, dTail={"terms": [{"alpha": -1e6, "rho": 0.99999}], "beta": 0.5})
        cfg = certify_config(tmp_path, operator=late, classicK=0.6)
        assert run(["certify", "--config", cfg, "--mode", "classic"]) == EXIT_CONFIG
        assert "past the head cap" in capsys.readouterr().err

    def test_huge_measure_keeps_a_finite_limit_estimate(self, tmp_path, capsys):
        # the Aitken square (mu_2 - mu_1)**2 = (2.5e299)**2 is past the float range
        box = dict(UNIT_BOX, tailHi={"terms": [], "beta": 1e300})
        cfg = certify_config(tmp_path, set=box, classicK=0.5, maxIter=2)
        out = tmp_path / "r.json"
        code = run(["certify", "--config", cfg, "--mode", "classic", "--out", str(out)])
        assert code == EXIT_UNDECIDED
        capsys.readouterr()
        assert json.loads(out.read_text())["certificate"]["pEstimate"] == 2.5e299

    @pytest.mark.parametrize("mode", ["main", "weak"])
    def test_limit_divergence_mid_run_is_inconclusive(self, tmp_path, capsys, mode):
        # no declared limits, and t*n has no limit in n for t > 0
        pair = {"psiSeq": "t*n", "phiSeq": "2*t*n"}
        cfg = certify_config(tmp_path, pair=pair, enforcePairChecks=False)
        out = tmp_path / "r.json"
        with pytest.warns(UserWarning, match="checks overridden"):
            code = run(["certify", "--config", cfg, "--mode", mode, "--out", str(out)])
        assert code == EXIT_UNDECIDED
        capsys.readouterr()
        cert = json.loads(out.read_text())["certificate"]
        assert cert["outcome"] == "INCONCLUSIVE"
        assert len(cert["trace"]) == 1
        assert cert["details"]["mode"] == mode
        assert cert["details"]["step"] == 0
        assert cert["details"]["reason"].startswith("'t*n' does not stabilise in n at t=0.5 ")

    def test_report_byte_identical(self, tmp_path, capsys):
        cfg = certify_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["certify", "--config", cfg, "--out", str(out1)])
        run(["certify", "--config", cfg, "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigValidation:
    def test_composed_operator_parses(self, tmp_path, capsys):
        composed = {"compose": [HALF_SCALING, HALF_SCALING]}
        cfg = certify_config(tmp_path, operator=composed)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        # quarter scaling reaches 1e-9 in 15 steps: 0.25**15 < 1e-9
        assert len(report["certificate"]["trace"]) == 16

    def test_unused_head_length_key_still_loads_and_is_echoed(self, tmp_path, capsys):
        space = {"horizon": 500, "headLength": 3}
        cfg = certify_config(tmp_path, space=space)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["space"] == space

    def test_bad_ratio_rejected(self, tmp_path, capsys):
        box = dict(UNIT_BOX)
        box["tailHi"] = {"terms": [{"alpha": 1.0, "rho": 1.5}], "beta": 1.0}
        cfg = write_config(tmp_path, {"set": box})
        assert run(["check-axioms", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    def test_overflowing_merged_term_names_its_tail(self, tmp_path, capsys):
        # two coefficients 1e308 on one ratio sum past the float range
        terms = [{"alpha": 1e308, "rho": 0.5}, {"alpha": 1e308, "rho": 0.5}]
        cfg = write_config(tmp_path, {"set": dict(UNIT_BOX, tailHi={"terms": terms, "beta": 1.0})})
        assert run(["check-axioms", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: set.tailHi: non-finite term\n"

    def test_overflowing_coefficient_sum_is_an_invalid_box(self, tmp_path, capsys):
        # |1e308| + |-1e308| overflows; hi - lo is about -1e307 at i = 1
        terms = [{"alpha": 1e308, "rho": 0.5}, {"alpha": -1e308, "rho": 0.6}]
        cfg = write_config(tmp_path, {"set": dict(UNIT_BOX, tailHi={"terms": terms, "beta": 1.0})})
        assert run(["check-axioms", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: set: lower envelope exceeds the upper one at some coordinate\n"
        )

    def test_heads_whose_difference_overflows_warn_nothing(self, tmp_path, capsys):
        # hi - lo overflows at coordinate 1; the box is valid all the same
        box = dict(UNIT_BOX, headLo=[-1e308], headHi=[1e308])
        cfg = certify_config(tmp_path, set=box, classicK=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["certify", "--mode", "classic", "--config", cfg]) == EXIT_PASS
        assert "Warning" not in capsys.readouterr().err

    def test_an_overflowing_image_head_is_an_input_error_without_a_warning(self, tmp_path, capsys):
        # d_1 * hi_1 = 1e600 overflows in the image of the box
        box = dict(UNIT_BOX, headLo=[-1e300], headHi=[1e300])
        cfg = certify_config(tmp_path, operator=dict(HALF_SCALING, dHead=[1e300]), set=box, classicK=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["certify", "--mode", "classic", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: non-finite head interval\n"

    @pytest.mark.parametrize("cut", [-5000, -1, 2**62 + 1, 10**23])
    def test_oracle_cut_out_of_range_is_config_error(self, tmp_path, capsys, cut):
        axioms = dict(TestCheckAxioms.AXIOMS, oracleCut=cut)
        cfg = write_config(tmp_path, {"axioms": axioms})
        out = tmp_path / "r.json"
        assert run(["check-axioms", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: axioms.oracleCut must lie in [0, 2**62]\n"
        assert not out.exists()

    def test_oracle_cut_at_the_cap_is_accepted(self, tmp_path, capsys):
        zeros = dict.fromkeys(TestCheckAxioms.AXIOMS, 0)
        cfg = write_config(tmp_path, {"axioms": dict(zeros, m6Depth=1, oracle=3, oracleCut=2**62)})
        out = tmp_path / "r.json"
        assert run(["check-axioms", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        groups = {g["name"]: g for g in json.loads(out.read_text())["axioms"]}
        assert groups["oracle_agreement"]["instances"] == 3
        assert groups["oracle_agreement"]["violations"] == []

    @pytest.mark.parametrize("max_iter", [0, -3, 10**5 + 1, 10**30])
    def test_max_iter_out_of_range_is_config_error(self, tmp_path, capsys, max_iter):
        cfg = certify_config(tmp_path, classicK=0.6, maxIter=max_iter)
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: maxIter must lie in [1, 10**5]\n"
        assert not out.exists()

    def test_max_iter_at_the_cap_is_accepted(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, classicK=0.6, maxIter=10**5)
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert len(json.loads(out.read_text())["certificate"]["trace"]) == 31

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"space": {"horizon": "lots"}}, "space.horizon"),
            ({"set": dict(UNIT_BOX, headLo=["a"], headHi=[1.0])}, "set"),
            (
                {"set": dict(UNIT_BOX, tailHi={"terms": [{"alpha": None, "rho": 0.5}]})},
                "set.tailHi",
            ),
            ({"grid": {"tMax": "x"}}, "grid"),
            ({"tol": [1]}, "tol"),
        ],
        ids=["horizon", "headLo", "alpha", "tMax", "tol"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, payload, where):
        cfg = write_config(tmp_path, dict(payload, pair=RATIONAL_PAIR))
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ")
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [10**7 + 1, 10**18])
    def test_horizon_past_the_cap_is_config_error(self, horizon):
        # rejected while parsing, before anything is sized by it
        with pytest.raises(ConfigError, match=r"space.horizon must lie in \[1, 10000000\]"):
            parse_config({"space": {"horizon": horizon}})

    def test_horizon_at_the_cap_is_accepted(self):
        assert parse_config({"space": {"horizon": 10**7}}).horizon == 10**7

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"step": float("nan")}, "t_max and step must be finite"),
            ({"tMax": float("inf")}, "t_max and step must be finite"),
            ({"tMax": 100, "step": 1e-9}, "more than 10000000 table cells"),
        ],
        ids=["nan-step", "infinite-tMax", "huge-grid"],
    )
    def test_unbounded_grid_is_config_error(self, tmp_path, capsys, grid, message):
        # rejected while parsing: the huge grid would need about 745 GiB
        cfg = write_config(tmp_path, {"pair": RATIONAL_PAIR, "grid": grid})
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: grid: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, where",
        [
            (["certify", "--mode", "classic"], {"classicK": 0.6, "nLadder": [1, 2**1100]}, "nLadder"),
            (["check-pair"], {"grid": {"step": 0.5, "nLadder": [1, 2**1100]}}, "grid.nLadder"),
        ],
        ids=["nLadder", "grid.nLadder"],
    )
    def test_ladder_entry_past_the_float_range_is_config_error(
        self, tmp_path, capsys, command, payload, where
    ):
        # the checks evaluate n in double precision, where 2**1100 overflows
        cfg = certify_config(tmp_path, **payload)
        out = tmp_path / "r.json"
        assert run(command + ["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {where}: int too large to convert to float\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, where",
        [
            (["certify", "--mode", "classic"], {"classicK": 0.6, "nLadder": [10, 10, 1]}, "nLadder"),
            (["check-pair"], {"grid": {"step": 0.5, "nLadder": [10, 10, 1]}}, "grid.nLadder"),
        ],
        ids=["nLadder", "grid.nLadder"],
    )
    def test_ladder_not_strictly_increasing_is_config_error(
        self, tmp_path, capsys, command, payload, where
    ):
        # a repeated n would collapse in the report's margins
        cfg = certify_config(tmp_path, **payload)
        out = tmp_path / "r.json"
        assert run(command + ["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {where} must hold strictly increasing integers >= 1\n"
        )
        assert not out.exists()
        for ladder in ([], [0, 1], [2, 1], [1, 2, 2]):
            with pytest.raises(ConfigError, match="^nLadder must hold strictly increasing"):
                parse_config({"nLadder": ladder})

    @pytest.mark.parametrize("value", ["12", {"5": 1, "6": 2}, 3, None], ids=["string", "object", "number", "null"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            (lambda v: {"set": dict(UNIT_BOX, headLo=v, headHi="34")}, "set: headLo"),
            (lambda v: {"set": dict(UNIT_BOX, headHi=v)}, "set: headHi"),
            (lambda v: {"operator": dict(HALF_SCALING, dHead=v)}, "operator: dHead"),
            (lambda v: {"operator": dict(HALF_SCALING, eHead=v)}, "operator: eHead"),
            (
                lambda v: {"operator": {"compose": [HALF_SCALING, dict(HALF_SCALING, dHead=v)]}},
                "operator.compose[1]: dHead",
            ),
            (lambda v: {"classicK": 0.6, "nLadder": v}, "nLadder"),
            (lambda v: {"classicK": 0.6, "grid": {"step": 0.5, "nLadder": v}}, "grid: nLadder"),
        ],
        ids=["headLo", "headHi", "dHead", "eHead", "compose.dHead", "nLadder", "grid.nLadder"],
    )
    def test_head_or_ladder_that_is_not_a_list_is_config_error(self, tmp_path, capsys, payload, message, value):
        # "12" would read as [1.0, 2.0] and {"5": 1, "6": 2} as its keys
        cfg = certify_config(tmp_path, **payload(value))
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message} must be a list\n"
        assert not out.exists()

    def test_ladder_times_budget_at_the_cap_is_accepted(self, tmp_path, capsys):
        # 100 entries x 10**5 steps = 10**7 margin cells; the chain stops at 30
        cfg = certify_config(tmp_path, classicK=0.6, maxIter=10**5, nLadder=list(range(1, 101)))
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        trace = json.loads(out.read_text())["certificate"]["trace"]
        assert len(trace) == 31 and len(trace[-1]["margins"]) == 101

    def test_ladder_times_budget_past_the_cap_is_config_error(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, classicK=0.6, maxIter=10**5, nLadder=list(range(1, 102)))
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: nLadder entries x maxIter must be at most 10000000 margin cells\n"
        )
        assert not out.exists()

    def test_grid_at_the_cell_cap_is_accepted(self):
        at_cap = {"tMax": 10**7 - 1, "step": 1, "nLadder": [1]}
        assert len(parse_config({"grid": at_cap}).grid.n_ladder) == 1
        with pytest.raises(ConfigError, match="^grid: 2 ladder entries x 10000000 points"):
            parse_config({"grid": dict(at_cap, nLadder=[1, 2])})

    def test_grid_settings_honoured(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"pair": RATIONAL_PAIR, "grid": {"tMax": 10.0, "step": 0.5, "nLadder": [1, 2, 4]}},
        )
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        capsys.readouterr()
        # ladder tops out at n=4, so the uniform error 1/4 is above tol
        report = json.loads(out.read_text())
        assert report["checks"]["uniform_convergence"]["verdict"] == "FAIL"


# signed zeros, subnormals, the ends of the float range and floats whose
# repr switches to exponent form (1e16, 1e-07)
WRITER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1e16, 1e-7, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
WRITER_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from('\x00\x1f\x7f"\\/\u2028\ud800\udfff\U0001f600\xe9'),
))
WRITER_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.integers(2**64, 2**200),
    WRITER_FLOATS, WRITER_FLOATS.map(np.float64), WRITER_TEXT,
)


def writer_trees(leaves):
    """Nested dicts, lists and tuples over ``leaves``.  The keys of one
    dict are all strings or all numbers (bools among them), or one None,
    since json sorts them."""
    def containers(children):
        numbers = st.one_of(st.booleans(), st.integers(), WRITER_FLOATS)
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(WRITER_TEXT, children, max_size=4),
            st.dictionaries(numbers, children, max_size=4),
            st.dictionaries(st.none(), children, max_size=1),
        )

    return st.recursive(leaves, containers, max_leaves=25)


def written(write, obj):
    """The text, or the error type and message."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def json_reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


class TestReportWriter:
    """``cli._json_text`` gives the text and errors of ``json.dumps(...,
    indent=2, sort_keys=True, allow_nan=False)``."""

    @settings(deadline=None, max_examples=300)
    @given(writer_trees(WRITER_SCALARS))
    def test_text_matches_json(self, obj):
        assert _json_text(obj) == json_reference(obj)

    @settings(deadline=None, max_examples=200)
    @given(writer_trees(st.one_of(WRITER_SCALARS, st.sampled_from(
        [math.nan, -math.inf, np.float64(math.inf), np.int64(3), {1}, frozenset()]
    ))))
    def test_first_error_matches_json(self, obj):
        assert written(_json_text, obj) == written(json_reference, obj)

    @pytest.mark.parametrize(
        "obj",
        [math.nan, math.inf, -math.inf, np.float64(math.nan), np.int64(3), {1, 2},
         {"a": [1.0, {"b": math.inf}]}, {math.nan: 1}, {(1, 2): 0}, {"x": 1, 2: 0}],
        ids=["nan", "inf", "-inf", "np.float64-nan", "np.int64", "set",
             "nested-inf", "nan-key", "tuple-key", "mixed-keys"],
    )
    def test_errors_match_json(self, obj):
        got, want = written(_json_text, obj), written(json_reference, obj)
        assert isinstance(want, tuple) and got == want
