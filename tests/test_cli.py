import gc
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darbocert import cli, engine
from darbocert.axioms import AxiomCounts
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
from darbocert.mnc import TailForm
from darbocert.operators import DiagonalAffineOperator, compose
from darbocert.shifting import run_all_checks

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
BROKEN_PAIR = {"psiSeq": "t", "phiSeq": "t+1", "psiLimit": "t", "phiLimit": "t+1"}


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
        assert report["schemaVersion"] == 2
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

    def test_classic_mode_with_a_mixed_sign_beta_zero_multiplier(self, tmp_path, capsys):
        # d = 0.9**i - 0.8**i > 0 with asymptotic value 0: mu(A_1) = 0
        terms = [{"alpha": 1.0, "rho": 0.9}, {"alpha": -1.0, "rho": 0.8}]
        operator = dict(HALF_SCALING, dTail={"terms": terms, "beta": 0.0})
        cfg = certify_config(tmp_path, operator=operator, classicK=0.5)
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        cert = json.loads(out.read_text())["certificate"]
        assert cert["outcome"] == "CERTIFIED"
        assert [state["mu"] for state in cert["trace"]] == [1.0, 0.0]
        assert cert["witness"]["residual"] == 0.0

    def test_weak_mode(self, tmp_path, capsys):
        pair = {"psiSeq": "t", "phiSeq": "t/2", "psiLimit": "t", "phiLimit": "t/2"}
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": pair})
        assert run(["certify", "--config", cfg, "--mode", "weak"]) == EXIT_PASS
        cfg2 = write_config(tmp_path, {"set": UNIT_BOX, "operator": IDENTITY_OP, "pair": pair})
        assert run(["certify", "--config", cfg2, "--mode", "weak"]) == EXIT_FAIL
        capsys.readouterr()

    def test_weak_mode_checks_phi_at_the_chain_ladder(self, tmp_path, capsys):
        # phi_10 = -2t, and n = 10 is on the chain's ladder, not the grid's
        pair = {"psiSeq": "2*t", "phiSeq": "t*(1-3/((n-10)*(n-10)+1))",
                "psiLimit": "2*t", "phiLimit": "t"}
        cfg = write_config(tmp_path, {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": pair})
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--mode", "weak", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: phi_10 takes negative values on the grid (min -200.0)\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("mode, pair, extra", [
        ("main", RATIONAL_PAIR, {"uniformTol": 0.5}),
        ("main", BROKEN_PAIR, {"enforcePairChecks": False}),
        ("identity", {"psiSeq": "t", "phiSeq": "t/2", "psiLimit": "t", "phiLimit": "t/2"},
         {"uniformTol": 0.5}),
        ("identity", BROKEN_PAIR, {"enforcePairChecks": False}),
    ])
    def test_certify_reports_the_checks_of_check_pair(self, tmp_path, capsys, mode, pair, extra):
        cfg = certify_config(tmp_path, pair=pair, **extra)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the broken pair's override warning
            run(["certify", "--config", cfg, "--mode", mode, "--out", str(out)])
        checked = pair if mode == "main" else dict(pair, psiSeq="t", psiLimit="t")
        pair_cfg = write_config(tmp_path, dict(extra, pair=checked), name="pair.json")
        pair_out = tmp_path / "pair.json.out"
        run(["check-pair", "--config", pair_cfg, "--out", str(pair_out)])
        capsys.readouterr()
        checks = json.loads(out.read_text())["checks"]
        assert checks == json.loads(pair_out.read_text())["checks"]
        if "uniformTol" in extra:
            assert checks["uniform_convergence"]["verdict"] == "PASS"
        else:
            assert checks["condition_i"]["verdict"] == "FAIL"

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
        # a budget that runs out on a measure of 1e300 reports the exact
        # decay factor and a finite last measure; the grid reaches mu(A_0)
        box = dict(UNIT_BOX, tailHi={"terms": [], "beta": 1e300})
        grid = {"tMax": 1e300, "step": 1e299}
        cfg = certify_config(tmp_path, set=box, grid=grid, classicK=0.5, maxIter=2)
        out = tmp_path / "r.json"
        code = run(["certify", "--config", cfg, "--mode", "classic", "--out", str(out)])
        assert code == EXIT_UNDECIDED
        capsys.readouterr()
        cert = json.loads(out.read_text())["certificate"]
        assert cert["factor"] == 0.5 and cert["trace"][-1]["mu"] == 2.5e299

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
    @pytest.mark.parametrize("key", ["psiLimit", "phiLimit"])
    @pytest.mark.parametrize("command", [["check-pair"], ["certify", "--mode", "main"]])
    def test_declared_limit_that_mentions_n_is_config_error(self, tmp_path, capsys, key, command):
        # 2+t*n diverges in n, yet read at n = 1 it is the demo pair's limit 2+t
        pair = dict(RATIONAL_PAIR, **{key: "2+t*n"})
        cfg = certify_config(tmp_path, pair=pair)
        assert run([*command, "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: pair.{key}: a declared limit must not mention n\n"

    @pytest.mark.parametrize("value", [None, 0, 1, [], "", "false", "true"])
    def test_enforce_pair_checks_must_be_a_boolean(self, tmp_path, capsys, value):
        # a falsy non-boolean used to switch the pair-check gate off silently
        cfg = certify_config(tmp_path, pair=BROKEN_PAIR, enforcePairChecks=value)
        assert run(["certify", "--config", cfg, "--mode", "main"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: enforcePairChecks must be true or false\n"

    @pytest.mark.parametrize("mode", ["main", "identity", "weak"])
    def test_grid_short_of_the_domain_measure_is_config_error(self, tmp_path, capsys, mode):
        # mu(A_0) = 1000; the pair checks would hold on [0, 10] only
        box = dict(UNIT_BOX, tailLo={"terms": [], "beta": -1000.0},
                   tailHi={"terms": [], "beta": 1000.0})
        cfg = certify_config(tmp_path, set=box, grid={"tMax": 10}, classicK=0.6)
        assert run(["certify", "--config", cfg, "--mode", mode]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: grid tMax 10.0 is below the domain's measure mu(A_0) = 1000.0\n"
        )

    def test_grid_gate_reads_the_last_grid_point(self, tmp_path, capsys):
        # tMax 1.05 reaches mu(A_0) = 1.04, but the checks stop at t = 1.0
        box = dict(UNIT_BOX, tailLo={"terms": [], "beta": -1.04},
                   tailHi={"terms": [], "beta": 1.04})
        cfg = certify_config(tmp_path, set=box, grid={"tMax": 1.05, "step": 0.1})
        assert run(["certify", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: grid's last point 1.0 (tMax 1.05, step 0.1) is below the domain's "
            "measure mu(A_0) = 1.04\n"
        )

    def test_rejected_grid_runs_no_battery(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_all_checks(*args)

        monkeypatch.setattr(engine, "run_all_checks", counted)
        monkeypatch.setattr(cli, "run_all_checks", counted)
        box = dict(UNIT_BOX, tailLo={"terms": [], "beta": -1000.0},
                   tailHi={"terms": [], "beta": 1000.0})
        cfg = certify_config(tmp_path, set=box, grid={"tMax": 10})
        assert run(["certify", "--config", cfg, "--mode", "main"]) == EXIT_CONFIG
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("half_width, k, steps", [(1000.0, 0.6, 40), (1.0, 1 - 1e-14, 30)])
    def test_valid_classic_contraction_is_certified(self, tmp_path, capsys, half_width, k, steps):
        # mu(TA) = mu(A)/2 <= k*mu(A): a domain past the default grid's tMax,
        # or (1 - k)*0.1 below the tie tolerance, is no input error
        box = dict(UNIT_BOX, tailLo={"terms": [], "beta": -half_width},
                   tailHi={"terms": [], "beta": half_width})
        cfg = certify_config(tmp_path, set=box, classicK=k)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--mode", "classic", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert "checks" not in report
        assert report["certificate"]["outcome"] == "CERTIFIED"
        assert len(report["certificate"]["trace"]) - 1 == steps

    def test_grid_reaching_the_domain_measure_is_accepted(self, tmp_path, capsys):
        box = dict(UNIT_BOX, tailLo={"terms": [], "beta": -1000.0},
                   tailHi={"terms": [], "beta": 1000.0})
        cfg = certify_config(tmp_path, set=box, grid={"tMax": 1000, "step": 1.0})
        assert run(["certify", "--config", cfg]) == EXIT_PASS
        capsys.readouterr()

    def test_composed_operator_parses(self, tmp_path, capsys):
        composed = {"compose": [HALF_SCALING, HALF_SCALING]}
        cfg = certify_config(tmp_path, operator=composed)
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        report = json.loads(out.read_text())
        # quarter scaling reaches 1e-9 in 15 steps: 0.25**15 < 1e-9
        assert len(report["certificate"]["trace"]) == 16

    def test_compose_applies_the_first_element_first(self):
        first = dict(HALF_SCALING, eTail={"terms": [{"alpha": 1.0, "rho": 0.25}]})
        second = dict(
            HALF_SCALING, dTail={"beta": -0.5}, eTail={"terms": [{"alpha": 0.5, "rho": 0.5}]}
        )
        a = DiagonalAffineOperator((), TailForm((), 0.5), (), TailForm(((1.0, 0.25),)))
        b = DiagonalAffineOperator((), TailForm((), -0.5), (), TailForm(((0.5, 0.5),)))
        assert compose(b, a) != compose(a, b)
        assert parse_config({"operator": {"compose": [first, second]}}).operator == compose(b, a)

    def test_unused_head_length_key_still_loads_and_is_echoed(self, tmp_path, capsys):
        # no key of space is read
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

    @pytest.mark.parametrize("key, value, message", [
        ("m2", 10**12, "axioms.m2 must lie in [0, 10**5]"),
        ("m1", -1, "axioms.m1 must lie in [0, 10**5]"),
        ("m6Chains", 10**9, "axioms.m6Chains must lie in [0, 10**5]"),
        ("m6Depth", 10**9, "axioms.m6Depth must lie in [1, 10**4]"),
        ("m6Depth", 0, "axioms.m6Depth must lie in [1, 10**4]"),
        ("oracle", 10**4 + 1, "axioms.oracle must lie in [0, 10**4]"),
        ("homogeneity", 10**5 + 1, "axioms.homogeneity must lie in [0, 10**5]"),
    ])
    def test_axiom_count_past_its_cap_is_config_error(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, {"axioms": dict(TestCheckAxioms.AXIOMS, **{key: value})})
        out = tmp_path / "r.json"
        assert run(["check-axioms", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_m6_boxes_past_the_cap_are_config_error(self):
        # each chain keeps m6Depth boxes alive, and every box costs time
        message = "^axioms.m6Chains x m6Depth must be at most 10\\*\\*5 boxes$"
        with pytest.raises(ConfigError, match=message):
            parse_config({"axioms": {"m6Chains": 10**5, "m6Depth": 2}})
        counts = parse_config({"axioms": {"m6Chains": 10, "m6Depth": 10**4}}).axiom_counts
        assert counts.m6_chains * counts.m6_depth == 10**5

    def test_axiom_counts_at_the_caps_are_accepted(self):
        caps = {"m1": 10**5, "m2": 10**5, "m3": 10**5, "m4": 10**5, "m5": 10**5,
                "m6Chains": 10**5, "m6Depth": 1, "oracle": 10**4, "homogeneity": 10**5}
        counts = parse_config({"axioms": caps}).axiom_counts
        assert (counts.m2, counts.m6_chains, counts.oracle) == (10**5, 10**5, 10**4)
        # the default counts and the acceptance counts stay valid
        assert parse_config({}).axiom_counts == AxiomCounts()

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
            ({"set": dict(UNIT_BOX, headLo=["a"], headHi=[1.0])}, "set"),
            (
                {"set": dict(UNIT_BOX, tailHi={"terms": [{"alpha": None, "rho": 0.5}]})},
                "set.tailHi",
            ),
            ({"grid": {"tMax": "x"}}, "grid"),
            ({"tol": [1]}, "tol"),
            ({"operator": {"compose": []}}, "operator"),
            # a config number must be a JSON number, and a count an integral one
            ({"classicK": False}, "classicK"),
            ({"tol": "0.5"}, "tol"),
            ({"maxIter": 2.5}, "maxIter"),
            ({"nLadder": [1.5, 2.5]}, "nLadder"),
            ({"axioms": {"m1": 2.9}}, "axioms"),
        ],
        ids=["headLo", "alpha", "tMax", "tol", "compose", "false", "string", "2.5", "nLadder",
             "axiom-count"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, payload, where):
        cfg = write_config(tmp_path, dict(payload, pair=RATIONAL_PAIR))
        out = tmp_path / "r.json"
        assert run(["check-pair", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ")
        assert not out.exists()

    def test_integral_floats_are_accepted_as_counts(self):
        cfg = parse_config({"maxIter": 10.0, "nLadder": [1.0, 2], "axioms": {"m1": 3.0}})
        assert (cfg.max_iter, cfg.n_ladder, cfg.axiom_counts.m1) == (10, (1, 2), 3)
        assert type(cfg.max_iter) is int and type(cfg.axiom_counts.m1) is int

    def test_compose_past_the_product_cap_is_config_error(self, tmp_path, capsys):
        # n one-term multipliers with distinct ratios compose to about 2**n
        # terms: 16 give 58,050, and the 17th product would pass 10**5
        parts = [dict(HALF_SCALING, dTail={"terms": [{"alpha": 0.01, "rho": 0.5 + 0.02 * k}],
                                           "beta": 0.5}) for k in range(18)]
        m = parse_config({"operator": {"compose": parts[:16]}}).operator.d_tail.n_terms
        assert m == 58_050
        cfg = certify_config(tmp_path, operator={"compose": parts}, classicK=0.6)
        assert run(["certify", "--mode", "classic", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: operator.compose[16]: a product of 1- and {m}-term tail forms exceeds 100000 terms\n"
        )

    def test_product_cap_error_names_the_nested_compose_element(self, tmp_path, capsys):
        # ten two-term multipliers compose to 43,767 terms, and the eleventh
        # product, inside a compose nested in another, would pass 10**5
        parts = [dict(HALF_SCALING, dTail={"terms": [{"alpha": 0.01, "rho": 0.3 + 0.02 * k},
                                                     {"alpha": 0.01, "rho": 0.5 + 0.02 * k}],
                                           "beta": 0.5}) for k in range(11)]
        m = parse_config({"operator": {"compose": parts[:10]}}).operator.d_tail.n_terms
        assert m == 43_767
        cfg = certify_config(tmp_path, operator={"compose": [HALF_SCALING, {"compose": parts}]},
                             classicK=0.6)
        assert run(["certify", "--mode", "classic", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: operator.compose[1].compose[10]: a product of 2- and {m}-term tail forms"
            " exceeds 100000 terms\n"
        )

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
        # 100 entries x 10**5 steps = 10**7 margin cells; the chain stops at
        # 30, and the pair mentions n, so each step has a margin per entry
        cfg = certify_config(tmp_path, maxIter=10**5, nLadder=list(range(1, 101)))
        out = tmp_path / "r.json"
        assert run(["certify", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        trace = json.loads(out.read_text())["certificate"]["trace"]
        assert len(trace) == 31 and len(trace[-1]["margins"]) == 101

    def test_ladder_times_budget_past_the_cap_is_config_error(self, tmp_path, capsys):
        cfg = certify_config(tmp_path, classicK=0.6, maxIter=10**5, nLadder=list(range(1, 102)))
        out = tmp_path / "r.json"
        for mode in ("main", "identity", "weak"):
            assert run(["certify", "--mode", mode, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "error: nLadder entries x maxIter must be at most 10000000 margin cells\n"
            )
            assert not out.exists()

    def test_ladder_past_the_cap_does_not_bind_classic_mode(self, tmp_path, capsys):
        # the classic chain reads no ladder, so the key it ignores is no error
        assert parse_config({"classicK": 0.5, "maxIter": 10**5, "nLadder": list(range(1, 102))})
        cfg = certify_config(tmp_path, classicK=0.5, maxIter=10**5, nLadder=list(range(1, 102)))
        out = tmp_path / "r.json"
        assert run(["certify", "--mode", "classic", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        assert "error" not in capsys.readouterr().err
        assert json.loads(out.read_text())["certificate"]["outcome"] == "CERTIFIED"

    def test_grid_at_the_cell_cap_is_accepted(self):
        at_cap = {"tMax": 10**7 - 1, "step": 1, "nLadder": [1]}
        assert len(parse_config({"grid": at_cap}).grid.n_ladder) == 1
        with pytest.raises(ConfigError, match="^grid: 2 ladder entries x 10000000 points"):
            parse_config({"grid": dict(at_cap, nLadder=[1, 2])})

    @pytest.mark.parametrize("command", ["check-pair", "certify"])
    @pytest.mark.parametrize("psi, message", [
        ("(" * 328 + "t" + ")" * 328, "expression nested deeper than 100 levels (at offset 100)"),
        ("+".join(["t"] * 989), "expression nested deeper than 100 levels (at offset 199)"),
        ("-" * 983 + "t", "expression nested deeper than 100 levels (at offset 100)"),
        ("1" + "0" * 400 + "*t", "number past the float range (at offset 0)"),
    ], ids=["parentheses", "sum", "unary-minus", "literal"])
    def test_expression_that_would_break_evaluation_is_config_error(
        self, tmp_path, capsys, command, psi, message,
    ):
        # each once ended in a RecursionError or OverflowError traceback
        cfg = certify_config(tmp_path, pair=dict(RATIONAL_PAIR, psiSeq=psi))
        out = tmp_path / "r.json"
        assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: pair.psiSeq: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("depth", [65, 550, 700, 990, 100_000])
    def test_config_nested_too_deeply_is_config_error(self, tmp_path, capsys, depth):
        # at 550 and 700 levels the report writer, echoing the config, once
        # ended in a RecursionError, and the JSON decoder does past about 990
        text = '{"x": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"
        if depth == 100_000:
            with pytest.raises(RecursionError):
                json.loads(text)
        out = tmp_path / "r.json"
        cfg = tmp_path / "deep.json"
        cfg.write_text(text)
        assert run(["check-axioms", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config nested deeper than 64 levels\n"
        assert not out.exists()

    def test_config_at_the_depth_bound_is_accepted(self):
        nested: list = []
        for _ in range(62):
            nested = [nested]
        assert parse_config({"x": nested}).raw == {"x": nested}
        with pytest.raises(ConfigError, match="nested deeper than 64 levels"):
            parse_config({"x": [nested]})

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


def readme_config_block():
    """The JSON block under README's "Config format" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]


class TestReadmeConfig:
    @pytest.mark.parametrize(
        "command",
        [["check-pair"], ["certify", "--mode", "main"], ["certify", "--mode", "classic"]],
        ids=["check-pair", "main", "classic"],
    )
    def test_the_readme_example_config_runs(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(readme_config_block())
        assert run([*command, "--config", str(path)]) == EXIT_PASS
        capsys.readouterr()


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

    def test_a_call_leaves_no_reference_cycle(self):
        report = {"a": [1.0, {"b": None, "e": True}], "c": "d", "n": {2: 0}}
        gc.collect()
        gc.disable()
        try:
            _json_text(report)
            assert gc.collect() == 0
        finally:
            gc.enable()
