"""The benchmark's workloads: their inputs, one job each, and the semantic
checks every job's result must pass.

Jobs call the program through its public functions, looked up on the
module at call time so that the tracer's wrappers are seen.  Each job
returns the report bytes it produced, so that two jobs on the same input can
be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from darbocert import cli, engine, expr, scenarios, shifting
from darbocert.axioms import AxiomCounts


@dataclass
class JobOutput:
    report: bytes
    exit_code: int | None = None
    payload: Any = field(default=None, repr=False)
    stderr: str = ""


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.run`` with its stderr (the ``elapsed:`` line) captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


class Workload:
    """One benchmark workload.  ``config_paths`` are the files that set-up
    loads and validates; ``job`` runs one unit of work; ``check`` returns
    the problems found in a job's output (empty when it is correct)."""

    name = ""
    uses_seed = False

    def __init__(self, workdir: Path, seed: int):
        self.workdir = Path(workdir)
        self.seed = seed
        self.workdir.mkdir(parents=True, exist_ok=True)

    def config_paths(self) -> list[Path]:
        raise NotImplementedError

    def validate(self) -> None:
        """Set-up check in the measuring process: every config loads."""
        for path in self.config_paths():
            cli.load_config(str(path))

    def job(self) -> JobOutput:
        raise NotImplementedError

    def check(self, out: JobOutput) -> list[str]:
        raise NotImplementedError


class ChainLong(Workload):
    """``certify --mode classic`` on the unit box with
    d = 0.98 + 0.01*0.9**i and e = 0: the long certified chain."""

    name = "chain_long"
    classic_k = 0.99
    expected_steps = 1026
    config = {
        "set": {"tailLo": {"terms": [], "beta": -1.0}, "tailHi": {"terms": [], "beta": 1.0}},
        "operator": {
            "dTail": {"terms": [{"alpha": 0.01, "rho": 0.9}], "beta": 0.98},
            "eTail": {"terms": [], "beta": 0.0},
        },
        "classicK": classic_k,
    }

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.cfg_path = _write_json(self.workdir / "chain.json", self.config)
        self.out_path = self.workdir / "report.json"

    def config_paths(self) -> list[Path]:
        return [self.cfg_path]

    def job(self) -> JobOutput:
        code, err = _run_cli(
            ["certify", "--config", str(self.cfg_path), "--mode", "classic",
             "--out", str(self.out_path)]
        )
        return JobOutput(self.out_path.read_bytes(), code, stderr=err)

    def check(self, out: JobOutput) -> list[str]:
        if out.exit_code != cli.EXIT_PASS:
            return [f"exit code {out.exit_code}, expected {cli.EXIT_PASS}: {out.stderr.strip()}"]
        cert = json.loads(out.report)["certificate"]
        problems = []
        if cert["outcome"] != engine.CERTIFIED:
            problems.append(f"outcome {cert['outcome']}")
        steps = len(cert["trace"]) - 1
        if steps != self.expected_steps:
            problems.append(f"{steps} steps, expected {self.expected_steps}")
        mus = [s["mu"] for s in cert["trace"]]
        bad = [k for k in range(len(mus) - 1) if not mus[k + 1] <= self.classic_k * mus[k]]
        if bad:
            problems.append(f"mu_(k+1) > {self.classic_k}*mu_k at step {bad[0]}")
        witness = cert["witness"]
        if witness is None or not math.isfinite(witness["residual"]):
            problems.append("no finite fixed point witness residual")
        return problems


class AxiomSuite(Workload):
    """``check-axioms --seed <seed>`` at the default instance counts."""

    name = "axiom_suite"
    uses_seed = True

    def __init__(self, workdir: Path, seed: int, counts: AxiomCounts | None = None):
        super().__init__(workdir, seed)
        self.counts = counts or AxiomCounts()
        c = self.counts
        self.expected_instances = {
            "M1": c.m1, "M2": c.m2, "M3": c.m3, "M4": c.m4, "M5": c.m5,
            "M6": c.m6_chains, "oracle_agreement": c.oracle, "homogeneity": c.homogeneity,
        }
        axioms = {
            "m1": c.m1, "m2": c.m2, "m3": c.m3, "m4": c.m4, "m5": c.m5,
            "m6Chains": c.m6_chains, "m6Depth": c.m6_depth, "oracle": c.oracle,
            "oracleCut": c.oracle_cut, "homogeneity": c.homogeneity,
        }
        self.cfg_path = _write_json(self.workdir / "axioms.json", {"axioms": axioms})
        self.out_path = self.workdir / "report.json"

    def config_paths(self) -> list[Path]:
        return [self.cfg_path]

    def validate(self) -> None:
        loaded = cli.load_config(str(self.cfg_path)).axiom_counts
        if loaded != self.counts:
            raise ValueError(f"config counts {loaded} differ from {self.counts}")

    def job(self) -> JobOutput:
        code, err = _run_cli(
            ["check-axioms", "--config", str(self.cfg_path), "--seed", str(self.seed),
             "--out", str(self.out_path)]
        )
        return JobOutput(self.out_path.read_bytes(), code, stderr=err)

    def check(self, out: JobOutput) -> list[str]:
        if out.exit_code != cli.EXIT_PASS:
            return [f"exit code {out.exit_code}, expected {cli.EXIT_PASS}: {out.stderr.strip()}"]
        report = json.loads(out.report)
        problems = []
        if report["seed"] != self.seed:
            problems.append(f"report seed {report['seed']} != {self.seed}")
        if not report["allPassed"]:
            problems.append("allPassed is false")
        got = {g["name"]: g["instances"] for g in report["axioms"]}
        if got != self.expected_instances:
            problems.append(f"instance counts {got}, expected {self.expected_instances}")
        for group in report["axioms"]:
            if group["violations"]:
                problems.append(f"{group['name']}: {len(group['violations'])} violations")
        return problems


BOUND_NS = (1, 10, 100, 1_000, 10**6)

_PAIRS = {
    "demo": {
        "psiSeq": "(2*n*(1+t)+2*t+1)/(n+1)", "phiSeq": "(n*(2+t)+1)/n",
        "psiLimit": "2+2*t", "phiLimit": "2+t",
    },
    "broken": {"psiSeq": "t", "phiSeq": "t+1", "psiLimit": "t", "phiLimit": "t+1"},
}

_PASS, _FAIL = shifting.PASS, shifting.FAIL


class PairGrid(Workload):
    """The pair battery plus the contraction-bound table on a fine grid, for
    the demo pair (all PASS, full scans) and the broken pair (FAILs with
    witnesses)."""

    name = "pair_grid"
    expected = {
        "demo": dict.fromkeys(
            ("uniform_convergence", "monotone_in_n", "condition_i", "condition_ii",
             "equality_only_at_zero", "contraction_bound"), _PASS),
        "broken": {
            "uniform_convergence": _PASS, "monotone_in_n": _PASS, "condition_i": _FAIL,
            "condition_ii": _FAIL, "equality_only_at_zero": _FAIL, "contraction_bound": _FAIL,
        },
    }

    def __init__(self, workdir: Path, seed: int, step: float = 0.025):
        super().__init__(workdir, seed)
        self.cfg_paths = {
            label: _write_json(
                self.workdir / f"{label}.json",
                {"pair": pair, "grid": {"tMax": 100.0, "step": step}},
            )
            for label, pair in _PAIRS.items()
        }

    def config_paths(self) -> list[Path]:
        return list(self.cfg_paths.values())

    def validate(self) -> None:
        builtin = {"demo": scenarios.demo_pair(), "broken": scenarios.broken_pair()}
        for label, path in self.cfg_paths.items():
            if cli.load_config(str(path)).pair != builtin[label]:
                raise ValueError(f"{label} config does not parse to scenarios.{label}_pair()")

    def job(self) -> JobOutput:
        results = {}
        for label, path in self.cfg_paths.items():
            cfg = cli.load_config(str(path))
            checks = shifting.run_all_checks(cfg.pair, cfg.grid, cfg.uniform_tol)
            checks["contraction_bound"] = engine.check_example_bound(cfg.pair, cfg.grid, BOUND_NS)
            results[label] = (cfg, checks)
        report = {
            label: {name: rep.to_dict() for name, rep in checks.items()}
            for label, (_, checks) in results.items()
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return JobOutput(text.encode(), payload=results)

    def check(self, out: JobOutput) -> list[str]:
        problems = []
        for label, (cfg, checks) in out.payload.items():
            verdicts = {name: rep.verdict for name, rep in checks.items()}
            if verdicts != self.expected[label]:
                problems.append(f"{label}: verdicts {verdicts}, expected {self.expected[label]}")
            per_n = checks["contraction_bound"].details["perN"]
            for n in BOUND_NS:
                want = float(Fraction(2 * n + 1, n * (n + 1)))
                if per_n[str(n)]["bound"] != want:
                    problems.append(f"{label}: bound at n={n} is {per_n[str(n)]['bound']}, want {want}")
            for name, rep in checks.items():
                if rep.verdict == _FAIL:
                    problems += [
                        f"{label}.{name}: {p}"
                        for p in _recheck(name, rep.counterexample, cfg.pair, cfg.grid)
                    ]
        return problems


def _recheck(name: str, cex: dict | None, pair, grid) -> list[str]:
    """Re-evaluate a FAIL's counterexample by direct expression evaluation;
    returns the reasons it does not show a violation."""
    if cex is None:
        return ["FAIL without a counterexample"]
    tie = shifting.TIE_TOL

    def ev(e, t, n=1.0):
        return float(expr.eval_expr(e, float(t), float(n)))

    def hypothesis(reading, u, v) -> bool:
        if reading == "limit":
            return ev(pair.psi_limit, u) <= ev(pair.phi_limit, v)
        return all(ev(pair.psi_seq, u, n) <= ev(pair.phi_seq, v, n) for n in grid.n_ladder)

    if name == "condition_i":
        ok = hypothesis(cex["reading"], cex["u"], cex["v"]) and cex["u"] > cex["v"] + tie
    elif name == "condition_ii":
        ok = hypothesis(cex["reading"], cex["w"], cex["w"]) and cex["w"] > tie
    elif name == "equality_only_at_zero":
        diff = abs(ev(pair.psi_limit, cex["w"]) - ev(pair.phi_limit, cex["w"]))
        ok = diff > tie if cex["w"] == 0.0 else diff <= tie
    elif name == "contraction_bound":
        u, v, n = cex["u"], cex["v"], cex["n"]
        if n == "limit":
            ok = hypothesis("limit", u, v) and 2 * u - v > tie
        else:
            bound = float(Fraction(2 * n + 1, n * (n + 1)))
            held = ev(pair.psi_seq, u, n) <= ev(pair.phi_seq, v, n)
            ok = held and cex["lhs"] == 2 * u - v and 2 * u - v > bound + tie
    else:
        return [f"no re-check for counterexample {cex}"]
    return [] if ok else [f"counterexample {cex} does not re-evaluate to a violation"]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ChainLong, AxiomSuite, PairGrid)}
