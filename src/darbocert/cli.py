"""Command line interface: config ingestion, orchestration, JSON reports.

Subcommands:

* ``check-axioms``  seeded randomized measure axiom suite.
* ``check-pair``    shifting-distance battery for a declared pair.
* ``certify``       certified iteration; ``--mode`` selects the main run,
                    the identity-psi variant, the weak-contraction variant
                    or the classic constant-factor condition.
* ``demo``          fully built-in scenario: pair battery, contraction
                    bound table and a certified run, no config needed.

Exit codes: 0 pass/certified, 1 fail/refuted, 2 undecided/inconclusive,
3 input error.  Reports are deterministic: a fixed config and seed always
produce byte-identical output (wall-clock timing goes to stderr only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Any

from . import __version__
from .axioms import AxiomCounts, run_axiom_suite
from .engine import (
    CERTIFIED,
    DEFAULT_ENGINE_LADDER,
    REFUTED,
    Certificate,
    PreconditionError,
    check_example_bound,
    classic_darbo_run,
    darbo_iterate,
    identity_pair,
    weak_contraction_run,
)
from .expr import ExprError, mentions_n, parse_expr
from .mnc import MncError, TailBox, TailForm, hausdorff_mnc
from .operators import DiagonalAffineOperator, OperatorError, compose
from .scenarios import demo_pair, scaling_operator, unit_box
from .shifting import (
    FAIL,
    PASS,
    UNDECIDED,
    FunctionSequencePair,
    SampleGrid,
    run_all_checks,
)

__all__ = ["main", "run", "ConfigError", "RunConfig"]

SCHEMA_VERSION = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@contextmanager
def _malformed(where: str):
    """Report a value under ``where`` that fails to convert or validate
    (TypeError, ValueError, OverflowError) as a ConfigError; a ConfigError
    from a nested field keeps its own message."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _number(value: Any, integral: bool = False) -> float | int:
    """A JSON number, not a bool: a float, or an int (10 or 10.0) if ``integral``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value) if integral else float(value)


def _list(obj: dict, key: str, where: str = "") -> list:
    """``obj[key]`` or [] when absent; a string or object would iterate as one."""
    value = obj.get(key, [])
    _require(isinstance(value, list), f"{where}: {key} must be a list" if where else f"{key} must be a list")
    return value


def _parse_tail_form(obj: Any, where: str) -> TailForm:
    _require(isinstance(obj, dict), f"{where}: tail form must be an object")
    terms = _list(obj, "terms", where)
    for k, term in enumerate(terms):
        _require(
            isinstance(term, dict) and "alpha" in term and "rho" in term,
            f"{where}: term {k} needs alpha and rho",
        )
    with _malformed(where):
        pairs = tuple((_number(term["alpha"]), _number(term["rho"])) for term in terms)
        return TailForm(pairs, _number(obj.get("beta", 0.0)))


def _parse_box(obj: Any, where: str) -> TailBox:
    _require(isinstance(obj, dict), f"{where}: set descriptor must be an object")
    for key in ("tailLo", "tailHi"):
        _require(key in obj, f"{where}: missing {key}")
    with _malformed(where):
        return TailBox(
            tuple(map(_number, _list(obj, "headLo", where))),
            tuple(map(_number, _list(obj, "headHi", where))),
            _parse_tail_form(obj["tailLo"], f"{where}.tailLo"),
            _parse_tail_form(obj["tailHi"], f"{where}.tailHi"),
        )


def _parse_operator(obj: Any, where: str) -> DiagonalAffineOperator:
    _require(isinstance(obj, dict), f"{where}: operator must be an object")
    if "compose" in obj:
        parts = obj["compose"]
        _require(isinstance(parts, list) and parts, f"{where}: compose needs a nonempty list")
        # list order: the first element acts first
        current = _parse_operator(parts[0], f"{where}.compose[0]")
        for k, p in enumerate(parts[1:], 1):
            # a product past the term cap is refused here, at its element
            with _malformed(f"{where}.compose[{k}]"):
                current = compose(_parse_operator(p, f"{where}.compose[{k}]"), current)
        return current
    with _malformed(where):
        return DiagonalAffineOperator(
            tuple(map(_number, _list(obj, "dHead", where))),
            _parse_tail_form(obj.get("dTail", {}), f"{where}.dTail"),
            tuple(map(_number, _list(obj, "eHead", where))),
            _parse_tail_form(obj.get("eTail", {}), f"{where}.eTail"),
        )


def _parse_pair(obj: Any, where: str) -> FunctionSequencePair:
    _require(isinstance(obj, dict), f"{where}: pair must be an object")
    for key in ("psiSeq", "phiSeq"):
        _require(isinstance(obj.get(key), str), f"{where}: missing expression {key}")

    def parse_one(key: str):
        text = obj.get(key)
        if text is None:
            return None
        with _malformed(f"{where}.{key}"):
            e = parse_expr(text)
        # a limit in n is a function of t alone; every check reads it at n = 1
        _require(
            not (key.endswith("Limit") and mentions_n(e)),
            f"{where}.{key}: a declared limit must not mention n",
        )
        return e

    return FunctionSequencePair(
        psi_seq=parse_one("psiSeq"),
        phi_seq=parse_one("phiSeq"),
        psi_limit=parse_one("psiLimit"),
        phi_limit=parse_one("phiLimit"),
    )


def _parse_ladder(obj: Any, where: str) -> tuple[int, ...]:
    """An n ladder: strictly increasing ints >= 1.  Every check evaluates n
    in double precision, so an entry past the float range (2**1100, say) is
    an input error."""
    with _malformed(where):
        ladder = tuple(_number(n, integral=True) for n in obj)
        for n in ladder:
            float(n)  # raises OverflowError past the float range
    _require(
        bool(ladder) and ladder[0] >= 1 and all(a < b for a, b in zip(ladder, ladder[1:])),
        f"{where} must hold strictly increasing integers >= 1",
    )
    return ladder


def _parse_grid(obj: Any, where: str) -> SampleGrid:
    if obj is None:
        return SampleGrid()
    _require(isinstance(obj, dict), f"{where}: grid must be an object")
    kwargs: dict = {}
    with _malformed(where):
        if "tMax" in obj:
            kwargs["t_max"] = _number(obj["tMax"])
        if "step" in obj:
            kwargs["step"] = _number(obj["step"])
        if "nLadder" in obj:
            kwargs["n_ladder"] = _parse_ladder(_list(obj, "nLadder", where), f"{where}.nLadder")
        return SampleGrid(**kwargs)


# Each axiom count: config key, AxiomCounts field, least and most value,
# the latter as (base, power).  An instance costs at most 0.16 ms (M5), an
# oracle box 0.9 ms and an M6 box 0.045 ms (2-vCPU Xeon VM), so no group runs
# much past 16 s; the truncation oracle probes no coordinate past 2**62, and
# a larger cut would also overflow its int64 window.
_AXIOM_COUNTS = (
    ("m1", "m1", 0, (10, 5)), ("m2", "m2", 0, (10, 5)), ("m3", "m3", 0, (10, 5)),
    ("m4", "m4", 0, (10, 5)), ("m5", "m5", 0, (10, 5)), ("m6Chains", "m6_chains", 0, (10, 5)),
    ("m6Depth", "m6_depth", 1, (10, 4)), ("oracle", "oracle", 0, (10, 4)),
    ("oracleCut", "oracle_cut", 0, (2, 62)), ("homogeneity", "homogeneity", 0, (10, 5)),
)


@dataclass
class RunConfig:
    """Validated run configuration; every referenced expression parses and
    every descriptor satisfies its invariants before any run starts."""

    raw: dict
    domain: TailBox | None = None
    operator: DiagonalAffineOperator | None = None
    pair: FunctionSequencePair | None = None
    grid: SampleGrid = field(default_factory=SampleGrid)
    uniform_tol: float = 1e-6
    tol: float = 1e-9
    max_iter: int = 10_000
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER
    classic_k: float | None = None
    enforce_pair_checks: bool = True
    axiom_counts: AxiomCounts = field(default_factory=AxiomCounts)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "config root must be an object")
    cfg = RunConfig(raw=raw)
    if "set" in raw:
        cfg.domain = _parse_box(raw["set"], "set")
    if "operator" in raw:
        cfg.operator = _parse_operator(raw["operator"], "operator")
    if "pair" in raw:
        cfg.pair = _parse_pair(raw["pair"], "pair")
    cfg.grid = _parse_grid(raw.get("grid"), "grid")

    with _malformed("uniformTol"):
        cfg.uniform_tol = _number(raw.get("uniformTol", 1e-6))
    _require(cfg.uniform_tol > 0, "uniformTol must be positive")
    with _malformed("tol"):
        cfg.tol = _number(raw.get("tol", 1e-9))
    _require(cfg.tol > 0, "tol must be positive")
    with _malformed("maxIter"):
        cfg.max_iter = _number(raw.get("maxIter", 10_000), integral=True)
    # a step costs about 0.1 ms, and 0.13 KB of report plus 45 bytes per further margin
    _require(1 <= cfg.max_iter <= 10**5, "maxIter must lie in [1, 10**5]")
    if "nLadder" in raw:
        cfg.n_ladder = _parse_ladder(_list(raw, "nLadder"), "nLadder")
    if "classicK" in raw:
        with _malformed("classicK"):
            cfg.classic_k = _number(raw["classicK"])
        _require(0.0 <= cfg.classic_k < 1.0, "classicK must lie in [0, 1)")
    cfg.enforce_pair_checks = raw.get("enforcePairChecks", True)
    _require(isinstance(cfg.enforce_pair_checks, bool), "enforcePairChecks must be true or false")

    axioms = raw.get("axioms", {})
    _require(isinstance(axioms, dict), "axioms must be an object")
    defaults = AxiomCounts()
    with _malformed("axioms"):
        counts = {name: _number(axioms.get(key, getattr(defaults, name)), integral=True)
                  for key, name, _, _ in _AXIOM_COUNTS}
    for key, name, low, (base, power) in _AXIOM_COUNTS:
        bounds = f"[{low}, {base}**{power}]"
        _require(low <= counts[name] <= base**power, f"axioms.{key} must lie in {bounds}")
    # each M6 chain keeps m6Depth boxes alive, about 1.1 KB each
    _require(counts["m6_chains"] * counts["m6_depth"] <= 10**5,
             "axioms.m6Chains x m6Depth must be at most 10**5 boxes")
    cfg.axiom_counts = AxiomCounts(**counts)
    return cfg


def _base_report(command: str, cfg: RunConfig | None, seed: int | None) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "toolkitVersion": __version__,
        "command": command,
        "seed": seed,
        "config": cfg.raw if cfg is not None else None,
    }


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, the
    same text and the same errors, without the pure-Python encoder that
    json runs whenever ``indent`` is set.  Encoded keys are memoised for
    one call (every trace entry repeats them).  A float, dict, str, int,
    list or tuple subclass is written as its base type, like json does.
    Module functions, not nested closures: a call leaves no reference
    cycle behind."""
    return _json_value(obj, "\n", {})


def _json_key(k, keys: dict) -> str:
    if isinstance(k, str):
        keys[k] = text = encode_basestring_ascii(k)
        return text
    if k is None or isinstance(k, (float, int)):  # bool is an int
        return encode_basestring_ascii(_json_value(k, "", keys))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json_value(v, pad: str, keys: dict) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items = [(keys.get(k) or _json_key(k, keys)) + ": " + _json_value(x, inner, keys)
                 for k, x in sorted(v.items())]
        brackets = "{}"
    elif isinstance(v, (list, tuple)):
        items, brackets = [_json_value(x, inner, keys) for x in v], "[]"
    elif isinstance(v, str):
        return encode_basestring_ascii(v)
    elif v is None:
        return "null"
    elif v is True or v is False:
        return "true" if v else "false"
    elif isinstance(v, int):
        return int.__repr__(v)
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _emit(report: dict, out_path: str | None) -> None:
    """Write the report as strict JSON; a non-finite number in it (an
    overflowed margin, say) is an input error and nothing is written."""
    try:
        text = _json_text(report) + "\n"
    except ValueError as exc:
        raise ConfigError(f"report: {exc}") from exc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _certificate_exit(cert: Certificate) -> int:
    if cert.outcome == CERTIFIED:
        return EXIT_PASS
    if cert.outcome == REFUTED:
        return EXIT_FAIL
    return EXIT_UNDECIDED


def cmd_check_axioms(cfg: RunConfig, seed: int, out_path: str | None) -> int:
    results = run_axiom_suite(seed, cfg.axiom_counts)
    report = _base_report("check-axioms", cfg, seed)
    report["axioms"] = [r.to_dict() for r in results]
    report["allPassed"] = all(r.passed for r in results)
    _emit(report, out_path)
    return EXIT_PASS if report["allPassed"] else EXIT_FAIL


def cmd_check_pair(cfg: RunConfig, out_path: str | None) -> int:
    _require(cfg.pair is not None, "check-pair needs a pair in the config")
    reports = run_all_checks(cfg.pair, cfg.grid, cfg.uniform_tol)
    report = _base_report("check-pair", cfg, None)
    report["checks"] = {name: rep.to_dict() for name, rep in reports.items()}
    verdicts = [rep.verdict for rep in reports.values()]
    _emit(report, out_path)
    if FAIL in verdicts:
        return EXIT_FAIL
    if UNDECIDED in verdicts:
        return EXIT_UNDECIDED
    return EXIT_PASS


def cmd_certify(cfg: RunConfig, mode: str, out_path: str | None) -> int:
    _require(cfg.domain is not None, "certify needs a set in the config")
    _require(cfg.operator is not None, "certify needs an operator in the config")
    report = _base_report("certify", cfg, None)
    report["mode"] = mode
    if mode == "classic":
        _require(cfg.classic_k is not None, "classic mode needs classicK in the config")
        cert = classic_darbo_run(
            cfg.operator, cfg.domain, cfg.classic_k, cfg.tol, cfg.max_iter,
        )
    elif mode == "weak":
        _require(cfg.pair is not None, "weak mode needs a pair in the config")
        cert = weak_contraction_run(
            cfg.operator, cfg.domain, cfg.pair, cfg.tol, cfg.max_iter,
            cfg.n_ladder, grid=cfg.grid, require_pair_checks=cfg.enforce_pair_checks,
        )
    else:
        _require(cfg.pair is not None, f"{mode} mode needs a pair in the config")
        pair = cfg.pair
        if mode == "identity":
            psi = identity_pair()
            pair = replace(pair, psi_seq=psi.psi_seq, psi_limit=psi.psi_limit)
        cert = darbo_iterate(
            cfg.operator, cfg.domain, pair, cfg.tol, cfg.max_iter, cfg.n_ladder,
            grid=cfg.grid, uniform_tol=cfg.uniform_tol,
            require_pair_checks=cfg.enforce_pair_checks,
        )
    if cert.checks is not None:
        report["checks"] = {name: rep.to_dict() for name, rep in cert.checks.items()}
    report["certificate"] = cert.to_dict()
    _emit(report, out_path)
    return _certificate_exit(cert)


_DEMO_BOUND_NS = (1, 10, 100, 1_000, 1_000_000)


def cmd_demo(out_path: str | None) -> int:
    """Built-in scenario: the rational pair, the unit tail box and the
    half-scaling operator."""
    pair = demo_pair()
    box = unit_box()
    op = scaling_operator(0.5)
    bound = check_example_bound(pair, SampleGrid(), _DEMO_BOUND_NS)
    cert = darbo_iterate(op, box, pair, tol=1e-9)

    lines = []
    lines.append("pair checks")
    for name, rep in cert.checks.items():
        lines.append(f"  {name:<24} {rep.verdict}")
    lines.append("")
    lines.append("contraction bound table (max 2u-v over admissible grid pairs)")
    lines.append(f"  {'n':>8}  {'bound':>14}  {'max 2u-v':>14}")
    for n in _DEMO_BOUND_NS:
        row = bound.details["perN"][str(n)]
        lines.append(f"  {n:>8}  {row['bound']:>14.6e}  {row['maxLhs']:>14.6e}")
    lines.append("")
    lines.append(f"certificate: {cert.outcome} after {len(cert.trace) - 1} steps")
    lines.append("  step        mu")
    for step, state in enumerate(cert.trace):
        lines.append(f"  {step:>4}  {state.mu:.12e}")
    sys.stdout.write("\n".join(lines) + "\n")

    report = _base_report("demo", None, None)
    report["checks"] = {name: rep.to_dict() for name, rep in cert.checks.items()}
    report["contractionBound"] = bound.to_dict()
    report["certificate"] = cert.to_dict()
    report["muInitial"] = hausdorff_mnc(box)
    if out_path:
        _emit(report, out_path)

    # darbo_iterate raises unless every pair check passed
    code = _certificate_exit(cert)
    return EXIT_FAIL if code == EXIT_PASS and bound.verdict != PASS else code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darbocert",
        description="measure-of-noncompactness axiom checks, shifting-pair "
        "verification and certified fixed point iteration on tail boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ax = sub.add_parser("check-axioms", help="seeded randomized axiom suite")
    p_ax.add_argument("--config", help="JSON config path (optional)")
    p_ax.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in the report)")
    p_ax.add_argument("--out", help="write the JSON report here instead of stdout")

    p_pair = sub.add_parser("check-pair", help="shifting-distance checks for a pair")
    p_pair.add_argument("--config", required=True)
    p_pair.add_argument("--out")

    p_cert = sub.add_parser("certify", help="run the certified iteration")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--mode", choices=["main", "identity", "weak", "classic"], default="main")
    p_cert.add_argument("--out")

    p_demo = sub.add_parser("demo", help="built-in scenario, no config needed")
    p_demo.add_argument("--out")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "check-axioms":
            cfg = load_config(args.config) if args.config else parse_config({})
            code = cmd_check_axioms(cfg, args.seed, args.out)
        elif args.command == "check-pair":
            cfg = load_config(args.config)
            code = cmd_check_pair(cfg, args.out)
        elif args.command == "certify":
            cfg = load_config(args.config)
            code = cmd_certify(cfg, args.mode, args.out)
        else:
            code = cmd_demo(args.out)
    except (ConfigError, PreconditionError, MncError, OperatorError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # timing stays out of the report so identical configs give identical bytes
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
