"""Certified nested iteration A_{k+1} = Conv(T A_k) on tail boxes.

For the affine diagonal operator class the image of a box is a box, and
boxes are closed and convex, so the convex-hull step rewrites exactly to
the image itself and the measure chain mu(A_0) >= mu(A_1) >= ... is
computable in closed form.  Nesting is decided once, at step 0, by the
self-map check T A_0 within A_0; by induction A_{k+1} = T A_k within
T A_{k-1} = A_k holds after (Banas & Goebel, Measures of Noncompactness in
Banach Spaces, 1980, ch. 5).  Every step asserts the per-n contraction
inequality lhs_n(mu(TA)) <= rhs_n(mu(A)) on a ladder of n values and for
the limit functions, each side evaluated once for a whole block of steps.

Outcomes:

* CERTIFIED   mu fell below tol with every per-step check satisfied; the
              certified set chain witnesses a fixed point, and for
              contractive operators an explicit one is attached.
* REFUTED     a re-checkable violating tuple (step, n, lhs, rhs) exists.
* INCONCLUSIVE the iteration budget ran out, or an undeclared limit did not
              stabilise on the probe ladder (``details`` names the step and
              the expression and t involved); decay statistics and a limit
              estimate of the mu sequence are reported so that a stall far
              from zero is distinguishable from slow decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expr import BinOp, DivisionByZeroError, Expr, LimitDivergenceError, Num, Var
from .mnc import DEFAULT_HORIZON, TailBox, UndecidedComparisonError, hausdorff_mnc
from .operators import (
    FixedPointWitness,
    NotContractiveError,
    OperatorSpec,
    as_operator,
    fixed_point_witness,
    verify_self_map,
)
from .shifting import (
    FAIL,
    PASS,
    TIE_TOL,
    CheckReport,
    FunctionSequencePair,
    SampleGrid,
    check_equality_only_at_zero,
    first_partner,
    grid_table,
    limit_values,
    pair_table,
    run_all_checks,
)

__all__ = [
    "CERTIFIED", "REFUTED", "INCONCLUSIVE", "DEFAULT_ENGINE_LADDER", "PreconditionError",
    "IterationState", "Certificate", "darbo_iterate", "check_example_bound",
    "classic_darbo_run", "identity_pair", "weak_contraction_run",
]

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_ENGINE_LADDER = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)


class PreconditionError(ValueError):
    """A run precondition failed (not a refutation of the contraction)."""


@dataclass
class IterationState:
    """One step of the chain: the measure, the inequality margins
    (rhs - lhs, one per ladder n plus the limit pair), the nesting (decided
    at step 0, by induction after) and the running estimate of the measure
    sequence's limit."""

    step: int
    mu: float
    margins: dict[str, float]
    subset_ok: bool
    p_estimate: float | None

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "mu": self.mu,
            "margins": self.margins,
            "subsetOk": self.subset_ok,
            "pEstimate": self.p_estimate,
        }


@dataclass
class Certificate:
    outcome: str
    trace: list[IterationState]
    witness: FixedPointWitness | None = None
    refutation: dict | None = None
    p_estimate: float | None = None
    decay: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def mu_trace(self) -> list[float]:
        return [s.mu for s in self.trace]

    def to_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "head": list(self.witness.point.head),
                "tail": {
                    "terms": [
                        {"alpha": c, "rho": r} for c, r in self.witness.point.tail.terms
                    ],
                    "beta": self.witness.point.tail.constant,
                },
                "residual": self.witness.residual,
            }
        return {
            "outcome": self.outcome,
            "trace": [s.to_dict() for s in self.trace],
            "witness": witness,
            "refutation": self.refutation,
            "pEstimate": self.p_estimate,
            "decay": self.decay,
            "details": self.details,
        }


def _aitken_estimate(mus: list[float]) -> float:
    """Limit estimate of the measure sequence (Aitken delta-squared when
    usable, else the last value); exact geometric decay gives 0."""
    if len(mus) < 3:
        return mus[-1]
    a, b, c = mus[-3], mus[-2], mus[-1]
    denom = c - 2.0 * b + a
    if denom == 0.0:
        return c
    try:
        p = c - (c - b) ** 2 / denom
    except OverflowError:  # a float square past 1.8e308 raises, not inf
        return c
    if not np.isfinite(p):
        return c
    return max(0.0, p)


def _decay_stats(mus: list[float]) -> dict:
    ratios = [
        mus[k + 1] / mus[k] for k in range(len(mus) - 1) if mus[k] > 0.0
    ]
    recent = ratios[-10:]
    return {
        "steps": len(mus) - 1,
        "lastRatio": ratios[-1] if ratios else None,
        "meanRecentRatio": (sum(recent) / len(recent)) if recent else None,
    }


def _enforce_pair_checks(
    reports: dict[str, CheckReport], require: bool, context: str
) -> None:
    bad = [name for name, rep in reports.items() if rep.verdict != PASS]
    if not bad:
        return
    message = f"{context}: pair checks not all PASS: {', '.join(sorted(bad))}"
    if require:
        raise PreconditionError(message)
    warnings.warn(message + " (continuing: checks overridden)", stacklevel=3)


def _attach_witness(op) -> FixedPointWitness | None:
    try:
        return fixed_point_witness(op)
    except (NotContractiveError, UndecidedComparisonError):
        return None


# Most margin cells, steps x (ladder entries + 1), evaluated as one block.
_BLOCK_CELLS = 1 << 14


def _run_chain(
    op, domain: TailBox, lhs_seq: Expr, rhs_seq: Expr, lhs_limit: Expr | None,
    rhs_limit: Expr | None, tol: float, max_iter: int, n_ladder: tuple[int, ...],
    details: dict,
) -> Certificate:
    """The chain A_{k+1} = T A_k from a domain that ``verify_self_map``
    has shown to satisfy T A_0 within A_0.  Nesting then holds at every
    step by induction, and each step is decided from the measure alone:
    the image envelopes have asymptotic values d_beta * (lo_beta, hi_beta)
    (swapped when d is eventually negative; offsets tend to 0), so
    mu_{k+1} = |d_beta| * mu_k, bit for bit the measure of the image box,
    since float rounding is monotone and symmetric in sign.

    Steps are decided in blocks of at most ``_BLOCK_CELLS`` margin cells:
    the measures up to the first mu below ``tol`` or the budget, then one
    evaluation per side, the limit row above the ladder rows, all bit for
    bit a single step's values.  The first violating column refutes at its
    first violating row.  A block that raises is decided as its two halves
    in turn, so the first failing single step raises or ends the run
    INCONCLUSIVE as it would alone, after any earlier refutation or stop."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    mus = [hausdorff_mnc(domain).value]
    trace = [IterationState(0, mus[0], {}, True, None)]

    def finish(outcome: str, **extra) -> Certificate:
        extra = {"details": details, "p_estimate": _aitken_estimate(mus), **extra}
        return Certificate(outcome, trace, decay=_decay_stats(mus), **extra)

    if mus[0] < tol:
        # relatively compact entry case: certified without iterating
        return finish(CERTIFIED, witness=_attach_witness(op))

    keys = ["limit", *(f"n={n}" for n in n_ladder)]

    def decide(mu: np.ndarray) -> Certificate | None:
        """Decide the steps on from mu[0] = mu_k, k = len(mus) - 1; a returned
        certificate ends the run."""
        try:
            # Conv(TA) = TA: the image of a box is a closed convex box
            lhs_lim = limit_values(lhs_limit, lhs_seq, mu[1:])
            rhs_lim = limit_values(rhs_limit, rhs_seq, mu[:-1])
            lhs = np.vstack((lhs_lim, grid_table(lhs_seq, mu[1:], n_ladder)))
            rhs = np.vstack((rhs_lim, grid_table(rhs_seq, mu[:-1], n_ladder)))
        except (DivisionByZeroError, LimitDivergenceError) as exc:
            if mu.size > 2:
                half = mu.size // 2
                return decide(mu[: half + 1]) or decide(mu[half:])
            if isinstance(exc, DivisionByZeroError):
                raise
            # an undeclared limit that the ladder cannot estimate leaves the
            # step undecided; the trace ends with the last complete step
            reason = {"step": len(mus) - 1, "reason": str(exc)}
            return finish(INCONCLUSIVE, details={**details, **reason})
        violated = lhs > rhs + TIE_TOL
        bad = np.flatnonzero(violated.any(axis=0))
        end = bad[0] + 1 if bad.size else mu.size - 1
        margins = (rhs - lhs)[:, :end].T.tolist()
        for mu_image, row in zip(mu[1 : end + 1].tolist(), margins):
            mus.append(mu_image)
            p = _aitken_estimate(mus)
            trace.append(IterationState(len(mus) - 1, mu_image, dict(zip(keys, row)), True, p))
        if not bad.size:
            return None
        j = bad[0]
        i = int(violated[:, j].argmax())
        refutation = {"step": len(mus) - 2, "n": n_ladder[i - 1] if i else "limit",
                      "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}
        return finish(REFUTED, refutation=refutation)

    factor = abs(op.d.asym)
    span = max(1, _BLOCK_CELLS // len(keys))
    while len(mus) <= max_iter:
        # the measures in sequence, mu_{k+1} = factor * mu_k as a loop would
        mu = np.multiply.accumulate([mus[-1]] + [factor] * min(span, max_iter + 1 - len(mus)))
        low = np.flatnonzero(mu[1:] < tol)
        cert = decide(mu[: low[0] + 2] if low.size else mu)
        if cert is not None:
            return cert
        if low.size:
            return finish(CERTIFIED, witness=_attach_witness(op))
    return finish(INCONCLUSIVE)


def darbo_iterate(
    operator: OperatorSpec,
    domain: TailBox,
    pair: FunctionSequencePair,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER,
    *,
    grid: SampleGrid | None = None,
    horizon: int = DEFAULT_HORIZON,
    require_pair_checks: bool = True,
    pair_reports: dict[str, CheckReport] | None = None,
) -> Certificate:
    """Run the certified iteration with the contraction hypothesis
    psi_n(mu(TA)) <= phi_n(mu(A)).

    Preconditions: the operator maps the domain into itself, and the pair
    passes the full shifting-check battery (overridable with
    ``require_pair_checks=False``, which downgrades failures to a warning).
    """
    op = as_operator(operator)
    grid = grid or SampleGrid()
    if pair_reports is None:
        pair_reports = run_all_checks(pair, grid)
    _enforce_pair_checks(pair_reports, require_pair_checks, "darbo_iterate")
    if not verify_self_map(op, domain, horizon):
        raise PreconditionError("operator does not map the domain into itself")
    return _run_chain(
        op, domain, pair.psi_seq, pair.phi_seq, pair.psi_limit, pair.phi_limit,
        tol, max_iter, tuple(n_ladder), {"mode": "main"},
    )


def check_example_bound(
    pair: FunctionSequencePair,
    grid: SampleGrid,
    n_list: tuple[int, ...],
) -> CheckReport:
    """For every listed n and every grid pair (u, v) satisfying
    psi_n(u) <= phi_n(v), verify 2u - v <= (2n+1)/(n(n+1)) within the tie
    tolerance; additionally verify the bound decreases along n and that
    pairs satisfying the limit hypothesis obey 2u - v <= 0 (u <= v/2)."""
    t = grid.t_values()

    def max_lhs(psi: np.ndarray, phi: np.ndarray) -> tuple[float, int, int]:
        # the largest 2u - v of a row sits at its first partner v
        j = first_partner(psi, phi)
        has = j < t.size
        lhs = np.full(t.shape, -np.inf)
        lhs[has] = (2.0 * t)[has] - t[j[has]]
        i = int(lhs.argmax())
        return float(lhs[i]), i, int(j[i]) if has[i] else 0

    per_n: dict[str, dict] = {}
    counterexample = None
    bounds = []
    for n, psi, phi in zip(n_list, *pair_table(pair, t, n_list)):
        bound = float(Fraction(2 * n + 1, n * (n + 1)))
        bounds.append(bound)
        lhs, i, j = max_lhs(psi, phi)
        per_n[str(n)] = {"bound": bound, "maxLhs": lhs, "margin": bound - lhs}
        if counterexample is None and lhs > bound + TIE_TOL:
            counterexample = {
                "n": int(n),
                "u": float(t[i]),
                "v": float(t[j]),
                "lhs": lhs,
                "bound": bound,
            }
    details: dict = {"perN": per_n}
    details["boundDecreasing"] = all(
        b2 <= b1 + TIE_TOL for b1, b2 in zip(bounds, bounds[1:])
    )
    if not details["boundDecreasing"] and counterexample is None:
        counterexample = {"reason": "bound not decreasing along n"}

    if pair.psi_limit is not None and pair.phi_limit is not None:
        lhs, i, j = max_lhs(
            limit_values(pair.psi_limit, pair.psi_seq, t),
            limit_values(pair.phi_limit, pair.phi_seq, t),
        )
        details["limitMaxLhs"] = lhs
        if counterexample is None and lhs > TIE_TOL:
            counterexample = {
                "n": "limit",
                "u": float(t[i]),
                "v": float(t[j]),
                "lhs": lhs,
                "bound": 0.0,
            }
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport("contraction_bound", verdict, counterexample=counterexample, details=details)


def identity_pair(k: float | None = None) -> FunctionSequencePair:
    """psi_n = t (constant in n); phi_n = k*t when k is given, else t."""
    psi = Var("t")
    phi: Expr = Var("t") if k is None else BinOp("*", Num(Fraction(k)), Var("t"))
    return FunctionSequencePair(psi_seq=psi, phi_seq=phi, psi_limit=psi, phi_limit=phi)


def classic_darbo_run(
    operator: OperatorSpec,
    domain: TailBox,
    k: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER,
    *,
    grid: SampleGrid | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> Certificate:
    """Recover the constant-factor contraction condition mu(TA) <= k*mu(A)
    by running the iteration with psi_n = identity, phi_n = k * identity.

    The limit check of every step is exactly mu_{j+1} <= k * mu_j, so a
    certified trace satisfies it at every step."""
    if not 0.0 <= k < 1.0:
        raise PreconditionError(f"contraction constant {k} outside [0, 1)")
    cert = darbo_iterate(
        operator, domain, identity_pair(k), tol, max_iter, n_ladder,
        grid=grid, horizon=horizon,
    )
    cert.details = {"mode": "classic", "k": k}
    return cert


def weak_contraction_run(
    operator: OperatorSpec,
    domain: TailBox,
    pair: FunctionSequencePair,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER,
    *,
    grid: SampleGrid | None = None,
    horizon: int = DEFAULT_HORIZON,
    require_pair_checks: bool = True,
) -> Certificate:
    """Run the iteration under the weak-contraction inequality
    psi_n(mu(TA)) <= psi_n(mu(A)) - phi_n(mu(A)).

    Preconditions: the limit functions agree only at zero, and phi_n is
    nonnegative on the grid at every ladder n (phi maps into the
    nonnegative reals)."""
    op = as_operator(operator)
    grid = grid or SampleGrid()
    _enforce_pair_checks(
        {"equality_only_at_zero": check_equality_only_at_zero(pair, grid)},
        require_pair_checks, "weak_contraction_run",
    )
    phi_min = grid_table(pair.phi_seq, grid.t_values(), grid.n_ladder).min(axis=1)
    for n, low in zip(grid.n_ladder, phi_min):
        if low < -TIE_TOL:
            raise PreconditionError(f"phi_{n} takes negative values on the grid (min {float(low)})")
    if not verify_self_map(op, domain, horizon):
        raise PreconditionError("operator does not map the domain into itself")

    rhs_seq = BinOp("-", pair.psi_seq, pair.phi_seq)
    rhs_limit = None
    if pair.psi_limit is not None and pair.phi_limit is not None:
        rhs_limit = BinOp("-", pair.psi_limit, pair.phi_limit)
    return _run_chain(
        op, domain, pair.psi_seq, rhs_seq, pair.psi_limit, rhs_limit,
        tol, max_iter, tuple(n_ladder), {"mode": "weak"},
    )
