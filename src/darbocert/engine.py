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

Every run takes one ``DiagonalAffineOperator``; a composition is
materialised into one first, with ``operators.compose``.

Every run's preconditions are decided here, in one order: the ladder
budget, the grid gate, the pair checks, the self-map (classic runs, which
read no ladder, skip the first three).  A failure is a PreconditionError,
an input error and never a refutation.

Each step's margins are keyed by distinct columns: rows that are the same
(lhs, rhs) expression pair are one column, named after the first of them.

Outcomes:

* CERTIFIED   mu fell below tol with every per-step check satisfied; the
              certified set chain witnesses a fixed point, and for
              contractive operators an explicit one is attached.
* REFUTED     a re-checkable violating tuple (step, n, lhs, rhs) exists.
* INCONCLUSIVE the iteration budget ran out, or an undeclared limit did not
              stabilise on the probe ladder (``details`` names the step and
              the expression and t involved).  The certificate's ``factor``,
              the exact |d_beta| of mu_{k+1} = factor * mu_k, and the last
              mu tell a stall (factor 1) from slow decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .expr import BinOp, DivisionByZeroError, Expr, LimitDivergenceError, Num, Var, mentions_n
from .mnc import TailBox, UndecidedComparisonError, hausdorff_mnc
from .operators import (
    DiagonalAffineOperator,
    FixedPointWitness,
    NotContractiveError,
    fixed_point_witness,
    verify_self_map,
)
from .shifting import (
    _MAX_GRID_CELLS,
    PASS,
    TIE_TOL,
    CheckReport,
    FunctionSequencePair,
    SampleGrid,
    check_equality_only_at_zero,
    check_example_bound,
    grid_table,
    limit_values,
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
    """One step of the chain, its index in the trace: the measure and the
    inequality margins rhs - lhs, one per distinct column."""

    mu: float
    margins: dict[str, float]

    def to_dict(self) -> dict:
        return {"mu": self.mu, "margins": self.margins}


@dataclass
class Certificate:
    outcome: str
    trace: list[IterationState]
    factor: float  # |d_beta|, the exact ratio of mu_{k+1} = factor * mu_k
    witness: FixedPointWitness | None = None
    refutation: dict | None = None
    details: dict = field(default_factory=dict)
    checks: dict[str, CheckReport] | None = None  # the gating pair battery; not in to_dict

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
            "factor": self.factor,
            "details": self.details,
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


def _require_ladder_budget(n_ladder: tuple[int, ...], max_iter: int) -> None:
    """The chain decides at most one margin per ladder entry and step, and
    reports it."""
    if len(n_ladder) * max_iter > _MAX_GRID_CELLS:
        raise PreconditionError(
            f"nLadder entries x maxIter must be at most {_MAX_GRID_CELLS} margin cells"
        )


def _require_grid_covers(grid: SampleGrid, domain: TailBox) -> None:
    """The pair checks hold on the grid's points only, and every measure of
    the chain lies in [0, mu(A_0)]; a grid whose last point stops short of
    mu(A_0) is an input error, not a grid to extend.  The last point may
    lie below tMax (tMax 0.9 and step 0.3 end at 0.8999999999999999)."""
    mu_0 = hausdorff_mnc(domain)
    last = float(grid.t_values()[-1])
    if last < mu_0:
        where = f"grid tMax {grid.t_max}"
        if last != grid.t_max:
            where = f"grid's last point {last} (tMax {grid.t_max}, step {grid.step})"
        raise PreconditionError(f"{where} is below the domain's measure mu(A_0) = {mu_0}")


def _attach_witness(op: DiagonalAffineOperator) -> FixedPointWitness | None:
    try:
        return fixed_point_witness(op)
    except (NotContractiveError, UndecidedComparisonError):
        return None


# Most margin cells, steps x columns, evaluated as one block.
_BLOCK_CELLS = 1 << 14


def _run_chain(
    op: DiagonalAffineOperator, domain: TailBox, sides: FunctionSequencePair, tol: float,
    max_iter: int, n_ladder: tuple[int, ...], details: dict,
) -> Certificate:
    """The chain A_{k+1} = T A_k under lhs_n(mu(TA)) <= rhs_n(mu(A)), the
    sequences and limits of ``sides`` as psi (lhs) and phi (rhs).  It first
    checks the last precondition, T A_0 within A_0 (``verify_self_map``).
    Nesting then holds at every step by induction, and each step is
    decided from the measure alone:
    the image envelopes have asymptotic values d_beta * (lo_beta, hi_beta)
    (swapped when d is eventually negative; offsets tend to 0), so
    mu_{k+1} = |d_beta| * mu_k, bit for bit the measure of the image box,
    since float rounding is monotone and symmetric in sign.

    Each side is a table of one column per step and one row per margin
    column: the limit pair, then one per ladder n.  When neither sequence
    mentions n the ladder rows are one expression pair, so one row; it
    joins the limit row when both limits are declared and equal the
    sequences.  A merged row keeps its first row's name.

    Steps are decided in blocks of at most ``_BLOCK_CELLS`` margin cells:
    the measures up to the first mu below ``tol`` or the budget, then the
    two limit rows and the two ladder tables, in a single step's order and
    bit for bit its values.  The
    first violating step refutes at its first violating row.  A range
    of steps that raises is decided as its two halves in turn, so the
    first failing single step raises or ends the run INCONCLUSIVE as it
    would alone, after any earlier refutation or stop."""
    if not verify_self_map(op, domain):
        raise PreconditionError("operator does not map the domain into itself")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    lhs_seq, rhs_seq = sides.psi_seq, sides.phi_seq
    lhs_limit, rhs_limit = sides.psi_limit, sides.phi_limit
    factor = abs(op.d.asym)
    trace = [IterationState(hausdorff_mnc(domain), {})]

    def finish(outcome: str, **extra) -> Certificate:
        return Certificate(outcome, trace, factor, **{"details": details, **extra})

    if trace[0].mu < tol:
        # relatively compact entry case: certified without iterating
        return finish(CERTIFIED, witness=_attach_witness(op))

    ns = n_ladder
    if not (mentions_n(lhs_seq) or mentions_n(rhs_seq)):
        ns = () if (lhs_limit, rhs_limit) == (lhs_seq, rhs_seq) else n_ladder[:1]
    keys = ["limit", *(f"n={n}" for n in ns)]
    span = max(1, _BLOCK_CELLS // len(keys))
    while len(trace) <= max_iter:
        # the measures in sequence, mu_{k+1} = factor * mu_k as a loop would
        mu = np.multiply.accumulate([trace[-1].mu] + [factor] * min(span, max_iter + 1 - len(trace)))
        low = np.flatnonzero(mu[1:] < tol)
        if low.size:
            mu = mu[: low[0] + 2]
        ranges = [(0, mu.size - 1)]  # steps mu[a] -> mu[a + 1], ..., mu[b - 1] -> mu[b]
        while ranges:
            a, b = ranges.pop()
            try:
                # Conv(TA) = TA: the image of a box is a closed convex box
                lhs = [limit_values(lhs_limit, lhs_seq, mu[a + 1 : b + 1])]
                rhs = [limit_values(rhs_limit, rhs_seq, mu[a:b])]
                if ns:
                    lhs.append(grid_table(lhs_seq, mu[a + 1 : b + 1], ns))
                    rhs.append(grid_table(rhs_seq, mu[a:b], ns))
                lhs, rhs = np.vstack(lhs), np.vstack(rhs)
            except (DivisionByZeroError, LimitDivergenceError) as exc:
                if b - a > 1:
                    half = a + (b - a + 1) // 2
                    ranges += [(half, b), (a, half)]
                    continue
                if isinstance(exc, DivisionByZeroError):
                    raise
                # an undeclared limit that the ladder cannot estimate leaves
                # the step undecided; the trace ends with the last complete step
                reason = {"step": len(trace) - 1, "reason": str(exc)}
                return finish(INCONCLUSIVE, details={**details, **reason})
            violated = lhs > rhs + TIE_TOL
            bad = np.flatnonzero(violated.any(axis=0))
            end = bad[0] + 1 if bad.size else b - a
            margins = (rhs - lhs)[:, :end].T.tolist()
            for mu_image, row in zip(mu[a + 1 : a + 1 + end].tolist(), margins):
                trace.append(IterationState(mu_image, dict(zip(keys, row))))
            if bad.size:
                j = bad[0]
                i = int(violated[:, j].argmax())
                refutation = {"step": len(trace) - 2, "n": ns[i - 1] if i else "limit",
                              "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}
                return finish(REFUTED, refutation=refutation)
        if low.size:
            return finish(CERTIFIED, witness=_attach_witness(op))
    return finish(INCONCLUSIVE)


def darbo_iterate(
    operator: DiagonalAffineOperator,
    domain: TailBox,
    pair: FunctionSequencePair,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER,
    *,
    grid: SampleGrid | None = None,
    uniform_tol: float = 1e-6,
    require_pair_checks: bool = True,
) -> Certificate:
    """Run the certified iteration with the contraction hypothesis
    psi_n(mu(TA)) <= phi_n(mu(A)).

    Preconditions, in order: at most ``_MAX_GRID_CELLS`` ladder entries x
    ``max_iter`` margin cells; the grid's last point reaches mu(A_0); the
    pair passes the full shifting battery at ``uniform_tol`` (overridable
    with ``require_pair_checks=False``, which downgrades failures to a
    warning); the self-map.  The battery is the certificate's ``checks``.
    """
    n_ladder = tuple(n_ladder)
    _require_ladder_budget(n_ladder, max_iter)
    grid = grid or SampleGrid()
    _require_grid_covers(grid, domain)
    checks = run_all_checks(pair, grid, uniform_tol)
    _enforce_pair_checks(checks, require_pair_checks, "darbo_iterate")
    cert = _run_chain(
        operator, domain, pair, tol, max_iter, n_ladder, {"mode": "main"}
    )
    cert.checks = checks
    return cert


def identity_pair(k: float | None = None) -> FunctionSequencePair:
    """psi_n = t (constant in n); phi_n = k*t when k is given, else t."""
    psi = Var("t")
    phi: Expr = Var("t") if k is None else BinOp("*", Num(Fraction(k)), Var("t"))
    return FunctionSequencePair(psi_seq=psi, phi_seq=phi, psi_limit=psi, phi_limit=phi)


def classic_darbo_run(
    operator: DiagonalAffineOperator,
    domain: TailBox,
    k: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> Certificate:
    """Recover the constant-factor condition mu(TA) <= k*mu(A) by running
    the chain with psi_n = t, phi_n = k*t.

    Preconditions: 0 <= k < 1 and the self-map.  No grid gate or pair
    check runs: for k < 1 all five checks hold exactly for (t, k*t) on
    [0, inf), as it is constant in n and its own limit, u <= k*v implies
    u <= v, and t <= k*t only at t = 0, so a grid could only add false
    FAILs (a tMax below mu(A_0), or (1 - k)*t below the tie tolerance).
    Its limits are its sequences, so the chain reads no ladder and has the
    one column ``limit``, mu_{j+1} <= k*mu_j exactly."""
    if not 0.0 <= k < 1.0:
        raise PreconditionError(f"contraction constant {k} outside [0, 1)")
    return _run_chain(
        operator, domain, identity_pair(k), tol, max_iter, (),
        {"mode": "classic", "k": k},
    )


def weak_contraction_run(
    operator: DiagonalAffineOperator,
    domain: TailBox,
    pair: FunctionSequencePair,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    n_ladder: tuple[int, ...] = DEFAULT_ENGINE_LADDER,
    *,
    grid: SampleGrid | None = None,
    require_pair_checks: bool = True,
) -> Certificate:
    """Run the iteration under the weak-contraction inequality
    psi_n(mu(TA)) <= psi_n(mu(A)) - phi_n(mu(A)).

    Preconditions, in order: the ladder budget and the grid gate, as in
    ``darbo_iterate``; the limit functions agree only at zero; phi_n >= 0
    on the grid at every n of the grid's ladder and of the chain's, where
    the inequality is asserted (phi maps into the nonnegative reals), one
    row at a time in ascending n and as one row when phi does not mention
    n; the self-map."""
    n_ladder = tuple(n_ladder)
    _require_ladder_budget(n_ladder, max_iter)
    grid = grid or SampleGrid()
    _require_grid_covers(grid, domain)
    _enforce_pair_checks(
        {"equality_only_at_zero": check_equality_only_at_zero(pair, grid)},
        require_pair_checks, "weak_contraction_run",
    )
    t = grid.t_values()
    ns = sorted({*grid.n_ladder, *n_ladder})
    for n in ns if mentions_n(pair.phi_seq) else ns[:1]:
        low = grid_table(pair.phi_seq, t, (n,)).min()
        if low < -TIE_TOL:
            raise PreconditionError(f"phi_{n} takes negative values on the grid (min {float(low)})")

    rhs_limit = None
    if pair.psi_limit is not None and pair.phi_limit is not None:
        rhs_limit = BinOp("-", pair.psi_limit, pair.phi_limit)
    sides = replace(pair, phi_seq=BinOp("-", pair.psi_seq, pair.phi_seq), phi_limit=rhs_limit)
    return _run_chain(
        operator, domain, sides, tol, max_iter, n_ladder, {"mode": "weak"}
    )
