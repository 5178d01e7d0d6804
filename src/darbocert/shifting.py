"""Desk-scale verification of shifting-distance conditions for a pair of
function sequences (psi_n, phi_n) and their limit pair (psi, phi).

All checks are grid searches: a FAIL verdict always carries a
counterexample that re-evaluates to a violation, while PASS means "no
falsification found on the grid", not a proof.  Condition (ii) is probed
on constant sequences u_k = v_k = w, which are admissible sequences, so a
hit genuinely falsifies the condition.

The defining implication "psi_n(u) <= phi_n(v) -> psi(u) <= phi(v)
uniformly in n, then u <= v" admits a per-n and an in-the-limit reading of
the hypothesis; both are checked and reported separately rather than
guessing the intended one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .expr import Expr, LimitDivergenceError, eval_expr, limit_in_n, mentions_n

__all__ = [
    "PASS",
    "FAIL",
    "UNDECIDED",
    "TIE_TOL",
    "FunctionSequencePair",
    "SampleGrid",
    "CheckReport",
    "grid_table",
    "limit_values",
    "first_partner",
    "check_uniform_convergence",
    "check_monotone_in_n",
    "check_condition_i",
    "check_condition_ii",
    "check_equality_only_at_zero",
    "check_example_bound",
    "run_all_checks",
]

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"

# Double-precision noise floor used for every strict/non-strict tie.
TIE_TOL = 1e-12

_DEFAULT_LADDER = tuple(2**j for j in range(21))

# Largest [n, t] table (ladder length x grid points) a grid may ask for:
# the battery holds two tables of this size and a few temporaries; weak
# mode evaluates phi one n at a time.
_MAX_GRID_CELLS = 10_000_000


@dataclass(frozen=True)
class FunctionSequencePair:
    """psi_n, phi_n as expressions in (n, t), with optional declared limit
    expressions in t alone."""

    psi_seq: Expr
    phi_seq: Expr
    psi_limit: Expr | None = None
    phi_limit: Expr | None = None


@dataclass(frozen=True)
class SampleGrid:
    """Check grid: t in {0, step, 2*step, ..., <= t_max}, n over a ladder."""

    t_max: float = 100.0
    step: float = 0.1
    n_ladder: tuple[int, ...] = _DEFAULT_LADDER

    def __post_init__(self):
        if not (np.isfinite(self.t_max) and np.isfinite(self.step)):
            raise ValueError(f"t_max and step must be finite, got {self.t_max} and {self.step}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.t_max < self.step:
            raise ValueError("t_max must be at least one step")
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder or any(n < 1 for n in ladder) or list(ladder) != sorted(set(ladder)):
            raise ValueError("n ladder must be strictly increasing integers >= 1")
        object.__setattr__(self, "n_ladder", ladder)
        points = self._point_count()
        if len(ladder) * points > _MAX_GRID_CELLS:
            raise ValueError(
                f"{len(ladder)} ladder entries x {points:.0f} points "
                f"is more than {_MAX_GRID_CELLS} table cells"
            )

    def _point_count(self) -> float:
        # a float, so that a count past the int range still compares
        return np.floor(self.t_max / self.step + 1e-9) + 1

    def t_values(self) -> np.ndarray:
        return np.arange(int(self._point_count())) * self.step


@dataclass
class CheckReport:
    """Outcome of one check.  FAIL implies a counterexample that can be
    re-verified by direct expression evaluation."""

    name: str
    verdict: str
    counterexample: dict | None = None
    sup_errors: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "supErrors": self.sup_errors,
            "details": self.details,
        }


def grid_table(e: Expr, t: np.ndarray, ns: tuple[int, ...]) -> np.ndarray:
    """[n, t] table of e at every n of ``ns`` in one broadcast evaluation,
    each row on the whole grid (also for expressions constant in t or n).
    The table may be a read-only view."""
    n_column = np.array(ns, dtype=float)[:, None]
    return np.broadcast_to(eval_expr(e, t, n_column), (len(ns), t.size))


def limit_values(declared: Expr | None, seq: Expr, t):
    """Limit in n of ``seq`` at t, a scalar or an array: the declared limit
    expression broadcast to the shape of t when there is one, otherwise the
    ``limit_in_n`` estimate (tolerance ``expr.LIMIT_TOL``)."""
    if declared is None:
        return limit_in_n(seq, t)
    return np.broadcast_to(eval_expr(declared, t, 1.0), np.shape(t))


def _ladder_rows(pair: FunctionSequencePair, ns: tuple[int, ...]) -> tuple[int, ...]:
    """The ladder entries whose rows differ: all of ``ns``, or only its
    first entry when neither sequence mentions n, since every row is then
    that row."""
    if mentions_n(pair.psi_seq) or mentions_n(pair.phi_seq):
        return ns
    return ns[:1]


class _PairEvaluation:
    """A pair on one grid, each piece built on first use and kept: the
    points t, the two limit rows and the [n, t] tables of psi_n and phi_n
    over ``_ladder_rows`` of ``ladder``, the grid's own ladder when it is
    None.  A limit that does not stabilise leaves the limit rows None, for
    every reader, and its message in ``undecided``; ``_undecided`` is the
    report of a check that needs them.  ``run_all_checks`` hands one to
    each check as ``_evaluation``; a check called alone builds its own, and
    ``check_example_bound`` builds one over its n list."""

    def __init__(
        self, pair: FunctionSequencePair, grid: SampleGrid, ladder: tuple[int, ...] | None = None
    ):
        self.pair = pair
        self.t = grid.t_values()
        self.rows = _ladder_rows(pair, grid.n_ladder if ladder is None else ladder)
        self.undecided: str | None = None
        self._limits: tuple[np.ndarray, np.ndarray] | None = None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def limits(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self._limits is None and self.undecided is None:
            p = self.pair
            try:
                self._limits = (limit_values(p.psi_limit, p.psi_seq, self.t),
                                limit_values(p.phi_limit, p.phi_seq, self.t))
            except LimitDivergenceError as exc:
                self.undecided = str(exc)
        return self._limits

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tables is None:
            psi, phi = self.pair.psi_seq, self.pair.phi_seq
            self._tables = grid_table(psi, self.t, self.rows), grid_table(phi, self.t, self.rows)
        return self._tables


def _undecided(name: str, ev: _PairEvaluation) -> CheckReport:
    return CheckReport(name, UNDECIDED, details={"reason": ev.undecided})


def first_partner(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """For each grid index i, the first grid index j with psi[i] <= phi[j],
    or len(phi) when there is none.  On an increasing grid that j is also
    the smallest admissible v for u = t[i].  A NaN phi counts as -inf, a
    NaN psi has no partner."""
    reach = np.fmax.accumulate(phi)
    reach[np.isnan(reach)] = -np.inf
    return np.searchsorted(reach, psi)


def check_uniform_convergence(
    pair: FunctionSequencePair, grid: SampleGrid, tol: float,
    *, _evaluation: _PairEvaluation | None = None,
) -> CheckReport:
    """Per ladder n, the grid sup of |psi_n - psi| and |phi_n - phi|.

    PASS iff both sup sequences are nonincreasing along the ladder (within
    the tie tolerance) and fall below ``tol`` at the largest n.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ev = _evaluation or _PairEvaluation(pair, grid)
    t = ev.t
    if (limits := ev.limits()) is None:
        return _undecided("uniform_convergence", ev)
    psi_lim, phi_lim = limits
    ladder = grid.n_ladder
    sups, argmax = {}, {}
    for which, table, lim in zip(("psi", "phi"), ev.tables(), (psi_lim, phi_lim)):
        err = table - lim
        np.abs(err, out=err)
        # one row stands for every ladder n when the pair does not mention n
        sups[which] = np.broadcast_to(err.max(axis=1), len(ladder))
        argmax[which] = np.broadcast_to(t[err.argmax(axis=1)], len(ladder))
    sup_errors = {
        which: {str(n): float(e) for n, e in zip(ladder, sup)} for which, sup in sups.items()
    }

    def fail(reason: str, **counterexample) -> CheckReport:
        return CheckReport(
            "uniform_convergence", FAIL, counterexample=counterexample,
            sup_errors=sup_errors, details={"reason": reason},
        )

    for which, sup in sups.items():
        rising = np.flatnonzero(sup[1:] > sup[:-1] + TIE_TOL)
        if rising.size:
            k = int(rising[0]) + 1
            return fail(
                "sup errors not nonincreasing", which=which, nPrev=ladder[k - 1], n=ladder[k],
                supPrev=float(sup[k - 1]), sup=float(sup[k]), t=float(argmax[which][k]),
            )
        if sup[-1] >= tol:
            return fail(
                "sup error above tol at largest ladder n", which=which, n=ladder[-1],
                sup=float(sup[-1]), tol=tol, t=float(argmax[which][-1]),
            )
    return CheckReport("uniform_convergence", PASS, sup_errors=sup_errors)


def check_monotone_in_n(
    pair: FunctionSequencePair, grid: SampleGrid,
    *, _evaluation: _PairEvaluation | None = None,
) -> CheckReport:
    """PASS iff psi_n <= psi_next and phi_n >= phi_next at every grid t for
    consecutive ladder entries, within the tie tolerance."""
    ev = _evaluation or _PairEvaluation(pair, grid)
    t = ev.t
    psi, phi = ev.tables()
    # [k, which, j]: psi falling or phi rising from ladder entry k to k + 1;
    # a pair that does not mention n has one row and so no such k
    bad = np.stack((psi[:-1] > psi[1:] + TIE_TOL, phi[:-1] < phi[1:] - TIE_TOL), axis=1)
    if not bad.any():
        return CheckReport("monotone_in_n", PASS)
    k, w, j = (int(x) for x in np.argwhere(bad)[0])
    which, table, reason = (
        ("psi", psi, "psi_n must be nondecreasing in n"),
        ("phi", phi, "phi_n must be nonincreasing in n"),
    )[w]
    return CheckReport(
        "monotone_in_n",
        FAIL,
        counterexample={
            "which": which,
            "t": float(t[j]),
            "n": grid.n_ladder[k],
            "nNext": grid.n_ladder[k + 1],
            "value": float(table[k, j]),
            "valueNext": float(table[k + 1, j]),
        },
        details={"reason": reason},
    )


def _first_violation(
    psi: np.ndarray, phi: np.ndarray, below: np.ndarray
) -> tuple[int, int] | None:
    """First (i, j) in row-major order with j < below[i] and
    psi[n, i] <= phi[n, j] on every row n of the [n, t] tables.

    No j before the latest first partner over the rows can qualify, so
    only rows where that partner lies below ``below`` are scanned, each
    over the columns in between: O(n * t) memory."""
    start = np.max([first_partner(p, f) for p, f in zip(psi, phi)], axis=0)
    for i in np.flatnonzero(start < below):
        hits = (psi[:, i, None] <= phi[:, start[i]:below[i]]).all(axis=0)
        if hits.any():
            return int(i), int(start[i] + hits.argmax())
    return None


def _first_index(mask: np.ndarray) -> tuple[int] | None:
    hits = np.flatnonzero(mask)
    return (int(hits[0]),) if hits.size else None


def _condition_report(
    name: str,
    readings: dict[str, tuple[int, ...] | None],
    make_witness: Callable[..., dict],
) -> CheckReport:
    """Verdict over the limit and per-n readings, each given by the grid
    indices of its first violation (None when there is none); the witness
    builder gets the reading and those indices."""
    details: dict[str, str] = {}
    counterexample = None
    for reading in ("limit", "perN"):
        found = readings[reading]
        details[f"{reading}Reading"] = PASS if found is None else FAIL
        if found is not None and counterexample is None:
            counterexample = make_witness(reading, *found)
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport(name, verdict, counterexample=counterexample, details=details)


def check_condition_i(
    pair: FunctionSequencePair, grid: SampleGrid,
    *, _evaluation: _PairEvaluation | None = None,
) -> CheckReport:
    """Search for (u, v) with the shifting hypothesis satisfied but
    u > v + tie: a grid-complete falsification of condition (i)."""
    ev = _evaluation or _PairEvaluation(pair, grid)
    t = ev.t
    if (limits := ev.limits()) is None:
        return _undecided("condition_i", ev)
    psi_lim, phi_lim = limits
    below = np.searchsorted(t + TIE_TOL, t)  # u > v + tie exactly for v < t[below[u]]
    readings = {
        "limit": _first_violation(psi_lim[None], phi_lim[None], below),
        "perN": _first_violation(*ev.tables(), below),
    }

    def witness(reading: str, i: int, j: int) -> dict:
        u, v = float(t[i]), float(t[j])
        w: dict = {"reading": reading, "u": u, "v": v}
        if reading == "limit":
            w["psiU"] = float(psi_lim[i])
            w["phiV"] = float(phi_lim[j])
        return w

    return _condition_report("condition_i", readings, witness)


def check_condition_ii(
    pair: FunctionSequencePair, grid: SampleGrid,
    *, _evaluation: _PairEvaluation | None = None,
) -> CheckReport:
    """Probe condition (ii) with constant sequences u_k = v_k = w > 0: any
    grid w > 0 satisfying the hypothesis falsifies the condition."""
    ev = _evaluation or _PairEvaluation(pair, grid)
    t = ev.t
    if (limits := ev.limits()) is None:
        return _undecided("condition_ii", ev)
    psi_lim, phi_lim = limits
    positive = t > TIE_TOL
    psi, phi = ev.tables()
    readings = {
        "limit": _first_index((psi_lim <= phi_lim) & positive),
        "perN": _first_index((psi <= phi).all(axis=0) & positive),
    }

    def witness(reading: str, i: int) -> dict:
        return {
            "reading": reading,
            "w": float(t[i]),
            "psiW": float(psi_lim[i]),
            "phiW": float(phi_lim[i]),
        }

    return _condition_report("condition_ii", readings, witness)


def check_equality_only_at_zero(
    pair: FunctionSequencePair, grid: SampleGrid,
    *, _evaluation: _PairEvaluation | None = None,
) -> CheckReport:
    """PASS iff the limit functions agree at 0 and differ at every grid
    point > 0 (the hypothesis of the weak-contraction run)."""
    ev = _evaluation or _PairEvaluation(pair, grid)
    t = ev.t
    if (limits := ev.limits()) is None:
        return _undecided("equality_only_at_zero", ev)
    psi_lim, phi_lim = limits
    diff = np.abs(psi_lim - phi_lim)
    if diff[0] > TIE_TOL:
        return CheckReport(
            "equality_only_at_zero",
            FAIL,
            counterexample={"w": 0.0, "psi": float(psi_lim[0]), "phi": float(phi_lim[0])},
            details={"reason": "limits differ at zero"},
        )
    equal = (diff <= TIE_TOL) & (t > TIE_TOL)
    if equal.any():
        i = int(np.nonzero(equal)[0][0])
        return CheckReport(
            "equality_only_at_zero",
            FAIL,
            counterexample={"w": float(t[i]), "psi": float(psi_lim[i]), "phi": float(phi_lim[i])},
            details={"reason": "limits agree away from zero"},
        )
    return CheckReport("equality_only_at_zero", PASS)


def check_example_bound(
    pair: FunctionSequencePair, grid: SampleGrid, n_list: tuple[int, ...]
) -> CheckReport:
    """For every listed n and every grid pair (u, v) satisfying
    psi_n(u) <= phi_n(v), verify 2u - v <= (2n+1)/(n(n+1)) within the tie
    tolerance; additionally verify that the exact bound does not rise
    along the list, and that pairs satisfying the limit hypothesis obey
    2u - v <= 0 (u <= v/2).  The pair is evaluated once over ``n_list``,
    as ``_PairEvaluation`` does for the battery."""
    ev = _PairEvaluation(pair, grid, n_list)
    t = ev.t

    def max_lhs(psi: np.ndarray, phi: np.ndarray) -> tuple[float, int, int]:
        # the largest 2u - v of a row sits at its first partner v
        j = first_partner(psi, phi)
        has = j < t.size
        lhs = np.full(t.shape, -np.inf)
        lhs[has] = (2.0 * t)[has] - t[j[has]]
        i = int(lhs.argmax())
        return float(lhs[i]), i, int(j[i]) if has[i] else 0

    def violation(n, lhs: float, i: int, j: int, bound: float) -> dict:
        return {"n": n, "u": float(t[i]), "v": float(t[j]), "lhs": lhs, "bound": bound}

    maxima = [max_lhs(psi, phi) for psi, phi in zip(*ev.tables())]
    if len(ev.rows) < len(n_list):
        # the pair does not mention n: its one row stands for every n
        maxima *= len(n_list)
    per_n: dict[str, dict] = {}
    counterexample = None
    bounds = []
    for n, (lhs, i, j) in zip(n_list, maxima):
        bounds.append(Fraction(2 * n + 1, n * (n + 1)))
        bound = float(bounds[-1])
        per_n[str(n)] = {"bound": bound, "maxLhs": lhs, "margin": bound - lhs}
        if counterexample is None and lhs > bound + TIE_TOL:
            counterexample = violation(int(n), lhs, i, j, bound)
    decreasing = all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))  # exact, no tie tolerance
    details: dict = {"perN": per_n, "boundDecreasing": decreasing}
    if not decreasing and counterexample is None:
        counterexample = {"reason": "bound not decreasing along n"}

    # declared limits are evaluated, never estimated, so they are never None
    if pair.psi_limit is not None and pair.phi_limit is not None:
        lhs, i, j = max_lhs(*ev.limits())
        details["limitMaxLhs"] = lhs
        if counterexample is None and lhs > TIE_TOL:
            counterexample = violation("limit", lhs, i, j, 0.0)
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport("contraction_bound", verdict, counterexample=counterexample, details=details)


def run_all_checks(
    pair: FunctionSequencePair, grid: SampleGrid, uniform_tol: float = 1e-6
) -> dict[str, CheckReport]:
    """The full battery, in a fixed order, over one evaluation of the pair
    on the grid: each check reads what it needs of it, so the battery
    reports and raises what the checks called alone would."""
    ev = _PairEvaluation(pair, grid)
    return {
        "uniform_convergence": check_uniform_convergence(pair, grid, uniform_tol, _evaluation=ev),
        "monotone_in_n": check_monotone_in_n(pair, grid, _evaluation=ev),
        "condition_i": check_condition_i(pair, grid, _evaluation=ev),
        "condition_ii": check_condition_ii(pair, grid, _evaluation=ev),
        "equality_only_at_zero": check_equality_only_at_zero(pair, grid, _evaluation=ev),
    }
