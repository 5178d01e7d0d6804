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
from typing import Callable

import numpy as np

from .expr import Expr, LimitDivergenceError, eval_expr, unparse

__all__ = [
    "PASS",
    "FAIL",
    "UNDECIDED",
    "TIE_TOL",
    "FunctionSequencePair",
    "SampleGrid",
    "CheckReport",
    "check_uniform_convergence",
    "check_monotone_in_n",
    "check_condition_i",
    "check_condition_ii",
    "check_equality_only_at_zero",
    "run_all_checks",
]

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"

# Double-precision noise floor used for every strict/non-strict tie.
TIE_TOL = 1e-12

_DEFAULT_LADDER = tuple(2**j for j in range(21))


@dataclass(frozen=True)
class FunctionSequencePair:
    """psi_n, phi_n as expressions in (n, t), with optional declared limit
    expressions in t alone."""

    psi_seq: Expr
    phi_seq: Expr
    psi_limit: Expr | None = None
    phi_limit: Expr | None = None

    def describe(self) -> dict:
        return {
            "psiSeq": unparse(self.psi_seq),
            "phiSeq": unparse(self.phi_seq),
            "psiLimit": unparse(self.psi_limit) if self.psi_limit is not None else None,
            "phiLimit": unparse(self.phi_limit) if self.phi_limit is not None else None,
        }


@dataclass(frozen=True)
class SampleGrid:
    """Check grid: t in {0, step, 2*step, ..., <= t_max}, n over a ladder."""

    t_max: float = 100.0
    step: float = 0.1
    n_ladder: tuple[int, ...] = _DEFAULT_LADDER

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.t_max < self.step:
            raise ValueError("t_max must be at least one step")
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder or any(n < 1 for n in ladder) or list(ladder) != sorted(set(ladder)):
            raise ValueError("n ladder must be strictly increasing integers >= 1")
        object.__setattr__(self, "n_ladder", ladder)

    def t_values(self) -> np.ndarray:
        count = int(np.floor(self.t_max / self.step + 1e-9)) + 1
        return np.arange(count) * self.step


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


_LIMIT_LADDER = tuple(2**j for j in range(4, 41))


def _estimate_limit_on_grid(e: Expr, t: np.ndarray, tol: float) -> np.ndarray:
    """Vectorised pointwise limit estimate on the dyadic n ladder; raises
    LimitDivergenceError if any grid point fails to stabilise."""
    result = np.empty_like(t)
    unresolved = np.ones(t.shape, dtype=bool)
    prev = np.asarray(eval_expr(e, t, float(_LIMIT_LADDER[0])), dtype=float)
    for n in _LIMIT_LADDER[1:]:
        cur = np.asarray(eval_expr(e, t, float(n)), dtype=float)
        newly = unresolved & (np.abs(cur - prev) < tol)
        result[newly] = cur[newly]
        unresolved &= ~newly
        if not unresolved.any():
            return result
        prev = cur
    bad = float(t[np.nonzero(unresolved)[0][0]])
    raise LimitDivergenceError(
        f"{unparse(e)!r} does not stabilise in n at t={bad} (tol={tol})"
    )


def _limits_on_grid(
    pair: FunctionSequencePair, t: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Limit values on the grid: declared expressions when present,
    otherwise numerical estimates."""
    if pair.psi_limit is not None:
        psi = np.asarray(eval_expr(pair.psi_limit, t, 1.0), dtype=float)
        psi = np.broadcast_to(psi, t.shape).astype(float)
    else:
        psi = _estimate_limit_on_grid(pair.psi_seq, t, tol)
    if pair.phi_limit is not None:
        phi = np.asarray(eval_expr(pair.phi_limit, t, 1.0), dtype=float)
        phi = np.broadcast_to(phi, t.shape).astype(float)
    else:
        phi = _estimate_limit_on_grid(pair.phi_seq, t, tol)
    return psi, phi


def _seq_values(e: Expr, t: np.ndarray, n: int) -> np.ndarray:
    vals = np.asarray(eval_expr(e, t, float(n)), dtype=float)
    return np.broadcast_to(vals, t.shape).astype(float)


def check_uniform_convergence(
    pair: FunctionSequencePair, grid: SampleGrid, tol: float
) -> CheckReport:
    """Per ladder n, the grid sup of |psi_n - psi| and |phi_n - phi|.

    PASS iff both sup sequences are nonincreasing along the ladder (within
    the tie tolerance) and fall below ``tol`` at the largest n.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = grid.t_values()
    try:
        psi_lim, phi_lim = _limits_on_grid(pair, t)
    except LimitDivergenceError as exc:
        return CheckReport("uniform_convergence", UNDECIDED, details={"reason": str(exc)})
    sup_errors: dict[str, dict[str, float]] = {"psi": {}, "phi": {}}
    argmax: dict[str, dict[int, float]] = {"psi": {}, "phi": {}}
    for n in grid.n_ladder:
        err_psi = np.abs(_seq_values(pair.psi_seq, t, n) - psi_lim)
        err_phi = np.abs(_seq_values(pair.phi_seq, t, n) - phi_lim)
        sup_errors["psi"][str(n)] = float(err_psi.max())
        sup_errors["phi"][str(n)] = float(err_phi.max())
        argmax["psi"][n] = float(t[int(err_psi.argmax())])
        argmax["phi"][n] = float(t[int(err_phi.argmax())])

    for which in ("psi", "phi"):
        sups = [sup_errors[which][str(n)] for n in grid.n_ladder]
        for k in range(1, len(sups)):
            if sups[k] > sups[k - 1] + TIE_TOL:
                n_prev, n = grid.n_ladder[k - 1], grid.n_ladder[k]
                return CheckReport(
                    "uniform_convergence",
                    FAIL,
                    counterexample={
                        "which": which,
                        "nPrev": n_prev,
                        "n": n,
                        "supPrev": sups[k - 1],
                        "sup": sups[k],
                        "t": argmax[which][n],
                    },
                    sup_errors=sup_errors,
                    details={"reason": "sup errors not nonincreasing"},
                )
        if sups[-1] >= tol:
            n = grid.n_ladder[-1]
            return CheckReport(
                "uniform_convergence",
                FAIL,
                counterexample={
                    "which": which,
                    "n": n,
                    "sup": sups[-1],
                    "tol": tol,
                    "t": argmax[which][n],
                },
                sup_errors=sup_errors,
                details={"reason": "sup error above tol at largest ladder n"},
            )
    return CheckReport("uniform_convergence", PASS, sup_errors=sup_errors)


def check_monotone_in_n(pair: FunctionSequencePair, grid: SampleGrid) -> CheckReport:
    """PASS iff psi_n <= psi_next and phi_n >= phi_next at every grid t for
    consecutive ladder entries, within the tie tolerance."""
    t = grid.t_values()
    prev_psi = _seq_values(pair.psi_seq, t, grid.n_ladder[0])
    prev_phi = _seq_values(pair.phi_seq, t, grid.n_ladder[0])
    for k in range(1, len(grid.n_ladder)):
        n_prev, n = grid.n_ladder[k - 1], grid.n_ladder[k]
        cur_psi = _seq_values(pair.psi_seq, t, n)
        cur_phi = _seq_values(pair.phi_seq, t, n)
        bad_psi = np.nonzero(prev_psi > cur_psi + TIE_TOL)[0]
        if bad_psi.size:
            j = int(bad_psi[0])
            return CheckReport(
                "monotone_in_n",
                FAIL,
                counterexample={
                    "which": "psi",
                    "t": float(t[j]),
                    "n": n_prev,
                    "nNext": n,
                    "value": float(prev_psi[j]),
                    "valueNext": float(cur_psi[j]),
                },
                details={"reason": "psi_n must be nondecreasing in n"},
            )
        bad_phi = np.nonzero(prev_phi < cur_phi - TIE_TOL)[0]
        if bad_phi.size:
            j = int(bad_phi[0])
            return CheckReport(
                "monotone_in_n",
                FAIL,
                counterexample={
                    "which": "phi",
                    "t": float(t[j]),
                    "n": n_prev,
                    "nNext": n,
                    "value": float(prev_phi[j]),
                    "valueNext": float(cur_phi[j]),
                },
                details={"reason": "phi_n must be nonincreasing in n"},
            )
        prev_psi, prev_phi = cur_psi, cur_phi
    return CheckReport("monotone_in_n", PASS)


def _per_n_hypothesis_mask(
    pair: FunctionSequencePair, t: np.ndarray, ladder: tuple[int, ...]
) -> np.ndarray:
    """mask[i, j] true when psi_n(t_i) <= phi_n(t_j) for every ladder n."""
    mask = np.ones((t.size, t.size), dtype=bool)
    for n in ladder:
        psi_n = _seq_values(pair.psi_seq, t, n)
        phi_n = _seq_values(pair.phi_seq, t, n)
        mask &= psi_n[:, None] <= phi_n[None, :]
        if not mask.any():
            break
    return mask


def _condition_report(
    name: str,
    readings: dict[str, np.ndarray],
    make_witness: Callable[..., dict],
) -> CheckReport:
    """Verdict over the limit and per-n readings; the witness builder gets
    the reading and the grid indices of the first violation."""
    details: dict[str, str] = {}
    counterexample = None
    for reading in ("limit", "perN"):
        viol = readings[reading]
        if viol.any():
            details[f"{reading}Reading"] = FAIL
            if counterexample is None:
                counterexample = make_witness(reading, *(int(x) for x in np.argwhere(viol)[0]))
        else:
            details[f"{reading}Reading"] = PASS
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport(name, verdict, counterexample=counterexample, details=details)


def check_condition_i(pair: FunctionSequencePair, grid: SampleGrid) -> CheckReport:
    """Search for (u, v) with the shifting hypothesis satisfied but
    u > v + tie: a grid-complete falsification of condition (i)."""
    t = grid.t_values()
    try:
        psi_lim, phi_lim = _limits_on_grid(pair, t)
    except LimitDivergenceError as exc:
        return CheckReport("condition_i", UNDECIDED, details={"reason": str(exc)})
    gap = t[:, None] > t[None, :] + TIE_TOL  # u > v
    limit_viol = (psi_lim[:, None] <= phi_lim[None, :]) & gap
    per_n_viol = _per_n_hypothesis_mask(pair, t, grid.n_ladder) & gap

    def witness(reading: str, i: int, j: int) -> dict:
        u, v = float(t[i]), float(t[j])
        w: dict = {"reading": reading, "u": u, "v": v}
        if reading == "limit":
            w["psiU"] = float(psi_lim[i])
            w["phiV"] = float(phi_lim[j])
        return w

    return _condition_report(
        "condition_i", {"limit": limit_viol, "perN": per_n_viol}, witness
    )


def check_condition_ii(pair: FunctionSequencePair, grid: SampleGrid) -> CheckReport:
    """Probe condition (ii) with constant sequences u_k = v_k = w > 0: any
    grid w > 0 satisfying the hypothesis falsifies the condition."""
    t = grid.t_values()
    try:
        psi_lim, phi_lim = _limits_on_grid(pair, t)
    except LimitDivergenceError as exc:
        return CheckReport("condition_ii", UNDECIDED, details={"reason": str(exc)})
    positive = t > TIE_TOL
    limit_viol = (psi_lim <= phi_lim) & positive
    per_n = np.ones(t.shape, dtype=bool)
    for n in grid.n_ladder:
        psi_n = _seq_values(pair.psi_seq, t, n)
        phi_n = _seq_values(pair.phi_seq, t, n)
        per_n &= psi_n <= phi_n
    per_n_viol = per_n & positive

    def witness(reading: str, i: int) -> dict:
        return {
            "reading": reading,
            "w": float(t[i]),
            "psiW": float(psi_lim[i]),
            "phiW": float(phi_lim[i]),
        }

    return _condition_report(
        "condition_ii", {"limit": limit_viol, "perN": per_n_viol}, witness
    )


def check_equality_only_at_zero(pair: FunctionSequencePair, grid: SampleGrid) -> CheckReport:
    """PASS iff the limit functions agree at 0 and differ at every grid
    point > 0 (the hypothesis of the weak-contraction run)."""
    t = grid.t_values()
    try:
        psi_lim, phi_lim = _limits_on_grid(pair, t)
    except LimitDivergenceError as exc:
        return CheckReport("equality_only_at_zero", UNDECIDED, details={"reason": str(exc)})
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


def run_all_checks(
    pair: FunctionSequencePair, grid: SampleGrid, uniform_tol: float = 1e-6
) -> dict[str, CheckReport]:
    """The full battery, in a fixed order."""
    return {
        "uniform_convergence": check_uniform_convergence(pair, grid, uniform_tol),
        "monotone_in_n": check_monotone_in_n(pair, grid),
        "condition_i": check_condition_i(pair, grid),
        "condition_ii": check_condition_ii(pair, grid),
        "equality_only_at_zero": check_equality_only_at_zero(pair, grid),
    }
