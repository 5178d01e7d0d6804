"""Operators on the set model whose action on tail boxes is exact.

The catalog is restricted to coordinatewise affine maps x_i -> d_i x_i +
e_i with tail-form coefficient descriptions (plus finite compositions,
which are materialised back into a single map).  These commute with convex
hulls and map boxes to boxes, so every quantity in a certification run is
computable in closed form.  A coefficient tail whose sign settles only
past a cap is rejected rather than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mnc import (
    MncError,
    Point,
    Seq,
    TailBox,
    TailForm,
    UndecidedComparisonError,
    affine_image,
    eventual_sign,
    subset,
)

__all__ = [
    "OperatorError",
    "NotContractiveError",
    "DiagonalAffineOperator",
    "FixedPointWitness",
    "compose",
    "apply_to_box",
    "verify_self_map",
    "fixed_point_witness",
]


# The coordinates that fixed_point_witness solves numerically, and the
# furthest past the head that it looks for sup_i |d_i| < 1.
DEFAULT_HORIZON = 10_000


class OperatorError(MncError):
    pass


class NotContractiveError(OperatorError):
    """sup_i |d_i| >= 1: no coordinatewise fixed point formula."""


@dataclass(frozen=True, init=False)
class DiagonalAffineOperator:
    """x_i -> d_i * x_i + e_i: a pair of coefficient Seqs ``d`` and ``e``,
    padded to one head length.

    The offsets must form a genuine member of the space: asym(e) = 0.
    """

    d: Seq
    e: Seq

    def __init__(
        self,
        d_head: Sequence[float] = (),
        d_tail: TailForm = TailForm(),
        e_head: Sequence[float] = (),
        e_tail: TailForm = TailForm(),
    ):
        d, e = Seq(d_head, d_tail), Seq(e_head, e_tail)
        if e.asym != 0.0:
            raise OperatorError(f"offset sequence has asymptotic value {e.asym} != 0")
        if not (all(map(math.isfinite, d.head)) and all(map(math.isfinite, e.head))):
            raise OperatorError("non-finite coefficient")
        h = max(d.head_len, e.head_len)
        object.__setattr__(self, "d", d.pad(h))
        object.__setattr__(self, "e", e.pad(h))

    @property
    def d_tail(self) -> TailForm:
        return self.d.tail

    @property
    def e_tail(self) -> TailForm:
        return self.e.tail

    @property
    def head_len(self) -> int:
        return self.d.head_len


def compose(outer: DiagonalAffineOperator, inner: DiagonalAffineOperator) -> DiagonalAffineOperator:
    """Materialise outer(inner(x)): d = d_o*d_i, e = d_o*e_i + e_o."""
    d, e = outer.d * inner.d, outer.d * inner.e + outer.e
    return DiagonalAffineOperator(d.head, d.tail, e.head, e.tail)


def apply_to_box(op: DiagonalAffineOperator, box: TailBox) -> TailBox:
    """Exact image box of ``box`` under the operator (see
    ``mnc.affine_image``)."""
    return affine_image(box, op.d, op.e)


def verify_self_map(op: DiagonalAffineOperator, domain: TailBox) -> bool:
    """True iff the image of ``domain`` is contained in ``domain``."""
    return subset(apply_to_box(op, domain), domain)


@dataclass(frozen=True)
class FixedPointWitness:
    """Coordinatewise fixed point x_i = e_i / (1 - d_i) together with the
    observed residual sup_i |T(x)_i - x_i| over the probed coordinates."""

    point: Point
    residual: float


def _check_contractive(op: DiagonalAffineOperator) -> None:
    beta = abs(op.d.asym)
    if beta >= 1.0:
        raise NotContractiveError(f"|asym(d)| = {beta} >= 1")
    # 1 - d and 1 + d tend to 1 -+ asym(d) > 0: from the later index where each
    # stays positive (eventual_sign) |d_i| < 1; the coordinates before are scanned
    start = op.head_len + 1
    one = TailForm((), 1.0)
    try:
        idx = max(eventual_sign(form, start)[1] for form in (one - op.d.tail, one + op.d.tail))
    except UndecidedComparisonError:  # settles past the cap, far past the horizon
        idx = math.inf
    if idx - start > DEFAULT_HORIZON:
        raise NotContractiveError(f"cannot certify sup|d_i| < 1 within horizon {DEFAULT_HORIZON}")
    bad = np.flatnonzero(np.abs(op.d.array(idx)) >= 1.0)
    if bad.size:
        i = int(bad[0]) + 1
        raise NotContractiveError(f"|d_{i}| = {abs(op.d(i))} >= 1")


def _residual(op: DiagonalAffineOperator, d: np.ndarray, e: np.ndarray, point: Point) -> float:
    """sup |d_i x_i + e_i - x_i| over 1..probe_to, with ``d`` and ``e`` the
    operator's coefficients there as arrays, and at doubling probes
    beyond."""
    probe = d.size
    x = point.array(probe)
    best = float(np.abs(d * x + e - x).max())
    for _ in range(40):
        probe *= 2
        if probe > 2**62:
            break
        xi = point(probe)
        best = max(best, abs(op.d(probe) * xi + op.e(probe) - xi))
    return best


def fixed_point_witness(op: DiagonalAffineOperator) -> FixedPointWitness:
    """Solve x = Tx coordinatewise for a contractive operator.

    With a constant d tail the solution tail is exact in closed form;
    otherwise coordinates up to ``DEFAULT_HORIZON`` (or the head, if
    longer) are solved numerically and the tail beyond uses the asymptotic
    coefficient.  The returned residual is sup_i |T(x)_i - x_i| over the
    probed range.
    """
    _check_contractive(op)
    if op.d.tail.n_terms:
        solve_to = probe_to = max(op.head_len, DEFAULT_HORIZON)
    else:
        solve_to, probe_to = op.head_len, max(op.head_len, 64)
    d, e = op.d.array(probe_to), op.e.array(probe_to)
    tail = op.e.tail.scale(1.0 / (1.0 - op.d.asym))
    head = e[:solve_to] / (1.0 - d[:solve_to])
    # trailing entries equal to the tail's own values add nothing
    differs = np.flatnonzero(head != Seq((), tail).array(solve_to))
    point = Point(head[:differs[-1] + 1 if differs.size else 0].tolist(), tail)
    return FixedPointWitness(point, _residual(op, d, e, point))
