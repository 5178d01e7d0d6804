"""Exact Hausdorff measure-of-noncompactness calculus on tail boxes.

The ambient space is the space of real sequences converging to zero under
the sup norm.  Every sequence here is a ``Seq``: explicit head values for
coordinates 1..h and a closed-form *tail form* for every coordinate beyond,

    f(i) = sum_j alpha_j * rho_j**i + beta,     0 <= rho_j < 1.

A box is the set between two such envelopes, a point is a Seq with
asymptotic value zero.  The asymptotic value of a tail form is its
constant beta, so the Hausdorff measure of noncompactness of a box is
computable exactly:

    mu(box) = max(|beta_lo|, |beta_hi|)

(head coordinates span a finite-dimensional, hence relatively compact,
factor and never contribute).  An independent truncation oracle
``truncation_tail_sup`` recovers the same number by explicitly maximising
the envelopes over coordinates beyond a cut N.

Pointwise tail comparisons are resolved exactly through a dominance index:
once the geometric part of a form is smaller than |beta| the sign of the
form equals the sign of beta, and only finitely many earlier coordinates
need a direct check.  Forms with beta = 0 and mixed-sign coefficients are
checked up to a configurable horizon and flagged undecided beyond it.

Everything here is immutable and pure; concurrent use needs no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_HORIZON",
    "MncError",
    "InvalidTailFormError",
    "InvalidBoxError",
    "InvalidPointError",
    "UndecidedComparisonError",
    "TailForm",
    "Seq",
    "TailBox",
    "SetUnion",
    "Point",
    "MncValue",
    "hausdorff_mnc",
    "mnc_union",
    "conv_hull_mnc",
    "convex_combination",
    "subset",
    "scale_translate",
    "affine_image",
    "truncation_tail_sup",
    "closure",
    "contains_point",
    "eventual_sign",
    "is_nonnegative",
]

DEFAULT_HORIZON = 10_000

# Dominance indices beyond this are treated as out of practical range and
# reported undecided rather than scanned or materialised into a head.
_DOMINANCE_CAP = 10_000_000

_SCAN_CHUNK = 1 << 16

# Cells in one TailForm.values block: bounds its temporaries (32 KB) for
# any term count and index count.
_VALUES_BLOCK_CELLS = 4096


class MncError(ValueError):
    """Base class for set-model failures."""


class InvalidTailFormError(MncError):
    pass


class InvalidBoxError(MncError):
    pass


class InvalidPointError(MncError):
    pass


class UndecidedComparisonError(MncError):
    """A beta = 0, mixed-sign tail comparison passed every pointwise check
    up to the horizon but cannot be certified beyond it."""


@dataclass(frozen=True)
class TailForm:
    """finite sum of geometric terms plus a constant, evaluated at i >= 1.

    ``terms`` is a tuple of (coefficient, ratio) pairs with 0 <= ratio < 1.
    Terms are normalised on construction: equal ratios merge, zero
    coefficients and ratio-zero terms drop (a ratio-zero term vanishes at
    every index >= 1).
    """

    terms: tuple[tuple[float, float], ...] = ()
    constant: float = 0.0

    def __post_init__(self):
        merged: dict[float, float] = {}
        for coeff, ratio in self.terms:
            coeff = float(coeff)
            ratio = float(ratio)
            if not (0.0 <= ratio < 1.0):
                raise InvalidTailFormError(f"ratio {ratio} outside [0, 1)")
            if not (math.isfinite(coeff) and math.isfinite(ratio)):
                raise InvalidTailFormError("non-finite term")
            merged[ratio] = merged.get(ratio, 0.0) + coeff
        norm = tuple(
            (coeff, ratio)
            for ratio, coeff in sorted(merged.items())
            if coeff != 0.0 and ratio != 0.0
        )
        object.__setattr__(self, "terms", norm)
        object.__setattr__(self, "constant", float(self.constant))
        if not math.isfinite(self.constant):
            raise InvalidTailFormError("non-finite constant")

    @property
    def asym(self) -> float:
        """Asymptotic value: lim_{i -> inf} f(i) = beta."""
        return self.constant

    def value(self, i: int) -> float:
        if i < 1:
            raise ValueError("tail forms are indexed from 1")
        return sum(c * r**i for c, r in self.terms) + self.constant

    def values(self, indices: np.ndarray) -> np.ndarray:
        """f(i) at every index of ``indices``.

        Each block of columns is one (terms + 1) x columns array: the
        constant in row 0, term j at the block's indices in row j.  The
        rows are summed with ``np.add.accumulate``, which adds them in
        order (constant, then term 1, then term 2, ...) and so matches a
        per-term loop bit for bit; ``np.add.reduce`` may sum pairwise.
        A block holds at most ``_VALUES_BLOCK_CELLS`` cells (one column
        when there are more terms than that)."""
        idx = np.ravel(indices)
        out = np.empty(idx.shape)
        coeffs = np.array([c for c, _ in self.terms])[:, None]
        ratios = np.array([r for _, r in self.terms])[:, None]
        cols = max(1, _VALUES_BLOCK_CELLS // (len(self.terms) + 1))
        block = np.empty((len(self.terms) + 1, min(cols, idx.size)))
        for s in range(0, idx.size, cols):
            x = idx[s:s + cols].astype(float)
            b = block[:, :x.size]
            b[0] = self.constant
            np.power(ratios, x, out=b[1:])
            b[1:] *= coeffs
            out[s:s + x.size] = np.add.accumulate(b, axis=0)[-1]
        return out.reshape(np.shape(indices))

    def coeff_abs_sum(self) -> float:
        return sum(abs(c) for c, _ in self.terms)

    def max_ratio(self) -> float:
        return max((r for _, r in self.terms), default=0.0)

    def __add__(self, other: "TailForm") -> "TailForm":
        return TailForm(self.terms + other.terms, self.constant + other.constant)

    def __sub__(self, other: "TailForm") -> "TailForm":
        # negation is exact: the same form as self + other.scale(-1.0)
        negated = tuple((-coeff, ratio) for coeff, ratio in other.terms)
        return TailForm(self.terms + negated, self.constant - other.constant)

    def scale(self, c: float) -> "TailForm":
        c = float(c)
        return TailForm(
            tuple((coeff * c, ratio) for coeff, ratio in self.terms),
            self.constant * c,
        )

    def __mul__(self, other: "TailForm") -> "TailForm":
        # (sum a r^i + b)(sum a' r'^i + b'): product ratios r*r' stay in [0,1)
        terms: list[tuple[float, float]] = []
        for c1, r1 in self.terms:
            for c2, r2 in other.terms:
                terms.append((c1 * c2, r1 * r2))
        for c2, r2 in other.terms:
            terms.append((self.constant * c2, r2))
        for c1, r1 in self.terms:
            terms.append((other.constant * c1, r1))
        return TailForm(tuple(terms), self.constant * other.constant)

    def dominance_index(self, start: int = 1) -> int:
        """Smallest index >= start from which the geometric part is
        strictly dominated by |beta|.  Only meaningful for beta != 0."""
        if not self.terms:
            return start
        total = self.coeff_abs_sum()
        beta = abs(self.constant)
        if beta == 0.0:
            raise InvalidTailFormError("dominance index undefined for beta = 0")
        if total < beta:
            return start
        rho = self.max_ratio()
        # total * rho**i < beta  <=>  i > log(beta/total)/log(rho), with a
        # difference of logs where beta/total underflows to zero
        ratio = beta / total
        log_ratio = math.log(ratio) if ratio > 0.0 else math.log(beta) - math.log(total)
        raw = log_ratio / math.log(rho)
        idx = int(math.floor(raw)) + 1
        while total * rho**idx >= beta:  # guard the float log estimate
            idx += 1
        return max(start, idx)


def eventual_sign(form: TailForm, start: int = 1) -> tuple[int, int]:
    """Return (sign, from_index): the constant sign of ``form`` on every
    index >= from_index, with sign in {-1, 0, +1} (+1 means >= 0, -1 means
    <= 0, 0 means identically zero).

    This is the one sign classifier.  Sign-definite forms (beta and every
    coefficient of one sign) hold their sign from ``start``; other forms
    with beta != 0 take the sign of beta from the dominance index.  Raises
    UndecidedComparisonError for mixed-sign beta = 0 forms and for a
    dominance index more than ``_DOMINANCE_CAP`` past ``start``.
    """
    beta = form.constant
    coeffs = [c for c, _ in form.terms]
    if beta == 0.0 and not coeffs:
        return (0, start)
    if beta >= 0.0 and all(c > 0 for c in coeffs):
        return (1, start)
    if beta <= 0.0 and all(c < 0 for c in coeffs):
        return (-1, start)
    if beta == 0.0:
        raise UndecidedComparisonError("sign of a mixed-sign beta=0 form is undecidable")
    idx = form.dominance_index(start)
    if idx - start > _DOMINANCE_CAP:
        raise UndecidedComparisonError(f"dominance index {idx} exceeds practical range")
    return (1 if beta > 0.0 else -1, idx)


def _first_negative(form: TailForm, start: int, stop: int) -> int | None:
    """First index i in [start, stop] with form(i) < 0, scanning in chunks."""
    i = start
    while i <= stop:
        hi = min(stop, i + _SCAN_CHUNK - 1)
        idx = np.arange(i, hi + 1, dtype=np.int64)
        vals = form.values(idx)
        bad = np.nonzero(vals < 0.0)[0]
        if bad.size:
            return int(idx[bad[0]])
        i = hi + 1
    return None


def is_nonnegative(form: TailForm, start: int = 1, horizon: int = DEFAULT_HORIZON) -> bool:
    """Exactly decide form(i) >= 0 for every integer i >= start.

    beta < 0 is decided at once (the form tends to beta).  Otherwise
    ``eventual_sign`` settles every index from its from_index on, and the
    coordinates before it are scanned.  beta = 0 forms with mixed signs are
    scanned up to ``horizon`` and raise UndecidedComparisonError if nothing
    failed by then.
    """
    if form.constant < 0.0:
        return False
    try:
        sign, from_idx = eventual_sign(form, start)
    except UndecidedComparisonError:
        if form.constant > 0.0:
            raise
        if _first_negative(form, start, horizon) is not None:
            return False
        raise UndecidedComparisonError(
            f"mixed beta=0 form nonnegative up to horizon {horizon}, undecided beyond"
        ) from None
    return sign >= 0 and _first_negative(form, start, from_idx - 1) is None


@dataclass(frozen=True, eq=False)
class Seq:
    """A sequence x_1, x_2, ...: explicit values for coordinates 1..h and a
    tail form for every coordinate beyond.

    This is the one place that indexes, pads, combines and sign-decides
    such sequences.  Binary operations first pad both operands to a common
    head length; padded coordinates are scalar ``TailForm.value``s of the
    operand's own tail.  Results are plain Seqs.
    """

    head: np.ndarray = ()
    tail: TailForm = TailForm()

    def __post_init__(self):
        head = np.array(self.head, dtype=float)
        head.flags.writeable = False
        object.__setattr__(self, "head", head)

    @property
    def head_len(self) -> int:
        return len(self.head)

    @property
    def asym(self) -> float:
        return self.tail.asym

    def __call__(self, i: int) -> float:
        if i < 1:
            raise ValueError("coordinates are indexed from 1")
        if i <= len(self.head):
            return float(self.head[i - 1])
        return self.tail.value(i)

    def pad(self, h: int) -> "Seq":
        """The same sequence with at least h explicit head values."""
        h0 = len(self.head)
        if h <= h0:
            return self
        extra = [self.tail.value(i) for i in range(h0 + 1, h + 1)]
        return Seq(np.concatenate((self.head, extra)), self.tail)

    def _heads(self, other: "Seq") -> tuple[np.ndarray, np.ndarray]:
        h = max(len(self.head), len(other.head))
        return self.pad(h).head, other.pad(h).head

    def __add__(self, other: "Seq") -> "Seq":
        a, b = self._heads(other)
        return Seq(a + b, self.tail + other.tail)

    def __sub__(self, other: "Seq") -> "Seq":
        a, b = self._heads(other)
        return Seq(a - b, self.tail - other.tail)

    def __mul__(self, other: "Seq") -> "Seq":
        a, b = self._heads(other)
        return Seq(a * b, self.tail * other.tail)

    def scale(self, c: float) -> "Seq":
        c = float(c)
        return Seq(self.head * c, self.tail.scale(c))

    def nonneg(self, start: int = 1, horizon: int = DEFAULT_HORIZON) -> bool:
        """Exactly decide x_i >= 0 for every i >= start: the head entries
        directly, the tail through ``is_nonnegative``."""
        if not (self.head[start - 1:] >= 0.0).all():
            return False
        return is_nonnegative(self.tail, max(start, len(self.head) + 1), horizon)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return bool(np.array_equal(self.head, other.head)) and self.tail == other.tail

    def __hash__(self):
        return hash((tuple(self.head.tolist()), self.tail))


@dataclass(frozen=True, init=False)
class TailBox:
    """Closed convex coordinatewise-interval set between the envelopes
    ``lo`` and ``hi``: explicit head intervals for coordinates 1..h,
    tail-form envelopes beyond."""

    lo: Seq
    hi: Seq

    def __init__(
        self,
        head_lo: Sequence[float] = (),
        head_hi: Sequence[float] = (),
        tail_lo: TailForm = TailForm(),
        tail_hi: TailForm = TailForm(),
        *,
        _derived: tuple[Seq, Seq] | None = None,
    ):
        """``_derived`` is a (lo, hi) pair that this module's set operations
        build from valid boxes.  Its tail gap is nonnegative by construction
        (|d| times a gap for an affine image, a convex combination of gaps)
        and is not decided again; every other check still runs."""
        lo, hi = _derived or (Seq(head_lo, tail_lo), Seq(head_hi, tail_hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.head_len != hi.head_len:
            raise InvalidBoxError("head arrays differ in length")
        if not (np.isfinite(lo.head).all() and np.isfinite(hi.head).all()):
            raise InvalidBoxError("non-finite head interval")
        if not (lo.asym <= 0.0 <= hi.asym):
            raise InvalidBoxError(
                "box is empty in the null-sequence space: needs "
                f"asym(lo) <= 0 <= asym(hi), got {lo.asym} and {hi.asym}"
            )
        if not ((hi.head >= lo.head).all() if _derived else (hi - lo).nonneg()):
            raise InvalidBoxError("lower envelope exceeds the upper one at some coordinate")

    @property
    def head_len(self) -> int:
        return self.lo.head_len

    @property
    def tail_lo(self) -> TailForm:
        return self.lo.tail

    @property
    def tail_hi(self) -> TailForm:
        return self.hi.tail


@dataclass(frozen=True)
class SetUnion:
    """Finite union of tail boxes (generally non-convex)."""

    boxes: tuple[TailBox, ...]

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self.boxes:
            raise InvalidBoxError("empty union")


class Point(Seq):
    """A single element of the null-sequence space: a Seq whose tail has
    asymptotic value zero."""

    def __post_init__(self):
        super().__post_init__()
        if self.tail.asym != 0.0:
            raise InvalidPointError(
                f"asymptotic value {self.tail.asym} != 0: not a null sequence"
            )

    value = Seq.__call__


ZERO_POINT = Point()


@dataclass(frozen=True)
class MncValue:
    """Measure-of-noncompactness value; zero exactly when the set is
    relatively compact in this model (all envelopes vanish asymptotically)."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.value < 0.0:
            raise MncError("mnc value must be nonnegative")

    @property
    def relatively_compact(self) -> bool:
        return self.value == 0.0

    def __float__(self) -> float:
        return self.value


def hausdorff_mnc(box: TailBox) -> MncValue:
    """Hausdorff measure of noncompactness of a tail box.

    Equals max(|asym(lo)|, |asym(hi)|); the finitely many head coordinates
    never contribute.
    """
    return MncValue(max(abs(box.lo.asym), abs(box.hi.asym)))


def mnc_union(union: SetUnion) -> MncValue:
    """Measure of a finite union: the max over member boxes (consistent
    with monotonicity and with the convex-hull rewrite, see conv_hull_mnc)."""
    return MncValue(max(hausdorff_mnc(b).value for b in union.boxes))


def conv_hull_mnc(union: SetUnion) -> MncValue:
    """Measure assigned to the closed convex hull of a union of boxes.

    The hull's coordinatewise envelope is [min_j lo_j(i), max_j hi_j(i)],
    whose asymptotic values are min_j beta_lo_j and max_j beta_hi_j; the
    measure follows without materialising the (generally non-tail-form)
    pointwise min/max.
    """
    lo = min(b.lo.asym for b in union.boxes)
    hi = max(b.hi.asym for b in union.boxes)
    return MncValue(max(abs(lo), abs(hi)))


def closure(box: TailBox) -> TailBox:
    """Tail boxes are closed; closure is the identity."""
    return box


def convex_combination(lam: float, a: TailBox, b: TailBox) -> TailBox:
    """Coordinatewise Minkowski combination lam*A + (1-lam)*B."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise MncError(f"lambda {lam} outside [0, 1]")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    mu = 1.0 - lam
    lo, hi = a.lo.scale(lam) + b.lo.scale(mu), a.hi.scale(lam) + b.hi.scale(mu)
    return TailBox(_derived=(lo, hi))


def subset(a: TailBox, b: TailBox, horizon: int = DEFAULT_HORIZON) -> bool:
    """Exactly decide A subseteq B.  Raises UndecidedComparisonError in the
    genuinely undecidable beta = 0 case."""
    return (a.lo - b.lo).nonneg(horizon=horizon) and (b.hi - a.hi).nonneg(horizon=horizon)


def contains_point(box: TailBox, p: Point, horizon: int = DEFAULT_HORIZON) -> bool:
    """Exactly decide membership of a point in a box."""
    return (p - box.lo).nonneg(horizon=horizon) and (box.hi - p).nonneg(horizon=horizon)


def affine_image(box: TailBox, d: Seq, e: Seq) -> TailBox:
    """Exact image of ``box`` under x_i -> d_i * x_i + e_i.

    Coordinates before the eventual sign of d is settled are materialised
    into the head; beyond, the image tails are tail-form products with the
    envelopes swapped where d is negative.  Raises UndecidedComparisonError
    when the sign of d is genuinely undecidable.
    """
    h = max(box.head_len, d.head_len, e.head_len)
    sign, from_idx = eventual_sign(d.tail, start=h + 1)
    d = d.pad(from_idx - 1)
    x, y = d * box.lo, d * box.hi
    if sign < 0:
        x, y = y, x
    lo = Seq(np.minimum(x.head, y.head), x.tail) + e
    hi = Seq(np.maximum(x.head, y.head), y.tail) + e
    return TailBox(_derived=(lo, hi))


def scale_translate(a: TailBox, c: float, shift: Point = ZERO_POINT) -> TailBox:
    """Coordinatewise c*[lo, hi] + shift.  The shift must be a genuine
    member of the space (asymptotic value zero); the measure of the result
    is |c| times the measure of A, exactly."""
    if not isinstance(shift, Point):
        raise InvalidPointError("shift must be a Point with asymptotic value zero")
    return affine_image(a, Seq((), TailForm((), c)), shift)


_ORACLE_WINDOW = 4096
_ORACLE_DYADIC_MAX = 62


def _tail_abs_sup(form_lo: TailForm, form_hi: TailForm, n_cut: int) -> float:
    """sup over i > n_cut of max(|lo(i)|, |hi(i)|) by explicit maximisation:
    a contiguous window, a dyadic ladder and the asymptotic values."""
    best = max(abs(form_lo.asym), abs(form_hi.asym))
    idx = np.arange(n_cut + 1, n_cut + _ORACLE_WINDOW + 1, dtype=np.int64)
    window = np.maximum(np.abs(form_lo.values(idx)), np.abs(form_hi.values(idx)))
    best = max(best, float(window.max()))
    probe = n_cut + _ORACLE_WINDOW
    for _ in range(_ORACLE_DYADIC_MAX):
        probe *= 2
        if probe > 2**62:
            break
        best = max(best, abs(form_lo.value(probe)), abs(form_hi.value(probe)))
    return best


def truncation_tail_sup(box: TailBox, n_cut: int) -> float:
    """Independent truncation oracle: sup over coordinates i > n_cut of
    max(|lo_i|, |hi_i|).  Converges to hausdorff_mnc(box) as n_cut grows.

    ``n_cut`` must be at least the head length (so only the closed-form
    tails are involved).
    """
    if n_cut < box.head_len:
        raise MncError(f"cut {n_cut} smaller than head length {box.head_len}")
    return _tail_abs_sup(box.lo.tail, box.hi.tail, n_cut)
