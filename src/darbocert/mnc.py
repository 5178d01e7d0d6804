"""Exact Hausdorff measure-of-noncompactness calculus on tail boxes.

The ambient space is the space of real sequences converging to zero under
the sup norm.  Every sequence here is a ``Seq``: a tuple of float head
values for coordinates 1..h and a closed-form *tail form* for every
coordinate beyond,

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

Every order question x_i <= y_i is one ``Seq.le``: heads are compared
directly and the tail gap y - x goes to ``is_nonnegative``, which uses a
dominance index: once the geometric part of a form is smaller than |beta|
the sign of the form equals the sign of beta.  The finitely many earlier
coordinates are checked in float64 by blocks: a lower bound from the
form's positive and negative parts, with a rigorous margin for rounding,
clears whole blocks at once, and only blocks it cannot clear are
evaluated coordinate by coordinate, so the verdict is the one a scan of
every coordinate gives.
Forms with beta = 0 and mixed-sign coefficients are checked the same way
up to a configurable horizon and flagged undecided beyond it.

Head arithmetic runs on Python floats, which round as float64 does; tail
forms are evaluated in numpy, and ``Seq.array`` gives numpy a long head.

Everything here is immutable and pure; concurrent use needs no locks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import repeat
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

# affine_image materialises d's coordinates up to its sign-settling index
# with Seq.array; a longer head than this is refused.
_HEAD_CAP = 100_000

# _first_negative scans a range in windows of this many coordinates, so a
# form negative early in a long horizon scan costs one window, and the
# block arrays of a window stay small.
_SCAN_CHUNK = 1 << 16

# A scan of more coordinates than this is first offered to the block bound
# of _first_negative, which costs three columns; a shorter one is evaluated
# pointwise.
_BLOCK_MIN = 8

# Cells in one TailForm.values block: bounds its temporaries (32 KB) for
# any term count and index count.
_VALUES_BLOCK_CELLS = 4096

# Array arithmetic that overflows as Python floats do, without a warning.
_FLOAT_ARITHMETIC = functools.partial(np.errstate, over="ignore", invalid="ignore")

# TailForm.values adds the terms of a form this short one at a time:
# np.add.accumulate over a block's rows costs about 31 ns per coordinate.
_LOOP_TERMS = 3


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


def _normalise_pairs(pairs) -> tuple[tuple[float, float], ...]:
    """Merge equal ratios (coefficients added in input order from 0.0),
    drop zero coefficients and ratios and sort by ratio: the normalisation
    of float pairs with ratios in [0, 1).  A non-finite merged coefficient
    raises."""
    merged = {}
    for coeff, ratio in pairs:
        merged[ratio] = merged.get(ratio, 0.0) + coeff
    if not all(map(math.isfinite, merged.values())):
        raise InvalidTailFormError("non-finite term")
    return tuple(
        (coeff, ratio)
        for ratio, coeff in sorted(merged.items())
        if coeff != 0.0 and ratio != 0.0
    )


def _merge_sorted(p1, p2) -> tuple[tuple[float, float], ...]:
    """``_normalise_pairs(p1 + p2)`` for two normalised tuples, bit for bit,
    in one pass: a ratio of one operand only keeps its coefficient (0.0 + c
    == c for c != 0), a shared one sums them, and a zero sum drops."""
    out = []
    j = 0
    for coeff, ratio in p1:
        while j < len(p2) and p2[j][1] < ratio:
            out.append(p2[j])
            j += 1
        if j < len(p2) and p2[j][1] == ratio:
            coeff += p2[j][0]
            j += 1
            # only a shared ratio sums coefficients, so only it can overflow
            if not math.isfinite(coeff):
                raise InvalidTailFormError("non-finite term")
            if coeff == 0.0:
                continue
        out.append((coeff, ratio))
    return (*out, *p2[j:])


def _array_values(coeffs: np.ndarray, ratios: np.ndarray, constant: float, idx: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * ratios[j]**i + constant at every i of the 1-D
    ``idx``, summed in order from the constant; each block of columns is
    one array of at most ``_VALUES_BLOCK_CELLS`` cells (one column when
    there are more terms than that)."""
    out = np.empty(idx.shape)
    n = coeffs.size
    coeffs, ratios = coeffs[:, None], ratios[:, None]
    cols = max(1, _VALUES_BLOCK_CELLS // (n + 1))
    block = np.empty((n + 1, min(cols, idx.size)))
    for s in range(0, idx.size, cols):
        x = idx[s:s + cols].astype(float)
        b = block[:, :x.size]
        b[0] = constant
        np.power(ratios, x, out=b[1:])
        b[1:] *= coeffs
        out[s:s + x.size] = np.add.accumulate(b, axis=0)[-1]
    return out


class TailForm:
    """finite sum of geometric terms plus a constant, evaluated at i >= 1.

    ``terms`` is a tuple of (coefficient, ratio) pairs with 0 <= ratio < 1.
    Terms are normalised on construction: equal ratios merge (coefficients
    added in input order), zero coefficients and ratio-zero terms drop (a
    ratio-zero term vanishes at every index >= 1), and the rest are sorted
    by ratio.

    Only the constructor checks terms; arithmetic starts from normalised
    operands.  A sum or difference is one merge of the two sorted tuples,
    one with an operand of no terms keeps the other's terms, and a scaled
    form keeps its term order; none is normalised again.  All give the
    constructor's terms bit for bit, and equal forms compare and hash
    equal however they were built.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms=(), constant: float = 0.0):
        pairs = []
        for coeff, ratio in terms:
            coeff = float(coeff)
            ratio = float(ratio)
            if not (0.0 <= ratio < 1.0):
                raise InvalidTailFormError(f"ratio {ratio} outside [0, 1)")
            if not math.isfinite(coeff):
                raise InvalidTailFormError("non-finite term")
            pairs.append((coeff, ratio))
        self._init(_normalise_pairs(pairs), constant)

    def _init(self, terms, constant) -> None:
        object.__setattr__(self, "terms", terms)
        constant = float(constant)
        if not math.isfinite(constant):
            raise InvalidTailFormError("non-finite constant")
        object.__setattr__(self, "constant", constant)

    @classmethod
    def _of(cls, terms, constant: float) -> "TailForm":
        """The form with normalised ``terms``."""
        form = cls.__new__(cls)
        form._init(terms, constant)
        return form

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to TailForm.{name}: tail forms are immutable")

    def __reduce__(self):
        return (TailForm, (self.terms, self.constant))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients, ratios) as float64 arrays."""
        return np.array(self.terms, dtype=float).reshape(-1, 2).T

    def __eq__(self, other):
        if type(other) is not TailForm:
            return NotImplemented
        return self.constant == other.constant and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms, self.constant))

    def __repr__(self):
        return f"TailForm(terms={self.terms!r}, constant={self.constant!r})"

    @property
    def asym(self) -> float:
        """Asymptotic value: lim_{i -> inf} f(i) = beta."""
        return self.constant

    def value(self, i: int) -> float:
        if i < 1:
            raise ValueError("tail forms are indexed from 1")
        # left to right from 0.0, as Seq.pad adds; sum() of floats is
        # compensated from Python 3.12 on
        acc = 0.0
        for c, r in self.terms:
            acc += c * r**i
        return acc + self.constant

    def values(self, indices: np.ndarray) -> np.ndarray:
        """f(i) at every index of ``indices``.

        A form of at most ``_LOOP_TERMS`` terms adds its terms to the
        constant one at a time.  For a longer one each block of columns is
        one (terms + 1) x columns array: the constant in row 0, term j at
        the block's indices in row j.  The rows are summed with
        ``np.add.accumulate``, which adds them in order (constant, then
        term 1, then term 2, ...) and so matches the per-term loop bit for
        bit; ``np.add.reduce`` may sum pairwise.  ``_array_values`` is that
        block loop."""
        idx = np.ravel(indices)
        if self.n_terms > _LOOP_TERMS:
            out = _array_values(*self._columns(), self.constant, idx)
        else:
            x = idx.astype(float)
            out = np.full(idx.shape, self.constant)
            for coeff, ratio in self.terms:
                out += coeff * np.power(ratio, x)
        return out.reshape(np.shape(indices))

    def coeff_abs_sum(self) -> float:
        return sum(abs(c) for c, _ in self.terms)

    def max_ratio(self) -> float:
        return self.terms[-1][1] if self.terms else 0.0

    def with_constant(self, constant: float) -> "TailForm":
        """The same terms with another constant."""
        return TailForm._of(self.terms, constant)

    def _combine(self, other: "TailForm", op) -> "TailForm":
        """self op other, op ``operator.add`` or ``operator.sub``."""
        constant = op(self.constant, other.constant)
        if not other.terms or (not self.terms and op is operator.add):
            return (other if other.terms else self).with_constant(constant)
        signed = other.terms if op is operator.add else tuple((-c, r) for c, r in other.terms)
        return TailForm._of(_merge_sorted(self.terms, signed), constant)

    def __add__(self, other: "TailForm") -> "TailForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "TailForm") -> "TailForm":
        return self._combine(other, operator.sub)

    def scale(self, c: float) -> "TailForm":
        c = float(c)
        pairs = []
        for coeff, ratio in self.terms:
            coeff *= c
            if not math.isfinite(coeff):
                raise InvalidTailFormError("non-finite term")
            if coeff != 0.0:
                pairs.append((coeff, ratio))
        return TailForm._of(tuple(pairs), self.constant * c)

    def __mul__(self, other: "TailForm") -> "TailForm":
        # (sum a r^i + b)(sum a' r'^i + b'): product ratios r*r' stay in [0,1);
        # terms in this order: products, b*a' terms, b'*a terms
        terms = []
        for c1, r1 in self.terms:
            for c2, r2 in other.terms:
                terms.append((c1 * c2, r1 * r2))
        for c2, r2 in other.terms:
            terms.append((self.constant * c2, r2))
        for c1, r1 in self.terms:
            terms.append((other.constant * c1, r1))
        return TailForm._of(_normalise_pairs(terms), self.constant * other.constant)

    def dominance_index(self, start: int = 1) -> int:
        """Smallest index >= start from which the geometric part is
        strictly dominated by |beta|.  Only meaningful for beta != 0."""
        if not self.n_terms:
            return start
        total = self.coeff_abs_sum()
        beta = abs(self.constant)
        if beta == 0.0:
            raise InvalidTailFormError("dominance index undefined for beta = 0")
        if total < beta:
            return start
        if math.isinf(total):
            # the sum overflows: scale by a power of two, exactly, until it fits
            return self.scale(2.0 ** -(self.n_terms.bit_length() + 1)).dominance_index(start)
        rho = self.max_ratio()
        # total * rho**i < beta  <=>  i > log(beta/total)/log(rho), with a
        # difference of logs where beta/total underflows to zero
        ratio = beta / total
        log_ratio = math.log(ratio) if ratio > 0.0 else math.log(beta) - math.log(total)
        raw = log_ratio / math.log(rho)
        idx = int(raw) + 1
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
    if beta == 0.0 and not form.n_terms:
        return (0, start)
    if beta >= 0.0 and all(c > 0.0 for c, _ in form.terms):
        return (1, start)
    if beta <= 0.0 and all(c < 0.0 for c, _ in form.terms):
        return (-1, start)
    if beta == 0.0:
        raise UndecidedComparisonError("sign of a mixed-sign beta=0 form is undecidable")
    idx = form.dominance_index(start)
    if idx - start > _DOMINANCE_CAP:
        raise UndecidedComparisonError(f"dominance index {idx} exceeds practical range")
    return (1 if beta > 0.0 else -1, idx)


class _BlockBound:
    """Proves blocks of coordinates free of negative ``TailForm.values``
    without evaluating the form at each of them.

    The form splits into P, its positive terms (plus beta when beta >= 0),
    and N, its negative terms (plus beta when beta < 0).  Every ratio lies
    in (0, 1), so P is nonincreasing and N nondecreasing in i, and on a
    block [a, b]

        f(i) = P(i) + N(i) >= L = P(b + 1) + N(a).

    A block is cleared when the computed L exceeds 2*(gamma*M + eta), with
    M = P(a) - N(a) = |beta| + sum |c_j| r_j**a.  Why that makes the float
    value of f at every i in the block nonnegative, with u = 2**-53:

    - One evaluation of f, P or N at i (``_array_values``: each power
      within 4 ulp, one product per term, then a sum in order from the
      constant) is off by at most gamma_{n+9} M(i), where gamma_k =
      ku / (1 - ku) and M(i) <= M(a) (Higham, Accuracy and Stability of
      Numerical Algorithms, ch. 3-4).  A power or product that underflows
      adds at most (4|c_j| + 1/2) 2**-1074; a sum of floats underflows
      exactly.
    - With e = gamma_{n+9} M(a) + n(4 max|c_j| + 1) 2**-1074 (P and N have
      n terms together), fl(f(i)) >= f(i) - e >= L - e for i in [a, b],
      and fl(L) <= L + e up to its last rounding.  So fl(L) > 2e gives
      fl(f(i)) > 0.
    - gamma = (n + 5) 2**-52 = (2n + 10)u exceeds gamma_{n+9} by a factor
      of at least 1.3 for n >= 4, and eta = 4(n + 1)(1 + max|c_j|)
      2**-1074 the underflow term by more; that slack absorbs the rounding
      of M, of L and of the threshold itself.  An overflow makes M or the
      threshold infinite, or L NaN, and clears nothing.

    A cleared block therefore holds no index at which the pointwise scan
    finds a negative value, and ``_first_negative`` returns the same index
    as a scan of every coordinate.
    """

    def __init__(self, form: TailForm):
        coeffs, ratios = form._columns()
        beta = form.constant
        pos = coeffs > 0.0
        # (coefficients, ratios, constant) of P and of N
        self.pos = (coeffs[pos], ratios[pos], max(beta, 0.0))
        self.neg = (coeffs[~pos], ratios[~pos], min(beta, 0.0))
        n = form.n_terms
        self.gamma = (n + 5) * 2.0**-52
        self.eta = 4 * (n + 1) * 2.0**-1074 * (1.0 + float(np.abs(coeffs).max()))

    def clears(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Which blocks [a_k, b_k - 1] are proved free of negative values."""
        with _FLOAT_ARITHMETIC():
            p = _array_values(*self.pos, np.concatenate((a, b)))
            pa, pb = p[:a.size], p[a.size:]
            q = _array_values(*self.neg, a)
            return pb + q > 2.0 * (self.gamma * (pa - q) + self.eta)


def _first_negative(form: TailForm, start: int, stop: int) -> int | None:
    """First index i in [start, stop] with form(i) < 0 in float: the index
    at which a pointwise scan of ``form.values`` first sees a negative.

    The range is scanned in windows of ``_SCAN_CHUNK`` coordinates.  For a
    form of more than ``_LOOP_TERMS`` terms over more than ``_BLOCK_MIN``
    coordinates, ``_BlockBound`` is offered each window as one block, and
    only a window it cannot clear is evaluated pointwise."""
    if start > stop:
        return None
    blocks = stop - start >= _BLOCK_MIN and form.n_terms > _LOOP_TERMS
    bound = _BlockBound(form) if blocks else None
    for lo in range(start, stop + 1, _SCAN_CHUNK):
        hi = min(stop, lo + _SCAN_CHUNK - 1)
        if bound is not None and bound.clears(np.array([lo]), np.array([hi + 1]))[0]:
            continue
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        bad = np.flatnonzero(form.values(idx) < 0.0)
        if bad.size:
            return int(idx[bad[0]])
    return None


def is_nonnegative(form: TailForm, start: int = 1, horizon: int = DEFAULT_HORIZON) -> bool:
    """Exactly decide form(i) >= 0 for every integer i >= start.

    beta < 0 is decided at once (the form tends to beta).  Otherwise
    ``eventual_sign`` settles every index from its from_index on, and the
    coordinates before it are checked by ``_first_negative``: block bounds
    clear whole runs of coordinates, the rest are evaluated pointwise, and
    the verdict is that of a float64 scan of every coordinate.  beta = 0
    forms with mixed signs are checked up to ``horizon`` and raise
    UndecidedComparisonError if nothing failed by then.
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

    This is the one place that indexes, pads, combines and orders such
    sequences.  Binary operations and ``le`` first pad both operands to a
    common head length; padded coordinates equal the operand's own
    ``TailForm.value``s bit for bit.  Results are plain Seqs.  The head is
    a tuple of Python floats, whose ``+ - *`` and comparisons round as
    float64 arrays do; ``array`` gives the padded head as a float64 array
    for bulk work.
    """

    head: tuple[float, ...] = ()
    tail: TailForm = TailForm()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(map(float, self.head)))

    @classmethod
    def _of(cls, head: tuple[float, ...], tail: TailForm) -> "Seq":
        """The Seq with ``head``, already a tuple of floats."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "head", head)
        object.__setattr__(seq, "tail", tail)
        return seq

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
            return self.head[i - 1]
        return self.tail.value(i)

    def _tail_values(self, h0: int, h: int):
        """``self.tail.value(i)`` for i in h0+1..h, bit for bit, as an
        iterable: every term ``c * pow(r, i)`` (the libm call of ``r**i``;
        ``np.power`` differs from it in the last bit) is added in order to
        a running sum from 0.0, and the constant last.  Each term is one
        pass of C-level maps over all the coordinates, kept as a list: lazy
        maps nested once per term overflow the C stack on a form of 10^5
        terms.  A form with no terms has the value 0.0 + constant."""
        tail = self.tail
        if not tail.terms:
            return repeat(0.0 + tail.constant, h - h0)
        idx = range(h0 + 1, h + 1)
        acc = repeat(0.0)
        for c, r in tail.terms:
            terms = map(operator.mul, repeat(c), map(pow, repeat(r), idx))
            acc = list(map(operator.add, acc, terms))
        return map(operator.add, acc, repeat(tail.constant))

    def pad(self, h: int) -> "Seq":
        """The same sequence with at least h explicit head values."""
        h0 = len(self.head)
        if h <= h0:
            return self
        return Seq._of(self.head + tuple(self._tail_values(h0, h)), self.tail)

    def array(self, h: int) -> np.ndarray:
        """Coordinates 1..max(h, head length) as a float64 array, bit for
        bit ``pad(h).head``."""
        h0 = len(self.head)
        h = max(h, h0)
        out = np.empty(h)
        out[:h0] = self.head
        if self.tail.terms:
            out[h0:] = np.fromiter(self._tail_values(h0, h), float, h - h0)
        else:  # one store, not one per coordinate
            out[h0:] = 0.0 + self.tail.constant
        return out

    def _combine(self, other: "Seq", op) -> "Seq":
        """self op other, ``op`` an ``operator`` function, on heads padded
        to one length."""
        a, b = self.head, other.head
        if len(a) != len(b):
            h = max(len(a), len(b))
            a, b = self.pad(h).head, other.pad(h).head
        return Seq._of(tuple(map(op, a, b)), op(self.tail, other.tail))

    def __add__(self, other: "Seq") -> "Seq":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Seq") -> "Seq":
        return self._combine(other, operator.sub)

    def __mul__(self, other: "Seq") -> "Seq":
        return self._combine(other, operator.mul)

    def scale(self, c: float) -> "Seq":
        c = float(c)
        return Seq._of(tuple(map(operator.mul, self.head, repeat(c))), self.tail.scale(c))

    def le(self, other: "Seq", horizon: int = DEFAULT_HORIZON) -> bool:
        """Exactly decide x_i <= y_i for every i >= 1, y = ``other``: the
        padded heads directly (on finite floats ``b >= a`` is ``b - a >= 0``),
        the tail gap y - x through ``is_nonnegative``."""
        # _combine's padding, written out: a shared helper cost axiom_suite ~3%
        a, b = self.head, other.head
        if len(a) != len(b):
            h = max(len(a), len(b))
            a, b = self.pad(h).head, other.pad(h).head
        gap = other.tail - self.tail
        if not all(map(operator.ge, b, a)):
            return False
        return is_nonnegative(gap, len(a) + 1, horizon)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # elementwise ==, not tuple ==, which takes a NaN to equal itself
        a, b = self.head, other.head
        return len(a) == len(b) and all(map(operator.eq, a, b)) and self.tail == other.tail

    def __hash__(self):
        return hash((self.head, self.tail))


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
        (|d| or |c| times a gap for an affine image or a scaled box, a
        convex combination of gaps) and is not decided again; every other
        check still runs."""
        lo, hi = _derived or (Seq(head_lo, tail_lo), Seq(head_hi, tail_hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.head_len != hi.head_len:
            raise InvalidBoxError("head arrays differ in length")
        if not (all(map(math.isfinite, lo.head)) and all(map(math.isfinite, hi.head))):
            raise InvalidBoxError("non-finite head interval")
        if not (lo.asym <= 0.0 <= hi.asym):
            raise InvalidBoxError(
                "box is empty in the null-sequence space: needs "
                f"asym(lo) <= 0 <= asym(hi), got {lo.asym} and {hi.asym}"
            )
        if _derived:
            ordered = all(map(operator.ge, hi.head, lo.head))
        else:
            ordered = lo.le(hi)
        if not ordered:
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
    return b.lo.le(a.lo, horizon) and a.hi.le(b.hi, horizon)


def contains_point(box: TailBox, p: Point, horizon: int = DEFAULT_HORIZON) -> bool:
    """Exactly decide membership of a point in a box."""
    return box.lo.le(p, horizon) and p.le(box.hi, horizon)


def affine_image(box: TailBox, d: Seq, e: Seq) -> TailBox:
    """Exact image of ``box`` under x_i -> d_i * x_i + e_i.

    Coordinates before the eventual sign of d is settled are materialised
    into the head; beyond, the image tails are tail-form products with the
    envelopes swapped where d is negative.  Raises UndecidedComparisonError
    when the sign of d is genuinely undecidable, and when it settles only
    past a head of ``_HEAD_CAP`` coordinates.
    """
    h = max(box.head_len, d.head_len, e.head_len)
    sign, from_idx = eventual_sign(d.tail, start=h + 1)
    if from_idx - 1 > max(h, _HEAD_CAP):
        raise UndecidedComparisonError(
            f"sign of d settles only at index {from_idx}, past the head cap {_HEAD_CAP}"
        )
    # the head runs to the sign-settling index, up to _HEAD_CAP coordinates,
    # so it is computed on float64 arrays
    h = max(h, from_idx - 1)
    dh, eh = d.array(h), e.array(h)
    x, y = d.tail * box.lo.tail, d.tail * box.hi.tail
    # an overflowing head entry becomes inf, which TailBox refuses
    with _FLOAT_ARITHMETIC():
        xh, yh = dh * box.lo.array(h), dh * box.hi.array(h)
        if sign < 0:
            x, y, xh, yh = y, x, yh, xh
        lo_head, hi_head = np.minimum(xh, yh) + eh, np.maximum(xh, yh) + eh
    lo = Seq._of(tuple(lo_head.tolist()), x + e.tail)
    hi = Seq._of(tuple(hi_head.tolist()), y + e.tail)
    return TailBox(_derived=(lo, hi))


def scale_translate(a: TailBox, c: float, shift: Point | None = None) -> TailBox:
    """Coordinatewise c*[lo, hi] + shift.  The shift must be a genuine
    member of the space (asymptotic value zero); the measure of the result
    is |c| times the measure of A, exactly.  The envelopes, padded to the
    shift's head length, are scaled and swapped for c < 0.  With no shift
    nothing is added, so a zero of c*[lo, hi] keeps its sign."""
    if shift is not None and not isinstance(shift, Point):
        raise InvalidPointError("shift must be a Point with asymptotic value zero")
    if not math.isfinite(c):
        raise InvalidTailFormError("non-finite constant")
    h = a.head_len if shift is None else max(a.head_len, shift.head_len)
    lo, hi = a.lo.pad(h).scale(c), a.hi.pad(h).scale(c)
    if c < 0.0:
        lo, hi = hi, lo
    if shift is not None:
        lo, hi = lo + shift, hi + shift
    return TailBox(_derived=(lo, hi))


_ORACLE_WINDOW = 4096


def _tail_abs_sup(form_lo: TailForm, form_hi: TailForm, n_cut: int) -> float:
    """sup over i > n_cut of max(|lo(i)|, |hi(i)|) by explicit maximisation:
    a contiguous window, a dyadic ladder and the asymptotic values."""
    best = max(abs(form_lo.asym), abs(form_hi.asym))
    idx = np.arange(n_cut + 1, n_cut + _ORACLE_WINDOW + 1, dtype=np.int64)
    window = np.maximum(np.abs(form_lo.values(idx)), np.abs(form_hi.values(idx)))
    best = max(best, float(window.max()))
    probe = 2 * (n_cut + _ORACLE_WINDOW)
    while probe <= 2**62:
        best = max(best, abs(form_lo.value(probe)), abs(form_hi.value(probe)))
        probe *= 2
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
