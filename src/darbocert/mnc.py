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
the sign of the form equals the sign of beta.  A form with beta = 0 is
r**i times a form whose constant is its largest-ratio term's coefficient,
so it has a dominance index too.  The finitely many earlier coordinates
are evaluated in float64, one window of coordinates at a time, and the
first negative value decides.  Only a form whose sign settles past a cap
is left undecided.

Head arithmetic runs on Python floats, which round as float64 does.  A
tail coordinate has one float value, ``TailForm.value``'s, with libm's
``pow`` (never numpy's SIMD power, whose kernel varies with the CPU):
``TailForm._window`` computes runs of them for padding, the sign scan
and the truncation oracle alike, none past the form's settle index
(``_settle_index``).

Everything here is immutable and pure; concurrent use needs no locks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from typing import Sequence

import numpy as np

__all__ = [
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

# Dominance indices more than this past the start are out of practical
# range: eventual_sign reports them undecided, and is_nonnegative scans one
# window of _SCAN_CHUNK coordinates for a negative value instead.
_DOMINANCE_CAP = 10_000_000

# affine_image materialises d's coordinates up to its sign-settling index
# with Seq.array; a longer head than this is refused.
_HEAD_CAP = 100_000

# _first_negative scans a range in windows of this many coordinates, so a
# form negative early in a long scan costs one window, and the lists of a
# window stay small.
_SCAN_CHUNK = 1 << 16

# TailForm.__mul__ refuses a product of more raw terms than this, the size
# TailForm._window is written for: n composed operators can give 2**n terms.
_MAX_PRODUCT_TERMS = 100_000

# Array arithmetic that overflows as Python floats do, without a warning.
_FLOAT_ARITHMETIC = functools.partial(np.errstate, over="ignore", invalid="ignore")


class MncError(ValueError):
    """Base class for set-model failures."""


class InvalidTailFormError(MncError):
    pass


class InvalidBoxError(MncError):
    pass


class InvalidPointError(MncError):
    pass


class UndecidedComparisonError(MncError):
    """A tail form's sign settles past ``_DOMINANCE_CAP``, or the sign of
    an affine image's multiplier past a head of ``_HEAD_CAP``."""


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


def _settle_index(form: "TailForm", stop: float = math.inf) -> int:
    """An index K from which ``form.value(i)`` is ``0.0 + constant`` bit
    for bit (1 with no terms), or an index past ``stop`` if K is.

    K is the largest ratio rho's underflow index live(rho) = 1100 /
    -log2(rho) + 2, rounded up.  From there i * -log2(r) > 1099 for every
    ratio r <= rho (log2 and the two float operations after it are each
    within a few ulp), so r**i < 2**-1099, far below half the smallest
    subnormal 2**-1074, and ``pow``, which evaluates exp(i * log r) with an
    error far below one in the exponent, returns +0.0: every term is ±0.0,
    and the running sum from 0.0 stays +0.0.

    If ulp(c) >= 2**-996 for the constant c, K is the smaller of that and
    the dominance index K' of the terms against b = ulp(c)/16 if P =
    rho**K' > 0: from K' on every pow(r, i) is below about 3P (pow within
    one ulp, P >= 2**-1074), so the terms with their rounding add up to
    under 4b = ulp(c)/4 (the floor keeps subnormal rounding errors far
    below b), and round to nearest keeps c + t == c for |t| < ulp(c)/4 (the
    spacing below a power of two is the tighter side).  K' is not computed
    if the largest-ratio term alone is at least b at ``stop``."""
    if not form.terms:
        return 1
    coeff, rho = form.terms[-1]
    settle = math.ceil(1100.0 / -math.log2(rho) + 2.0)  # live(rho)
    b = math.ulp(form.constant) / 16.0
    if b >= 2.0**-1000 and abs(coeff) * rho**stop < b:
        k = TailForm._of(form.terms, b).dominance_index()
        if rho**k > 0.0:
            settle = min(settle, k)
    return settle


@dataclass(frozen=True, slots=True, init=False)
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

    terms: tuple[tuple[float, float], ...]
    constant: float

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

    @property
    def n_terms(self) -> int:
        return len(self.terms)

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

    def _window(self, h0: int, h: int):
        """``self.value(i)`` for i in h0+1..h as ``(listed, k, rest)``: the
        values of h0+1..k, k below the settle index, and ``rest = 0.0 +
        constant`` past k, all bit for bit.  The one route for a run of tail
        coordinates: each term ``c * pow(r, i)`` is added in order to a
        running sum from 0.0, in one pass of C-level maps kept as a list
        (lazy maps nested per term overflow the C stack at 10^5 terms)."""
        k = min(h, max(h0, _settle_index(self, h) - 1))
        idx = range(h0 + 1, k + 1)
        acc = repeat(0.0, k - h0)
        for c, r in self.terms:
            terms = map(operator.mul, repeat(c), map(pow, repeat(r), idx))
            acc = list(map(operator.add, acc, terms))
        return map(operator.add, acc, repeat(self.constant)), k, 0.0 + self.constant

    def coeff_abs_sum(self) -> float:
        """sum_j |c_j|, added left to right from 0.0 on every Python
        version (sum() of floats is compensated from Python 3.12 on)."""
        total = 0.0
        for c, _ in self.terms:
            total += abs(c)
        return total

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
        n, m = self.n_terms, other.n_terms
        if (n + 1) * (m + 1) - 1 > _MAX_PRODUCT_TERMS:
            raise InvalidTailFormError(
                f"a product of {n}- and {m}-term tail forms exceeds {_MAX_PRODUCT_TERMS} terms"
            )
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
        # guard the float log estimate: the first index from it on where the
        # float bound holds, in doubling steps and then halving ones: for a
        # ratio near 1 with subnormal powers there, the two can be 10^7
        # indices apart
        low = idx = int(raw) + 1
        step = 1
        while total * rho**idx >= beta:
            low, idx, step = idx + 1, idx + step, 2 * step
        while low < idx:
            mid = (low + idx) // 2
            if total * rho**mid >= beta:
                low = mid + 1
            else:
                idx = mid
        return max(start, idx)


def eventual_sign(form: TailForm, start: int = 1) -> tuple[int, int]:
    """Return (sign, from_index): the constant sign of ``form`` on every
    index >= from_index, with sign in {-1, 0, +1} (+1 means >= 0, -1 means
    <= 0, 0 means identically zero).

    This is the one sign classifier.  Sign-definite forms (beta and every
    coefficient of one sign) hold their sign from ``start``; other forms
    take the sign of beta, or for beta = 0 that of the largest-ratio term,
    from a dominance index.  Raises UndecidedComparisonError for an index
    more than ``_DOMINANCE_CAP`` past ``start``.
    """
    beta = form.constant
    if beta == 0.0 and not form.n_terms:
        return (0, start)
    if beta >= 0.0 and all(c > 0.0 for c, _ in form.terms):
        return (1, start)
    if beta <= 0.0 and all(c < 0.0 for c, _ in form.terms):
        return (-1, start)
    lead = form
    if beta == 0.0:
        # form(i) = r**i * (c + sum_j c_j * (r_j/r)**i) for the largest-ratio
        # term (c, r), and the sum is at most sum_j |c_j| * q_j**i for
        # q_j = nextafter(r_j/r, 1.0) >= r_j/r (a quotient is within half an ulp)
        *rest, (c, r) = form.terms
        bounds = [math.nextafter(rj / r, 1.0) for _, rj in rest]
        if max(bounds) < 1.0:
            lead = TailForm([(abs(cj), q) for (cj, _), q in zip(rest, bounds)], c)
        elif sum(Fraction(abs(cj)) for cj, _ in rest) <= abs(c):
            # every r_j/r < 1, so c dominates from the start
            return (1 if c > 0.0 else -1, start)
        else:  # a bound of 1.0 bounds no index
            raise UndecidedComparisonError(
                f"a ratio within rounding of {r}: dominance index exceeds practical range"
            )
    idx = lead.dominance_index(start)
    if idx - start > _DOMINANCE_CAP:
        raise UndecidedComparisonError(f"dominance index {idx} exceeds practical range")
    return (1 if lead.constant > 0.0 else -1, idx)


def _first_negative(form: TailForm, start: int, stop: int) -> int | None:
    """First index i in [start, stop] with form(i) < 0 in float, or None.

    The range is read through ``TailForm._window`` in windows of
    ``_SCAN_CHUNK`` coordinates, which bound its lists; from the form's
    settle index on, ``0.0 + constant`` decides the rest."""
    if start > stop:  # nearly every call on axiom_suite: about 1% of its job
        return None
    for lo in range(start, stop + 1, _SCAN_CHUNK):
        hi = min(stop, lo + _SCAN_CHUNK - 1)
        listed, k, rest = form._window(lo - 1, hi)
        bad = next(compress(count(lo), map(operator.lt, listed, repeat(0.0))), None)
        if bad is not None:
            return bad
        if k < hi:
            return k + 1 if rest < 0.0 else None
    return None


def is_nonnegative(form: TailForm, start: int = 1) -> bool:
    """Exactly decide form(i) >= 0 for every integer i >= start.

    beta < 0 is decided at once (the form tends to beta).  Otherwise
    ``eventual_sign`` settles every index from its from_index on, and the
    coordinates before it are evaluated in float64 by ``_first_negative``,
    a windowed pointwise scan: the verdict is that of every coordinate's
    float value.  A form whose sign settles more than ``_DOMINANCE_CAP``
    past ``start`` is scanned for one window instead, start ..
    start + _SCAN_CHUNK - 1: a negative value there decides, and otherwise
    UndecidedComparisonError is raised.
    """
    if form.constant < 0.0:
        return False
    try:
        sign, from_idx = eventual_sign(form, start)
    except UndecidedComparisonError:
        if _first_negative(form, start, start + _SCAN_CHUNK - 1) is not None:
            return False
        raise
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

    def pad(self, h: int) -> "Seq":
        """The same sequence with at least h explicit head values."""
        h0 = len(self.head)
        if h <= h0:
            return self
        listed, k, rest = self.tail._window(h0, h)
        return Seq._of(self.head + tuple(listed) + (rest,) * (h - k), self.tail)

    def array(self, h: int) -> np.ndarray:
        """Coordinates 1..max(h, head length) as a float64 array, bit for
        bit ``pad(h).head``."""
        h0 = len(self.head)
        h = max(h, h0)
        listed, k, rest = self.tail._window(h0, h)
        out = np.empty(h)
        out[:h0] = self.head
        out[h0:k] = np.fromiter(listed, float, k - h0)
        out[k:] = rest  # one store, not one per coordinate
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

    def le(self, other: "Seq") -> bool:
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
        return is_nonnegative(gap, len(a) + 1)

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


def hausdorff_mnc(box: TailBox) -> float:
    """Hausdorff measure of noncompactness of a tail box; zero exactly when
    the box is relatively compact in this model.

    Equals max(|asym(lo)|, |asym(hi)|); the finitely many head coordinates
    never contribute.
    """
    return max(abs(box.lo.asym), abs(box.hi.asym))


def mnc_union(union: SetUnion) -> float:
    """Measure of a finite union: the max over member boxes (consistent
    with monotonicity and with the convex-hull rewrite, see conv_hull_mnc)."""
    return max(hausdorff_mnc(b) for b in union.boxes)


def conv_hull_mnc(union: SetUnion) -> float:
    """Measure assigned to the closed convex hull of a union of boxes.

    The hull's coordinatewise envelope is [min_j lo_j(i), max_j hi_j(i)],
    whose asymptotic values are min_j beta_lo_j and max_j beta_hi_j; the
    measure follows without materialising the (generally non-tail-form)
    pointwise min/max.
    """
    lo = min(b.lo.asym for b in union.boxes)
    hi = max(b.hi.asym for b in union.boxes)
    return max(abs(lo), abs(hi))


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


def subset(a: TailBox, b: TailBox) -> bool:
    """Exactly decide A subseteq B.  Raises UndecidedComparisonError only
    for an envelope gap whose sign settles past ``_DOMINANCE_CAP``."""
    return b.lo.le(a.lo) and a.hi.le(b.hi)


def contains_point(box: TailBox, p: Point) -> bool:
    """Exactly decide membership of a point in a box."""
    return box.lo.le(p) and p.le(box.hi)


def affine_image(box: TailBox, d: Seq, e: Seq) -> TailBox:
    """Exact image of ``box`` under x_i -> d_i * x_i + e_i.

    Coordinates before the eventual sign of d is settled are materialised
    into the head; beyond, the image tails are tail-form products with the
    envelopes swapped where d is negative.  Raises UndecidedComparisonError
    when the sign of d settles past ``_DOMINANCE_CAP``, or only past a head
    of ``_HEAD_CAP`` coordinates.
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


def scale_translate(a: TailBox, c: float) -> TailBox:
    """Coordinatewise c*[lo, hi]: the envelopes scaled and swapped for
    c < 0.  The measure of the result is |c| times the measure of A,
    exactly, and a zero of c*[lo, hi] keeps its sign."""
    if not math.isfinite(c):
        raise InvalidTailFormError("non-finite constant")
    lo, hi = a.lo.scale(c), a.hi.scale(c)
    if c < 0.0:
        lo, hi = hi, lo
    return TailBox(_derived=(lo, hi))


_ORACLE_WINDOW = 4096


def _tail_abs_sup(form_lo: TailForm, form_hi: TailForm, n_cut: int) -> float:
    """sup over i > n_cut of max(|lo(i)|, |hi(i)|) by explicit maximisation:
    a contiguous window, a dyadic ladder and the asymptotic values.  Past
    a form's settle index its absolute value is |constant|, already in
    ``best``."""
    best = max(abs(form_lo.asym), abs(form_hi.asym))
    for form in (form_lo, form_hi):
        listed, _, _ = form._window(n_cut, n_cut + _ORACLE_WINDOW)
        best = max(best, max(map(abs, listed), default=0.0))
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
