import json
import math
import operator
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darbocert import mnc
from darbocert.axioms import random_box
from darbocert.cli import EXIT_PASS, run
from darbocert.mnc import (
    InvalidBoxError,
    InvalidPointError,
    InvalidTailFormError,
    MncError,
    Point,
    Seq,
    SetUnion,
    TailBox,
    TailForm,
    UndecidedComparisonError,
    affine_image,
    closure,
    contains_point,
    conv_hull_mnc,
    convex_combination,
    eventual_sign,
    hausdorff_mnc,
    _SCAN_CHUNK,
    _first_negative,
    is_nonnegative,
    mnc_union,
    scale_translate,
    subset,
    truncation_tail_sup,
)
from darbocert.operators import DiagonalAffineOperator, apply_to_box


def hexes(values):
    """Bit patterns of floats, so that -0.0 and 0.0 differ."""
    return [float(x).hex() for x in values]


def symmetric_box(level, terms=()):
    """lo = -(level + terms), hi = +(level + terms)."""
    hi = TailForm(terms, level)
    return TailBox((), (), hi.scale(-1.0), hi)


UNIT = symmetric_box(1.0)
HALF = symmetric_box(0.5)


class TestTailForm:
    def test_value_and_asym(self):
        f = TailForm(((5.0, 0.9),), 0.3)
        assert f.asym == 0.3
        assert f.value(2) == pytest.approx(0.3 + 5 * 0.81)

    def test_normalisation_merges_and_drops(self):
        f = TailForm(((1.0, 0.5), (2.0, 0.5), (-3.0, 0.5), (4.0, 0.0)), 1.0)
        assert f.terms == ()  # coefficients cancel; ratio-zero term vanishes at i >= 1
        assert f.constant == 1.0

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(InvalidTailFormError):
            TailForm(((1.0, 1.0),), 0.0)
        with pytest.raises(InvalidTailFormError):
            TailForm(((1.0, -0.1),), 0.0)

    def test_geometric_decay_bound(self):
        f = TailForm(((3.0, 0.8), (-2.0, 0.5)), 0.7)
        for i in (1, 5, 20, 100):
            assert abs(f.value(i) - f.asym) <= f.coeff_abs_sum() * f.max_ratio() ** i + 1e-15

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(0, 0.95, allow_nan=False),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(0, 0.95, allow_nan=False),
            ),
            max_size=3,
        ),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_algebra_closure(self, t1, t2, b1, b2):
        f = TailForm(tuple(t1), b1)
        g = TailForm(tuple(t2), b2)
        s, p = f + g, f * g
        assert s.asym == b1 + b2
        assert p.asym == b1 * b2
        assert all(0 <= r < 1 for _, r in p.terms)
        for i in (1, 3, 10):
            assert s.value(i) == pytest.approx(f.value(i) + g.value(i), abs=1e-9)
            assert p.value(i) == pytest.approx(f.value(i) * g.value(i), abs=1e-8)
        assert f - g == f + g.scale(-1.0)


@st.composite
def wide_forms(draw, max_terms=300):
    """Forms of 0..max_terms terms with coefficients over twelve decades;
    numpy draws the terms from a seed hypothesis picks.  Forms of at most
    four terms are drawn often."""
    n = draw(st.one_of(st.integers(0, 4), st.integers(0, max_terms)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    terms = tuple(zip(coeffs.tolist(), rng.random(n).tolist()))
    return TailForm(terms, draw(st.floats(-1e3, 1e3)))


@st.composite
def settle_cases(draw):
    """(form, lo, hi): one to four terms with coefficients up to 1e+-300
    and ratios near 0, mid-range or within 1e-3 of 1, a constant that is
    a signed zero, a power of two, subnormal, 0.98 or uniform, and a window
    lo..hi of indices around the form's settle index."""
    sign = st.sampled_from([1.0, -1.0])
    coeff = st.builds(lambda s, e: s * 10.0**e, sign, st.floats(-300, 300))
    ratio = st.one_of(
        st.builds(lambda e: 10.0**-e, st.floats(1, 300)),
        st.floats(0.05, 0.95),
        st.floats(1 - 1e-3, 1.0, exclude_max=True),
    )
    constant = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.98, -0.98]),
        st.builds(lambda s, k: s * 2.0**k, sign, st.integers(-1074, 1023)),
        st.floats(-1e3, 1e3),
    )
    form = TailForm(draw(st.lists(st.tuples(coeff, ratio), min_size=1, max_size=4)), draw(constant))
    settle = mnc._settle_index(form)
    lo = max(1, settle - draw(st.integers(0, 300)))
    return form, lo, settle + draw(st.integers(0, 300))


class TestSettleIndex:
    @settings(deadline=None, max_examples=300)
    @given(settle_cases())
    def test_windows_across_the_settle_index(self, case):
        form, lo, hi = case
        want = [form.value(i).hex() for i in range(lo, hi + 1)]
        listed, k, rest = form._window(lo - 1, hi)
        assert hexes([*listed, *(rest,) * (hi - k)]) == want
        if hi > 10**6:  # a head that long is out of reach
            return
        # the head stands in for coordinates 1..lo-1 and is not read
        seq = Seq((0.0,) * (lo - 1), form)
        assert hexes(seq.pad(hi).head[lo - 1:]) == want
        assert hexes(seq.array(hi)[lo - 1:]) == want

    def test_pow_past_the_underflow_index_is_zero(self):
        # the premise of _settle_index: pow returns +0.0 at and past live(r),
        # for ratios across (0, 1) and at both ends of it
        rng = random.Random(19)
        ratios = [2.0**-1074, 1e-300, 0.5, 0.99, 0.999999, 1.0 - 2.0**-53]
        ratios += [rng.random() for _ in range(100)] + [1.0 - 10.0 ** -rng.uniform(1, 15) for _ in range(94)]
        for r in ratios:
            first = math.ceil(1100.0 / -math.log2(r) + 2.0)
            assert hexes(pow(r, i) for i in range(first, first + 4096)) == [(0.0).hex()] * 4096, r

    def test_the_chain_long_multiplier_settles_at_its_dominance_index(self):
        # 0.98 + 0.01 * 0.9**i is 0.98 in float from i = 312 on, and the
        # settle index proves it from 332, long before 0.9's underflow index
        # of about 7,240
        d = TailForm(((0.01, 0.9),), 0.98)
        assert mnc._settle_index(d) <= 340
        assert d.value(mnc._settle_index(d)) == 0.98
        assert hexes(Seq((), d).array(10_000)) == [d.value(i).hex() for i in range(1, 10_001)]


def loop_first_negative(form, start, stop):
    """The pointwise scan ``_first_negative`` must match: every coordinate
    of [start, stop] through the scalar ``TailForm.value``."""
    return next((i for i in range(start, stop + 1) if form.value(i) < 0.0), None)


def with_value_at(form, i, value):
    """``form`` with the constant moved so that its float value at i is
    about ``value``."""
    return form.with_constant(form.constant - form.value(i) + value)


@st.composite
def scan_cases(draw):
    """(form, start, stop): wide forms over a range of up to 3,000
    coordinates, often moved to within a few ulps of zero at one coordinate
    of the range, or with beta = 0."""
    form = draw(wide_forms())
    start = draw(st.one_of(st.integers(1, 50), st.integers(1, 10**6)))
    stop = start + draw(st.integers(-1, 3000))
    kind = draw(st.sampled_from(["plain", "near_zero", "beta_zero"]))
    if kind == "near_zero" and form.n_terms:
        pivot = draw(st.integers(start, max(start, stop)))
        mass = abs(form.constant) + form.coeff_abs_sum()
        form = with_value_at(form, pivot, draw(st.integers(-4, 4)) * np.spacing(mass))
    elif kind == "beta_zero":
        form = form.with_constant(0.0)
    return form, start, stop


def count_evaluated(monkeypatch):
    """Count the coordinates ``TailForm._window`` computes from now on,
    not those it fills past the settle index."""
    seen = [0]
    window = TailForm._window

    def counting(form, h0, h):
        listed, k, rest = window(form, h0, h)
        seen[0] += k - h0
        return listed, k, rest

    monkeypatch.setattr(TailForm, "_window", counting)
    return seen


class TestBlockScan:
    @settings(deadline=None, max_examples=200)
    @given(scan_cases())
    def test_matches_the_pointwise_scan(self, case):
        form, start, stop = case
        assert _first_negative(form, start, stop) == loop_first_negative(form, start, stop)

    @settings(deadline=None, max_examples=60)
    @given(wide_forms(max_terms=40), st.floats(0.05, 0.95), st.integers(1, 200), st.data())
    def test_one_minus_d_times_a_form(self, p, beta, start, data):
        # (1 - d)*P with d near beta: mixed signs and long ranges near zero
        d = TailForm(((data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(0.5, 0.999))),), beta)
        form = (TailForm((), 1.0) - d) * p
        stop = start + data.draw(st.integers(0, 2000))
        assert _first_negative(form, start, stop) == loop_first_negative(form, start, stop)

    @settings(deadline=None, max_examples=30)
    @given(wide_forms(), st.integers(1, 10_000))
    def test_mixed_beta_zero_forms_to_the_horizon(self, form, horizon):
        form = form.with_constant(0.0)
        assert _first_negative(form, 1, horizon) == loop_first_negative(form, 1, horizon)

    def test_first_negative_past_the_first_window(self):
        # positive up to about 70,000, then negative for a long stretch
        form = TailForm(((1.0, 0.99999), (0.5, 0.9), (-1e-4, 0.3), (1e-6, 0.2)), -0.496)
        stop = 2 * _SCAN_CHUNK + 10
        found = _first_negative(form, 1, stop)
        assert _SCAN_CHUNK < found == loop_first_negative(form, 1, stop)

    def test_overflowing_sign_part_clears_nothing_and_warns_nothing(self):
        # the positive terms sum past the float range at 1, while the form's
        # in-order sum there is finite; RuntimeWarnings are errors in this suite
        form = TailForm(((1e308, 0.9), (1e308, 0.95), (-1e308, 0.5), (-1e308, 0.6)))
        assert _first_negative(form, 1, 5000) == loop_first_negative(form, 1, 5000)

    def test_rounded_nesting_form_of_the_slow_chain(self):
        # d = 0.3 - 0.5*0.999**i on the unit box: the float lower gap of
        # nesting step 13 is negative at 511, the first coordinate after its
        # head, and the scan keeps that verdict
        op = DiagonalAffineOperator((), TailForm(((-0.5, 0.999),), 0.3), (), TailForm((), 0.0))
        box = symmetric_box(1.0)
        for _ in range(13):
            box = apply_to_box(op, box)
        gap = apply_to_box(op, box).lo - box.lo
        start = gap.head_len + 1
        sign, idx = eventual_sign(gap.tail, start)
        assert (sign, start) == (1, 511)
        assert _first_negative(gap.tail, start, idx - 1) == 511
        assert loop_first_negative(gap.tail, start, idx - 1) == 511

    def test_a_negative_window_ends_the_scan(self, monkeypatch):
        # negative from coordinate 2 on: one window of a scan to 10**6
        form = TailForm(((1.0, 0.5),), -0.3)
        seen = count_evaluated(monkeypatch)
        assert _first_negative(form, 1, 10**6) == 2
        assert seen[0] <= _SCAN_CHUNK

    def test_a_nonnegative_form_is_scanned_to_its_settle_index(self, monkeypatch):
        # 0.5**i - 0.5*0.25**i is +0.0 in float from 0.5's underflow index
        # (1,102) on: the scan computes each coordinate before it once and
        # stops there
        form = TailForm(((1.0, 0.5), (-0.5, 0.25)))
        seen = count_evaluated(monkeypatch)
        assert _first_negative(form, 3, 10**6) is None
        assert seen[0] == mnc._settle_index(form) - 3 == 1099
        # past the settle index the constant decides the rest of the range
        assert _first_negative(form.with_constant(-0.0), 3, 10**6) is None
        assert _first_negative(form.with_constant(-5e-324), 1200, 10**6) == 1200

    def test_one_window_allocates_a_bounded_amount(self):
        # ratios near 1 keep every coordinate of the window live; the
        # per-term lists of the window are two lists of _SCAN_CHUNK floats
        # (8-byte slot and 24-byte float each) however many terms there are:
        # 4.27 MB with 3 terms and with 290, which tracemalloc slows to a minute
        form = TailForm(tuple((1.0 + k, 0.999 + k * 1e-6) for k in range(3)))
        assert mnc._settle_index(form) > _SCAN_CHUNK
        tracemalloc.start()
        try:
            assert _first_negative(form, 1, _SCAN_CHUNK) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 32 * _SCAN_CHUNK


@st.composite
def pad_cases(draw):
    """A Seq of up to 5 head entries and 1..8 terms, with coefficients at
    the ends of the float range, negatives that underflow to -0.0 and a
    constant of -0.0 among them, and a pad length at most 40 past the head."""
    coeffs = st.one_of(
        st.sampled_from([5e-324, -5e-324, 1e300, -1e300, -1e-300, -2.5e-320]),
        st.floats(-10.0, 10.0).filter(bool),
    )
    ratios = st.one_of(
        st.sampled_from([1e-300, 0.5, 0.9, 0.9999]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    terms = draw(st.lists(st.tuples(coeffs, ratios), min_size=1, max_size=8, unique_by=lambda t: t[1]))
    constant = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1e300]), st.floats(-10.0, 10.0)))
    head = draw(st.lists(st.floats(-10.0, 10.0), max_size=5))
    return Seq(head, TailForm(terms, constant)), draw(st.integers(0, len(head) + 40))


class TestSeq:
    GEOM = TailForm(((1.0, 0.5),), 0.0)

    def test_indexing(self):
        s = Seq((7.0, -2.0), self.GEOM)
        assert (s(1), s(2), s(3)) == (7.0, -2.0, 0.125)
        assert s.head_len == 2 and s.asym == 0.0
        with pytest.raises(ValueError):
            s(0)

    def test_pad_materialises_tail_values(self):
        s = Seq((7.0,), self.GEOM)
        padded = s.pad(3)
        assert hexes(padded.head) == hexes([7.0, 0.25, 0.125])
        assert padded.tail == s.tail
        assert s.pad(1) is s

    def test_arithmetic_pads_each_operand_from_its_own_tail(self):
        a = Seq((1.0,), TailForm((), 2.0))
        b = Seq((), self.GEOM)
        assert hexes((a + b).head) == hexes([1.5])
        assert hexes((a - b).head) == hexes([0.5])
        assert hexes((a * b).head) == hexes([0.5])
        assert (a + b).tail == TailForm(((1.0, 0.5),), 2.0)
        assert (a * b).tail == TailForm(((2.0, 0.5),), 0.0)
        assert a.scale(-2.0) == Seq((-2.0,), TailForm((), -4.0))

    def test_pad_of_a_constant_tail_is_the_scalar_value(self):
        for constant in (0.0, -0.0, 5e-324, -1.5, 1e308):
            s = Seq((7.0,), TailForm((), constant))
            padded = s.pad(4).head
            assert hexes(padded) == [(7.0).hex()] + [(sum(()) + constant).hex()] * 3
            assert hexes(padded[1:]) == hexes(s.tail.value(i) for i in (2, 3, 4))

    @settings(deadline=None, max_examples=200)
    @given(pad_cases())
    def test_pad_is_the_scalar_value_bit_for_bit(self, case):
        s, h = case
        padded = s.pad(h).head
        rest = range(s.head_len + 1, h + 1)
        want = [*s.head, *(s.tail.value(i) for i in rest)]
        assert hexes(padded) == hexes(want)
        # value adds left to right from 0.0: sum() of floats is compensated from 3.12
        for i in rest:
            acc = 0.0
            for c, r in s.tail.terms:
                acc = acc + c * r**i
            assert s.tail.value(i).hex() == (acc + s.tail.constant).hex()

    def test_pad_of_a_form_with_many_terms(self):
        # lazy maps nested once per term would overflow the C stack here
        form = TailForm([(1e-6, k / (2 * 10**5)) for k in range(1, 10**5 + 1)], 0.5)
        padded = Seq((), form).pad(2).head
        assert hexes(padded) == [form.value(1).hex(), form.value(2).hex()]

    def test_chain_long_certify_pads_without_scalar_values(self, tmp_path, monkeypatch, capsys):
        # the witness pads d (one term) to the horizon of 10**4 coordinates;
        # one TailForm.value per coordinate made 10,121 calls
        calls = 0
        value = TailForm.value

        def counted(self, i):
            nonlocal calls
            calls += 1
            return value(self, i)

        monkeypatch.setattr(TailForm, "value", counted)
        config = tmp_path / "chain_long.json"
        config.write_text(json.dumps({
            "set": {"tailLo": {"beta": -1.0}, "tailHi": {"beta": 1.0}},
            "operator": {"dTail": {"terms": [{"alpha": 0.01, "rho": 0.9}], "beta": 0.98}},
            "classicK": 0.99,
        }))
        argv = ["certify", "--mode", "classic", "--config", str(config), "--out", str(tmp_path / "r.json")]
        assert run(argv) == EXIT_PASS
        capsys.readouterr()
        assert 0 < calls <= 200

    def test_le_checks_head_then_tail(self):
        s = Seq((-1.0, 0.0), TailForm(((-1.0, 0.5),), 0.5))
        assert not Seq().le(s)
        # padded to [-1.0, 0.0], equal heads; the tail gap is decided from 3
        assert Seq((-1.0,)).le(s)
        assert not Seq().le(Seq((), TailForm(((-2.0, 0.5),), 0.5)))
        assert s.le(Seq((-1.0, 0.0), TailForm((), 0.5)))

    def test_le_forms_the_tail_gap_before_reading_heads(self):
        # the heads alone refute x <= y, yet the overflowing gap raises
        x = Seq((1.0,), TailForm(((1e308, 0.5),), 0.0))
        y = Seq((0.0,), TailForm(((-1e308, 0.5),), 0.0))
        with pytest.raises(InvalidTailFormError, match="^non-finite term$"):
            x.le(y)

    def test_equality_and_hash_over_array_heads(self):
        assert Seq((1.0,), self.GEOM) == Seq([1.0], self.GEOM)
        assert hash(Seq((1.0,), self.GEOM)) == hash(Seq(np.array([1.0]), self.GEOM))
        assert Seq((1.0,), self.GEOM) != Seq((2.0,), self.GEOM)
        assert Seq((1.0,), self.GEOM) != Seq((1.0, 0.5), self.GEOM)
        assert Point() == Point()
        assert Point() != Seq()
        # elementwise float ==: a NaN entry is unequal to itself, +-0 are equal
        nan = Seq((math.nan,))
        assert nan != nan and not nan == nan
        assert Seq((0.0, 1.0)) == Seq((-0.0, 1.0))
        assert hash(Seq((0.0, 1.0))) == hash(Seq((-0.0, 1.0)))

    def test_head_is_immutable(self):
        s = Seq((1.0,))
        with pytest.raises(TypeError):
            s.head[0] = 2.0

    def test_public_constructor_copies_the_head(self):
        arr = np.array([1.0, 2.0])
        s = Seq(arr, self.GEOM)
        arr[0] = 5.0
        assert hexes(s.head) == hexes([1.0, 2.0]) and arr.flags.writeable
        assert type(s.head) is tuple and all(type(x) is float for x in s.head)

    def test_derived_heads_are_read_only(self):
        a = Seq((1.0, -2.0), TailForm((), 2.0))
        b = Seq((), self.GEOM)
        box = TailBox((-1.0,), (1.0,), TailForm((), -1.0), TailForm((), 1.0))
        d, e = Seq((0.5,), TailForm((), -0.5)), Seq((), TailForm((), 0.0))
        image = affine_image(box, d, e)
        # an identity operation gives an equal Seq whose head is just as immutable
        g = Seq((1.0, 2.0), self.GEOM)
        zero, one = Seq((0.0, 0.0), TailForm()), Seq((1.0, 1.0), TailForm((), 1.0))
        same = [g + zero, g - zero, g * one, g.scale(1.0)]
        assert all(seq == g for seq in same)
        derived = [a + b, b + a, a - b, a * b, a.scale(3.0), a.pad(4), b.pad(2), image.lo, image.hi]
        for seq in derived + same:
            assert type(seq.head) is tuple and all(type(x) is float for x in seq.head)
            with pytest.raises(TypeError):
                seq.head[:1] = (9.0,)
        assert hexes((a + b).head) == hexes([1.5, -1.75])
        assert (hexes(image.lo.head), hexes(image.hi.head)) == (hexes([-0.5]), hexes([0.5]))


@st.composite
def mixed_beta_zero_forms(draw):
    """beta = 0 forms of 2 to 4 terms with coefficients of both signs in any
    order, so 1 to 3 sign changes.  The ratios (k + u)/64, k distinct in
    1..60 and u in [0, 1/2], are at least 1/128 apart, which keeps every
    dominance index below about 400."""
    n = draw(st.integers(2, 4))
    ks = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)
                 .filter(lambda signs: len(set(signs)) == 2))
    terms = [(sign * draw(st.floats(0.125, 8.0)), (k + draw(st.floats(0.0, 0.5))) / 64)
             for sign, k in zip(signs, ks)]
    return TailForm(terms)


def exact_signs(form, start, stop):
    """The exact sign of form(i) for i in start..stop, or None where
    |form(i)| is below 2**-40 times sum_j |c_j| * r_j**i, so that a float
    evaluation may round it to either sign.  A term c * r**i is
    a * m**i / 2**(s + e*i) for c = a / 2**s and r = m / 2**e, so every
    value is one integer sum over a common power of two."""
    parts = []
    for c, r in form.terms:
        (a, sden), (m, eden) = c.as_integer_ratio(), r.as_integer_ratio()
        parts.append((a, sden.bit_length() - 1, m, eden.bit_length() - 1))
    powers = [m**start for _, _, m, _ in parts]
    signs = []
    for i in range(start, stop + 1):
        top = max(s + e * i for _, s, _, e in parts)
        scaled = [a * p << (top - s - e * i) for (a, s, _, e), p in zip(parts, powers)]
        total = sum(scaled)
        if abs(total) << 40 < sum(map(abs, scaled)):
            signs.append(None)
        else:
            signs.append((total > 0) - (total < 0))
        powers = [p * m for p, (_, _, m, _) in zip(powers, parts)]
    return signs


class TestSignMachinery:
    @settings(deadline=None, max_examples=200)
    @given(mixed_beta_zero_forms(), st.integers(1, 20))
    @example(TailForm(((-1.0, 0.5), (1.0, 0.6))), 1)
    @example(TailForm(((1.0, 0.8), (-3.0, 0.85), (2.5, 0.9))), 3)
    def test_mixed_beta_zero_forms_match_exact_evaluation(self, form, start):
        sign, idx = eventual_sign(form, start)
        assert sign == (1 if form.terms[-1][0] > 0.0 else -1) and idx >= start
        signs = exact_signs(form, start, idx + 64)
        # the sign holds from idx on
        assert all(sign * s >= 0 for s in signs[idx - start:] if s is not None)
        # is_nonnegative is the exact verdict when no value is within float
        # rounding of zero
        if None not in signs:
            assert is_nonnegative(form, start) == (min(signs) >= 0)

    def test_dominant_positive_constant(self):
        # 0.5 - 0.5**i >= 0 for i >= 1 (equality at i = 1)
        assert is_nonnegative(TailForm(((-1.0, 0.5),), 0.5))

    def test_dominant_negative_constant(self):
        assert not is_nonnegative(TailForm(((1.0, 0.5),), -0.25))

    def test_early_pointwise_violation(self):
        # -2*0.5**i + 0.5 < 0 at i = 1
        assert not is_nonnegative(TailForm(((-2.0, 0.5),), 0.5))

    def test_beta_zero_single_signed(self):
        assert is_nonnegative(TailForm(((1.0, 0.9), (2.0, 0.3)), 0.0))
        assert not is_nonnegative(TailForm(((-1.0, 0.9),), 0.0))

    def test_beta_zero_mixed_undecided(self):
        # 0.9**i - 0.8**i > 0: the largest-ratio term decides beta = 0 forms
        assert is_nonnegative(TailForm(((1.0, 0.9), (-1.0, 0.8)), 0.0))
        assert is_nonnegative(TailForm(((-1.0, 0.5), (1.0, 0.6))))
        assert not is_nonnegative(TailForm(((-1.0, 0.9), (1.0, 0.8)), 0.0))
        assert eventual_sign(TailForm(((-1.0, 0.9), (1.0, 0.8)))) == (-1, 1)

    def test_beta_zero_mixed_early_negative(self):
        # 0.8**i - 2*0.9**i < 0 at i = 1
        assert not is_nonnegative(TailForm(((1.0, 0.8), (-2.0, 0.9)), 0.0))

    def test_sign_definite_forms_need_no_dominance_index(self, monkeypatch):
        def no_index(self, start=1):
            raise AssertionError("dominance index computed")

        # both would need an index far beyond the scan cap
        tends_below = TailForm(((1e9, 0.999999999),), -1e-9)
        positive = TailForm(((1e9, 0.999999999), (2.0, 0.5)), 1e-9)
        monkeypatch.setattr(TailForm, "dominance_index", no_index)
        assert not is_nonnegative(tends_below)
        assert not is_nonnegative(TailForm((), -1.0))
        assert is_nonnegative(positive)
        assert is_nonnegative(TailForm((), 0.0))
        assert eventual_sign(positive, 3) == (1, 3)
        assert eventual_sign(TailForm(((-2.0, 0.5),), -1.0)) == (-1, 1)

    def test_eventual_sign(self):
        assert eventual_sign(TailForm((), 0.0)) == (0, 1)
        form = TailForm(((-8.0, 0.5),), 1.0)
        sign, idx = eventual_sign(form)
        assert sign == 1
        assert all(form.value(i) > 0 for i in range(idx, idx + 5))

    def test_dominance_index_when_beta_over_total_underflows(self):
        # 1e-300 / (1e30 + 1) is zero in float64; the form is positive
        # everywhere since 0.5**i >= 0.25**i
        form = TailForm(((1e30, 0.5), (-1.0, 0.25)), 1e-300)
        assert eventual_sign(form)[0] == 1
        assert is_nonnegative(form)

    def test_dominance_index_far_from_its_log_estimate(self):
        # r**idx is subnormal near the index, and pow and the log estimate
        # disagree by about 3.7e7 indices: one step at a time, the guard
        # took seconds
        r = 0.9999999999999998
        form = TailForm(((1e300, 0.5), (-5e-324, r)), 2.0**-56)
        idx = form.dominance_index()
        assert 1e300 * r**idx < 2.0**-56 <= 1e300 * r**(idx - 1)
        with pytest.raises(UndecidedComparisonError):
            eventual_sign(form)

    def test_dominance_index_when_the_coefficient_sum_overflows(self):
        # |1e308| + |1e308| overflows; the form is about -1e307 at i = 1
        form = TailForm(((1e308, 0.5), (-1e308, 0.6)), 1.0)
        assert form.coeff_abs_sum() == math.inf
        assert not is_nonnegative(form)
        idx = form.dominance_index()
        # a power-of-two scaling is exact and moves no index
        assert idx == form.scale(2.0**-10).dominance_index() == form.scale(0.125).dominance_index()
        # the first index at which (sum |c_j|) * max_j rho_j**i < |beta|, exactly
        total = 2 * Fraction(1e308)
        assert total * Fraction(0.6) ** (idx - 1) >= 1 > total * Fraction(0.6) ** idx
        assert eventual_sign(form) == (1, idx)
        # positive at every index, with the same overflowing sum
        assert is_nonnegative(TailForm(((1e308, 0.5), (1e308, 0.6), (-1e300, 0.1)), 1.0))

    def test_eventual_sign_past_the_cap_is_undecided(self, monkeypatch):
        # the dominance index of 0.5 - 1e6*0.9999999**i is about 1.45e8,
        # far past the cap; is_nonnegative finds the same form negative at 1
        form = TailForm(((-1e6, 0.9999999),), 0.5)
        with pytest.raises(UndecidedComparisonError, match="exceeds practical range"):
            eventual_sign(form)
        assert not is_nonnegative(form)
        # nonnegative over the one window scanned, so still undecided: a
        # beta = 0 form and a positive beta > 0 one
        seen = count_evaluated(monkeypatch)
        for form, index in [
            (TailForm(((1.0, 0.9999999), (1.0, 0.99999985), (-1.5, 0.9999998))), 18325813),
            (TailForm(((-0.4, 0.9999999), (1e6, 0.99999995)), 0.5), 290173156),
        ]:
            seen[0] = 0
            with pytest.raises(UndecidedComparisonError, match=f"index {index}"):
                is_nonnegative(form)
            assert 0 < seen[0] <= _SCAN_CHUNK

    def test_a_ratio_bound_that_rounds_to_one(self):
        # nextafter(r_j / r, 1.0) is 1.0 for adjacent ratios
        near = math.nextafter(0.5, 0.0)
        assert math.nextafter(near / 0.5, 1.0) == 1.0
        # 0.5**i - near**i > 0: |-1| <= |1|, and near/0.5 < 1 exactly
        form = TailForm(((-1.0, near), (1.0, 0.5)))
        assert eventual_sign(form, 4) == (1, 4)
        assert is_nonnegative(form)
        # 0.5**i - 2*near**i: no index can be shown, and it is negative at 1
        form = TailForm(((-2.0, near), (1.0, 0.5)))
        with pytest.raises(UndecidedComparisonError, match="exceeds practical range"):
            eventual_sign(form)
        assert not is_nonnegative(form)


class TestBoxValidation:
    def test_positive_lower_asym_rejected(self):
        with pytest.raises(InvalidBoxError):
            TailBox((), (), TailForm((), 0.1), TailForm((), 1.0))

    def test_head_interval_order_enforced(self):
        with pytest.raises(InvalidBoxError):
            TailBox((1.0,), (0.0,), TailForm((), -1.0), TailForm((), 1.0))

    def test_crossing_tails_rejected(self):
        # lo(1) = 3*0.5 - 1 = 0.5 exceeds the constant upper envelope 0.2
        with pytest.raises(InvalidBoxError):
            TailBox((), (), TailForm(((3.0, 0.5),), -1.0), TailForm((), 0.2))

    def test_crossing_between_sampled_coordinates_rejected(self):
        # lo = 0.9**i - A*0.5**i - C*0.95**i rises above hi = 0 only on 65..83,
        # where a sampled check (1..64, then powers of two) never looks
        big, small = 1.4354040671043126e16, 0.010685445898527178
        lo = TailForm(((-big, 0.5), (1.0, 0.9), (-small, 0.95)), 0.0)
        crossing = [i for i in range(1, 2000) if lo.value(i) > 0.0]
        assert crossing == list(range(65, 84))
        with pytest.raises(InvalidBoxError):
            TailBox((), (), lo, TailForm())

    def test_mixed_sign_gap_is_undecided(self):
        # hi - lo = 0.9**i - 0.8**i: beta = 0 with mixed-sign coefficients,
        # decided through its largest-ratio term
        lo, hi = TailForm(((1.0, 0.8),), 0.0), TailForm(((1.0, 0.9),), 0.0)
        assert TailBox((), (), lo, hi).tail_hi == hi
        with pytest.raises(InvalidBoxError):
            TailBox((), (), hi, lo)

    def test_a_zero_coordinate_decides_as_its_scalar_value(self):
        # f(3) is 0.0 with libm's pow; numpy's AVX-512 power kernel rounds it
        # below zero, so a scan through np.power refused this box on such CPUs
        f = TailForm(
            ((1.154047685158338, 0.603211579357039), (-1.0461999308639558, 0.7666065301569909)),
            0.21803917144864593,
        )
        assert f.value(3) == 0.0
        assert is_nonnegative(f)
        assert TailBox((), (), TailForm((), 0.0) - f, TailForm()).tail_lo == TailForm((), 0.0) - f

    def test_head_length_mismatch(self):
        with pytest.raises(InvalidBoxError):
            TailBox((0.0,), (), TailForm((), -1.0), TailForm((), 1.0))


class TestHausdorffMnc:
    def test_unit_box(self):
        mu = hausdorff_mnc(UNIT)
        assert type(mu) is float and mu == 1.0

    def test_geometric_tails_are_compact(self):
        box = TailBox((), (), TailForm((), 0.0), TailForm(((2.0, 0.5),), 0.0))
        assert hausdorff_mnc(box) == 0.0

    def test_head_never_contributes(self):
        box = TailBox((-7.0,), (7.0,), TailForm((), -0.3), TailForm((), 0.3))
        assert hausdorff_mnc(box) == 0.3
        # independent truncation oracle agrees
        assert abs(truncation_tail_sup(box, 10**6) - 0.3) <= 1e-6


class TestTruncationOracle:
    def test_constant_tails_any_cut(self):
        for cut in (1, 10, 1000, 10**6):
            assert truncation_tail_sup(UNIT, cut) == 1.0

    def test_mixed_tail_at_cut_200(self):
        hi = TailForm(((5.0, 0.9),), 0.3)
        box = TailBox((), (), hi.scale(-1.0), hi)
        # 5 * 0.9**201 ~ 3.1e-9, so the sup sits within 1e-8 of 0.3
        assert abs(truncation_tail_sup(box, 200) - 0.3) <= 1e-8

    def test_geometric_only_tail_at_cut_100(self):
        box = TailBox((), (), TailForm((), 0.0), TailForm(((10.0, 0.9),), 0.0))
        assert truncation_tail_sup(box, 100) < 1e-3  # bound: 10 * 0.9**101

    def test_cut_below_head_rejected(self):
        box = TailBox((-1.0,), (1.0,), TailForm((), -0.5), TailForm((), 0.5))
        with pytest.raises(MncError):
            truncation_tail_sup(box, 0)

    def test_no_power_past_the_settle_index_is_computed(self, monkeypatch):
        # the window 71,001..75,096 lies past the settle index (about 4,130)
        # but before 0.99's underflow index (about 75,870)
        hi = TailForm(((10.0, 0.99), (10.0, 0.98999), (10.0, 0.98998)), 3.0)
        box = TailBox((), (), hi.scale(-1.0), hi)
        seen = count_evaluated(monkeypatch)
        assert truncation_tail_sup(box, 71_000) == 3.0
        assert seen[0] == 0

    def test_oracle_converges_to_closed_form(self):
        rng = random.Random(7)
        for _ in range(25):
            terms = tuple(
                (rng.uniform(-10, 10), rng.uniform(0, 0.99)) for _ in range(rng.randint(0, 3))
            )
            beta = rng.uniform(0.05, 3.0)
            hi = TailForm(tuple((abs(c), r) for c, r in terms), beta)
            box = TailBox((), (), hi.scale(-1.0), hi)
            assert abs(truncation_tail_sup(box, 10**6) - hausdorff_mnc(box)) <= 1e-6


class TestUnion:
    def test_max_rule(self):
        box_03 = symmetric_box(0.3)
        assert mnc_union(SetUnion((UNIT, box_03))) == 1.0
        # oracle on the union's pointwise envelope: max of per-box sups
        oracle = max(truncation_tail_sup(UNIT, 10**6), truncation_tail_sup(box_03, 10**6))
        assert oracle == pytest.approx(1.0, abs=1e-6)

    def test_single_box(self):
        assert mnc_union(SetUnion((HALF,))) == hausdorff_mnc(HALF)

    def test_two_compact_boxes(self):
        a = TailBox((), (), TailForm((), 0.0), TailForm(((1.0, 0.5),), 0.0))
        b = TailBox((), (), TailForm(((-2.0, 0.9),), 0.0), TailForm((), 0.0))
        assert mnc_union(SetUnion((a, b))) == 0.0

    def test_one_box_hull_is_the_box_measure(self):
        # the certified chain relies on this: Conv(TA) = TA needs no re-check
        rng = random.Random(17)
        for _ in range(200):
            box = random_box(rng)
            assert conv_hull_mnc(SetUnion((box,))) == hausdorff_mnc(box)

    def test_empty_union_rejected(self):
        with pytest.raises(InvalidBoxError):
            SetUnion(())

    def test_hull_descriptor_agrees(self):
        union = SetUnion((UNIT, symmetric_box(0.3), HALF))
        assert conv_hull_mnc(union) == mnc_union(union)


class TestConvexCombination:
    def test_symmetric_equality_case(self):
        box_06 = symmetric_box(0.6)
        combined = convex_combination(0.5, UNIT, box_06)
        assert hausdorff_mnc(combined) == 0.8
        assert abs(truncation_tail_sup(combined, 10**6) - 0.8) <= 1e-6

    def test_endpoints_return_operands(self):
        assert convex_combination(1.0, UNIT, HALF) is UNIT
        assert convex_combination(0.0, UNIT, HALF) is HALF

    def test_lambda_out_of_range(self):
        with pytest.raises(MncError):
            convex_combination(1.5, UNIT, HALF)

    def test_head_padding(self):
        headed = TailBox((-2.0,), (2.0,), TailForm((), -0.5), TailForm((), 0.5))
        combined = convex_combination(0.5, headed, UNIT)
        assert combined.head_len == 1
        assert combined.lo(1) == 0.5 * -2.0 + 0.5 * -1.0

    def test_convexity_inequality_randomised(self):
        rng = random.Random(3)
        for _ in range(200):
            level_a, level_b = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
            a = symmetric_box(level_a, ((rng.uniform(0, 5), rng.uniform(0, 0.9)),))
            b = symmetric_box(level_b)
            lam = rng.uniform(0, 1)
            mu = hausdorff_mnc(convex_combination(lam, a, b))
            assert mu <= lam * level_a + (1 - lam) * level_b + 1e-12


class TestSubset:
    def test_half_unit_inside_unit(self):
        assert subset(HALF, UNIT)

    def test_unit_not_inside_half(self):
        assert not subset(UNIT, HALF)

    def test_geometric_plus_constant_inside_constant(self):
        # 0.5 + 0.5**i <= 1 for every i >= 1, equality at i = 1
        inner_hi = TailForm(((1.0, 0.5),), 0.5)
        inner = TailBox((), (), inner_hi.scale(-1.0), inner_hi)
        assert subset(inner, UNIT)
        assert not subset(UNIT, inner)

    def test_head_padding_against_tail(self):
        headed = TailBox((-0.25,), (0.25,), TailForm((), -0.5), TailForm((), 0.5))
        assert subset(headed, UNIT)
        assert not subset(UNIT, headed)

    def test_undecided_comparison_surfaces(self):
        # hi tails differ by a mixed-sign beta=0 form, which is decided
        a_hi = TailForm(((1.0, 0.8),), 1.0)
        b_hi = TailForm(((1.0, 0.9),), 1.0)
        a = TailBox((), (), TailForm((), -1.0), a_hi)
        b = TailBox((), (), TailForm((), -1.0), b_hi)
        assert subset(a, b)
        assert not subset(b, a)

    def test_monotonicity_of_measure(self):
        rng = random.Random(11)
        for _ in range(200):
            level = rng.uniform(0.2, 3)
            outer = symmetric_box(level, ((rng.uniform(0, 5), rng.uniform(0, 0.9)),))
            lam = rng.uniform(0.05, 1.0)
            inner = TailBox(
                (),
                (),
                outer.tail_lo.scale(lam),
                outer.tail_hi.scale(lam),
            )
            assert subset(inner, outer)
            assert hausdorff_mnc(inner) <= hausdorff_mnc(outer)


class TestClosure:
    def test_identity_and_measure_preserved(self):
        assert closure(UNIT) is UNIT
        assert hausdorff_mnc(closure(UNIT)) == hausdorff_mnc(UNIT)


class TestScaleTranslate:
    def test_doubling(self):
        assert hausdorff_mnc(scale_translate(UNIT, 2.0)) == 2.0

    def test_collapse_to_point(self):
        assert hausdorff_mnc(scale_translate(UNIT, 0.0)) == 0.0

    def test_reflection_preserves_measure(self):
        assert hausdorff_mnc(scale_translate(UNIT, -1.0)) == 1.0

    def test_homogeneity_exact(self):
        rng = random.Random(5)
        for _ in range(100):
            box = symmetric_box(rng.uniform(0.1, 2), ((rng.uniform(0, 5), rng.uniform(0, 0.9)),))
            c = rng.uniform(-3, 3)
            assert hausdorff_mnc(scale_translate(box, c)) == abs(c) * hausdorff_mnc(box)


class TestPoints:
    def test_membership(self):
        p = Point((), TailForm(((0.5, 0.5),), 0.0))
        assert contains_point(UNIT, p)
        assert not contains_point(HALF, Point((0.9,), TailForm((), 0.0)))

    def test_nonzero_asym_rejected(self):
        with pytest.raises(InvalidPointError):
            Point((), TailForm((), 0.5))

    def test_zero_point_in_every_symmetric_box(self):
        for level in (0.1, 1.0, 3.0):
            assert contains_point(symmetric_box(level), Point())


# signed zeros, subnormals, magnitudes near the ends of the float range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300,
               1.0, -1.0, 1e300, -1e300, 1e308, -1e308]


def edge_floats():
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-10.0, 10.0))


def edge_terms():
    """At most two terms of |coefficient| <= 1e308 on distinct ratios <= 0.75:
    every value of such a form plus a constant of at most 2 is finite."""
    ratios = st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.75])
    return st.lists(st.tuples(edge_floats(), ratios), max_size=2, unique_by=lambda t: t[1])


@st.composite
def edge_seqs(draw):
    head = draw(st.lists(edge_floats(), max_size=4))
    beta = draw(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, -1.0, -2.0]))
    return Seq(head, TailForm(draw(edge_terms()), beta))


@st.composite
def scaling_cases(draw):
    """A valid box (random_box's forms scaled to near 1e+-300, heads with
    edge values) and a factor c."""
    box = random_box(random.Random(draw(st.integers(0, 2**32 - 1))))
    m = draw(st.sampled_from([1.0, 1e300, 1e-300]))
    pairs = draw(st.lists(st.tuples(edge_floats(), edge_floats()), max_size=3))
    box = TailBox(
        [min(p) for p in pairs], [max(p) for p in pairs],
        box.tail_lo.scale(m), box.tail_hi.scale(m),
    )
    c = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e10, -1e10, 5e-324, -5e-324,
                         math.nan, math.inf, -math.inf]),
        st.floats(-3.0, 3.0),
    ))
    return box, c


def outcome(call):
    """(True, result) or (False, error type, message)."""
    try:
        return (True, call())
    except MncError as exc:
        return (False, type(exc), str(exc))


def box_bits(box):
    """Hex of both envelopes, a zero head entry or constant read as +0.0
    whatever its sign."""
    def hex_of(x):
        return (x + 0.0).hex()

    return [
        ([hex_of(x) for x in env.head], bits(env.tail.terms), hex_of(env.tail.constant))
        for env in (box.lo, box.hi)
    ]


class TestOrderAndScalingParity:
    """``Seq.le`` and ``scale_translate`` against the difference Seqs and
    the constant-sequence ``affine_image`` that they replace."""

    @staticmethod
    def reference_le(x, y):
        h = max(x.head_len, y.head_len)
        a = np.array([x(i) for i in range(1, h + 1)], dtype=float)
        b = np.array([y(i) for i in range(1, h + 1)], dtype=float)
        gap = y.tail - x.tail
        with np.errstate(over="ignore"):
            heads = bool((b - a >= 0.0).all())
        return heads and is_nonnegative(gap, h + 1)

    @settings(deadline=None, max_examples=150)
    @given(edge_seqs(), edge_seqs())
    def test_le_matches_the_difference_sign(self, x, y):
        assert outcome(lambda: x.le(y)) == outcome(lambda: self.reference_le(x, y))

    @settings(deadline=None, max_examples=150)
    @given(scaling_cases())
    def test_scale_translate_matches_the_constant_affine_image(self, case):
        box, c = case
        got = outcome(lambda: scale_translate(box, c))
        want = outcome(lambda: affine_image(box, Seq((), TailForm((), c)), Point()))
        if got[0] and want[0]:
            # affine_image takes the min and max of the scaled heads x and
            # y and keeps y on a tie of signed zeros, as np.minimum(x, y)
            # and np.maximum(x, y) do, then adds the zero offset;
            # scale_translate adds nothing, so its zeros keep the sign that
            # c gives them.  Such a zero may differ in sign, and both boxes
            # are the same set.
            assert box_bits(got[1]) == box_bits(want[1])
        else:
            assert got == want


def float64_head(seq, h):
    """Coordinates 1..h of ``seq`` as a float64 array, one scalar value
    each."""
    return np.array([seq(i) for i in range(1, h + 1)], dtype=float)


def float64_affine_image(box, d, e):
    """The heads of ``affine_image(box, d, e)`` computed on float64 arrays
    with np.minimum and np.maximum."""
    h = max(box.head_len, d.head_len, e.head_len)
    sign, from_idx = eventual_sign(d.tail, start=h + 1)
    dd, lo, hi, ee = (float64_head(s, max(h, from_idx - 1)) for s in (d, box.lo, box.hi, e))
    with np.errstate(all="ignore"):
        x, y = dd * lo, dd * hi
        if sign < 0:
            x, y = y, x
        return np.minimum(x, y) + ee, np.maximum(x, y) + ee


def is_float_tuple(head):
    return type(head) is tuple and all(type(x) is float for x in head)


# head factors that overflow the products of EDGE_FLOATS heads to +-inf
EDGE_FACTORS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e10, -1e10, 1e300, -1e300]),
    st.floats(-3.0, 3.0),
)


@st.composite
def affine_cases(draw):
    """A valid box with edge-value heads, a coefficient Seq d with edge
    factors in its head and a shift Point e."""
    pairs = draw(st.lists(st.tuples(edge_floats(), edge_floats()), max_size=3))
    box = TailBox([min(p) for p in pairs], [max(p) for p in pairs],
                  TailForm((), -1.0), TailForm(((2.0, 0.5),), 1.0))
    d = Seq(draw(st.lists(EDGE_FACTORS, max_size=4)),
            TailForm(draw(edge_terms()), draw(st.sampled_from([0.5, -0.5, 1e10, -2.0]))))
    e = Point(draw(st.lists(edge_floats(), max_size=4)),
              TailForm(draw(edge_terms()), draw(st.sampled_from([0.0, -0.0]))))
    return box, d, e


class TestTupleHeadParity:
    """Heads are tuples of Python floats: every head result equals the
    float64 array computation it replaced, bit for bit, and raises no
    warning where that one overflows.  ``le`` is checked against float64
    heads by ``TestOrderAndScalingParity``."""

    @settings(deadline=None, max_examples=200)
    @given(edge_seqs(), edge_seqs())
    def test_arithmetic(self, x, y):
        h = max(x.head_len, y.head_len)
        a, b = float64_head(x, h), float64_head(y, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in (operator.add, operator.sub, operator.mul):
                got = outcome(lambda: op(x, y))
                with np.errstate(all="ignore"):
                    want = op(a, b)
                if got[0]:
                    assert is_float_tuple(got[1].head) and hexes(got[1].head) == hexes(want)

    @settings(deadline=None, max_examples=200)
    @given(edge_seqs(), EDGE_FACTORS | st.sampled_from([1e308, -1e308]))
    def test_scale(self, x, c):
        got = outcome(lambda: x.scale(c))
        with np.errstate(all="ignore"):
            want = float64_head(x, x.head_len) * c
        if got[0]:
            assert is_float_tuple(got[1].head) and hexes(got[1].head) == hexes(want)

    @settings(deadline=None, max_examples=200)
    @given(edge_seqs(), st.integers(0, 12))
    def test_pad_and_array(self, x, h):
        padded = x.pad(h).head
        assert is_float_tuple(padded)
        assert hexes(padded) == hexes(float64_head(x, max(h, x.head_len)))
        arr = x.array(h)
        assert arr.dtype == np.float64 and hexes(arr) == hexes(padded)

    @pytest.mark.parametrize("constant", [0.0, -0.0, 5e-324, -1.5, 1e308])
    def test_array_of_a_tail_with_no_terms(self, constant):
        s = Seq((7.0, -0.0), TailForm((), constant))
        for h in (0, 2, 3, 1000):
            assert hexes(s.array(h)) == hexes(s.pad(h).head)
        assert hexes(s.array(4)[2:]) == [(0.0 + constant).hex()] * 2

    @settings(deadline=None, max_examples=300)
    @given(affine_cases())
    @example(
        # a tie of signed zeros: min(y, x) keeps y = 1.0 * -0.0 as np.minimum does
        (TailBox((0.0,), (-0.0,), TailForm((), -1.0), TailForm((), 1.0)),
         Seq((1.0,), TailForm((), 0.5)), Point((-0.0,))),
    )
    def test_affine_image(self, case):
        box, d, e = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda: affine_image(box, d, e))
        if got[0]:
            want = float64_affine_image(box, d, e)
            for env, ref in zip((got[1].lo, got[1].hi), want):
                assert is_float_tuple(env.head) and hexes(env.head) == hexes(ref)
        elif got[1] is InvalidBoxError:
            assert got[2] == "non-finite head interval"
            assert not all(np.isfinite(ref).all() for ref in float64_affine_image(box, d, e))

    def test_affine_image_of_a_late_settling_multiplier(self):
        # d = 0.5 - 0.9999**i changes sign at i = 6932: a head of 6,931 coordinates
        d = Seq((), TailForm(((-1.0, 0.9999),), 0.5))
        e = Point((0.25,), TailForm(((1.0, 0.5),), 0.0))
        box = TailBox((-1.0, -0.0), (1.0, 0.0), TailForm(((-1.0, 0.7),), -0.5), TailForm((), 0.5))
        image = affine_image(box, d, e)
        want = float64_affine_image(box, d, e)
        assert image.head_len == 6931
        for env, ref in zip((image.lo, image.hi), want):
            assert is_float_tuple(env.head) and hexes(env.head) == hexes(ref)

    @settings(deadline=None, max_examples=200)
    @given(scaling_cases())
    def test_scale_translate(self, case):
        box, c = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda: scale_translate(box, c))
        if not got[0]:
            if got[1] is InvalidBoxError:
                assert got[2] == "non-finite head interval"
            return
        h = got[1].head_len
        with np.errstate(all="ignore"):
            lo, hi = float64_head(box.lo, h) * c, float64_head(box.hi, h) * c
            if c < 0.0:
                lo, hi = hi, lo
        for env, ref in zip((got[1].lo, got[1].hi), (lo, hi)):
            assert is_float_tuple(env.head) and hexes(env.head) == hexes(ref)

    @settings(deadline=None, max_examples=200)
    @given(edge_seqs(), edge_seqs())
    def test_equality_matches_array_equal(self, x, y):
        same = np.array_equal(np.array(x.head, dtype=float), np.array(y.head, dtype=float))
        assert (x == y) == (same and x.tail == y.tail)
        flipped = Seq([-v if v == 0.0 else v for v in x.head], x.tail)
        assert flipped == x and hash(flipped) == hash(x)
        if x == y:
            assert hash(x) == hash(y)


def loop_normalise(terms):
    """The dict-merge normalisation that array-backed forms replaced: the
    reference their terms must match bit for bit, with the same errors."""
    merged = {}
    for coeff, ratio in terms:
        coeff = float(coeff)
        ratio = float(ratio)
        if not (0.0 <= ratio < 1.0):
            raise InvalidTailFormError(f"ratio {ratio} outside [0, 1)")
        if not (math.isfinite(coeff) and math.isfinite(ratio)):
            raise InvalidTailFormError("non-finite term")
        merged[ratio] = merged.get(ratio, 0.0) + coeff
    if not all(math.isfinite(c) for c in merged.values()):
        raise InvalidTailFormError("non-finite term")
    return tuple((c, r) for r, c in sorted(merged.items()) if c != 0.0 and r != 0.0)


def loop_product_terms(f, g):
    """The raw term list of ``f * g`` as the Python loops built it."""
    terms = [(c1 * c2, r1 * r2) for c1, r1 in f.terms for c2, r2 in g.terms]
    terms += [(f.constant * c2, r2) for c2, r2 in g.terms]
    terms += [(g.constant * c1, r1) for c1, r1 in f.terms]
    return terms


def loop_abs_sum(terms):
    """sum |c| left to right from 0.0: Python 3.11's sum() of floats, which
    3.12 made compensated."""
    total = 0.0
    for c, _ in terms:
        total += abs(c)
    return total


def bits(terms):
    return [(c.hex(), r.hex()) for c, r in terms]


@st.composite
def raw_terms(draw, max_terms=600):
    """0..max_terms raw terms, often at most 64: ratios from a small pool
    (long runs of equal ratios, signed zeros, powers of
    two whose products meet other pool ratios, ratios whose products
    underflow to 0) and coefficients over forty decades, some of them
    signed zeros, so that any change in summation order shows."""
    n = draw(st.one_of(st.integers(0, 64), st.integers(0, max_terms)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = [0.0, -0.0, 0.5, 0.25, 0.125, 1e-200, 1e-170]
    pool = np.concatenate((rng.random(draw(st.integers(1, 40))), special))
    ratios = rng.choice(pool, n)
    coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
    coeffs[rng.random(n) < 0.05] = 0.0
    coeffs[rng.random(n) < 0.05] = -0.0
    return list(zip(coeffs.tolist(), ratios.tolist()))


class TestArrayBackedForms:
    """Forms of up to hundreds of terms against the Python loops."""

    @settings(deadline=None, max_examples=200)
    @given(raw_terms(), raw_terms(), st.floats(-3, 3), st.floats(-3, 3), st.floats(-1e3, 1e3))
    def test_algebra_matches_the_python_loops(self, t1, t2, b1, b2, c):
        f, g = TailForm(t1, b1), TailForm(t2, b2)
        assert bits(f.terms) == bits(loop_normalise(t1))
        small = TailForm(t2[:3], b2)  # a chain's d has one term
        cases = [
            (f + g, f.terms + g.terms),
            (f - g, f.terms + tuple((-a, r) for a, r in g.terms)),
            (f.scale(c), tuple((a * c, r) for a, r in f.terms)),
            (f * small, loop_product_terms(f, small)),
            (small * f, loop_product_terms(small, f)),
        ]
        if f.n_terms * g.n_terms <= 2000:
            cases.append((f * g, loop_product_terms(f, g)))
        for form, raw in cases:
            assert bits(form.terms) == bits(loop_normalise(raw))
            assert form.n_terms == len(form.terms)
            # sequential sums and the largest ratio, as the tuple loops give them
            assert form.coeff_abs_sum() == loop_abs_sum(form.terms)
            assert form.max_ratio() == max((r for _, r in form.terms), default=0.0)
            # the constructor on the same terms gives an equal form
            rebuilt = TailForm(form.terms, form.constant)
            assert rebuilt == form and hash(rebuilt) == hash(form)
            assert hash(form) == hash((form.terms, form.constant))
        assert (f == g) == (f.terms == g.terms and b1 == b2)

    def test_coefficient_sum_is_not_compensated(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum gives 1e16 + 2
        form = TailForm(((1e16, 0.1), (1.0, 0.2), (1.0, 0.3)))
        assert form.coeff_abs_sum() == loop_abs_sum(form.terms) == 1e16

    def test_product_past_the_cap_is_refused_before_it_is_built(self):
        # (n + 1)(m + 1) - 1 raw terms: 99,999 are built, 100,001 are not
        one = TailForm(((1.0, 0.5),), 0.5)
        assert (TailForm([(1.0, k / 2e5) for k in range(1, 50_000)], 0.5) * one).n_terms == 75_000
        with pytest.raises(InvalidTailFormError, match="^a product of 50000- and 1-term tail forms"):
            TailForm([(1.0, k / 2e5) for k in range(1, 50_001)]) * one

    @pytest.mark.parametrize("n", [5, 100])
    @pytest.mark.parametrize(
        "bad",
        [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (1.0, 1.0), (1.0, -0.1), (1.0, math.nan)],
        ids=["nan-coeff", "inf-coeff", "-inf-coeff", "ratio-one", "negative-ratio", "nan-ratio"],
    )
    def test_bad_term_raises_as_the_loop_does(self, n, bad):
        for pos in (0, n // 2, n - 1):
            terms = [(1.0 + k, 0.5 + k * 1e-3) for k in range(n)]
            terms[pos] = bad
            if pos < n - 1:
                # a later bad term of the other kind never decides the message
                terms[-1] = (1.0, 2.0) if bad[1] == 0.5 else (math.nan, 0.5)
            with pytest.raises(InvalidTailFormError) as expected:
                loop_normalise(terms)
            with pytest.raises(InvalidTailFormError) as got:
                TailForm(terms, 0.0)
            assert str(got.value) == str(expected.value)

    def test_overflow_in_an_operation_raises_as_the_loop_does(self):
        # an overflow raises non-finite term, and warns nothing
        form = TailForm(tuple((1e300 * (1 + k), 0.5 + k * 1e-3) for k in range(100)), 0.0)
        big = TailForm(tuple((1.5e308, 0.5 + k * 1e-3) for k in range(40)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for overflowing in (lambda: form.scale(1e10), lambda: form * TailForm(((1e10, 0.5),))):
                with pytest.raises(InvalidTailFormError, match="^non-finite term$"):
                    overflowing()
            # equal ratios whose coefficients sum past the float range raise
            small = ((1e308, 0.5), (1e308, 0.5))
            for merging in (
                lambda: big + big, lambda: big - big.scale(-1.0), lambda: TailForm(small),
                lambda: TailForm(big.terms + big.terms), lambda: loop_normalise(small),
            ):
                with pytest.raises(InvalidTailFormError, match="^non-finite term$"):
                    merging()
        with pytest.raises(InvalidTailFormError, match="^non-finite constant$"):
            form.with_constant(math.inf)


@st.composite
def operand_pairs(draw):
    """Two normalised forms and a scale factor.  The ratio sets are equal,
    disjoint or partly overlapping, either form may be empty, and term
    counts run from 0 to 290.  On some shared ratios the coefficients are
    equal up to sign, so that a sum or a difference
    cancels them, or near the float maximum, so that one overflows.
    Constants include signed zeros; scale factors underflow some
    coefficients to zero or to subnormals, overflow others, or are not
    finite."""
    n = 32
    sizes = st.sampled_from([0, 1, 2, 3, 4, 8, n // 2, n - 2, n, n + 1, n + 6, 2 * n + 1, 290])
    relation = draw(st.sampled_from(["equal", "disjoint", "overlap"]))
    n1 = draw(sizes)
    n2 = n1 if relation == "equal" else draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.unique(np.concatenate(([0.5, 0.25], rng.uniform(1e-3, 1.0, 3 * (n1 + n2)))))
    pool = rng.permutation(pool)
    r1 = pool[:n1]
    shared = n2 if relation == "equal" else 0
    if relation == "overlap" and min(n1, n2):
        shared = int(rng.integers(1, min(n1, n2) + 1))
    r2 = np.concatenate((r1[:shared], pool[n1:n1 + n2 - shared]))
    c1 = rng.standard_normal(n1) * 10.0 ** rng.integers(-20, 21, n1)
    c2 = rng.standard_normal(n2) * 10.0 ** rng.integers(-20, 21, n2)
    mode = draw(st.sampled_from(["free", "cancel", "overflow"]))
    hit = np.flatnonzero(rng.random(shared) < draw(st.sampled_from([0.25, 1.0])))
    sign = rng.choice([-1.0, 1.0], hit.size)
    if mode == "cancel":
        c2[hit] = sign * c1[hit]
    elif mode == "overflow":
        c1[hit], c2[hit] = 1.5e308, sign * 1.5e308
    constants = st.sampled_from([0.0, -0.0, 1.0, -0.75])
    f = TailForm(list(zip(c1.tolist(), r1.tolist())), draw(constants))
    g = TailForm(list(zip(c2.tolist(), r2.tolist())), draw(constants))
    scales = [-1.0, 0.0, -0.0, 0.3, 1e-305, 1e-310, 5e-324, 1e300, math.nan, math.inf, -math.inf]
    return f, g, draw(st.sampled_from(scales))


def assert_matches_loop(operation, raw, constant):
    """``operation()`` gives the form of ``loop_normalise(raw)`` bit for
    bit, with ``constant``; or raises as it, and a bad term raises before
    a non-finite constant."""
    try:
        want = loop_normalise(raw)
    except InvalidTailFormError as exc:
        with pytest.raises(InvalidTailFormError, match=f"^{exc}$"):
            operation()
        return
    if not math.isfinite(constant):
        with pytest.raises(InvalidTailFormError, match="^non-finite constant$"):
            operation()
        return
    got = operation()
    assert bits(got.terms) == bits(want)
    assert got.constant.hex() == constant.hex()
    assert got == TailForm(raw, constant)


def negated(form):
    return tuple((-coeff, ratio) for coeff, ratio in form.terms)


class TestMergedArithmetic:
    """Sums, differences, scalings and small products of normalised forms,
    none of which checks its terms again and some of which skip the second
    normalisation (tuple sums and differences merge the sorted tuples,
    scalings keep the term order); each must equal the normalisation of
    the concatenated raw terms, as the dict merge gives it."""

    @settings(deadline=None, max_examples=500)
    @given(operand_pairs())
    def test_matches_the_loop_on_the_concatenated_terms(self, case):
        f, g, c = case
        assert_matches_loop(lambda: f + g, f.terms + g.terms, f.constant + g.constant)
        assert_matches_loop(lambda: g + f, g.terms + f.terms, g.constant + f.constant)
        assert_matches_loop(lambda: f - g, f.terms + negated(g), f.constant - g.constant)
        assert_matches_loop(lambda: g - f, g.terms + negated(f), g.constant - f.constant)
        assert_matches_loop(lambda: f.scale(c), [(a * c, r) for a, r in f.terms], f.constant * c)
        if f.n_terms * g.n_terms + f.n_terms + g.n_terms <= 32:
            assert_matches_loop(lambda: f * g, loop_product_terms(f, g), f.constant * g.constant)

    def test_small_sums_differences_and_scalings_never_normalise(self, monkeypatch):
        rng = np.random.default_rng(5)
        forms = [TailForm(), TailForm((), -0.0)]
        for n in (1, 3, 8, 16):
            ratios = rng.choice([0.25, 0.5, 0.75, 0.875, 0.9375] + list(rng.random(20)), n)
            forms.append(TailForm(list(zip(rng.standard_normal(n).tolist(), ratios.tolist())), 0.5))
        forms.append(forms[-1].scale(-1.0))  # cancels forms[-2] term by term

        def normalised_again(*args):
            raise AssertionError("a normalised operand was normalised again")

        monkeypatch.setattr(mnc, "_normalise_pairs", normalised_again)
        for f in forms:
            for g in forms:
                assert (f + g).n_terms <= f.n_terms + g.n_terms
                assert (f - g).n_terms <= f.n_terms + g.n_terms
            for c in (2.0, 0.0, 1e-320):
                assert f.scale(c).n_terms <= f.n_terms
        cancelled = forms[-1] + forms[-2]
        assert cancelled.terms == () and cancelled.constant == 0.0

    def test_cancellation_and_signed_zero_constants(self):
        wide = TailForm(tuple((1.0 + k, 0.3 + k / 100) for k in range(50)), -0.0)
        for form in (wide - wide, wide + wide.scale(-1.0), TailForm() - TailForm()):
            assert form.n_terms == 0 and form.terms == ()
        assert (wide - wide).constant.hex() == (0.0).hex()
        assert (wide + wide).constant.hex() == (-0.0).hex()
        assert (TailForm((), -0.0) - TailForm()).constant.hex() == (-0.0).hex()

    def test_no_sort_for_an_empty_operand_or_equal_ratio_arrays(self, monkeypatch):
        wide = TailForm(tuple((1.0 + k, 0.5 + k * 1e-3) for k in range(290)), 1.0)
        small = TailForm(((1.0, 0.5), (-2.0, 0.25)), 0.5)
        halved = wide.scale(0.5)
        empty, two = TailForm(), TailForm((), 2.0)

        def sorted_again(*args):
            raise AssertionError("a normalised operand was normalised again")

        monkeypatch.setattr(mnc, "_normalise_pairs", sorted_again)
        for x in (wide, small):
            assert x + empty == x and two + x == x.with_constant(x.constant + 2.0)
            assert x - two == x.with_constant(x.constant - 2.0)
        difference = wide - halved
        assert bits(difference.terms) == bits((c - c * 0.5, r) for c, r in wide.terms)
