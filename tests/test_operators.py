import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbocert.mnc import (
    Point,
    TailBox,
    TailForm,
    UndecidedComparisonError,
    convex_combination,
    hausdorff_mnc,
    truncation_tail_sup,
)
from darbocert.operators import (
    DEFAULT_HORIZON,
    DiagonalAffineOperator,
    NotContractiveError,
    OperatorError,
    apply_to_box,
    compose,
    fixed_point_witness,
    verify_self_map,
)
from darbocert.scenarios import identity_operator, scaling_operator, unit_box


def hexes(values):
    """Bit patterns of floats, so that -0.0 and 0.0 differ."""
    return [float(x).hex() for x in values]


def diag(d_terms=(), d_const=0.0, e_terms=(), e_const=0.0, d_head=(), e_head=()):
    return DiagonalAffineOperator(
        d_head, TailForm(d_terms, d_const), e_head, TailForm(e_terms, e_const)
    )


UNIT = unit_box()


@st.composite
def contractive_operators(draw):
    """Operators with heads of up to 1, 64, 1000 or ``DEFAULT_HORIZON``
    entries, and d and e tails whose terms still count at the horizon
    (ratio 0.9999), with |d_i| < 1 at every coordinate."""
    max_head = draw(st.sampled_from((1, 64, 1000, DEFAULT_HORIZON)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    beta = draw(st.floats(-0.9, 0.9))
    # three terms of at most (1 - |beta|) / 4 keep |d_i| < 1 past the head
    reach = (1.0 - abs(beta)) / 4
    ratios = st.sampled_from((0.0, 0.5, 0.9, 0.9999))
    d_terms = draw(st.lists(st.tuples(st.floats(-reach, reach), ratios), max_size=3))
    e_terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), ratios), max_size=3))
    d_head = [rng.uniform(-0.99, 0.99) for _ in range(draw(st.integers(0, max_head)))]
    e_head = [rng.uniform(-2.0, 2.0) for _ in range(draw(st.integers(0, max_head)))]
    return diag(d_terms, beta, e_terms, 0.0, d_head, e_head)


class TestApplyToBox:
    def test_half_scaling_halves_measure(self):
        image = apply_to_box(scaling_operator(0.5), UNIT)
        assert image.tail_hi == TailForm((), 0.5)
        assert image.tail_lo == TailForm((), -0.5)
        assert hausdorff_mnc(image) == 0.5
        assert abs(truncation_tail_sup(image, 10**6) - 0.5) <= 1e-6

    def test_identity_returns_equal_box(self):
        assert apply_to_box(identity_operator(), UNIT) == UNIT

    def test_geometric_coefficient_tail(self):
        # d_i = 1/2 + (1/2)**i on the unit box: image tails +-(1/2 + (1/2)**i)
        op = diag(d_terms=((1.0, 0.5),), d_const=0.5)
        image = apply_to_box(op, UNIT)
        assert image.tail_hi == TailForm(((1.0, 0.5),), 0.5)
        assert image.tail_lo == TailForm(((-1.0, 0.5),), -0.5)
        assert hausdorff_mnc(image) == 0.5

    def test_negative_coefficients_swap_envelopes(self):
        box = TailBox((), (), TailForm((), -0.25), TailForm((), 1.0))
        image = apply_to_box(scaling_operator(-1.0), box)
        assert image.tail_lo == TailForm((), -1.0)
        assert image.tail_hi == TailForm((), 0.25)

    def test_offset_shifts_box(self):
        op = diag(d_const=0.5, e_terms=((1.0, 0.25),))
        image = apply_to_box(op, UNIT)
        assert image.tail_lo == TailForm(((1.0, 0.25),), -0.5)
        assert image.tail_hi == TailForm(((1.0, 0.25),), 0.5)

    def test_sign_ambiguous_coefficients_rejected(self):
        # d = 0.9**i - 0.8**i: beta = 0 with mixed-sign terms, positive
        # from i = 1 on by its largest-ratio term
        op = diag(d_terms=((1.0, 0.9), (-1.0, 0.8)))
        image = apply_to_box(op, UNIT)
        assert image.head_len == 0
        assert image.tail_hi == op.d_tail
        assert image.tail_lo == op.d_tail.scale(-1.0)
        assert hausdorff_mnc(image) == 0.0
        assert verify_self_map(op, UNIT)

    def test_late_sign_settling_is_undecided_without_allocating(self):
        # d(i) = 0.5 - 1e6*0.9999999**i settles its sign only near i = 1.45e8;
        # materialising the head up to there would take over 1 GB
        op = diag(d_terms=((-1e6, 0.9999999),), d_const=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(UndecidedComparisonError, match="exceeds practical range"):
                apply_to_box(op, UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_head_past_the_cap_is_undecided_without_padding(self):
        # d(i) = 0.5 - 1e6*0.99999**i settles its sign at i = 1,450,859,
        # inside the dominance cap; its head would take 51 s and 122 MB
        op = diag(d_terms=((-1e6, 0.99999),), d_const=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(UndecidedComparisonError, match="at index 1450859, past the head cap"):
                apply_to_box(op, UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sign_change_materialises_into_head(self):
        # d(i) = 1 - 4*0.5**i is negative at i = 1, positive beyond
        op = diag(d_terms=((-4.0, 0.5),), d_const=1.0)
        image = apply_to_box(op, UNIT)
        assert image.head_len >= 1
        d1 = 1.0 - 4.0 * 0.5
        assert image.lo(1) == min(d1 * -1.0, d1 * 1.0)
        assert image.hi(1) == max(d1 * -1.0, d1 * 1.0)
        assert hausdorff_mnc(image) == 1.0

    def test_heads_match_the_scalar_formula_exactly(self):
        rng = random.Random(23)
        for _ in range(50):
            box = TailBox(
                (-rng.uniform(0, 2),), (rng.uniform(0, 2),),
                TailForm(((-rng.uniform(0, 1), 0.7),), -1.0),
                TailForm(((rng.uniform(0, 1), 0.6),), 1.0),
            )
            op = diag(
                d_terms=((-rng.uniform(1, 8), 0.5),), d_const=rng.uniform(0.2, 0.9),
                e_terms=((rng.uniform(-1, 1), 0.3),), e_head=(rng.uniform(-1, 1),) * 2,
            )
            image = apply_to_box(op, box)
            for i in range(1, image.head_len + 1):
                x, y = op.d(i) * box.lo(i), op.d(i) * box.hi(i)
                assert image.lo(i) == min(x, y) + op.e(i)
                assert image.hi(i) == max(x, y) + op.e(i)


class TestSelfMap:
    def test_half_scaling_on_unit(self):
        assert verify_self_map(scaling_operator(0.5), UNIT)

    def test_doubling_on_unit(self):
        assert not verify_self_map(scaling_operator(2.0), UNIT)

    def test_contraction_with_small_offset(self):
        # |x/2 + 4**-i| <= 1 on [-1, 1] for every i >= 1
        op = diag(d_const=0.5, e_terms=((1.0, 0.25),))
        assert verify_self_map(op, UNIT)

    def test_image_with_a_mixed_sign_gap_is_not_decided_again(self):
        # the image gap 0.9^i - 0.6*0.45^i is |d| * 2*0.9^i >= 0; derived, it
        # is not decided again, and the public constructor decides it too
        box = TailBox((), (), TailForm(((-1.0, 0.9),)), TailForm(((1.0, 0.9),)))
        op = diag(d_terms=((-0.3, 0.5),), d_const=0.5)
        image = apply_to_box(op, box)
        gap = image.tail_hi - image.tail_lo
        assert gap == TailForm(((-0.6, 0.45), (1.0, 0.9)))
        assert TailBox((), (), image.tail_lo, image.tail_hi) == image
        assert verify_self_map(op, box)


class TestCompose:
    def test_materialised_composition_matches_sequential_application(self):
        first = diag(d_const=0.5, e_terms=((1.0, 0.25),))
        second = diag(d_const=-0.5, e_terms=((0.5, 0.5),))
        combined = compose(second, first)
        via_steps = apply_to_box(second, apply_to_box(first, UNIT))
        direct = apply_to_box(combined, UNIT)
        assert direct == via_steps

    def test_compose_coefficients(self):
        op = compose(scaling_operator(0.5), scaling_operator(0.5))
        assert op.d_tail == TailForm((), 0.25)
        assert op.e_tail == TailForm((), 0.0)

    def test_compose_pads_coefficients_from_their_tails(self):
        outer = diag(d_const=0.5, e_head=(1.0, 2.0))
        inner = diag(d_terms=((1.0, 0.5),), d_const=0.25, d_head=(3.0,))
        op = compose(outer, inner)
        assert op.head_len == 2
        assert hexes(op.d.head) == hexes([0.5 * 3.0, 0.5 * inner.d(2)])
        assert hexes(op.e.head) == hexes([1.0, 2.0])
        for i in (1, 2, 3, 10):
            assert op.d(i) == pytest.approx(outer.d(i) * inner.d(i))

    def test_coefficients_share_one_head_length(self):
        op = diag(d_const=0.5, e_head=(1.0, 2.0))
        assert hexes(op.d.head) == hexes([0.5, 0.5])
        assert op.e.head_len == op.head_len == 2

    def test_offset_with_nonzero_asym_rejected(self):
        with pytest.raises(OperatorError):
            diag(e_const=0.5)


class TestAffineCommutation:
    def test_exact_on_dyadic_data(self):
        # all values dyadic: both evaluation orders agree exactly
        a = UNIT
        b = TailBox((-2.0,), (2.0,), TailForm((), -0.5), TailForm((), 0.5))
        op = diag(d_const=0.5, e_terms=((0.25, 0.5),))
        lam = 0.5
        left = apply_to_box(op, convex_combination(lam, a, b))
        right = convex_combination(lam, apply_to_box(op, a), apply_to_box(op, b))
        assert left == right

    def test_approximate_on_random_data(self):
        rng = random.Random(13)
        for _ in range(50):
            level_a, level_b = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
            a = TailBox((), (), TailForm((), -level_a), TailForm((), level_a))
            b = TailBox((), (), TailForm((), -level_b), TailForm((), level_b))
            op = diag(d_const=rng.uniform(-0.9, 0.9), e_terms=((rng.uniform(-1, 1), 0.5),))
            lam = rng.uniform(0, 1)
            left = apply_to_box(op, convex_combination(lam, a, b))
            right = convex_combination(lam, apply_to_box(op, a), apply_to_box(op, b))
            for i in (1, 2, 5, 17):
                assert left.lo(i) == pytest.approx(right.lo(i), abs=1e-12)
                assert left.hi(i) == pytest.approx(right.hi(i), abs=1e-12)


class TestMuScaling:
    def test_pure_scaling_measure_is_homogeneous(self):
        for c in (0.5, -0.75, 0.0, 0.9):
            image = apply_to_box(scaling_operator(c), UNIT)
            assert hausdorff_mnc(image) == abs(c) * 1.0


class TestFixedPointWitness:
    def test_closed_form_geometric_offset(self):
        # x = x/2 + (1/2)**i coordinatewise: x_i = 2*(1/2)**i = (1/2)**(i-1)
        op = diag(d_const=0.5, e_terms=((1.0, 0.5),))
        witness = fixed_point_witness(op)
        assert witness.point.tail == TailForm(((2.0, 0.5),), 0.0)
        assert witness.residual <= 1e-10

    def test_zero_offset_gives_zero(self):
        witness = fixed_point_witness(scaling_operator(0.5))
        assert witness.point == Point()
        assert witness.residual == 0.0

    def test_zero_coefficient_gives_offset(self):
        op = diag(d_const=0.0, e_terms=((1.0, 0.25),))
        witness = fixed_point_witness(op)
        assert witness.point.tail == TailForm(((1.0, 0.25),), 0.0)
        assert witness.residual <= 1e-10

    def test_non_constant_coefficient_tail_solved_numerically(self):
        op = diag(d_terms=((0.25, 0.5),), d_const=0.5, e_terms=((1.0, 0.5),))
        witness = fixed_point_witness(op)
        assert witness.residual <= 1e-10
        # spot-check the fixed point equation at the first coordinates
        for i in (1, 2, 3, 10):
            x = witness.point.value(i)
            assert op.d(i) * x + op.e(i) == pytest.approx(x, abs=1e-12)
            assert x == op.e(i) / (1.0 - op.d(i))

    @pytest.mark.parametrize(
        "op, head_len",
        [
            # e = 0: every solved entry is the zero tail's value
            (diag(d_terms=((0.01, 0.9),), d_const=0.98), 0),
            (diag(d_const=0.5, e_head=(0.25, 0.0, 0.0)), 1),
            # the tail's terms underflow to zero near coordinate 2590, and
            # so do the solved entries
            (
                DiagonalAffineOperator(
                    (0.5, -0.25), TailForm(((0.01, 0.9),), 0.8),
                    (0.125, -0.5), TailForm(((0.25, 0.5), (-0.125, 0.75)), 0.0),
                ),
                2590,
            ),
        ],
    )
    def test_trailing_head_entries_equal_to_the_tail_are_trimmed(self, op, head_len):
        witness = fixed_point_witness(op)
        assert witness.point.head_len == head_len
        solve_to = DEFAULT_HORIZON if op.d.tail.n_terms else op.head_len
        probe_to = DEFAULT_HORIZON if op.d.tail.n_terms else 64
        full = Point(
            [op.e(i) / (1.0 - op.d(i)) for i in range(1, solve_to + 1)], witness.point.tail
        )
        assert all(witness.point(i) == full(i) for i in range(1, DEFAULT_HORIZON + 65))
        # the residual of the untrimmed point, one scalar coordinate at a time
        probes = list(range(1, probe_to + 1)) + [probe_to * 2**k for k in range(1, 41)]
        residual = max(abs(op.d(i) * full(i) + op.e(i) - full(i)) for i in probes if i <= 2**62)
        assert witness.residual == residual

    def test_identity_rejected(self):
        with pytest.raises(NotContractiveError):
            fixed_point_witness(identity_operator())

    def test_late_dominance_index_hits_the_horizon(self):
        # |d_i| < 1 is certified only from i = 69,315 on, where
        # 0.2*0.99999**i < 1 - 0.9: past the horizon
        op = diag(d_terms=((0.2, 0.99999),), d_const=0.9, e_terms=((1.0, 0.5),))
        with pytest.raises(NotContractiveError, match="within horizon 10000"):
            fixed_point_witness(op)
        # from i = 9 on, where 1.2*0.9**i < 1 - 0.5: within it
        op = diag(d_terms=((0.6, 0.9), (-0.6, 0.8)), d_const=0.5, e_terms=((1.0, 0.5),))
        assert fixed_point_witness(op).residual <= 1e-10

    def test_contraction_is_decided_by_the_signs_of_one_minus_and_plus_d(self):
        # d = 0.9 - 1.5*0.99999**i: 1 - d is positive throughout and 1 + d
        # from i = 1, though sum |c_j| r**i < 1 - |beta| holds only from
        # i of about 270,800
        op = diag(d_terms=((-1.5, 0.99999),), d_const=0.9, e_terms=((1.0, 0.5),))
        assert fixed_point_witness(op).residual <= 1e-10
        # 1 - d settles about 6.9e9 past the head, past the sign cap: refused
        op = diag(d_terms=((0.2, 1 - 1e-10),), d_const=0.9)
        with pytest.raises(NotContractiveError, match="within horizon 10000"):
            fixed_point_witness(op)

    def test_head_coefficient_at_one_rejected(self):
        op = DiagonalAffineOperator((1.0,), TailForm((), 0.5), (), TailForm())
        with pytest.raises(NotContractiveError):
            fixed_point_witness(op)

    @settings(deadline=None, max_examples=20)
    @given(contractive_operators())
    def test_random_contractive_operators_under_a_memory_bound(self, op):
        tracemalloc.start()
        try:
            witness = fixed_point_witness(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few head arrays of at most 10**4 entries: about 0.7 MB at most
        assert peak < 2 * 2**20
        solve_to = max(op.head_len, DEFAULT_HORIZON) if op.d.tail.n_terms else op.head_len
        probe_to = max(op.head_len, DEFAULT_HORIZON) if op.d.tail.n_terms else max(op.head_len, 64)
        full = Point(
            [op.e(i) / (1.0 - op.d(i)) for i in range(1, solve_to + 1)], witness.point.tail
        )
        assert witness.point.head_len <= solve_to
        assert all(witness.point(i) == full(i) for i in range(1, probe_to + 65))
        probes = list(range(1, probe_to + 1)) + [probe_to * 2**k for k in range(1, 41)]
        residual = max(abs(op.d(i) * full(i) + op.e(i) - full(i)) for i in probes if i <= 2**62)
        assert witness.residual == residual
