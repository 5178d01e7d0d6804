import random
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from darbocert import engine
from darbocert.engine import (
    CERTIFIED,
    DEFAULT_ENGINE_LADDER,
    INCONCLUSIVE,
    REFUTED,
    PreconditionError,
    check_example_bound,
    classic_darbo_run,
    darbo_iterate,
    identity_pair,
    weak_contraction_run,
)
from darbocert.expr import eval_expr, parse_expr
from darbocert.mnc import TailBox, TailForm, hausdorff_mnc, scale_translate, subset
from darbocert.operators import DiagonalAffineOperator, apply_to_box, verify_self_map
from darbocert.scenarios import (
    broken_pair,
    compact_geometric_box,
    demo_pair,
    identity_operator,
    scaling_operator,
    unit_box,
)
from darbocert.shifting import FAIL, PASS, SampleGrid, grid_table, run_all_checks

PAIR = demo_pair()
GRID = SampleGrid()


def make_pair(psi, phi, psi_lim, phi_lim):
    from darbocert.shifting import FunctionSequencePair

    return FunctionSequencePair(
        psi_seq=parse_expr(psi),
        phi_seq=parse_expr(phi),
        psi_limit=parse_expr(psi_lim),
        phi_limit=parse_expr(phi_lim),
    )


class TestDarboIterate:
    def test_half_scaling_certifies_with_exact_dyadic_trace(self):
        cert = darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, tol=1e-9)
        assert cert.outcome == CERTIFIED
        assert len(cert.trace) - 1 == 30
        for k, state in enumerate(cert.trace):
            assert state["mu"] == 0.5**k  # pure scaling: exact geometric decay
        assert cert.mu_trace[-1] == pytest.approx(9.313225746154785e-10)
        assert cert.witness is not None and cert.witness.residual == 0.0
        assert cert.factor == 0.5

    def test_margins_are_nonnegative_on_certified_run(self):
        cert = darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, tol=1e-9)
        for state in cert.trace[1:]:
            assert all(margin >= -1e-12 for margin in state["margins"].values())

    def test_relatively_compact_domain_certifies_at_step_zero(self):
        cert = darbo_iterate(scaling_operator(0.5), compact_geometric_box(), PAIR)
        assert cert.outcome == CERTIFIED
        assert len(cert.trace) == 1
        assert cert.trace[0]["mu"] == 0.0

    def test_compact_domain_with_non_constant_factor_certifies_at_step_zero(self):
        domain = TailBox((), (), TailForm(((-1.0, 0.9),)), TailForm(((1.0, 0.9),)))
        op = DiagonalAffineOperator((), TailForm(((-0.3, 0.5),), 0.5))
        cert = darbo_iterate(op, domain, PAIR)
        assert cert.outcome == CERTIFIED
        assert len(cert.trace) == 1
        assert cert.trace[0]["mu"] == 0.0

    def test_identity_operator_refuted_at_step_zero(self):
        cert = darbo_iterate(identity_operator(), unit_box(), PAIR)
        assert cert.outcome == REFUTED
        assert cert.refutation == {"step": 0, "n": "limit", "lhs": 4.0, "rhs": 3.0}
        # the tuple re-evaluates to a violation of the limit inequality
        lhs = eval_expr(PAIR.psi_limit, 1.0, 1.0)
        rhs = eval_expr(PAIR.phi_limit, 1.0, 1.0)
        assert lhs == 4.0 and rhs == 3.0 and lhs > rhs

    def test_nesting_holds_at_every_step(self):
        op = scaling_operator(0.5)
        cert = darbo_iterate(op, unit_box(), PAIR, tol=1e-6)
        boxes = [unit_box()]
        for _ in cert.trace[1:]:
            boxes.append(apply_to_box(op, boxes[-1]))
        assert [hausdorff_mnc(b) for b in boxes] == cert.mu_trace
        assert all(subset(b2, b1) for b1, b2 in zip(boxes, boxes[1:]))

    def test_offset_operator_certifies(self):
        op = DiagonalAffineOperator(
            (), TailForm((), 0.5), (), TailForm(((1.0, 0.25),), 0.0)
        )
        cert = darbo_iterate(op, unit_box(), PAIR, tol=1e-9)
        assert cert.outcome == CERTIFIED
        mus = cert.mu_trace
        assert all(mus[k + 1] == 0.5 * mus[k] for k in range(len(mus) - 1))

    def test_inconclusive_when_budget_runs_out(self):
        cert = darbo_iterate(
            scaling_operator(0.5), unit_box(), PAIR, tol=1e-9, max_iter=1,
        )
        assert cert.outcome == INCONCLUSIVE
        # the exact ratio and the last measure: slow decay, not a stall
        assert cert.factor == 0.5 and cert.trace[-1]["mu"] == 0.5

    def test_non_self_map_is_a_precondition_error(self):
        with pytest.raises(PreconditionError):
            darbo_iterate(scaling_operator(2.0), unit_box(), PAIR)

    def test_failing_pair_checks_block_the_run(self):
        with pytest.raises(PreconditionError):
            darbo_iterate(scaling_operator(0.5), unit_box(), broken_pair(), grid=GRID)

    def test_grid_short_of_the_domain_measure_blocks_every_run(self):
        # the unit box has mu(A_0) = 1; the gate holds even with checks
        # overridden, in every mode that checks the pair on the grid
        short = SampleGrid(t_max=0.5, step=0.1)
        message = "grid tMax 0.5 is below the domain's measure mu\\(A_0\\) = 1.0"
        runs = (
            lambda: darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, grid=short,
                                  require_pair_checks=False),
            lambda: weak_contraction_run(scaling_operator(0.5), unit_box(), PAIR, grid=short,
                                         require_pair_checks=False),
        )
        for start in runs:
            with pytest.raises(PreconditionError, match=message):
                start()
        one = SampleGrid(t_max=1.0, step=0.1)
        cert = darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, grid=one)
        assert cert.outcome == CERTIFIED

    @pytest.mark.parametrize("t_max, step, half_width, last", [
        (1.05, 0.1, 1.04, "1.0"),
        (0.9, 0.3, 0.9, "0.8999999999999999"),
    ])
    def test_grid_gate_reads_the_last_grid_point(self, t_max, step, half_width, last):
        # tMax reaches mu(A_0), but the checks stop at the last grid point
        grid = SampleGrid(t_max=t_max, step=step)
        domain = TailBox((), (), TailForm((), -half_width), TailForm((), half_width))
        message = (f"grid's last point {last} \\(tMax {t_max}, step {step}\\) is below "
                   f"the domain's measure mu\\(A_0\\) = {half_width}")
        with pytest.raises(PreconditionError, match=message):
            darbo_iterate(scaling_operator(0.5), domain, PAIR, grid=grid)
        with pytest.raises(PreconditionError, match=message):
            weak_contraction_run(scaling_operator(0.5), domain, PAIR, grid=grid,
                                 require_pair_checks=False)

    def test_battery_is_returned_on_the_certificate(self):
        cert = darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, uniform_tol=0.5)
        want = run_all_checks(PAIR, GRID, 0.5)
        assert {k: r.to_dict() for k, r in cert.checks.items()} == {
            k: r.to_dict() for k, r in want.items()
        }
        assert "checks" not in cert.to_dict()

    def test_rejected_grid_runs_no_battery(self):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_all_checks(*args)

        short = SampleGrid(t_max=0.5, step=0.1)
        with mock.patch.object(engine, "run_all_checks", counted):
            with pytest.raises(PreconditionError):
                darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, grid=short)
            darbo_iterate(scaling_operator(0.5), unit_box(), PAIR)
        assert len(calls) == 1

    def test_pair_check_override_warns_and_continues(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cert = darbo_iterate(
                scaling_operator(0.5), unit_box(), broken_pair(),
                grid=GRID, require_pair_checks=False,
            )
        assert any("pair checks" in str(w.message) for w in caught)
        assert cert.outcome == CERTIFIED


class TestExampleBound:
    def test_bound_formula_values(self):
        rep = check_example_bound(PAIR, GRID, (1, 10, 100, 1000, 10**6))
        assert rep.verdict == PASS
        per_n = rep.details["perN"]
        assert per_n["1"]["bound"] == 1.5
        assert abs(per_n["1000"]["bound"] - float(Fraction(2001, 1001000))) <= 1e-18
        assert per_n["1000000"]["bound"] == pytest.approx(2.0e-6, rel=1e-5)
        assert rep.details["boundDecreasing"]
        assert rep.details["limitMaxLhs"] <= 1e-12

    def test_spot_pair_inside_bound(self):
        # u = 0.4, v = 1, n = 10: hypothesis holds and 2u - v <= 21/110
        psi = eval_expr(PAIR.psi_seq, Fraction(2, 5), Fraction(10))
        phi = eval_expr(PAIR.phi_seq, Fraction(1), Fraction(10))
        assert psi == Fraction(14, 5) - Fraction(1, 11)  # 2.8 - 1/11
        assert phi == Fraction(31, 10)  # 3.1
        assert psi <= phi
        assert 2 * Fraction(2, 5) - 1 <= Fraction(21, 110)

    def test_bound_violated_by_expansive_pair(self):
        pair = make_pair("t", "2*t", "t", "2*t")
        rep = check_example_bound(pair, SampleGrid(t_max=10, step=0.1), (1, 10))
        assert rep.verdict == FAIL
        ce = rep.counterexample
        # the witness re-evaluates: hypothesis holds yet 2u - v exceeds the bound
        if ce["n"] != "limit":
            lhs = eval_expr(pair.psi_seq, ce["u"], float(ce["n"]))
            rhs = eval_expr(pair.phi_seq, ce["v"], float(ce["n"]))
            assert lhs <= rhs
        assert 2 * ce["u"] - ce["v"] > ce["bound"] + 1e-12


    def test_psi_constant_in_t(self):
        # psi_n = 1 evaluates to a scalar; every row still sees the grid
        pair = make_pair("1", "t", "1", "t")
        rep = check_example_bound(pair, SampleGrid(t_max=10, step=0.5), (1, 10))
        # admissible pairs need v >= 1, so the largest 2u - v is 20 - 1
        assert rep.details["perN"]["1"]["maxLhs"] == 19.0
        assert rep.counterexample == {"n": 1, "u": 10.0, "v": 1.0, "lhs": 19.0, "bound": 1.5}

    def test_a_bound_rising_by_less_than_the_tie_tolerance_is_not_decreasing(self):
        # the bound rises by 8.9e-13 from n = 1,500,001 to 1,500,000; the
        # exact bounds are compared, not floats within TIE_TOL
        rep = check_example_bound(PAIR, SampleGrid(t_max=10, step=0.5), (1_500_001, 1_500_000))
        assert rep.details["boundDecreasing"] is False
        assert rep.verdict == FAIL
        assert rep.counterexample == {"reason": "bound not decreasing along n"}
        assert check_example_bound(PAIR, GRID, (1_500_000, 1_500_001)).details["boundDecreasing"]


class TestClassicRun:
    def test_a_slowly_settling_multiplier_gets_its_witness(self):
        # d = 0.9 - 1.5*0.99999**i: |d_i| < 1 at every i
        op = DiagonalAffineOperator((), TailForm(((-1.5, 0.99999),), 0.9))
        cert = classic_darbo_run(op, unit_box(), k=0.95, tol=1e-9)
        assert (cert.outcome, len(cert.trace) - 1) == (CERTIFIED, 197)
        assert cert.witness is not None and cert.witness.residual == 0.0

    def test_half_factor_on_half_scaling_certifies(self):
        cert = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.5, tol=1e-9)
        assert cert.outcome == CERTIFIED
        mus = cert.mu_trace
        assert all(mus[j + 1] == 0.5 * mus[j] for j in range(len(mus) - 1))
        assert cert.details == {"mode": "classic", "k": 0.5}

    def test_tighter_factor_refutes_at_step_zero(self):
        cert = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.4)
        assert cert.outcome == REFUTED
        assert cert.refutation["step"] == 0
        assert cert.refutation["lhs"] == 0.5
        assert cert.refutation["rhs"] == pytest.approx(0.4)

    def test_limit_check_is_the_ratio_check(self):
        # phi = k*t evaluates to exactly k*mu, so the per-step limit check
        # is mu_(j+1) <= k*mu_j itself and needs no re-check on the trace
        rng = random.Random(31)
        for _ in range(10_000):
            k, mu = rng.uniform(0.0, 1.0), rng.uniform(0.0, 10.0)
            assert float(eval_expr(identity_pair(k).phi_limit, mu, 1.0)) == k * mu

    def test_ratio_violation_refuted_by_the_limit_check(self):
        cert = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.4)
        assert cert.outcome == REFUTED
        assert cert.refutation["step"] == 0
        assert cert.refutation["n"] == "limit"

    def test_rounded_nesting_form_does_not_refute_a_valid_chain(self):
        # d = 0.3 - 0.5*0.999**i maps the unit box into itself, so every
        # A_k nests; the expanded float gap of step 13 is negative at
        # coordinate 511 and once refuted this chain
        op = DiagonalAffineOperator((), TailForm(((-0.5, 0.999),), 0.3))
        cert = classic_darbo_run(op, unit_box(), k=0.5)
        assert cert.outcome == CERTIFIED and len(cert.trace) - 1 == 18
        assert cert.mu_trace[:2] == [1.0, 0.3]

    @pytest.mark.xfail(
        strict=True, reason="the step test forgives a margin within TIE_TOL (ROADMAP item 1)",
    )
    def test_a_factor_above_k_is_refuted_at_step_zero_whatever_the_scale(self):
        # 0.9 > 0.5 exactly, so mu_1 <= 0.5*mu_0 fails at step 0; on a box of
        # measure 1e-12 that step's margin is -4e-13, inside TIE_TOL, and the
        # run comes out CERTIFIED after 175 steps
        domain = scale_translate(unit_box(), 1e-12)
        cert = classic_darbo_run(scaling_operator(0.9), domain, 0.5, tol=1e-20)
        assert cert.outcome == REFUTED and cert.refutation["step"] == 0

    def test_identity_operator_refutes(self):
        cert = classic_darbo_run(identity_operator(), unit_box(), k=0.9)
        assert cert.outcome == REFUTED
        assert cert.refutation["lhs"] == 1.0
        assert cert.refutation["rhs"] == pytest.approx(0.9)

    @pytest.mark.parametrize("half_width, k, steps", [(1000.0, 0.6, 40), (1.0, 1 - 1e-14, 30)])
    def test_runs_no_pair_check_and_no_grid_gate(self, half_width, k, steps):
        # mu(TA) = mu(A)/2 <= k*mu(A) on a domain past the default grid's
        # tMax, and with (1 - k)*0.1 below the tie tolerance: both valid
        domain = TailBox((), (), TailForm((), -half_width), TailForm((), half_width))

        def refuse(*args, **kwargs):
            raise AssertionError("classic mode runs no grid gate or pair check")

        with mock.patch.object(engine, "run_all_checks", refuse), \
                mock.patch.object(engine, "check_equality_only_at_zero", refuse), \
                mock.patch.object(engine, "_grid_gate", refuse):
            cert = classic_darbo_run(scaling_operator(0.5), domain, k)
        assert cert.outcome == CERTIFIED and len(cert.trace) - 1 == steps
        assert cert.checks is None

    def test_factor_must_lie_in_unit_interval(self):
        with pytest.raises(PreconditionError):
            classic_darbo_run(scaling_operator(0.5), unit_box(), k=1.0)

    def test_consistency_across_random_factor_pairs(self):
        rng = random.Random(29)
        for _ in range(20):
            c = rng.uniform(0.0, 0.9)
            certifying_k = rng.uniform(c, 0.95)
            refuting_k = rng.uniform(0.0, c * 0.999) if c > 0 else None
            cert = classic_darbo_run(scaling_operator(c), unit_box(), k=certifying_k)
            assert cert.outcome == CERTIFIED
            if refuting_k is not None:
                cert2 = classic_darbo_run(scaling_operator(c), unit_box(), k=refuting_k)
                assert cert2.outcome == REFUTED
                assert cert2.refutation["step"] == 0


class TestWeakContractionRun:
    HALF_PAIR_ARGS = ("t", "t/2", "t", "t/2")

    def test_half_scaling_certifies(self):
        cert = weak_contraction_run(
            scaling_operator(0.5), unit_box(), make_pair(*self.HALF_PAIR_ARGS)
        )
        assert cert.outcome == CERTIFIED
        assert cert.details == {"mode": "weak"}

    def test_identity_operator_refutes(self):
        cert = weak_contraction_run(
            identity_operator(), unit_box(), make_pair(*self.HALF_PAIR_ARGS)
        )
        assert cert.outcome == REFUTED
        assert cert.refutation["step"] == 0
        assert cert.refutation["lhs"] == 1.0
        assert cert.refutation["rhs"] == 0.5  # psi(1) - phi(1) = 1 - 1/2

    def test_compact_domain_certifies_immediately(self):
        cert = weak_contraction_run(
            scaling_operator(0.5), compact_geometric_box(), make_pair(*self.HALF_PAIR_ARGS)
        )
        assert cert.outcome == CERTIFIED
        assert len(cert.trace) == 1

    def test_equal_functions_violate_the_precondition(self):
        with pytest.raises(PreconditionError):
            weak_contraction_run(
                scaling_operator(0.5), unit_box(), make_pair("t", "t", "t", "t")
            )

    def test_pair_check_override_warns_and_continues(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cert = weak_contraction_run(
                scaling_operator(0.5), unit_box(), make_pair("t", "t", "t", "t"),
                require_pair_checks=False,
            )
        assert any("equality_only_at_zero" in str(w.message) for w in caught)
        assert cert.outcome == REFUTED

    @pytest.mark.parametrize("phi, rows", [("t/2", 1), ("t/2+0*n", 27)])
    def test_phi_is_checked_one_row_when_it_does_not_mention_n(self, phi, rows):
        # the grid ladder 2**0..2**20 and the chain ladder 10**0..10**6 hold
        # 27 distinct n, every row the same row when phi does not mention n
        calls = []

        def counted(e, t, ns):
            calls.append(ns)
            return grid_table(e, t, ns)

        with mock.patch.object(engine, "grid_table", counted):
            weak_contraction_run(scaling_operator(0.5), unit_box(), make_pair("t", phi, "t", "t/2"))
        ns = sorted({*GRID.n_ladder, *DEFAULT_ENGINE_LADDER})
        assert [c for c in calls if len(c) == 1] == [(n,) for n in ns[:rows]]

    def test_negative_phi_violates_the_precondition(self):
        with pytest.raises(PreconditionError):
            weak_contraction_run(
                scaling_operator(0.5), unit_box(), make_pair("t", "0-t/2", "t", "0-t/2")
            )


class TestCertificateSoundness:
    def test_refutation_tuples_reevaluate(self):
        cert = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.4)
        box = unit_box()
        image = apply_to_box(scaling_operator(0.5), box)
        mu_image = hausdorff_mnc(image)
        mu_box = hausdorff_mnc(box)
        assert cert.refutation["lhs"] == mu_image
        assert mu_image > 0.4 * mu_box + 1e-12

    def test_serialisation_shape(self):
        cert = darbo_iterate(scaling_operator(0.5), unit_box(), PAIR, tol=1e-3)
        data = cert.to_dict()
        assert data["outcome"] == CERTIFIED
        assert data["witness"]["residual"] == 0.0
        assert [s["mu"] for s in data["trace"]] == cert.mu_trace
        assert "box" not in data["trace"][0]


def short_forms(coeffs, constant):
    """Tail forms of one to three terms with coefficients from ``coeffs``."""
    terms = st.lists(st.tuples(coeffs, st.floats(0.05, 0.95)), min_size=1, max_size=3)
    return st.builds(TailForm, terms, constant)


@st.composite
def self_mapping_chains(draw):
    """(operator, domain, steps): a domain of heads of at most 3 entries and
    short tails, and a map x_i -> d_i x_i + e_i that maps it into itself.
    d is drawn smaller for asymmetric domains, d and e are mostly small
    enough to keep the self-map, and draws that lose it are rejected."""
    h = draw(st.integers(0, 3))
    hi = draw(short_forms(st.floats(0.0, 0.5), st.floats(0.5, 2.0)))
    head_hi = draw(st.lists(st.floats(0.5, 2.0), min_size=h, max_size=h))
    symmetric = draw(st.booleans())
    if symmetric:
        lo, head_lo, reach = hi.scale(-1.0), [-x for x in head_hi], 0.2
    else:
        lo = draw(short_forms(st.floats(-0.5, 0.0), st.floats(-2.0, -0.5)))
        head_lo = draw(st.lists(st.floats(-2.0, -0.5), min_size=h, max_size=h))
        reach = 0.05
    beta = draw(st.floats(reach / 4, 3.5 * reach)) * draw(st.sampled_from([1.0, -1.0]))
    d = draw(short_forms(st.floats(-reach, reach), st.just(beta)))
    d_head = draw(st.lists(st.floats(-4.5 * reach, 4.5 * reach), max_size=3))
    e = draw(short_forms(st.floats(-0.01, 0.01), st.just(0.0)))
    e_head = draw(st.lists(st.floats(-0.04, 0.04), max_size=3))
    op = DiagonalAffineOperator(d_head, d, e_head, e)
    domain = TailBox(head_lo, head_hi, lo, hi)
    assume(verify_self_map(op, domain))
    return op, domain, draw(st.integers(1, 15))


def exact_interval_chain(op, domain, i, steps):
    """[lo_i, hi_i] and its images under x -> d_i x + e_i, in Fraction."""
    d, e = Fraction(op.d(i)), Fraction(op.e(i))
    lo, hi = Fraction(domain.lo(i)), Fraction(domain.hi(i))
    chain = [(lo, hi)]
    for _ in range(steps):
        lo, hi = sorted((d * lo + e, d * hi + e))
        chain.append((lo, hi))
    return chain


class TestChainInduction:
    """The chain decides nesting once, by the self-map at step 0, and
    carries the measure as |asym d| * mu; the box iteration it replaced is
    the reference here."""

    @settings(deadline=None, max_examples=30)
    @given(self_mapping_chains())
    def test_scalar_trace_matches_the_box_iteration(self, case):
        op, domain, steps = case
        cert = classic_darbo_run(op, domain, k=0.99, tol=1e-300, max_iter=steps)
        assert cert.outcome == INCONCLUSIVE and len(cert.trace) == steps + 1
        boxes = [domain]
        for _ in range(steps):
            boxes.append(apply_to_box(op, boxes[-1]))
        # bit for bit: hex strings tell -0.0 and signed rounding apart
        assert [mu.hex() for mu in cert.mu_trace] == [hausdorff_mnc(b).hex() for b in boxes]
        assert all(m2 <= m1 for m1, m2 in zip(cert.mu_trace, cert.mu_trace[1:]))
        for i in range(1, 201):
            chain = exact_interval_chain(op, domain, i, steps)
            (lo0, hi0), (lo1, hi1) = chain[0], chain[1]
            if lo0 <= lo1 and hi1 <= hi0:
                # T A_0 within A_0 gives T A_k within A_k at every later step
                assert all(a <= c and d <= b for (a, b), (c, d) in zip(chain, chain[1:]))
