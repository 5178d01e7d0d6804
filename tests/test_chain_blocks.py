"""The chain decided in blocks of steps against the per-step loop.

``loop_run_chain`` below is the chain as first written: each step makes
two ``limit_values`` and two ``eval_expr`` calls at scalar measures.  The
block chain under test evaluates each side once per block; its
certificates must equal the loop's bit for bit (trace, margins,
refutation, details), and where the loop raises, the block chain must
raise the same error with the same message.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbocert import engine, expr, shifting
from darbocert.engine import (
    CERTIFIED,
    DEFAULT_ENGINE_LADDER,
    INCONCLUSIVE,
    REFUTED,
    Certificate,
    IterationState,
    _aitken_estimate,
    _attach_witness,
    _decay_stats,
    _run_chain,
    classic_darbo_run,
    darbo_iterate,
    identity_pair,
)
from darbocert.expr import DivisionByZeroError, LimitDivergenceError, eval_expr, parse_expr
from darbocert.mnc import TailBox, TailForm, hausdorff_mnc
from darbocert.operators import DiagonalAffineOperator
from darbocert.scenarios import identity_operator, scaling_operator, unit_box
from darbocert.shifting import TIE_TOL, limit_values

# d = 0.98 + 0.01*0.9**i on the unit box: a 1026-step chain at k = 0.99
LONG_OP = DiagonalAffineOperator((), TailForm(((0.01, 0.9),), 0.98))


def loop_run_chain(op, domain, lhs_seq, rhs_seq, lhs_limit, rhs_limit, tol, max_iter,
                   n_ladder, details):
    """The chain decided one step at a time."""
    ns = np.array(n_ladder, dtype=float)
    factor = abs(op.d.asym)
    mus = [hausdorff_mnc(domain).value]
    trace = [IterationState(0, mus[0], {}, True, None)]
    if mus[0] < tol:
        return Certificate(
            CERTIFIED, trace, witness=_attach_witness(op),
            p_estimate=mus[0], decay=_decay_stats(mus), details=details,
        )

    for k in range(max_iter):
        mu_image = factor * mus[-1]
        margins = {}
        refutation = None
        try:
            lhs_lim = float(limit_values(lhs_limit, lhs_seq, mu_image))
            rhs_lim = float(limit_values(rhs_limit, rhs_seq, mus[-1]))
        except LimitDivergenceError as exc:
            return Certificate(
                INCONCLUSIVE, trace,
                p_estimate=_aitken_estimate(mus), decay=_decay_stats(mus),
                details={**details, "step": k, "reason": str(exc)},
            )
        margins["limit"] = rhs_lim - lhs_lim
        if lhs_lim > rhs_lim + TIE_TOL:
            refutation = {"step": k, "n": "limit", "lhs": lhs_lim, "rhs": rhs_lim}

        lhs_n = np.broadcast_to(eval_expr(lhs_seq, mu_image, ns), ns.shape)
        rhs_n = np.broadcast_to(eval_expr(rhs_seq, mus[-1], ns), ns.shape)
        margins.update((f"n={n}", float(r - l)) for n, l, r in zip(n_ladder, lhs_n, rhs_n))
        violated = np.flatnonzero(lhs_n > rhs_n + TIE_TOL)
        if refutation is None and violated.size:
            i = violated[0]
            lhs, rhs = float(lhs_n[i]), float(rhs_n[i])
            refutation = {"step": k, "n": n_ladder[i], "lhs": lhs, "rhs": rhs}

        mus.append(mu_image)
        trace.append(IterationState(k + 1, mu_image, margins, True, _aitken_estimate(mus)))
        if refutation is not None:
            return Certificate(
                REFUTED, trace, refutation=refutation,
                p_estimate=_aitken_estimate(mus), decay=_decay_stats(mus), details=details,
            )
        if mu_image < tol:
            return Certificate(
                CERTIFIED, trace, witness=_attach_witness(op),
                p_estimate=_aitken_estimate(mus), decay=_decay_stats(mus), details=details,
            )
    return Certificate(
        INCONCLUSIVE, trace,
        p_estimate=_aitken_estimate(mus), decay=_decay_stats(mus), details=details,
    )


def bits(obj):
    """A certificate, or a raised error, with every float as its hex string,
    so that -0.0, NaN and the last bit all count."""
    if isinstance(obj, BaseException):
        return type(obj).__name__, str(obj)
    if isinstance(obj, Certificate):
        return bits(obj.to_dict())
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: bits(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(value) for value in obj]
    return obj


def run(fn, args):
    try:
        return fn(*args)
    except (DivisionByZeroError, LimitDivergenceError) as exc:
        return exc


def chain_args(psi, phi, psi_lim=None, phi_lim=None, op=scaling_operator(0.5),
               domain=unit_box(), tol=1e-9, max_iter=10_000, ladder=DEFAULT_ENGINE_LADDER):
    def parse(src):
        return src and parse_expr(src)

    return (op, domain, parse(psi), parse(phi), parse(psi_lim), parse(phi_lim), tol, max_iter,
            tuple(ladder), {"mode": "main"})


def assert_same_as_the_loop(args, cells=None):
    want = run(loop_run_chain, args)
    with mock.patch.object(engine, "_BLOCK_CELLS", cells or engine._BLOCK_CELLS):
        got = run(_run_chain, args)
    assert bits(got) == bits(want)
    return got


# bounded, growing and shrinking in t; zero divisors at t = 1/4 (reached
# exactly by halving from 1) and at n = 2; limits that diverge for every
# t > 0 (t*n) or only for small t (1/(1+n*t))
_ATOMS = (
    "t", "1", "t*t", "1/n", "t/n", "(t-10/n)*(t-10/n)", "n*t/(n+1)", "(t-3)*(t-3)",
    "(n-1)*t/n", "1/(t-1/4)", "1/(n-2)", "t*n", "1/(1+n*t)",
)
_LIMIT_ATOMS = ("t", "1", "t*t", "(t-3)*(t-3)", "1/(t-1/4)")
# added to one side to make the other side's inequality hold for long
_SLACK = ("0", "1", "1000*t", "1000*t*t", "t/(t-1/4)")


@st.composite
def sums(draw, atoms=_ATOMS):
    parts = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(atoms)), min_size=1, max_size=3
    ))
    return "+".join(f"({c})*{a}" if c < 0 else f"{c}*{a}" for c, a in parts)


@st.composite
def sides(draw, atoms):
    """An (lhs, rhs) pair: independent, or rhs = lhs plus slack."""
    lhs = draw(sums(atoms))
    if draw(st.booleans()):
        return lhs, f"{lhs}+{draw(st.sampled_from(_SLACK))}"
    return lhs, draw(sums(atoms))


@st.composite
def chains(draw):
    psi, phi = draw(sides(_ATOMS))
    psi_lim, phi_lim = draw(sides(_LIMIT_ATOMS)) if draw(st.booleans()) else (None, None)
    factor = draw(st.sampled_from((0.0, 0.25, -0.5, 0.5, 0.75, 0.9, 0.98, 1.0)))
    radius = draw(st.sampled_from((0.0, 1e-12, 1.0, 2.0)))
    domain = TailBox((), (), TailForm((), -radius), TailForm((), radius))
    args = chain_args(
        psi, phi, psi_lim, phi_lim, op=scaling_operator(factor), domain=domain,
        tol=draw(st.sampled_from((1e-20, 1e-9, 1e-3))),
        max_iter=draw(st.integers(1, 120)),
        ladder=draw(st.sampled_from(((1,), (2,), (1, 2), (1, 3, 10, 1000), DEFAULT_ENGINE_LADDER))),
    )
    return args, draw(st.sampled_from((1, 5, 16, 64, 1 << 14)))


class TestParityWithTheStepLoop:
    @settings(deadline=None, max_examples=150)
    @given(chains())
    def test_random_chains_equal_the_loop(self, case):
        assert_same_as_the_loop(*case)

    def test_zero_divisor_after_a_refutation_is_not_raised(self):
        # phi_n(mu_k) < psi_n(mu_{k+1}) from step 11 on; t - 2**-20 is zero
        # at mu_20, in the same block
        phi = "1000*t*t+0*t/(t-1/1048576)"
        with pytest.raises(DivisionByZeroError):
            eval_expr(parse_expr(phi), 2.0**-20, 1.0)
        cert = assert_same_as_the_loop(chain_args("t", phi, "t", "t"))
        assert cert.outcome == REFUTED
        assert cert.refutation == {
            "step": 11, "n": 1, "lhs": 2.0**-12, "rhs": 1000 * 2.0**-22,
        }

    def test_zero_divisor_without_a_refutation_raises_at_its_step(self):
        exc = assert_same_as_the_loop(chain_args("t", "2*t+0*t/(t-1/1048576)", "t", "t"))
        assert isinstance(exc, DivisionByZeroError)
        assert str(exc) == "division by zero in '0*t/(t-1/1048576)'"

    def test_undeclared_limit_diverging_mid_chain_is_inconclusive_at_that_step(self):
        # 1/(1+n*t) settles on the probe ladder only for t above about 5e-4
        cert = assert_same_as_the_loop(chain_args("t/2+1/(1+n*t)", "t+2/(1+n*t)"))
        assert cert.outcome == INCONCLUSIVE
        assert len(cert.trace) == 11
        assert cert.details == {
            "mode": "main",
            "step": 10,
            "reason": "'t/2+1/(1+n*t)' does not stabilise in n at t=0.00048828125 (tol=1e-09)",
        }

    def test_limit_and_ladder_violated_at_the_same_step(self):
        cert = assert_same_as_the_loop(chain_args("t", "1000*t*t", "t", "1000*t*t"))
        assert cert.outcome == REFUTED
        assert cert.refutation["step"] == 11 and cert.refutation["n"] == "limit"
        assert all(margin < 0 for margin in cert.trace[-1].margins.values())
        assert all(margin >= 0 for margin in cert.trace[-2].margins.values())

    def test_budget_runs_out(self):
        args = chain_args("t", "0.99*t", "t", "0.99*t", op=LONG_OP, max_iter=300)
        cert = assert_same_as_the_loop(args)
        assert cert.outcome == INCONCLUSIVE
        assert len(cert.trace) == 301 and cert.details == {"mode": "main"}

    def test_chain_longer_than_one_block(self):
        ladder = tuple(range(1, 101))
        args = chain_args("t", "0.99*t", "t", "0.99*t", op=LONG_OP, ladder=ladder)
        cert = assert_same_as_the_loop(args)
        assert cert.outcome == CERTIFIED and len(cert.trace) == 1027
        assert len(cert.trace) - 1 > 6 * (engine._BLOCK_CELLS // (len(ladder) + 1))


class TestWork:
    def test_chain_long_evaluates_each_side_once(self):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return eval_expr(*args)

        with mock.patch.object(expr, "eval_expr", counted), \
                mock.patch.object(shifting, "eval_expr", counted):
            cert = classic_darbo_run(LONG_OP, unit_box(), 0.99)
        assert cert.outcome == CERTIFIED and len(cert.trace) == 1027
        # 16 for the pair battery and 4 for the chain; one call per step
        # side made 4,120
        assert len(calls) == 20

    def test_refuted_long_budget_evaluates_one_block(self):
        tracemalloc.start()
        try:
            cert = darbo_iterate(
                identity_operator(), unit_box(), identity_pair(0.5), max_iter=10**5,
                pair_reports={},
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.outcome == REFUTED and len(cert.trace) == 2
        # one block of 2,048 steps x 8 cells; the whole budget would need
        # 800,000 cells per table
        assert peak < 2**20
