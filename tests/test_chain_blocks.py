"""The chain decided in blocks of steps against the per-step loop.

``loop_run_chain`` below is the chain as first written: each step makes
two ``limit_values`` and two ``eval_expr`` calls at scalar measures, for
the limit row and every ladder row.  It then keys the margins by column:
rows that are the same expression pair are one column, named after its
first row, and the loop asserts that their values agree bit for bit.  The
block chain under test evaluates each side once per block and each column
once; its certificates must equal the loop's bit for bit (trace, margins,
refutation, details), and where the loop raises, the block chain must
raise the same error with the same message.
"""

import gc
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
    _attach_witness,
    _run_chain,
    classic_darbo_run,
    darbo_iterate,
    identity_pair,
    weak_contraction_run,
)
from darbocert.expr import DivisionByZeroError, LimitDivergenceError, eval_expr, parse_expr, unparse
from darbocert.mnc import TailBox, TailForm, hausdorff_mnc
from darbocert.operators import DiagonalAffineOperator
from darbocert.scenarios import demo_pair, identity_operator, scaling_operator, unit_box
from darbocert.shifting import TIE_TOL, FunctionSequencePair, limit_values

# d = 0.98 + 0.01*0.9**i on the unit box: a 1026-step chain at k = 0.99
LONG_OP = DiagonalAffineOperator((), TailForm(((0.01, 0.9),), 0.98))


def columns(lhs_seq, rhs_seq, lhs_limit, rhs_limit, n_ladder):
    """The column name of each row, the limit row first: a row joins the
    column of the first row that is the same expression pair.  An
    undeclared limit is an estimate, a row of its own; a ladder row is the
    pair at its n, one pair for every n when neither side mentions n."""
    n_free = "n" not in unparse(lhs_seq) + unparse(rhs_seq)
    undeclared = lhs_limit is None or rhs_limit is None
    rows = [object() if undeclared else (lhs_limit, rhs_limit)]
    rows += [(lhs_seq, rhs_seq) if n_free else (lhs_seq, rhs_seq, n) for n in n_ladder]
    first = {}
    for row, name in zip(rows, ["limit", *n_ladder]):
        first.setdefault(row, name)
    return [first[row] for row in rows]


def loop_run_chain(op, domain, lhs_seq, rhs_seq, lhs_limit, rhs_limit, tol, max_iter,
                   n_ladder, details):
    """The chain decided one step and one row at a time."""
    ns = np.array(n_ladder, dtype=float)
    names = columns(lhs_seq, rhs_seq, lhs_limit, rhs_limit, n_ladder)
    factor = abs(op.d.asym)
    trace = [{"mu": hausdorff_mnc(domain), "margins": {}}]
    if trace[0]["mu"] < tol:
        return Certificate(CERTIFIED, trace, factor, witness=_attach_witness(op), details=details)

    for k in range(max_iter):
        mu = trace[-1]["mu"]
        mu_image = factor * mu
        try:
            lhs_lim = float(limit_values(lhs_limit, lhs_seq, mu_image))
            rhs_lim = float(limit_values(rhs_limit, rhs_seq, mu))
        except LimitDivergenceError as exc:
            return Certificate(
                INCONCLUSIVE, trace, factor, details={**details, "step": k, "reason": str(exc)},
            )
        lhs_n = np.broadcast_to(eval_expr(lhs_seq, mu_image, ns), ns.shape)
        rhs_n = np.broadcast_to(eval_expr(rhs_seq, mu, ns), ns.shape)
        cells = {}
        refutation = None
        for name, lhs, rhs in zip(names, [lhs_lim, *lhs_n.tolist()], [rhs_lim, *rhs_n.tolist()]):
            cell = cells.setdefault(name, (lhs, rhs))
            assert (lhs.hex(), rhs.hex()) == (cell[0].hex(), cell[1].hex())
            if refutation is None and lhs > rhs + TIE_TOL:
                refutation = {"step": k, "n": name, "lhs": lhs, "rhs": rhs}
        margins = {
            name if name == "limit" else f"n={name}": rhs - lhs for name, (lhs, rhs) in cells.items()
        }
        trace.append({"mu": mu_image, "margins": margins})
        if refutation is not None:
            return Certificate(REFUTED, trace, factor, refutation=refutation, details=details)
        if mu_image < tol:
            return Certificate(
                CERTIFIED, trace, factor, witness=_attach_witness(op), details=details,
            )
    return Certificate(INCONCLUSIVE, trace, factor, details=details)


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
    op, domain, *sides, tol, max_iter, ladder, details = args
    chain_args = (op, domain, FunctionSequencePair(*sides), tol, max_iter, ladder, details)
    with mock.patch.object(engine, "_BLOCK_CELLS", cells or engine._BLOCK_CELLS):
        got = run(_run_chain, chain_args)
    assert bits(got) == bits(want)
    return got


# bounded, growing and shrinking in t; zero divisors at t = 1/4 (reached
# exactly by halving from 1) and at n = 2; limits that diverge for every
# t > 0 (t*n) or only for small t (1/(1+n*t))
_ATOMS = (
    "t", "1", "t*t", "1/n", "t/n", "(t-10/n)*(t-10/n)", "n*t/(n+1)", "(t-3)*(t-3)",
    "(n-1)*t/n", "1/(t-1/4)", "1/(n-2)", "t*n", "1/(1+n*t)",
)
_N_FREE_ATOMS = tuple(atom for atom in _ATOMS if "n" not in atom)
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
    """Sides with or without n; limits undeclared, drawn on their own, or
    declared equal to the sequences, which merges n-free columns."""
    psi, phi = draw(sides(draw(st.sampled_from((_ATOMS, _N_FREE_ATOMS)))))
    psi_lim, phi_lim = draw(st.one_of(
        st.just((None, None)), sides(_LIMIT_ATOMS), st.just((psi, phi)),
    ))
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

    def test_limit_rows_are_evaluated_before_ladder_rows(self):
        # the ladder row 1/(n-2) divides by zero at n = 2, but the step meets
        # the rhs limit first: undeclared and diverging, or declared and
        # dividing by zero itself
        cert = assert_same_as_the_loop(chain_args("1/(n-2)", "t*n", ladder=(2,)))
        assert cert.outcome == INCONCLUSIVE and len(cert.trace) == 1
        assert cert.details["step"] == 0
        exc = assert_same_as_the_loop(chain_args("1/(n-2)", "t", "0", "1/(t-1)", ladder=(2,)))
        assert isinstance(exc, DivisionByZeroError)
        assert str(exc) == "division by zero in '1/(t-1)'"

    def test_limit_and_ladder_violated_at_the_same_step(self):
        cert = assert_same_as_the_loop(chain_args("t", "1000*t*t", "t", "1000*t*t"))
        assert cert.outcome == REFUTED
        assert cert.refutation["step"] == 11 and cert.refutation["n"] == "limit"
        assert all(margin < 0 for margin in cert.trace[-1]["margins"].values())
        assert all(margin >= 0 for margin in cert.trace[-2]["margins"].values())

    def test_budget_runs_out(self):
        args = chain_args("t", "0.99*t", "t", "0.99*t", op=LONG_OP, max_iter=300)
        cert = assert_same_as_the_loop(args)
        assert cert.outcome == INCONCLUSIVE
        assert len(cert.trace) == 301 and cert.details == {"mode": "main"}

    def test_chain_longer_than_one_block(self):
        ladder = tuple(range(1, 101))
        args = chain_args("t", "(1-1/(100*n))*t", "t", "t", op=LONG_OP, ladder=ladder)
        cert = assert_same_as_the_loop(args)
        assert cert.outcome == CERTIFIED and len(cert.trace) == 1027
        assert len(cert.trace[1]["margins"]) == len(ladder) + 1
        assert len(cert.trace) - 1 > 6 * (engine._BLOCK_CELLS // (len(ladder) + 1))

    def test_columns_merge_where_the_rows_are_one_expression_pair(self):
        refuted = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.4)
        assert refuted.outcome == REFUTED and refuted.refutation["n"] == "limit"
        assert list(refuted.trace[1]["margins"]) == ["limit"]
        classic = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.6)
        pair = FunctionSequencePair(*map(parse_expr, ("t", "t/2", "t", "t/2")))
        weak = weak_contraction_run(scaling_operator(0.5), unit_box(), pair)
        demo = darbo_iterate(scaling_operator(0.5), unit_box(), demo_pair())
        for cert in (classic, weak, demo):
            assert cert.outcome == CERTIFIED and cert.trace[0]["margins"] == {}
        assert all(list(s["margins"]) == ["limit"] for s in classic.trace[1:] + weak.trace[1:])
        keys = ["limit", *(f"n={n}" for n in DEFAULT_ENGINE_LADDER)]
        assert all(list(s["margins"]) == keys for s in demo.trace[1:])

    def test_a_dropped_certificate_frees_its_trace(self):
        # no reference cycle holds the trace, so reference counting frees it
        gc.collect()
        gc.disable()
        try:
            cert = classic_darbo_run(LONG_OP, unit_box(), 0.99)
            assert len(cert.trace) == 1027
            del cert
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        # 2 for the chain, one row per side, since the classic pair does not
        # mention n, and none for a pair battery, which classic mode does not
        # run; one call per step, side and row made 4,120 (4 a step) and then
        # 16,416 (16 a step), and the battery once added 4 (16 before that)
        assert len(calls) == 2

    def test_refuted_long_budget_evaluates_one_block(self):
        tracemalloc.start()
        try:
            # the battery passes (t, t/2) and holds one row of the grid
            cert = darbo_iterate(
                identity_operator(), unit_box(), identity_pair(0.5), max_iter=10**5,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.outcome == REFUTED and len(cert.trace) == 2
        # one block of 16,384 steps x 1 cell; the whole budget would need
        # 100,000 cells per table
        assert peak < 2**20
