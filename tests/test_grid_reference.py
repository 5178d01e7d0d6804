"""The grid checks against direct T x T formulations and per-n loops.

The references below evaluate every (u, v) grid pair as a full boolean
matrix: condition (i), condition (ii) and the contraction-bound table as
first written.  The checks under test answer the same questions with
``first_partner`` in O(ladder * T) memory; their reports must equal the
references' exactly, witnesses included.  Tables, ladder values and the
uniform-convergence sups are checked against the scalar per-n loops that
built them before every expression was evaluated once over the ladder.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darbocert import expr, shifting
from darbocert.engine import check_example_bound, darbo_iterate
from darbocert.expr import (
    DivisionByZeroError,
    LimitDivergenceError,
    eval_expr,
    limit_in_n,
    parse_expr,
)
from darbocert.scenarios import broken_pair, demo_pair, scaling_operator, unit_box
from darbocert.shifting import (
    FAIL,
    PASS,
    TIE_TOL,
    UNDECIDED,
    CheckReport,
    FunctionSequencePair,
    SampleGrid,
    _limits_on_grid,
    _PairEvaluation,
    check_condition_i,
    check_condition_ii,
    check_equality_only_at_zero,
    check_monotone_in_n,
    check_uniform_convergence,
    first_partner,
    grid_table,
    limit_values,
    run_all_checks,
)

BOUND_NS = (1, 10, 100, 1_000, 1_000_000)


def seq_values(e, t, n):
    return np.broadcast_to(np.asarray(eval_expr(e, t, float(n)), dtype=float), t.shape)


def loop_grid_table(e, t, ns):
    """The [n, t] table built one ladder entry at a time."""
    table = np.empty((len(ns), t.size))
    for row, n in zip(table, ns):
        row[:] = eval_expr(e, t, float(n))
    return table


def reference_uniform_convergence(pair, grid, tol):
    t = grid.t_values()
    psi_lim, phi_lim = _limits_on_grid(pair, t)
    sup_errors, argmax = {}, {}
    for which, seq, lim in (("psi", pair.psi_seq, psi_lim), ("phi", pair.phi_seq, phi_lim)):
        err = np.abs(loop_grid_table(seq, t, grid.n_ladder) - lim)
        sup_errors[which] = {str(n): float(e) for n, e in zip(grid.n_ladder, err.max(axis=1))}
        argmax[which] = {n: float(t[j]) for n, j in zip(grid.n_ladder, err.argmax(axis=1))}
    for which in ("psi", "phi"):
        sups = [sup_errors[which][str(n)] for n in grid.n_ladder]
        for k in range(1, len(sups)):
            if sups[k] > sups[k - 1] + TIE_TOL:
                n_prev, n = grid.n_ladder[k - 1], grid.n_ladder[k]
                counterexample = {"which": which, "nPrev": n_prev, "n": n,
                                  "supPrev": sups[k - 1], "sup": sups[k], "t": argmax[which][n]}
                return CheckReport("uniform_convergence", FAIL, counterexample=counterexample,
                                   sup_errors=sup_errors,
                                   details={"reason": "sup errors not nonincreasing"})
        if sups[-1] >= tol:
            n = grid.n_ladder[-1]
            counterexample = {"which": which, "n": n, "sup": sups[-1], "tol": tol,
                              "t": argmax[which][n]}
            return CheckReport("uniform_convergence", FAIL, counterexample=counterexample,
                               sup_errors=sup_errors,
                               details={"reason": "sup error above tol at largest ladder n"})
    return CheckReport("uniform_convergence", PASS, sup_errors=sup_errors)


def condition_report(name, readings, make_witness):
    details, counterexample = {}, None
    for reading in ("limit", "perN"):
        viol = readings[reading]
        details[f"{reading}Reading"] = FAIL if viol.any() else PASS
        if viol.any() and counterexample is None:
            counterexample = make_witness(reading, *(int(x) for x in np.argwhere(viol)[0]))
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport(name, verdict, counterexample=counterexample, details=details)


def reference_condition_i(pair, grid):
    t = grid.t_values()
    psi_lim, phi_lim = _limits_on_grid(pair, t)
    gap = t[:, None] > t[None, :] + TIE_TOL
    mask = np.ones((t.size, t.size), dtype=bool)
    for n in grid.n_ladder:
        mask &= seq_values(pair.psi_seq, t, n)[:, None] <= seq_values(pair.phi_seq, t, n)[None, :]
    readings = {"limit": (psi_lim[:, None] <= phi_lim[None, :]) & gap, "perN": mask & gap}

    def witness(reading, i, j):
        w = {"reading": reading, "u": float(t[i]), "v": float(t[j])}
        if reading == "limit":
            w["psiU"], w["phiV"] = float(psi_lim[i]), float(phi_lim[j])
        return w

    return condition_report("condition_i", readings, witness)


def reference_condition_ii(pair, grid):
    t = grid.t_values()
    psi_lim, phi_lim = _limits_on_grid(pair, t)
    positive = t > TIE_TOL
    per_n = np.ones(t.shape, dtype=bool)
    for n in grid.n_ladder:
        per_n &= seq_values(pair.psi_seq, t, n) <= seq_values(pair.phi_seq, t, n)
    readings = {"limit": (psi_lim <= phi_lim) & positive, "perN": per_n & positive}

    def witness(reading, i):
        return {"reading": reading, "w": float(t[i]),
                "psiW": float(psi_lim[i]), "phiW": float(phi_lim[i])}

    return condition_report("condition_ii", readings, witness)


def reference_example_bound(pair, grid, n_list):
    t = grid.t_values()
    lhs_matrix = (2.0 * t)[:, None] - t[None, :]

    def masked_max(psi, phi):
        mask = psi[:, None] <= phi[None, :]
        if not mask.any():
            return float("-inf"), 0, 0
        masked = np.where(mask, lhs_matrix, -np.inf)
        i, j = np.unravel_index(int(masked.argmax()), masked.shape)
        return float(masked[i, j]), i, j

    per_n, counterexample, bounds = {}, None, []
    for n in n_list:
        bound = float(Fraction(2 * n + 1, n * (n + 1)))
        bounds.append(bound)
        lhs, i, j = masked_max(seq_values(pair.psi_seq, t, n), seq_values(pair.phi_seq, t, n))
        per_n[str(n)] = {"bound": bound, "maxLhs": lhs, "margin": bound - lhs}
        if counterexample is None and lhs > bound + TIE_TOL:
            counterexample = {"n": int(n), "u": float(t[i]), "v": float(t[j]),
                              "lhs": lhs, "bound": bound}
    details = {"perN": per_n}
    details["boundDecreasing"] = all(b2 <= b1 + TIE_TOL for b1, b2 in zip(bounds, bounds[1:]))
    if not details["boundDecreasing"] and counterexample is None:
        counterexample = {"reason": "bound not decreasing along n"}
    if pair.psi_limit is not None and pair.phi_limit is not None:
        lhs, i, j = masked_max(seq_values(pair.psi_limit, t, 1), seq_values(pair.phi_limit, t, 1))
        details["limitMaxLhs"] = lhs
        if counterexample is None and lhs > TIE_TOL:
            counterexample = {"n": "limit", "u": float(t[i]), "v": float(t[j]),
                              "lhs": lhs, "bound": 0.0}
    verdict = FAIL if counterexample is not None else PASS
    return CheckReport("contraction_bound", verdict, counterexample=counterexample, details=details)


def assert_same_as_reference(pair, grid, n_list=BOUND_NS):
    for check, reference in (
        (check_condition_i, reference_condition_i),
        (check_condition_ii, reference_condition_ii),
    ):
        got = check(pair, grid).to_dict()
        try:
            assert got == reference(pair, grid).to_dict()
        except LimitDivergenceError as exc:
            assert (got["verdict"], got["details"]) == (UNDECIDED, {"reason": str(exc)})
    got = check_example_bound(pair, grid, n_list).to_dict()
    assert got == reference_example_bound(pair, grid, n_list).to_dict()
    got = check_uniform_convergence(pair, grid, 1e-6).to_dict()
    try:
        assert got == reference_uniform_convergence(pair, grid, 1e-6).to_dict()
    except LimitDivergenceError as exc:
        assert (got["verdict"], got["details"]) == (UNDECIDED, {"reason": str(exc)})


def pair_from(psi, phi, psi_lim=None, phi_lim=None):
    return FunctionSequencePair(
        psi_seq=parse_expr(psi),
        phi_seq=parse_expr(phi),
        psi_limit=parse_expr(psi_lim) if psi_lim else None,
        phi_limit=parse_expr(phi_lim) if phi_lim else None,
    )


class TestDefaultGrid:
    def test_demo_pair(self):
        assert_same_as_reference(demo_pair(), SampleGrid())

    def test_broken_pair(self):
        assert_same_as_reference(broken_pair(), SampleGrid())

    def test_pair_constant_in_t(self):
        assert_same_as_reference(pair_from("1", "t", "1", "t"), SampleGrid())

    def test_pair_non_monotone_in_t(self):
        pair = pair_from("(t-10/n)*(t-10/n)", "t+1/n", "t*t", "t")
        assert_same_as_reference(pair, SampleGrid())


class TestPerNRowScan:
    # psi_n = 16; phi_1 = (t-5)^2 reaches 16 at t <= 1 and t >= 9, phi_2 =
    # 16t/5 only at t >= 5.  Every row's latest first partner is v = 5, where
    # phi_1 < 16, so the per-n reading has to scan on to v = 9.
    PAIR = pair_from("16", "(2-n)*(t-5)*(t-5)+(n-1)*16*t/5", "16", "t")
    GRID = SampleGrid(t_max=12.0, step=1.0, n_ladder=(1, 2))

    def test_first_partners_differ_per_n(self):
        t = self.GRID.t_values()
        psi = np.full(t.shape, 16.0)
        starts = [
            first_partner(psi, seq_values(self.PAIR.phi_seq, t, n)) for n in self.GRID.n_ladder
        ]
        assert [int(s[0]) for s in starts] == [0, 5]

    def test_witness_lies_past_the_first_partners(self):
        rep = check_condition_i(self.PAIR, self.GRID)
        assert rep.details == {"limitReading": PASS, "perNReading": FAIL}
        assert rep.counterexample == {"reading": "perN", "u": 10.0, "v": 9.0}
        assert_same_as_reference(self.PAIR, self.GRID, (1, 2))


class TestFirstPartner:
    def test_first_index_with_psi_below_phi(self):
        phi = np.array([3.0, 1.0, 5.0, 2.0, 7.0])
        psi = np.array([0.0, 3.0, 4.0, 6.0, 8.0, np.nan])
        assert first_partner(psi, phi).tolist() == [0, 0, 2, 4, 5, 5]

    def test_nan_phi_is_never_a_partner_of_a_finite_psi(self):
        phi = np.array([np.nan, 1.0, np.nan, 3.0])
        assert first_partner(np.array([0.5, 2.0, 4.0]), phi).tolist() == [1, 3, 4]


# constant in t, monotone and non-monotone in t, with dips that move with n
_ATOMS = (
    "t", "1", "t*t", "1/n", "t/n", "(t-10/n)*(t-10/n)", "n*t/(n+1)", "(t-3)*(t-3)",
    "(t-n)*(t-n)/(n*n)", "(t-5)*(t-5)/n", "(n-1)*t/n",
)


@st.composite
def sums(draw, atoms=_ATOMS):
    parts = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(atoms)), min_size=1, max_size=3
    ))
    return "+".join(f"({c})*{a}" if c < 0 else f"{c}*{a}" for c, a in parts)


# atoms without n, and atoms whose limits diverge or whose tables divide
# by zero at n = 2 or t = 1
_N_FREE_ATOMS = ("t", "1", "t*t", "(t-3)*(t-3)", "1/(t+1)")
_EDGE_ATOMS = _ATOMS + ("t*n", "n", "1/(n-2)", "1/(t-1)")


@st.composite
def pairs(draw, atoms=_ATOMS):
    limits = draw(st.booleans())
    limit_atoms = ("t", "1", "t*t", "(t-3)*(t-3)")
    return pair_from(
        draw(sums(atoms)), draw(sums(atoms)),
        draw(sums(limit_atoms)) if limits else None,
        draw(sums(limit_atoms)) if limits else None,
    )


grids = st.builds(
    SampleGrid,
    t_max=st.sampled_from((1.0, 5.0, 12.0, 20.0)),
    step=st.sampled_from((0.1, 0.25, 0.5, 1.0)),
    n_ladder=st.sampled_from(((1,), (1, 2, 4), (1, 3, 10, 100), tuple(2**j for j in range(12)))),
)


class TestRandomPairs:
    @settings(deadline=None, max_examples=150)
    @given(pairs(), grids)
    def test_reports_equal_the_reference(self, pair, grid):
        assert_same_as_reference(pair, grid, (1, 2, 10, 100))

    @settings(deadline=None, max_examples=50)
    @given(sums(), st.sampled_from((0.0, 0.5, 3.0, 7.25)))
    def test_limit_on_an_array_equals_the_scalar_limits(self, src, x):
        e = parse_expr(src)
        t = np.array([0.0, x, 10.0])

        def scalar(v):
            try:
                return limit_in_n(e, float(v))
            except LimitDivergenceError as exc:
                return str(exc)

        want = [scalar(v) for v in t]
        errors = [w for w in want if isinstance(w, str)]
        if not errors:
            assert limit_in_n(e, t).tolist() == want
            return
        with pytest.raises(LimitDivergenceError) as info:
            limit_in_n(e, t)
        assert str(info.value) == errors[0]


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBroadcastEvaluation:
    T = SampleGrid().t_values()
    LADDER = SampleGrid().n_ladder

    @pytest.mark.parametrize("src", [
        "t", "t*t/3-t", "n", "1/n", "7", "0", "(2*n*(1+t)+2*t+1)/(n+1)", "(n*(2+t)+1)/n",
    ])
    def test_table_has_the_bits_of_the_per_n_loop(self, src):
        e = parse_expr(src)
        assert same_bits(grid_table(e, self.T, self.LADDER), loop_grid_table(e, self.T, self.LADDER))

    @settings(deadline=None, max_examples=100)
    @given(sums(), grids)
    def test_random_tables_have_the_bits_of_the_per_n_loop(self, src, grid):
        e, t = parse_expr(src), grid.t_values()
        assert same_bits(grid_table(e, t, grid.n_ladder), loop_grid_table(e, t, grid.n_ladder))

    @settings(deadline=None, max_examples=100)
    @given(sums(), st.floats(0.0, 50.0), st.sampled_from(((1,), (1, 10, 100), LADDER)))
    def test_ladder_values_equal_the_scalar_loop(self, src, mu, ladder):
        e = parse_expr(src)
        got = np.broadcast_to(eval_expr(e, mu, np.array(ladder, dtype=float)), (len(ladder),))
        assert same_bits(got, [float(eval_expr(e, mu, float(n))) for n in ladder])

    def test_division_by_zero_at_one_ladder_n_still_raises(self):
        pair = pair_from("t", "t/(n-4)")
        grid = SampleGrid(t_max=2.0, step=0.5, n_ladder=(1, 2, 4, 8))
        with pytest.raises(DivisionByZeroError, match="t/\\(n-4\\)"):
            check_monotone_in_n(pair, grid)
        # the grid's ladder leaves out n = 4, so the battery runs (and FAILs
        # condition (ii)) and the chain meets the zero divisor
        no_four = SampleGrid(n_ladder=(1, 2, 8))
        with pytest.raises(DivisionByZeroError, match="t/\\(n-4\\)"), \
                pytest.warns(UserWarning, match="checks overridden"):
            darbo_iterate(
                scaling_operator(0.5), unit_box(), pair_from("t", "t+t/(n-4)", "t", "t"),
                n_ladder=(1, 4), grid=no_four, require_pair_checks=False,
            )

    def test_first_failing_division_may_differ_from_the_loop(self):
        # the loop fails at n = 1 in 1/(n-1); the broadcast meets 1/(n-4) first
        e = parse_expr("1/(n-4)+1/(n-1)")
        t, ladder = np.array([0.0, 1.0]), (1, 4)
        with pytest.raises(DivisionByZeroError, match="1/\\(n-1\\)"):
            loop_grid_table(e, t, ladder)
        with pytest.raises(DivisionByZeroError, match="1/\\(n-4\\)"):
            grid_table(e, t, ladder)

    @settings(deadline=None, max_examples=50)
    @given(sums(), st.one_of(st.none(), sums(("t", "1", "t*t"))), st.sampled_from((0.0, 0.5, 7.25)))
    def test_scalar_limit_values_equal_the_array_result(self, seq, declared, x):
        seq, declared = parse_expr(seq), declared and parse_expr(declared)
        try:
            on_grid = limit_values(declared, seq, np.array([0.0, x, 10.0]))
        except LimitDivergenceError:
            return
        assert on_grid.shape == (3,)
        assert same_bits(float(limit_values(declared, seq, x)), on_grid[1])


def outcome(check, *args):
    """A check's report as a dict, or the type and message of what it raised."""
    try:
        return check(*args).to_dict()
    except (DivisionByZeroError, LimitDivergenceError) as exc:
        return type(exc), str(exc)


def battery_alone(pair, grid, uniform_tol=1e-6):
    """The battery's checks called one by one in its order, each building
    its own evaluation, up to and including the first one that raises."""
    reports = {}
    for name, check, args in (
        ("uniform_convergence", check_uniform_convergence, (pair, grid, uniform_tol)),
        ("monotone_in_n", check_monotone_in_n, (pair, grid)),
        ("condition_i", check_condition_i, (pair, grid)),
        ("condition_ii", check_condition_ii, (pair, grid)),
        ("equality_only_at_zero", check_equality_only_at_zero, (pair, grid)),
    ):
        reports[name] = outcome(check, *args)
        if isinstance(reports[name], tuple):
            return reports[name]
    return reports


def battery_shared(pair, grid, uniform_tol=1e-6):
    try:
        return {name: rep.to_dict() for name, rep in run_all_checks(pair, grid, uniform_tol).items()}
    except (DivisionByZeroError, LimitDivergenceError) as exc:
        return type(exc), str(exc)


class TestSharedBattery:
    """``run_all_checks`` evaluates the pair once on the grid and hands that
    evaluation to every check; each report, and any error, must be what
    the check gives alone."""

    SMALL = SampleGrid(t_max=5.0, step=0.5, n_ladder=(1, 2, 4, 8))

    @pytest.mark.parametrize("psi, phi, psi_lim, phi_lim", [
        ("t", "t+1", "t", "t+1"),  # n-free, FAILs with witnesses
        ("t*t", "3*t+1", None, None),  # n-free with undeclared limits
        ("(t-3)*(t-3)", "t", None, "t"),  # n-free, one limit undeclared
        ("t*n", "2*t*n", None, None),  # undeclared limits diverge: UNDECIDED
        ("t*n", "t", None, "t"),  # psi's limit diverges, tables fine
        ("t*n", "t/(n-2)", None, "t"),  # divergence, then a zero divisor in a table
        ("t", "t/(n-2)", "t", "t"),  # a zero divisor in phi's table
        ("1/(t-1)", "t", "t", "t"),  # an n-free table divides by zero
        ("t", "t", "1/(t-1)", "t"),  # a declared limit divides by zero
    ])
    def test_battery_equals_each_check_alone(self, psi, phi, psi_lim, phi_lim):
        pair = pair_from(psi, phi, psi_lim, phi_lim)
        for grid in (self.SMALL, SampleGrid(t_max=3.0, step=1.0, n_ladder=(5,))):
            assert battery_shared(pair, grid) == battery_alone(pair, grid)

    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(pairs(), pairs(_N_FREE_ATOMS), pairs(_EDGE_ATOMS)), grids,
        st.sampled_from((1e-6, 0.5)),
    )
    @example(pair_from("t*n", "2*t*n"), SampleGrid(t_max=5.0, step=1.0), 1e-6)
    @example(pair_from("1/(n-2)", "t", "t", "t"), SampleGrid(t_max=1.0, step=0.5), 1e-6)
    def test_random_batteries_equal_each_check_alone(self, pair, grid, tol):
        assert battery_shared(pair, grid, tol) == battery_alone(pair, grid, tol)

    def test_divergence_is_reported_by_every_reader_of_the_limits(self):
        reports = run_all_checks(pair_from("t*n", "2*t*n"), self.SMALL)
        undecided = {name for name, rep in reports.items() if rep.verdict == UNDECIDED}
        assert undecided == {
            "uniform_convergence", "condition_i", "condition_ii", "equality_only_at_zero",
        }
        reasons = {reports[name].details["reason"] for name in undecided}
        assert len(reasons) == 1 and "does not stabilise in n" in reasons.pop()

    def test_zero_divisor_is_raised_by_the_first_check_that_reads_the_tables(self):
        # the limits diverge, so uniform convergence reads no table and
        # monotonicity is the first to meet 1/(n-2)
        pair = pair_from("t*n", "t/(n-2)", None, "t")
        with mock.patch.object(shifting, "check_monotone_in_n", wraps=check_monotone_in_n) as spy:
            with pytest.raises(DivisionByZeroError, match="t/\\(n-2\\)"):
                run_all_checks(pair, self.SMALL)
        assert spy.call_count == 1

    @pytest.mark.parametrize("pair, rows", [(demo_pair(), 21), (broken_pair(), 1)])
    def test_battery_evaluates_each_expression_once(self, pair, rows):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return eval_expr(*args)

        with mock.patch.object(expr, "eval_expr", counted), \
                mock.patch.object(shifting, "eval_expr", counted):
            run_all_checks(pair, SampleGrid())
        # two declared limits and two tables, whatever the number of checks
        assert calls == [pair.psi_limit, pair.phi_limit, pair.psi_seq, pair.phi_seq]
        ev = _PairEvaluation(pair, SampleGrid())
        assert [table.shape for table in ev.tables()] == [(rows, ev.t.size)] * 2

    @pytest.mark.parametrize("n_list", [BOUND_NS, (3,), ()])
    def test_n_free_bound_table_equals_the_reference(self, n_list):
        for pair in (broken_pair(), pair_from("t*t", "3*t+1", "t*t", "3*t+1")):
            got = check_example_bound(pair, self.SMALL, n_list).to_dict()
            assert got == reference_example_bound(pair, self.SMALL, n_list).to_dict()


class TestMemory:
    GRID = SampleGrid(t_max=100.0, step=0.025)  # T = 4001

    def peak_mb(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_bound_table_stays_under_16_mb(self):
        assert self.peak_mb(check_example_bound, demo_pair(), self.GRID, BOUND_NS) < 16

    def test_condition_i_stays_under_16_mb(self):
        assert self.peak_mb(check_condition_i, demo_pair(), self.GRID) < 16

    def test_battery_stays_under_16_mb(self):
        assert self.peak_mb(run_all_checks, demo_pair(), self.GRID) < 16
