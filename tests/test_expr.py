from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from darbocert.expr import (
    MAX_DEPTH,
    BinOp,
    DivisionByZeroError,
    ExprSyntaxError,
    LimitDivergenceError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    eval_expr,
    limit_in_n,
    parse_expr,
    unparse,
)

PSI_SRC = "(2*n*(1+t)+2*t+1)/(n+1)"
PHI_SRC = "(n*(2+t)+1)/n"


class TestParse:
    def test_identity(self):
        assert parse_expr("t") == Var("t")

    def test_rational_pair_sources_parse(self):
        for src in (PSI_SRC, PHI_SRC):
            tree = parse_expr(src)
            assert isinstance(tree, BinOp) and tree.op == "/"

    @pytest.mark.parametrize(
        "src,expected",
        [("2+3*4", 14), ("(2+3)*4", 20), ("2-3-4", -5), ("8/4/2", 1), ("-2*3", -6)],
    )
    def test_precedence_and_associativity(self, src, expected):
        assert eval_expr(parse_expr(src), 0, 1) == expected

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expr("2*x+1")
        assert err.value.offset == 2

    def test_syntax_error_with_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("(1+t")
        assert err.value.offset == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1+2 3")

    def test_decimal_constants(self):
        assert eval_expr(parse_expr("0.5*t"), Fraction(3), 1) == Fraction(3, 2)

    def test_literal_past_the_float_range_is_refused(self):
        with pytest.raises(ExprSyntaxError, match="past the float range") as err:
            parse_expr("2*t+1" + "0" * 400)
        assert err.value.offset == 4
        assert eval_expr(parse_expr("1" + "0" * 308 + "*t"), 1.0, 1.0) == 1e308


class TestDepth:
    """Parentheses, unary minus signs and binary operators each add a level;
    a tree deeper than MAX_DEPTH is refused at the token that makes it so,
    before anything recurses past the interpreter's limit."""

    @pytest.mark.parametrize("src", [
        "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "t",
        "+".join(["t"] * MAX_DEPTH),
        "-(" * (MAX_DEPTH // 2 - 1) + "t*n" + ")" * (MAX_DEPTH // 2 - 1),
        "*".join(["t"] + ["n"] * 60),
    ])
    def test_trees_within_the_bound_parse_and_evaluate(self, src):
        tree = parse_expr(src)
        assert np.isfinite(eval_expr(tree, 1.0, 1.0))
        assert parse_expr(unparse(tree)) == tree

    @pytest.mark.parametrize("src, offset", [
        ("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, 0),
        ("(" * 328 + "t" + ")" * 328, MAX_DEPTH),
        ("-" * MAX_DEPTH + "t", 0),
        ("-" * 983 + "t", MAX_DEPTH),
        ("+".join(["t"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
        ("+".join(["t"] * 989), 2 * MAX_DEPTH - 1),
        ("t*(" + "+".join(["t"] * (MAX_DEPTH - 1)) + ")", 1),
    ])
    def test_deeper_trees_are_refused_with_the_offset(self, src, offset):
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
            parse_expr(src)
        assert err.value.offset == offset


class TestEval:
    def test_psi_at_one(self):
        # hand evaluation: (2*1*2 + 2*1 + 1) / (1+1) = 7/2
        assert eval_expr(parse_expr(PSI_SRC), Fraction(1), Fraction(1)) == Fraction(7, 2)

    def test_phi_at_zero(self):
        # hand evaluation: (1*2 + 1) / 1 = 3
        assert eval_expr(parse_expr(PHI_SRC), Fraction(0), Fraction(1)) == 3

    def test_identity_any_n(self):
        e = parse_expr("t")
        for n in (1, 7, 1000):
            assert eval_expr(e, 5.0, float(n)) == 5.0

    def test_division_by_zero_is_hard_error(self):
        with pytest.raises(DivisionByZeroError):
            eval_expr(parse_expr("1/(n-1)"), 0.0, 1.0)

    def test_domain_validation(self):
        e = parse_expr("t")
        t_below = "^t must be nonnegative$"
        n_below = "^n must be >= 1$"
        cases = [
            (-1.0, 1.0, t_below),
            (-1, 1, t_below),
            (Fraction(-1, 2), 1, t_below),
            (np.float64(-1.0), 1.0, t_below),
            (np.array([0.0, -1e-300]), 1.0, t_below),
            (1.0, 0.5, n_below),
            (1, 0, n_below),
            (1.0, Fraction(1, 2), n_below),
            (1.0, np.array([1.0, 0.5]), n_below),
        ]
        for t, n, message in cases:
            with pytest.raises(ValueError, match=message):
                eval_expr(e, t, n)

    def test_nan_t_passes_the_domain_check(self):
        e = parse_expr("t")
        assert np.isnan(eval_expr(e, float("nan"), 1.0))
        got = eval_expr(e, np.array([float("nan"), 0.0]), np.array([1.0, 2.0]))
        assert np.isnan(got[0]) and got[1] == 0.0
        assert eval_expr(e, 0, 1) == 0 and eval_expr(e, Fraction(1, 3), 1) == Fraction(1, 3)

    def test_float_path_matches_exact_path(self):
        e = parse_expr(PSI_SRC)
        exact = eval_expr(e, Fraction(3, 10), Fraction(7))
        assert eval_expr(e, 0.3, 7.0) == pytest.approx(float(exact), abs=1e-14)


# known closed forms: psi_n(t) = 2 + 2t - 1/(n+1), phi_n(t) = 2 + t + 1/n
class TestRationalPairIdentities:
    def test_simplified_forms_on_grid(self):
        psi, phi = parse_expr(PSI_SRC), parse_expr(PHI_SRC)
        ts = [k * 0.5 for k in range(201)]
        for n in (1, 2, 4, 64, 2**10, 2**20):
            for t in ts:
                assert abs(eval_expr(psi, t, float(n)) - (2 + 2 * t - 1 / (n + 1))) <= 1e-12
                assert abs(eval_expr(phi, t, float(n)) - (2 + t + 1 / n)) <= 1e-12


class TestLimit:
    def test_psi_limit_at_one(self):
        assert limit_in_n(parse_expr(PSI_SRC), 1.0) == pytest.approx(4.0, abs=1e-9)

    def test_phi_limit_at_zero(self):
        assert limit_in_n(parse_expr(PHI_SRC), 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_constant_expression(self):
        assert limit_in_n(parse_expr("3"), 17.0) == 3.0

    def test_n_free_expression_equals_eval(self):
        e = parse_expr("2*t+1")
        assert limit_in_n(e, 2.5) == eval_expr(e, 2.5, 123.0)

    def test_divergent_family_raises(self):
        with pytest.raises(LimitDivergenceError):
            limit_in_n(parse_expr("n*t"), 1.0)

    def test_array_of_t_gives_one_limit_per_point(self):
        t = np.array([0.0, 1.0, 2.5])
        got = limit_in_n(parse_expr("t+1/n"), t)
        assert got.tolist() == [limit_in_n(parse_expr("t+1/n"), x) for x in t]
        assert limit_in_n(parse_expr("3"), t).tolist() == [3.0, 3.0, 3.0]

    def test_divergence_names_the_first_unsettled_t(self):
        with pytest.raises(LimitDivergenceError) as info:
            limit_in_n(parse_expr("n*t"), np.array([0.0, 1.0, 2.0]))
        assert str(info.value) == "'n*t' does not stabilise in n at t=1.0 (tol=1e-09)"


_numbers = st.builds(
    lambda mantissa, exp: Num(Fraction(mantissa, 10**exp)),
    st.integers(min_value=0, max_value=9999),
    st.integers(min_value=0, max_value=3),
)
_atoms = st.one_of(_numbers, st.sampled_from([Var("t"), Var("n")]))
_trees = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @given(_trees)
    def test_unparse_then_parse_is_identity(self, tree):
        assert parse_expr(unparse(tree)) == tree

    def test_source_round_trip_examples(self):
        for src in (PSI_SRC, PHI_SRC, "t", "-t*2", "1-(2-3)", "2+3*4"):
            tree = parse_expr(src)
            assert parse_expr(unparse(tree)) == tree
