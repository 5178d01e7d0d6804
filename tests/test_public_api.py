"""The package's public names, pinned: a change that adds or drops one
says so here."""

import pytest

import darbocert
from darbocert import engine, mnc, operators

PUBLIC = {
    # expressions
    "Expr", "eval_expr", "limit_in_n", "parse_expr", "unparse",
    # the set model and its measure
    "Point", "Seq", "SetUnion", "TailBox", "TailForm", "closure", "contains_point",
    "conv_hull_mnc", "convex_combination", "hausdorff_mnc", "mnc_union",
    "scale_translate", "subset", "truncation_tail_sup",
    # pair checks
    "CheckReport", "FunctionSequencePair", "SampleGrid", "check_condition_i",
    "check_condition_ii", "check_equality_only_at_zero", "check_monotone_in_n",
    "check_uniform_convergence", "run_all_checks",
    # operators
    "DiagonalAffineOperator", "FixedPointWitness", "apply_to_box", "compose",
    "fixed_point_witness", "verify_self_map",
    # the certified iteration
    "Certificate", "check_example_bound", "classic_darbo_run",
    "darbo_iterate", "weak_contraction_run",
}


def test_package_exports_exactly_the_pinned_names():
    assert set(darbocert.__all__) == PUBLIC


@pytest.mark.parametrize("module", [darbocert, engine, mnc, operators], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["MncValue", "as_operator", "OperatorSpec", "IterationState"])
def test_removed_names_stay_removed(module, name):
    assert not hasattr(module, name)
    assert name not in module.__all__
