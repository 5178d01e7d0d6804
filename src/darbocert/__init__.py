"""darbocert: exact measure-of-noncompactness calculus on tail-described
boxes in the null-sequence space, shifting-distance pair checking, and a
certified Darbo-type fixed point iteration."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType
from .expr import Expr, parse_expr, eval_expr, unparse, limit_in_n
from .mnc import (
    TailForm,
    Seq,
    TailBox,
    SetUnion,
    Point,
    hausdorff_mnc,
    mnc_union,
    conv_hull_mnc,
    convex_combination,
    subset,
    scale_translate,
    truncation_tail_sup,
    closure,
    contains_point,
)
from .shifting import (
    FunctionSequencePair,
    SampleGrid,
    CheckReport,
    check_uniform_convergence,
    check_monotone_in_n,
    check_condition_i,
    check_condition_ii,
    check_equality_only_at_zero,
    run_all_checks,
)
from .operators import (
    DiagonalAffineOperator,
    FixedPointWitness,
    compose,
    apply_to_box,
    verify_self_map,
    fixed_point_witness,
)
from .engine import (
    Certificate,
    darbo_iterate,
    check_example_bound,
    classic_darbo_run,
    weak_contraction_run,
)

# the imported names; the submodules bound by importing from them are not public
__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
