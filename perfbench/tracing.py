"""Span tracing of darbocert's public layer functions, from outside the package.

A ``Tracer`` wraps each public name listed in ``TARGETS`` for the duration of
one job: module-level functions are replaced in every ``darbocert`` module
that holds them (``engine`` and ``operators`` import ``subset`` and friends
by name), and methods are replaced on their class.  Every wrapped call
records one span ``(name, start_ns, end_ns, parent, job)``; spans stay in
memory until ``write_spans`` dumps them.  Some targets also feed counters
(term counts, routes, cells) computed from their arguments and results.

Hook work (counters, tracemalloc) is recorded as its own ``trace.hook``
span so that it never inflates a layer's self time.  Leaf methods called
millions of times, such as ``TailForm.value``, are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from darbocert.mnc import UndecidedComparisonError

ROOT_SPAN = "bench.job"
HOOK_SPAN = "trace.hook"

Hook = Callable[["Tracer", tuple, dict, Any, "BaseException | None"], None]


@dataclass(frozen=True)
class Target:
    """One traced public name.  ``owner`` is ``module`` for a function or
    ``module:Class`` for a method patched on the class."""

    span: str
    owner: str
    attr: str
    hook: Hook | None = None
    before: Callable[[], Any] | None = None


# -- counters computed at the layer boundary --------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _tailbox_hook(tr, args, kwargs, result, exc):
    if exc is not None:
        return
    box = args[0]
    lo, hi = len(box.tail_lo.terms), len(box.tail_hi.terms)
    tr.add("mnc.TailBox.terms", lo + hi)
    tr.maximum("mnc.TailBox.max_terms", max(lo, hi))


def _is_nonnegative_hook(tr, args, kwargs, result, exc):
    """Classify the decision route from the argument form, mirroring
    ``mnc.is_nonnegative``: constant forms and beta != 0 go through the
    dominance index, beta = 0 with single-signed coefficients is decided
    directly, and mixed-sign beta = 0 forms are scanned to the horizon."""
    form = _arg(args, kwargs, 0, "form")
    start = _arg(args, kwargs, 1, "start", 1)
    if isinstance(exc, UndecidedComparisonError):
        tr.add("mnc.is_nonnegative.undecided", 1)
    if not form.terms or form.constant != 0.0:
        tr.add("mnc.is_nonnegative.route.dominance", 1)
        if form.terms and form.constant > 0.0 and exc is None:
            tr.add("mnc.is_nonnegative.scanned", form.dominance_index(start) - start)
    elif all(c > 0 for c, _ in form.terms) or all(c < 0 for c, _ in form.terms):
        tr.add("mnc.is_nonnegative.route.single_sign", 1)
    else:
        tr.add("mnc.is_nonnegative.route.scan", 1)


def _apply_to_box_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.maximum("operators.apply_to_box.max_head_len", result.head_len)


def _steps_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.add("engine.steps", len(result.trace) - 1)


def _grid_cells(grid) -> int:
    return len(grid.t_values()) ** 2


def _bound_hook(tr, args, kwargs, result, exc):
    pair = _arg(args, kwargs, 0, "pair")
    grid = _arg(args, kwargs, 1, "grid")
    n_list = _arg(args, kwargs, 2, "n_list")
    # one (u, v) matrix per listed n, plus one for the limit reading
    readings = len(n_list) + (pair.psi_limit is not None and pair.phi_limit is not None)
    tr.add("engine.check_example_bound.cells", _grid_cells(grid) * readings)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tr.maximum("engine.check_example_bound.peak_alloc_mb", peak / 2**20)


def _start_tracemalloc():
    tracemalloc.start()


def _condition_i_hook(tr, args, kwargs, result, exc):
    tr.add("shifting.condition_i.cells", _grid_cells(_arg(args, kwargs, 1, "grid")))


def _cli_run_hook(tr, args, kwargs, result, exc):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        if out.exists():
            tr.add("cli.report_bytes", out.stat().st_size)


def _axiom_suite_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.add("axioms.instances", sum(r.instances for r in result))


_SHIFTING_CHECKS = (
    "check_uniform_convergence",
    "check_monotone_in_n",
    "check_condition_i",
    "check_condition_ii",
    "check_equality_only_at_zero",
)

TARGETS: tuple[Target, ...] = (
    Target("mnc.TailBox", "darbocert.mnc:TailBox", "__init__", _tailbox_hook),
    Target("mnc.TailForm.mul", "darbocert.mnc:TailForm", "__mul__"),
    Target("mnc.subset", "darbocert.mnc", "subset"),
    Target("mnc.is_nonnegative", "darbocert.mnc", "is_nonnegative", _is_nonnegative_hook),
    Target("mnc.contains_point", "darbocert.mnc", "contains_point"),
    Target("mnc.convex_combination", "darbocert.mnc", "convex_combination"),
    Target("mnc.scale_translate", "darbocert.mnc", "scale_translate"),
    Target("mnc.truncation_tail_sup", "darbocert.mnc", "truncation_tail_sup"),
    Target("operators.apply_to_box", "darbocert.operators", "apply_to_box", _apply_to_box_hook),
    Target("operators.verify_self_map", "darbocert.operators", "verify_self_map"),
    Target("operators.fixed_point_witness", "darbocert.operators", "fixed_point_witness"),
    Target("engine.run", "darbocert.engine", "classic_darbo_run"),
    Target("engine.run", "darbocert.engine", "darbo_iterate", _steps_hook),
    Target("engine.run", "darbocert.engine", "weak_contraction_run", _steps_hook),
    Target(
        "engine.check_example_bound", "darbocert.engine", "check_example_bound",
        _bound_hook, _start_tracemalloc,
    ),
    *(
        Target(
            "shifting." + fn.removeprefix("check_"), "darbocert.shifting", fn,
            _condition_i_hook if fn == "check_condition_i" else None,
        )
        for fn in _SHIFTING_CHECKS
    ),
    Target("expr.eval_expr", "darbocert.expr", "eval_expr"),
    Target("expr.parse_expr", "darbocert.expr", "parse_expr"),
    Target("cli.parse_config", "darbocert.cli", "parse_config"),
    Target("cli.run", "darbocert.cli", "run", _cli_run_hook),
    Target("axioms.run_axiom_suite", "darbocert.axioms", "run_axiom_suite", _axiom_suite_hook),
)


# -- the tracer ---------------------------------------------------------------


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "darbocert" or name.startswith("darbocert."))
    ]


class Tracer:
    """Collects spans and counters; ``job`` installs the wrappers around
    one job and removes them again, even when the job raises."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._job = -1

    # counters are kept per job so that a time-bounded run with a varying
    # number of jobs still reports per-job values that repeat exactly
    def add(self, name: str, value: float) -> None:
        self.counters[self._job][name] += value

    def maximum(self, name: str, value: float) -> None:
        bucket = self.counters[self._job]
        bucket[name] = max(bucket.get(name, value), value)

    def _wrap(self, target: Target, orig: Callable) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        name, hook, before = target.span, target.hook, target.before

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                t0 = now()
                before()
                spans.append((HOOK_SPAN, t0, now(), parent, self._job))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = exc = None
            start = now()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._job)
                if hook is not None:
                    hook(self, args, kwargs, result, exc)
                    spans.append((HOOK_SPAN, end, now(), parent, self._job))

        return wrapper

    def _install(self, patched: list[tuple[Any, str, Any]]) -> None:
        """Replace every target, recording each (owner, name, original)
        in ``patched`` before it is replaced."""
        modules = _package_modules()
        for target in self.targets:
            mod_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(module, cls_name)
                orig = cls.__dict__[target.attr]
                patched.append((cls, target.attr, orig))
                setattr(cls, target.attr, self._wrap(target, orig))
                continue
            orig = getattr(module, target.attr)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: open its root span, install every wrapper, and
        restore every patched name on the way out."""
        self._job = job_id
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        patched: list[tuple[Any, str, Any]] = []
        start = time.perf_counter_ns()
        try:
            self._install(patched)
            yield self
        finally:
            end = time.perf_counter_ns()
            for owner, key, orig in reversed(patched):
                setattr(owner, key, orig)
            self._stack.pop()
            self.spans[root] = (ROOT_SPAN, start, end, -1, job_id)
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def metrics_by_job(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every job: ``<span>.self_s`` and
        ``<span>.calls`` for every span name, the job's span count and its
        counters."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, seconds in zip(self.spans, self_times(self.spans)):
            name, job = span[0], span[4]
            out[job][name + ".self_s"] += seconds
            out[job][name + ".calls"] += 1
            out[job]["trace.spans"] += 1
        for job, counters in self.counters.items():
            out[job].update(counters)
        return {job: dict(values) for job, values in out.items()}

    def write_spans(self, path) -> None:
        """Dump every span as one JSON array per line:
        [name, start_ns, end_ns, parent_index, job]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple[str, int, int, int, int]]) -> list[float]:
    """Self seconds of each span: its duration minus the part of its
    interval that its child spans cover.  ``parent`` indexes into ``spans``;
    -1 marks a root."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start - covered) / 1e9)
    return out
