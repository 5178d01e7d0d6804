"""Seeded randomized verification of the measure-of-noncompactness axioms
on the tail-box model.

Groups (labels follow the standard axiom numbering for such measures):

* M1  kernel: boxes with vanishing tails have measure zero and are flagged
      relatively compact.
* M2  monotonicity: random shrinkages A of B with subset(A, B) satisfy
      mu(A) <= mu(B) exactly.
* M3  closure invariance: boxes are closed, closure is the identity and
      preserves the measure.
* M4  convex hull invariance on finite unions: the union measure equals
      the measure assigned to the hull descriptor.
* M5  Minkowski convexity: mu(lam*A + (1-lam)*B) <= lam*mu(A) +
      (1-lam)*mu(B).
* M6  Cantor intersection: along nested chains with measure tending to
      zero, the midpoint of the deepest box (a genuine null sequence by
      construction) lies in every member.

Two model-level groups round out the suite: agreement between the closed
form and the truncation oracle, and exact homogeneity under scaling.
All randomness flows through one ``random.Random(seed)`` so a run is fully
reproducible from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .mnc import (
    Point,
    SetUnion,
    TailBox,
    TailForm,
    closure,
    contains_point,
    conv_hull_mnc,
    convex_combination,
    hausdorff_mnc,
    mnc_union,
    scale_translate,
    subset,
    truncation_tail_sup,
)

__all__ = [
    "AxiomCounts",
    "AxiomRunResult",
    "run_axiom_suite",
    "random_box",
    "random_compact_box",
    "random_nested_chain",
]

_MAX_TERMS = 3
_MAX_RATIO = 0.99
_MAX_COEFF = 10.0


@dataclass(frozen=True)
class AxiomCounts:
    """Instance counts per group; the defaults match the acceptance suite."""

    m1: int = 500
    m2: int = 1000
    m3: int = 1000
    m4: int = 1000
    m5: int = 1000
    m6_chains: int = 100
    m6_depth: int = 50
    oracle: int = 100
    oracle_cut: int = 1_000_000
    homogeneity: int = 500


@dataclass
class AxiomRunResult:
    name: str
    instances: int
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "passed": self.passed,
        }


def _random_terms(rng: random.Random, nonneg: bool = False) -> tuple[tuple[float, float], ...]:
    count = rng.randint(0, _MAX_TERMS)
    terms = []
    for _ in range(count):
        coeff = rng.uniform(0.0 if nonneg else -_MAX_COEFF, _MAX_COEFF)
        ratio = rng.uniform(0.01, _MAX_RATIO)
        terms.append((coeff, ratio))
    return tuple(terms)


def _random_heads(rng: random.Random, max_head: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    h = rng.randint(0, max_head)
    lo, hi = [], []
    for _ in range(h):
        a = rng.uniform(-5.0, 5.0)
        b = rng.uniform(-5.0, 5.0)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return tuple(lo), tuple(hi)


def random_box(rng: random.Random, max_head: int = 3) -> TailBox:
    """Box built as center +- radius with a nonnegative radius form and
    radius constant >= |center constant|, so it is always a valid nonempty
    set in the model."""
    head_lo, head_hi = _random_heads(rng, max_head)
    center = TailForm(_random_terms(rng), rng.uniform(-2.0, 2.0))
    radius_terms = tuple((abs(c), r) for c, r in center.terms) + _random_terms(rng, nonneg=True)
    radius = TailForm(radius_terms, abs(center.constant) + rng.uniform(0.05, 2.0))
    return TailBox(head_lo, head_hi, center - radius, center + radius)


def random_compact_box(rng: random.Random, max_head: int = 3) -> TailBox:
    """Vanishing tails: center and radius constants are zero."""
    head_lo, head_hi = _random_heads(rng, max_head)
    center = TailForm(_random_terms(rng), 0.0)
    radius_terms = tuple((abs(c), r) for c, r in center.terms) + _random_terms(rng, nonneg=True)
    radius = TailForm(radius_terms, 0.0)
    return TailBox(head_lo, head_hi, center - radius, center + radius)


def _shrink(rng: random.Random, box: TailBox) -> TailBox:
    """A random sub-box of ``box``: radius scaled by lam in [lam_min, 1]
    where lam_min keeps the asymptotic nonemptiness invariant."""
    center = (box.tail_lo + box.tail_hi).scale(0.5)
    radius = (box.tail_hi - box.tail_lo).scale(0.5)
    beta_c, beta_r = center.constant, radius.constant
    lam_min = 0.0 if beta_r == 0.0 else min(1.0, abs(beta_c) / beta_r)
    lam = rng.uniform(min(1.0, lam_min + 0.01), 1.0)
    head_lo, head_hi = [], []
    for lo, hi in zip(box.lo.head, box.hi.head):
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        lam_h = rng.uniform(0.0, 1.0)
        # clamp against rounding so the shrink stays inside exactly
        head_lo.append(max(lo, mid - lam_h * rad))
        head_hi.append(min(hi, mid + lam_h * rad))
    return TailBox(
        tuple(head_lo), tuple(head_hi),
        center - radius.scale(lam), center + radius.scale(lam),
    )


def random_nested_chain(rng: random.Random, depth: int, max_head: int = 3) -> list[TailBox]:
    """Nested chain A_0 >= A_1 >= ... built by repeated scaling of a box
    that contains zero coordinatewise; the measures decay geometrically."""
    head = []
    for _ in range(rng.randint(0, max_head)):
        head.append((rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)))
    head_lo = tuple(lo for lo, _ in head)
    head_hi = tuple(hi for _, hi in head)
    center = TailForm(_random_terms(rng), 0.0)
    radius_terms = tuple((abs(c), r) for c, r in center.terms) + _random_terms(rng, nonneg=True)
    radius = TailForm(radius_terms, rng.uniform(0.1, 2.0))
    chain = [TailBox(head_lo, head_hi, center - radius, center + radius)]
    for _ in range(depth):
        chain.append(scale_translate(chain[-1], rng.uniform(0.6, 0.95)))
    return chain


def _check_m1(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("M1", count)
    for k in range(count):
        box = random_compact_box(rng)
        mu = hausdorff_mnc(box)
        if mu.value != 0.0 or not mu.relatively_compact:
            result.violations.append({"instance": k, "mu": mu.value})
    return result


def _check_m2(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("M2", count)
    for k in range(count):
        big = random_box(rng)
        small = _shrink(rng, big)
        if not subset(small, big):
            result.violations.append({"instance": k, "reason": "constructed shrink not a subset"})
            continue
        if hausdorff_mnc(small).value > hausdorff_mnc(big).value:
            result.violations.append(
                {
                    "instance": k,
                    "muSmall": hausdorff_mnc(small).value,
                    "muBig": hausdorff_mnc(big).value,
                }
            )
    return result


def _check_m3(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("M3", count)
    for k in range(count):
        box = random_box(rng)
        closed = closure(box)
        if closed is not box or hausdorff_mnc(closed).value != hausdorff_mnc(box).value:
            result.violations.append({"instance": k})
    return result


def _check_m4(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("M4", count)
    for k in range(count):
        union = SetUnion(tuple(random_box(rng) for _ in range(rng.randint(1, 4))))
        direct = mnc_union(union).value
        hull = conv_hull_mnc(union).value
        if direct != hull:
            result.violations.append({"instance": k, "union": direct, "hull": hull})
    return result


def _check_m5(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("M5", count)
    for k in range(count):
        a, b = random_box(rng), random_box(rng)
        lam = rng.uniform(0.0, 1.0)
        combined = hausdorff_mnc(convex_combination(lam, a, b)).value
        bound = lam * hausdorff_mnc(a).value + (1.0 - lam) * hausdorff_mnc(b).value
        if combined > bound + 1e-12:
            result.violations.append(
                {"instance": k, "lambda": lam, "combined": combined, "bound": bound}
            )
    return result


def _check_m6(rng: random.Random, chains: int, depth: int) -> AxiomRunResult:
    result = AxiomRunResult("M6", chains)
    for k in range(chains):
        chain = random_nested_chain(rng, depth)
        mus = [hausdorff_mnc(b).value for b in chain]
        if any(m2 > m1 for m1, m2 in zip(mus, mus[1:])):
            result.violations.append({"instance": k, "reason": "measures not decreasing"})
            continue
        if any(not subset(b2, b1) for b1, b2 in zip(chain, chain[1:])):
            result.violations.append({"instance": k, "reason": "chain not nested"})
            continue
        mid = (chain[-1].lo + chain[-1].hi).scale(0.5)
        point = Point(mid.head, mid.tail)  # symmetric constants: asym is 0
        misses = [j for j, box in enumerate(chain) if not contains_point(box, point)]
        if misses:
            result.violations.append({"instance": k, "missedBoxes": misses})
    return result


def _oracle_box(rng: random.Random) -> TailBox:
    """Symmetric box whose envelope terms directly obey the oracle-group
    ranges: |coefficient| <= 10, ratio <= 0.99."""
    terms = tuple(
        (rng.uniform(0.0, _MAX_COEFF), rng.uniform(0.0, _MAX_RATIO))
        for _ in range(rng.randint(0, _MAX_TERMS))
    )
    hi = TailForm(terms, rng.uniform(0.05, 3.0))
    return TailBox((), (), hi.scale(-1.0), hi)


def _check_oracle(rng: random.Random, count: int, cut: int) -> AxiomRunResult:
    result = AxiomRunResult("oracle_agreement", count)
    for k in range(count):
        box = _oracle_box(rng)
        closed_form = hausdorff_mnc(box).value
        oracle = truncation_tail_sup(box, cut)
        if abs(oracle - closed_form) > 1e-6:
            result.violations.append(
                {"instance": k, "closedForm": closed_form, "oracle": oracle}
            )
    return result


def _check_homogeneity(rng: random.Random, count: int) -> AxiomRunResult:
    result = AxiomRunResult("homogeneity", count)
    for k in range(count):
        box = random_box(rng)
        c = rng.uniform(-3.0, 3.0)
        scaled = hausdorff_mnc(scale_translate(box, c)).value
        expected = abs(c) * hausdorff_mnc(box).value
        if scaled != expected:
            result.violations.append(
                {"instance": k, "c": c, "scaled": scaled, "expected": expected}
            )
    return result


def run_axiom_suite(seed: int, counts: AxiomCounts | None = None) -> list[AxiomRunResult]:
    """Run every group with one seeded generator; deterministic per seed."""
    counts = counts or AxiomCounts()
    rng = random.Random(seed)
    return [
        _check_m1(rng, counts.m1),
        _check_m2(rng, counts.m2),
        _check_m3(rng, counts.m3),
        _check_m4(rng, counts.m4),
        _check_m5(rng, counts.m5),
        _check_m6(rng, counts.m6_chains, counts.m6_depth),
        _check_oracle(rng, counts.oracle, counts.oracle_cut),
        _check_homogeneity(rng, counts.homogeneity),
    ]
