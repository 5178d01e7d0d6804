import random

from darbocert.axioms import (
    AxiomCounts,
    random_box,
    random_compact_box,
    random_nested_chain,
    run_axiom_suite,
)
from darbocert.mnc import Point, contains_point, hausdorff_mnc, subset

SMOKE = AxiomCounts(
    m1=50, m2=100, m3=100, m4=100, m5=100, m6_chains=10, m6_depth=50,
    oracle=10, homogeneity=50,
)


class TestGenerators:
    def test_random_boxes_are_valid_by_construction(self):
        rng = random.Random(0)
        for _ in range(200):
            random_box(rng)  # the constructor validates
            assert hausdorff_mnc(random_compact_box(rng)) == 0.0

    def test_nested_chain_structure(self):
        rng = random.Random(1)
        chain = random_nested_chain(rng, depth=50)
        assert len(chain) == 51
        mus = [hausdorff_mnc(b) for b in chain]
        assert all(m2 <= m1 for m1, m2 in zip(mus, mus[1:]))
        assert mus[-1] < mus[0]
        assert all(subset(b2, b1) for b1, b2 in zip(chain, chain[1:]))
        deepest = chain[-1]
        mid = Point(
            tuple(0.5 * (deepest.lo(i) + deepest.hi(i)) for i in range(1, deepest.head_len + 1)),
            (deepest.tail_lo + deepest.tail_hi).scale(0.5),
        )
        assert all(contains_point(box, mid) for box in chain)


class TestSuite:
    def test_smoke_counts_pass(self):
        results = run_axiom_suite(seed=123, counts=SMOKE)
        assert [r.name for r in results] == [
            "M1", "M2", "M3", "M4", "M5", "M6", "oracle_agreement", "homogeneity",
        ]
        assert all(r.passed for r in results)

    def test_deterministic_per_seed(self):
        first = [r.to_dict() for r in run_axiom_suite(seed=7, counts=SMOKE)]
        second = [r.to_dict() for r in run_axiom_suite(seed=7, counts=SMOKE)]
        assert first == second

    def test_other_seeds_also_pass(self):
        tiny = AxiomCounts(
            m1=20, m2=40, m3=20, m4=40, m5=40, m6_chains=4, m6_depth=25,
            oracle=5, homogeneity=20,
        )
        for seed in (0, 1, 99, 2**31):
            assert all(r.passed for r in run_axiom_suite(seed=seed, counts=tiny))

    def test_zero_counts_are_vacuously_green(self):
        empty = AxiomCounts(
            m1=0, m2=0, m3=0, m4=0, m5=0, m6_chains=0, m6_depth=1,
            oracle=0, homogeneity=0,
        )
        results = run_axiom_suite(seed=0, counts=empty)
        assert all(r.passed and r.instances == 0 for r in results)
