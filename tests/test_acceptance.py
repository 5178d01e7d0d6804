"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with ``pytest -s`` to see them inline).

Criteria:
1. contraction-bound reproduction on the full grid for five n values,
   bound values exact, under 30 s;
2. certified run with exact dyadic measure trace, 30 steps at tol 1e-9;
3. randomized axiom suite at full counts with zero violations, under 20 s;
4. closed-form measure vs truncation oracle within 1e-6 on 100 boxes;
5. shifting battery: rational pair all-PASS with exact uniform errors,
   broken pair fails (i)/(ii) with re-checkable witnesses;
6. variant recovery: classic factor 1/2 certifies with exact per-step
   ratio, factor 0.4 refutes at step 0; weak run certifies/refutes;
7. byte-identical demo reports across two runs.
"""

import json
import time
from fractions import Fraction

from darbocert.axioms import AxiomCounts, run_axiom_suite
from darbocert.cli import EXIT_PASS, run
from darbocert.engine import (
    CERTIFIED,
    REFUTED,
    check_example_bound,
    classic_darbo_run,
    darbo_iterate,
    weak_contraction_run,
)
from darbocert.expr import eval_expr, parse_expr
from darbocert.scenarios import broken_pair, demo_pair, identity_operator, scaling_operator, unit_box
from darbocert.shifting import (
    FAIL,
    PASS,
    FunctionSequencePair,
    SampleGrid,
    run_all_checks,
)

GRID = SampleGrid()  # t in [0, 100] step 0.1; ladder 1 .. 2**20
BOUND_NS = (1, 10, 100, 1000, 10**6)


def test_criterion_1_contraction_bound_reproduction():
    started = time.perf_counter()
    pair = demo_pair()
    report = check_example_bound(pair, GRID, BOUND_NS)
    assert report.verdict == PASS
    for n in BOUND_NS:
        row = report.details["perN"][str(n)]
        # grid maximum of 2u - v under the per-n hypothesis stays under the bound
        assert row["maxLhs"] <= row["bound"] + 1e-12
        # the reported bound matches the closed formula exactly
        exact = Fraction(2 * n + 1, n * (n + 1))
        assert abs(Fraction(row["bound"]) - exact) <= Fraction(1, 10**15)
    assert report.details["perN"]["1"]["bound"] == 1.5
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 contraction bound: PASS ({elapsed:.2f}s, 5 n values, 1001^2 grid)")


def test_criterion_2_certified_run_with_exact_trace():
    pair = demo_pair()
    cert = darbo_iterate(scaling_operator(0.5), unit_box(), pair, tol=1e-9, grid=GRID)
    assert all(rep.verdict == PASS for rep in cert.checks.values())
    assert cert.outcome == CERTIFIED
    assert len(cert.trace) - 1 == 30
    for k, mu in enumerate(cert.mu_trace):
        expected = 2.0**-k
        assert abs(mu - expected) <= 1e-12 * expected
    print("ACCEPTANCE 2 contraction factor: PASS (CERTIFIED at k=30, trace exactly 2**-k)")


def test_criterion_3_axiom_suite_full_counts():
    started = time.perf_counter()
    counts = AxiomCounts(m1=500, m2=1000, m3=1000, m4=1000, m5=1000,
                         m6_chains=100, m6_depth=50, oracle=100, homogeneity=500)
    results = run_axiom_suite(seed=42, counts=counts)
    violations = {r.name: len(r.violations) for r in results}
    assert all(v == 0 for v in violations.values()), violations
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    print(f"ACCEPTANCE 3 axiom suite: PASS ({elapsed:.2f}s, zero violations: {violations})")


def test_criterion_4_oracle_agreement():
    results = run_axiom_suite(
        seed=2024,
        counts=AxiomCounts(m1=0, m2=0, m3=0, m4=0, m5=0, m6_chains=0, m6_depth=1,
                           oracle=100, oracle_cut=10**6, homogeneity=0),
    )
    oracle = next(r for r in results if r.name == "oracle_agreement")
    assert oracle.instances == 100 and oracle.passed
    print("ACCEPTANCE 4 oracle agreement: PASS (100 boxes, cut 10^6, within 1e-6)")


def test_criterion_5_shifting_checks():
    pair = demo_pair()
    reports = run_all_checks(pair, GRID)
    assert all(rep.verdict == PASS for rep in reports.values())
    sup = reports["uniform_convergence"].sup_errors
    for n in GRID.n_ladder:
        assert abs(sup["psi"][str(n)] - float(Fraction(1, n + 1))) <= 1e-12
        assert abs(sup["phi"][str(n)] - float(Fraction(1, n))) <= 1e-12

    bad = broken_pair()
    bad_reports = run_all_checks(bad, GRID)
    ce_i = bad_reports["condition_i"].counterexample
    ce_ii = bad_reports["condition_ii"].counterexample
    assert bad_reports["condition_i"].verdict == FAIL
    assert bad_reports["condition_ii"].verdict == FAIL
    # witnesses re-evaluate to violations under direct expression evaluation
    assert eval_expr(bad.psi_limit, ce_i["u"], 1.0) <= eval_expr(bad.phi_limit, ce_i["v"], 1.0)
    assert ce_i["u"] > ce_i["v"] + 1e-12
    assert eval_expr(bad.psi_limit, ce_ii["w"], 1.0) <= eval_expr(bad.phi_limit, ce_ii["w"], 1.0)
    assert ce_ii["w"] > 0
    print("ACCEPTANCE 5 shifting checks: PASS (exact uniform errors; broken pair refuted)")


def test_criterion_6_variant_recovery():
    cert_half = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.5, tol=1e-9)
    assert cert_half.outcome == CERTIFIED
    mus = cert_half.mu_trace
    assert all(mus[j + 1] == 0.5 * mus[j] for j in range(len(mus) - 1))

    cert_tight = classic_darbo_run(scaling_operator(0.5), unit_box(), k=0.4)
    assert cert_tight.outcome == REFUTED and cert_tight.refutation["step"] == 0

    weak_pair = FunctionSequencePair(
        psi_seq=parse_expr("t"), phi_seq=parse_expr("t/2"),
        psi_limit=parse_expr("t"), phi_limit=parse_expr("t/2"),
    )
    assert weak_contraction_run(scaling_operator(0.5), unit_box(), weak_pair).outcome == CERTIFIED
    assert weak_contraction_run(identity_operator(), unit_box(), weak_pair).outcome == REFUTED
    print("ACCEPTANCE 6 variant recovery: PASS (classic 1/2 certified, 0.4 refuted, weak ok)")


def test_criterion_7_demo_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["demo", "--out", str(out1)]) == EXIT_PASS
    assert run(["demo", "--out", str(out2)]) == EXIT_PASS
    capsys.readouterr()
    first, second = out1.read_bytes(), out2.read_bytes()
    assert first == second
    report = json.loads(first)
    assert report["certificate"]["outcome"] == "CERTIFIED"
    with capsys.disabled():
        print("ACCEPTANCE 7 determinism: PASS (byte-identical demo reports)")
