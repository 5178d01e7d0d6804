"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import darbocert  # noqa: E402
from darbocert import mnc, operators, scenarios  # noqa: E402
from darbocert.axioms import AxiomCounts  # noqa: E402

import run  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 20, 30, 1, 0),
        ("c", 50, 90, 0, 0),
        ("d", 60, 70, 3, 0),
        ("e", 65, 80, 3, 0),  # overlaps d: c's covered part is 60..80
    ]
    got = [round(s * 1e9) for s in tracing.self_times(spans)]
    assert got == [30, 20, 10, 20, 10, 15]


def test_metrics_by_job_sums_self_time_and_calls_per_name():
    tr = tracing.Tracer(targets=())
    tr.spans += [
        ("bench.job", 0, 100, -1, 0),
        ("x", 10, 20, 0, 0),
        ("x", 30, 50, 0, 0),
        ("bench.job", 200, 260, -1, 1),
        ("x", 210, 220, 3, 1),
    ]
    by_job = tr.metrics_by_job()
    assert by_job[0]["x.calls"] == 2
    assert round(by_job[0]["x.self_s"] * 1e9) == 30
    assert round(by_job[0]["bench.job.self_s"] * 1e9) == 70
    assert by_job[1]["x.calls"] == 1
    assert by_job[1]["trace.spans"] == 2


def _namespace_snapshot() -> dict:
    snap = {}
    for mod in tracing._package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (mnc.TailBox, mnc.TailForm):
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = value
    return snap


def test_wrappers_cover_by_name_imports_and_restore_every_name():
    before = _namespace_snapshot()
    tr = tracing.Tracer()
    box = scenarios.unit_box()
    with pytest.raises(RuntimeError):
        with tr.job(0):
            assert operators.subset is not before[("darbocert.operators", "subset")]
            assert mnc.TailBox.__init__ is not before[("TailBox", "__init__")]
            assert operators.verify_self_map(scenarios.scaling_operator(0.5), box)
            raise RuntimeError("job failed")
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = [s[0] for s in tr.spans]
    # subset is reached through operators' own by-name import
    assert names.count("mnc.subset") == 1
    assert "operators.apply_to_box" in names and "mnc.TailBox" in names
    metrics = tr.metrics_by_job()[0]
    assert metrics["mnc.is_nonnegative.calls"] == 2
    assert metrics["mnc.is_nonnegative.route.dominance"] == 2


class _QuickChain(workloads.ChainLong):
    """Half-scaling on the unit box: certifies in 30 steps."""

    classic_k = 0.6
    expected_steps = 30
    config = {
        **workloads.ChainLong.config,
        "operator": {"dTail": {"terms": [], "beta": 0.5}, "eTail": {"terms": [], "beta": 0.0}},
        "classicK": 0.6,
    }


def _quiet_jobs(wl, jobs: int) -> run.JobLog:
    log = run.JobLog()
    for _ in range(jobs):
        run.timed_job(wl, log)
    return log


def test_wrong_expected_outcome_raises_fail_ratio(tmp_path):
    chain = _QuickChain(tmp_path / "chain", seed=0)
    assert _quiet_jobs(chain, 2).fail_ratio == 0.0
    chain.expected_steps = 29
    log = _quiet_jobs(chain, 2)
    assert (log.attempted, log.failed, log.fail_ratio) == (2, 2, 1.0)
    assert "30 steps, expected 29" in log.problems[0]

    counts = AxiomCounts(m1=3, m2=3, m3=3, m4=3, m5=3, m6_chains=2, m6_depth=3,
                         oracle=2, oracle_cut=1000, homogeneity=3)
    suite = workloads.AxiomSuite(tmp_path / "axioms", seed=5, counts=counts)
    assert _quiet_jobs(suite, 1).fail_ratio == 0.0
    suite.expected_instances = {**suite.expected_instances, "M1": 4}
    assert _quiet_jobs(suite, 1).fail_ratio == 1.0

    grid = workloads.PairGrid(tmp_path / "grid", seed=0, step=1.0)
    assert _quiet_jobs(grid, 1).fail_ratio == 0.0
    grid.expected = {**grid.expected, "demo": {**grid.expected["demo"], "condition_i": "FAIL"}}
    assert _quiet_jobs(grid, 1).fail_ratio == 1.0


def test_differing_report_bytes_fail_the_later_job(tmp_path):
    chain = _QuickChain(tmp_path, seed=0)
    log = run.JobLog()
    run.timed_job(chain, log)
    log.first_report += b" "
    run.timed_job(chain, log)
    assert (log.attempted, log.failed) == (2, 1)
    assert "differ" in log.problems[0]


def test_speed_probe_stops_its_thread_and_scales_each_time():
    with speedprobe.SpeedProbe(interval_s=0.001) as probe:
        time.sleep(0.05)
    assert not probe._thread.is_alive()
    assert len(probe.samples) > 1 and probe.slowdown > 0
    with speedprobe.SpeedProbe(interval_s=60.0) as short:
        pass
    assert not short._thread.is_alive() and len(short.samples) == 1
    assert run.scaled([3.0, 1.0], [1.5, 0.5]) == [2.0, 2.0]


def test_counterexample_recheck_rejects_a_non_violation():
    pair = scenarios.broken_pair()
    grid = darbocert.SampleGrid(step=1.0)
    good = {"reading": "limit", "u": 1.0, "v": 0.0}
    assert workloads._recheck("condition_i", good, pair, grid) == []
    assert workloads._recheck("condition_i", {**good, "u": 0.0, "v": 1.0}, pair, grid)


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "axiom_suite", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["axioms.instances"]["value"] == 5200
