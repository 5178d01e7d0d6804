"""darbocert benchmark: one workload per process, every job checked.

    python3 perfbench/run.py --workload chain_long --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(median job time and set-up time, both scaled to uncontended CPU speed by
``speedprobe``, and peak RSS); with ``--trace 1`` it alternates
untraced and traced jobs, and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the program could not be set
up (for instance, no ``src/darbocert`` next to this directory).
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speedprobe import SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 7
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
# stop starting jobs past this, whatever the minimum, to end well within 180 s
RUN_CAP_S = 120.0
EXIT_SETUP = 2


@dataclass
class JobLog:
    """Outcome of every job in a run.  A job fails when it raises, when its
    output fails the workload's checks, or when its report bytes differ
    from the first job's."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_report: bytes | None = None

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_job(wl, log: JobLog, tracer=None, probe: SpeedProbe | None = None) -> float:
    """Run, time and check one job; returns its wall seconds.  ``probe``,
    if given, samples the machine's speed while the job runs."""
    job_id = log.attempted
    log.attempted += 1
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.job(job_id):
                out = wl.job()
        elif probe is not None:
            with probe:
                out = wl.job()
        else:
            out = wl.job()
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        elapsed = time.perf_counter() - start
        problems = [f"job raised {exc!r}"]
    else:
        elapsed = time.perf_counter() - start
        try:
            problems = wl.check(out)
        except Exception as exc:
            problems = [f"output check raised {exc!r}"]
        if log.first_report is None:
            log.first_report = out.report
        elif out.report != log.first_report:
            problems.append("report bytes differ from the first job's")
    if problems:
        log.failed += 1
        log.problems += [f"job {job_id}: {p}" for p in problems]
    return elapsed


def run_jobs(wl, log: JobLog, budget_s: float, min_jobs: int) -> tuple[list[float], list[float]]:
    """Closed loop: start the next job when the previous one ends, until at
    least ``min_jobs`` ran and another would overrun ``budget_s``.  Returns
    each job's wall seconds and its slowdown."""
    seconds: list[float] = []
    slowdowns: list[float] = []
    t0 = time.perf_counter()
    while True:
        probe = SpeedProbe()
        seconds.append(timed_job(wl, log, probe=probe))
        slowdowns.append(probe.slowdown)
        elapsed = time.perf_counter() - t0
        if elapsed > RUN_CAP_S:
            break
        if len(seconds) >= min_jobs and elapsed + statistics.median(seconds) > budget_s:
            break
    return seconds, slowdowns


def measure_setup(wl, samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Cold set-up times, each in a fresh interpreter run one after another
    on this process's CPU, and the slowdown sampled while each ran."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argv += [str(p) for p in wl.config_paths()]
    seconds, slowdowns = [], []
    for _ in range(samples):
        with SpeedProbe() as probe:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=60, cwd=ROOT, check=True
            )
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
        slowdowns.append(probe.slowdown)
    return seconds, slowdowns


def scaled(seconds: list[float], slowdowns: list[float]) -> list[float]:
    """Wall seconds at uncontended speed: each divided by its slowdown."""
    return [s / f for s, f in zip(seconds, slowdowns)]


def environment(seed: int) -> dict:
    return {
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def load_metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summarise(label: str, seconds: list[float]) -> str:
    q = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else [seconds[0]] * 3
    return (
        f"{label}: median {statistics.median(seconds):.4f} s, quartiles "
        f"{q[0]:.4f}..{q[2]:.4f} s, min {min(seconds):.4f} s, max {max(seconds):.4f} s, "
        f"n={len(seconds)}"
    )


def plain_run(wl, seconds: float, log: JobLog, setup: list[float]) -> dict[str, float]:
    wall, slowdowns = run_jobs(wl, log, seconds, MIN_JOBS)
    times = scaled(wall, slowdowns)
    print(summarise("job wall", wall))
    print(f"job slowdown: median {statistics.median(slowdowns):.3f}, "
          f"min {min(slowdowns):.3f}, max {max(slowdowns):.3f}")
    print(summarise("job_s (scaled)", times))
    return {
        "job_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, seconds: float, log: JobLog, per_layer: list[dict]) -> dict[str, float]:
    """Alternate untraced and traced jobs, so that the tracing overhead
    compares jobs run close together in time."""
    from tracing import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    traced_ids: list[int] = []
    t0 = time.perf_counter()
    while True:
        untraced.append(timed_job(wl, log))
        traced_ids.append(log.attempted)
        traced.append(timed_job(wl, log, tracer))
        elapsed = time.perf_counter() - t0
        if elapsed > RUN_CAP_S:
            break
        pair_s = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= MIN_TRACED_JOBS and elapsed + pair_s > seconds:
            break
    by_job = tracer.metrics_by_job()
    jobs = [by_job.get(job_id, {}) for job_id in traced_ids]
    names = sorted({name for job in jobs for name in job})

    def median_of(name: str) -> float:
        return statistics.median(job.get(name, 0.0) for job in jobs)

    for name in names:
        values = {job.get(name, 0.0) for job in jobs}
        if not name.endswith((".self_s", "_mb")) and len(values) > 1:
            print(f"warning: count {name} differs between identical jobs: {sorted(values)}")
    metrics = {m["name"]: median_of(m["name"]) for m in per_layer}
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(untraced)

    print(summarise("untraced job_s", untraced))
    print(summarise("traced job_s", traced))
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per job")
    print(f"per-layer table ({wl.name}, median over {len(traced)} traced jobs)")
    print(f"  {'span':<40} {'self_s':>12} {'calls':>10}")
    spans = sorted({n.rsplit('.', 1)[0] for n in names if n.endswith(".self_s")},
                   key=lambda n: -median_of(n + ".self_s"))
    for span in spans:
        print(f"  {span:<40} {median_of(span + '.self_s'):>12.6f} {median_of(span + '.calls'):>10.0f}")
    print("  counters")
    for name in names:
        if not name.endswith((".self_s", ".calls")):
            print(f"  {name:<40} {_fmt(median_of(name)):>12}")
    spans_path = wl.workdir / "spans.jsonl"
    tracer.write_spans(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()

    if not (SRC / "darbocert" / "__init__.py").is_file():
        print(f"error: no darbocert sources under {SRC}", file=sys.stderr)
        return EXIT_SETUP
    sys.path.insert(0, str(SRC))
    try:
        import numpy

        import darbocert
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_SETUP
    if Path(darbocert.__file__).resolve().parent != SRC / "darbocert":
        print(f"error: darbocert imported from {darbocert.__file__}", file=sys.stderr)
        return EXIT_SETUP
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {sorted(workloads.WORKLOADS)}")
    specs = load_metric_specs()

    wl = workloads.WORKLOADS[args.workload](WORK / args.workload, args.seed)
    env.update(numpy=numpy.__version__, workload=wl.name, seed_used=wl.uses_seed)
    print("env: " + json.dumps(env))
    if not wl.uses_seed:
        print(f"seed {args.seed} ignored: {wl.name} is a fixed scenario")
    try:
        wl.validate()
        setup_wall, setup_slowdowns = measure_setup(wl)
    except Exception as exc:  # the program cannot even load its inputs
        print(f"error: set-up failed: {exc!r}", file=sys.stderr)
        return EXIT_SETUP
    setup = scaled(setup_wall, setup_slowdowns)
    print(summarise("setup wall", setup_wall))
    print(summarise("setup_s (scaled)", setup))

    log = JobLog()
    if args.trace:
        metrics = traced_run(wl, args.seconds, log, specs["per_layer"])
        wanted = specs["per_layer"]
    else:
        metrics = plain_run(wl, args.seconds, log, setup)
        wanted = specs["end_to_end"]
    print(f"fail_ratio: {log.fail_ratio} ({log.failed} of {log.attempted} jobs failed)")
    for problem in log.problems[:20]:
        print("  " + problem)
    print("metrics:")
    for m in wanted:
        print(f"  {m['name']:<40} {_fmt(metrics[m['name']]):>14} {m['unit']}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
