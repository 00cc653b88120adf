#!/usr/bin/env python3
"""apxcp benchmark: closed-loop runs of the CLI command functions.

Run from the repository root:

    python3 perfbench/run.py --workload compare-fit --seed 2 --seconds 25 --trace 0

One process, one client: instances (one command call each) run back to
back for --seconds, each on data drawn from a seed derived from --seed.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it reports the per-layer metrics from a traced run. Every
run then refits exactly at seeded grid points of one instance to check
the command's outputs. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when any
instance failed or the check found a violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# a tail percentile needs this many instances beyond it
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's default_seed)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes used by the run's own child processes
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--timed-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(load_start: tuple[float, float, float]) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "nproc": nproc,
        "loadavg_start": list(load_start),
        "overloaded": load_start[0] > nproc,
    }


@dataclass
class Phase:
    """Outcome of a closed loop of instances."""

    times: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)
    measures: list[float] = field(default_factory=list)
    first: tuple | None = None  # (config, result) of the first good instance


def run_instance(workload, seed: int, index: int, out: Path, phase: Phase,
                 recorder=None) -> None:
    """Run and time one instance, recording its outcome in phase. With a
    recorder, the command call is a cli.cmd span."""
    cfg = workload.config(seed, index)
    t0 = time.perf_counter()
    try:
        if recorder is None:
            result = workload.run(cfg, out)
        else:
            recorder.instance = index
            with recorder.span("cli.cmd"):
                result = workload.run(cfg, out)
    except Exception as exc:  # a failing instance is counted, not fatal
        result = None
        phase.failures.append(f"instance {index}: {exc!r}")
    phase.times.append(time.perf_counter() - t0)
    if result is not None:
        bad, measures = workload.outcome(result)
        if bad:
            phase.failures.append(f"instance {index}: {bad}")
        phase.measures += measures
        if phase.first is None and not bad:
            phase.first = (cfg, result)


def closed_loop(workload, seed: int, seconds: float, out: Path) -> Phase:
    """Run instances 1, 2, ... back to back until `seconds` have passed
    (at least one)."""
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        index += 1
        run_instance(workload, seed, index, out, phase)
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed >= seconds:
            return phase


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, instances beyond) of the highest percentile with
    at least TAIL_BEYOND instances beyond it; the median when fewer than
    2 * TAIL_BEYOND instances ran."""
    xs = sorted(times)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_seconds(workload_name: str) -> list[float]:
    """Wall time from process start to ready, over fresh child processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload",
                               workload_name, "--setup-probe"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return times


def blas1_p50(workload_name: str, seed: int, seconds: float) -> float:
    """instance_s.p50 of a child run with every BLAS pool at one thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload",
                           workload_name, "--seed", str(seed), "--seconds",
                           str(seconds), "--timed-only"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"one-thread child failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["instance_s.p50"]["value"]


def report(metrics: dict, notes: dict) -> None:
    for name, rec in metrics.items():
        print(f"  {name:34s} {rec['value']:<14.6g} {rec['unit']:9s} {notes.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    if not (SRC / "apxcp" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"perfbench: {SRC / 'apxcp'} or {BENCHMARK_JSON} is missing; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    spec = wl.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    workload = wl.Workload.from_spec(args.workload, spec)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    seed = spec["workloads"][args.workload]["default_seed"] if args.seed is None else args.seed
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    env = environment(load_start)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        closed_loop(workload, seed, 0.0, run_dir)  # warm-up, not counted
        if args.timed_only:
            phase = closed_loop(workload, seed, args.seconds, run_dir)
            print(json.dumps({"correct": not phase.failures,
                              "attempted": len(phase.times),
                              "failed": len(phase.failures),
                              "metrics": {"instance_s.p50": {
                                  "value": statistics.median(phase.times), "unit": "s"}}}))
            return 0 if not phase.failures else 1
        if args.trace:
            values, notes, phases = traced_run(workload, seed, args.seconds, run_dir)
            wanted = bench["per_layer"]
        else:
            values, notes, phases = untraced_run(workload, seed, args.seconds, run_dir)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    checked = phases[0].first
    violations = ["no instance completed"] if checked is None else wl.check_instance(
        workload, checked[0], checked[1], spec["check_points"],
        np.random.default_rng((seed, 1)))
    failed = len(failures) + (1 if violations else 0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["overloaded"]:
        print(f"WARNING: load average {load_start[0]:.2f} at start exceeds nproc="
              f"{env['nproc']}; timings are not comparable")
    report(metrics, notes)
    print(f"  {'failed_frac':34s} {failed / attempted:<14.6g} {'fraction':9s} "
          f"{failed}/{attempted} instances; check points {spec['check_points']}")
    for line in (failures + violations)[:20]:
        print(f"  FAIL {line}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "notes": notes, "failures": failures,
                    "violations": violations, "all_values": values},
                   indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def untraced_run(workload, seed: int, seconds: float, run_dir: Path):
    phase = closed_loop(workload, seed, seconds, run_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_seconds(workload.name)
    n = len(phase.times)
    tail_value, tail_pct, beyond = tail(phase.times)
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": n / phase.elapsed,
        "instance_s.p50": statistics.median(phase.times),
        "instance_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
        "region_measure.mean": statistics.fmean(phase.measures) if phase.measures else float("nan"),
    }
    measure_of = {"sweep": "thickness gap delta per sweep row",
                  "compare": "upper-region length per approximate-method row",
                  "region": "exact region measure per instance"}[workload.command]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "instances_per_s": f"{n} instances in {phase.elapsed:.2f} s",
        "instance_s.p50": f"{n} instances",
        "instance_s.tail": f"p{tail_pct:.1f}, {beyond} instances beyond",
        "peak_rss_mb": "ru_maxrss after the timed phase",
        "region_measure.mean": f"{measure_of}, {len(phase.measures)} values",
    }
    return values, notes, [phase]


def traced_run(workload, seed: int, seconds: float, run_dir: Path):
    """Per-layer metrics: one allocation-tracking instance, then each
    instance untraced and traced in turn for `seconds`, then a
    one-BLAS-thread child for half as long."""
    import layers
    from spans import SpanRecorder, write_spans

    tracemalloc.start()
    try:
        with SpanRecorder(layers.MODULES) as probe:
            layers.instrument(probe, track_alloc=True)
            run_instance(workload, seed, 1, run_dir, Phase(), recorder=probe)
    finally:
        tracemalloc.stop()

    # alternating keeps machine drift out of the overhead estimate
    untraced, traced = Phase(), Phase()
    rec = SpanRecorder(layers.MODULES)
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index == 0:
        index += 1
        run_instance(workload, seed, index, run_dir, untraced)
        with rec:
            layers.instrument(rec)
            run_instance(workload, seed, index, run_dir, traced, recorder=rec)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv", rec.spans)

    values = layers.layer_metrics(rec.spans, len(traced.times))
    p50_plain = statistics.median(untraced.times)
    p50_traced = statistics.median(traced.times)
    values["approx.curves.peak_alloc_mb"] = layers.peak_alloc_mb(probe.spans)
    values["trace.overhead_frac"] = (p50_traced - p50_plain) / p50_plain
    values["trace.blas1_ratio"] = blas1_p50(workload.name, seed, seconds / 2) / p50_plain
    notes = {"cli.cmd.s": f"per instance, {len(traced.times)} traced instances",
             "trace.overhead_frac": f"untraced p50 {p50_plain:.4g} s over "
                                    f"{len(untraced.times)} instances"}
    return values, notes, [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
