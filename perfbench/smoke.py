"""Smoke test of the benchmark harness at toy sizes; runs in seconds.

    python3 perfbench/smoke.py

Covers the self-time arithmetic, restoring every wrapped function, the
exact-refit check catching corrupted outputs, and the refusal to run
outside a checkout.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from apxcp import kernels  # noqa: E402
from apxcp.conformal import PValueCurve  # noqa: E402
from spans import Span, SpanRecorder, covered_length, self_times  # noqa: E402

TOY = {
    "sweep": {"n_schedule": [10, 11, 12, 13], "sweep": {"repetitions": 1, "grid_m": 200}},
    "compare": {"n": 30, "grid": {"m": 64}, "compare": {"repetitions": 1}},
    "region": {"method": "full", "n": 20, "grid": {"m": 30}},
}


def toy_workload(command: str) -> wl.Workload:
    spec = {"workloads": {command: {"command": command, "config": TOY[command]}}}
    return wl.Workload.from_spec(command, spec)


def span(name, start, end, parent=None):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert covered_length([(4.0, 6.0), (1.0, 2.0), (1.5, 2.5)], 0.0, 10.0) == 3.5
    assert covered_length([(-5.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_times_nested_and_overlapping_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 2.0, 5.0, parent=0),   # overlaps a
             span("c", 8.0, 12.0, parent=0),  # runs past its parent
             span("a.inner", 1.5, 2.5, parent=1)]
    got = self_times(spans)
    # root: 10 - |[1,5] u [8,10]| = 4; a: 2 - 1; grandchildren do not
    # count against the root
    assert got == [4.0, 1.0, 3.0, 4.0, 1.0]


def _attributes(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_recorder_wraps_every_call_site_and_restores():
    before = _attributes(layers.MODULES)
    gm_before = dict(vars(kernels.GramMatrix))
    workload = toy_workload("region")
    with SpanRecorder(layers.MODULES) as rec, tempfile.TemporaryDirectory() as tmp:
        layers.instrument(rec)
        from apxcp import approx, conformal
        # modules that imported fit by name see the wrapper too
        assert conformal.fit.__wrapped__ is approx.fit.__wrapped__
        rec.instance = 1
        with rec.span("cli.cmd"):
            workload.run(workload.config(5, 1), Path(tmp))
    assert _attributes(layers.MODULES) == before
    assert dict(vars(kernels.GramMatrix)) == gm_before
    names = {s.name for s in rec.spans}
    assert {"cli.cmd", "conformal.full", "solver.fit", "kernels.gram",
            "kernels.gram_eigh", "conformal.write"} <= names
    fits_under_full = [s for s in rec.spans if s.name == "solver.fit"
                       and rec.spans[s.parent].name == "conformal.full"]
    assert len(fits_under_full) == TOY["region"]["grid"]["m"]
    metrics = layers.layer_metrics(rec.spans, 1)
    assert metrics["conformal.refits"] == TOY["region"]["grid"]["m"]
    assert metrics["kernels.gram_eigh.calls"] == 1
    assert 0.0 <= metrics["cli.self_s"] <= metrics["cli.cmd.s"]


def test_check_passes_on_true_outputs():
    rng = np.random.default_rng(0)
    for command in TOY:
        workload = toy_workload(command)
        cfg = workload.config(3, 1)
        with tempfile.TemporaryDirectory() as tmp:
            result = workload.run(cfg, Path(tmp))
        assert wl.check_instance(workload, cfg, result, 4, rng) == [], command


def test_check_catches_corrupted_curve_and_outputs():
    workload = toy_workload("region")
    cfg = workload.config(3, 1)
    with tempfile.TemporaryDirectory() as tmp:
        result = workload.run(cfg, Path(tmp))
    pb = workload.problems(cfg, result)[0]
    idx = [3, 11, 17]
    exact = [wl.exact_pvalue(pb, j, cfg) for j in idx]
    curve = result["curve"]
    assert wl.sandwich_violations("ok", {"exact": curve}, idx, exact) == []
    # lift both curves above the exact p-value at one checked point
    upper, lower = curve.upper.copy(), curve.lower.copy()
    upper[11] = lower[11] = exact[1] + 1.0 / (pb.Y.size + 1)
    bad = PValueCurve(curve.grid, upper, lower)
    found = wl.sandwich_violations("bad", {"exact": bad}, idx, exact)
    assert len(found) == 1 and "grid[11]" in found[0]
    # an exact curve of all ones leaves the brackets far from the region
    ones = np.ones(curve.grid.m)
    tampered = dict(result, curve=PValueCurve(curve.grid, ones, ones))
    assert wl.check_instance(workload, cfg, tampered, 4, np.random.default_rng(0))

    sweep = toy_workload("sweep")
    cfg = sweep.config(3, 1)
    with tempfile.TemporaryDirectory() as tmp:
        result = sweep.run(cfg, Path(tmp))
    rows = [list(r) for r in result["rows"]]
    rows[0][4] += 1e-12
    found = wl.check_instance(sweep, cfg, {"rows": rows}, 2, np.random.default_rng(0))
    assert len(found) == 1 and "recomputed" in found[0]


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "compare-fit", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=tmp, capture_output=True,
                              text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_rule():
    from run import tail
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0, 1)
    times = [float(i) for i in range(40)]
    assert tail(times) == (29.0, 75.0, 10)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, func in tests:
        func()
        print(f"ok {name}")
    print(f"{len(tests)} smoke tests passed")
