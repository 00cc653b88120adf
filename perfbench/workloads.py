"""The benchmark's workloads: one apxcp command per instance, its outputs,
and the exact-refit check of those outputs.

Sizes, seeds and the reasons behind each workload live in
``workloads.json`` next to this file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from apxcp import cli
from apxcp.approx import (APPROX_KINDS, ApproxMethod, approx_pvalue_curves,
                          thickness_gap)
from apxcp.conformal import YGrid, full_conformal_pvalues, region_from_curve
from apxcp.data_io import friedman1

SPEC_PATH = Path(__file__).with_name("workloads.json")

COMMANDS = {"sweep": cli.cmd_sweep, "compare": cli.cmd_compare,
            "region": cli.cmd_region}
_COMPARE_APPROX = {"UStableCP": "uniform_stability",
                   "LocStableCP": "local_stability",
                   "InfluenceFunctionCP": "influence_function"}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def instance_seed(workload_seed: int, index: int) -> int:
    """Data seed of instance `index`, derived from the workload seed."""
    return int(np.random.SeedSequence((workload_seed, index)).generate_state(1)[0])


@dataclass(frozen=True)
class Problem:
    """One regression problem an instance solved, rebuilt for the check.

    expected maps an approximation kind to the command's output for it
    (the thickness gap or the upper-region measure); exact is the
    command's exact p-value curve, when it produced one.
    """

    label: str
    X: np.ndarray
    Y: np.ndarray
    x_query: np.ndarray
    grid: YGrid
    lam: float
    expected: dict
    exact: np.ndarray | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: cli.ExperimentConfig

    @classmethod
    def from_spec(cls, name: str, spec: dict) -> "Workload":
        entry = spec["workloads"][name]
        return cls(name, entry["command"],
                   cli.ExperimentConfig.from_dict(entry["config"]))

    def config(self, seed: int, index: int) -> cli.ExperimentConfig:
        """Config of instance `index` of a run with workload seed `seed`."""
        return replace(self.base, seed=instance_seed(seed, index))

    def run(self, cfg: cli.ExperimentConfig, out: Path) -> dict:
        return COMMANDS[self.command](cfg, out)

    def outcome(self, result: dict) -> tuple[list[str], list[float]]:
        """(non-ok status rows, region measures) of one command result.

        The measure is the thickness gap per sweep row, the upper-region
        length per approximate compare row, and the region measure of
        the exact region command.
        """
        if self.command == "sweep":
            bad = [r[8] for r in result["rows"] if r[8] != "ok"]
            return bad, [r[4] for r in result["rows"] if r[8] == "ok"]
        if self.command == "compare":
            bad = [r[6] for r in result["rows"] if r[6] != "ok"]
            return bad, [r[2] for r in result["rows"]
                         if r[6] == "ok" and r[1] in _COMPARE_APPROX]
        return [], [result["region"].measure]

    def problems(self, cfg: cli.ExperimentConfig, result: dict) -> list[Problem]:
        """Rebuild every problem of an instance from its config, using the
        seed derivation the command documents."""
        out = []
        if self.command == "sweep":
            for n in cfg.n_schedule:
                X, Y, xq, _ = friedman1(n + 1, cfg.noise_sd, seed=(cfg.seed, n, 0)).split_query()
                expected = {r[2]: r[4] for r in result["rows"] if r[0] == n and r[1] == 0}
                out.append(Problem(f"n={n}", X, Y, xq, cfg.grid_for(Y, m=cfg.sweep_grid_m),
                                   cfg.lambda_for(n + 1), expected))
        elif self.command == "compare":
            for rep in range(cfg.compare_repetitions):
                X, Y, xq, _ = friedman1(cfg.n, cfg.noise_sd, seed=(cfg.seed, rep)).split_query()
                expected = {_COMPARE_APPROX[r[1]]: r[2] for r in result["rows"]
                            if r[0] == rep and r[1] in _COMPARE_APPROX}
                out.append(Problem(f"rep={rep}", X, Y, xq, cfg.grid_for(Y),
                                   cfg.lambda_for(Y.size + 1), expected))
        else:
            X, Y, xq, _ = friedman1(cfg.n, cfg.noise_sd, cfg.seed).split_query()
            out.append(Problem("region", X, Y, xq, cfg.grid_for(Y),
                               cfg.lambda_for(Y.size + 1), {},
                               exact=np.asarray(result["curve"].upper)))
        return out


def exact_pvalue(problem: Problem, j: int, cfg: cli.ExperimentConfig) -> float:
    """Full conformal p-value at grid point j from a fresh exact refit.

    A two-point grid starting at the candidate holds it exactly as its
    first value, so the refit sees the same y as the scan did.
    """
    y = float(problem.grid.values[j])
    curve = full_conformal_pvalues(problem.X, problem.Y, problem.x_query,
                                   YGrid(y, y + problem.grid.step, 2),
                                   problem.lam, cfg.loss, cfg.kernel)
    return float(curve.upper[0])


def sandwich_violations(label: str, curves: dict, idx, exact) -> list[str]:
    """Points where an approximate curve fails lower <= exact <= upper."""
    bad = []
    for kind, curve in curves.items():
        for j, p in zip(idx, exact):
            if not (curve.lower[j] <= p <= curve.upper[j]):
                bad.append(f"{label} {kind} grid[{j}]: exact p={float(p)!r} outside "
                           f"[{float(curve.lower[j])!r}, {float(curve.upper[j])!r}]")
    return bad


def output_violations(label: str, command: str, curves: dict, expected: dict,
                      alpha: float) -> list[str]:
    """Command outputs that differ from the curves recomputed here."""
    bad = []
    for kind, want in expected.items():
        curve = curves[kind]
        upper = region_from_curve(curve, alpha, "upper")
        got = (thickness_gap(upper, region_from_curve(curve, alpha, "lower"))
               if command == "sweep" else upper.measure)
        if got != want:
            bad.append(f"{label} {kind}: command reported {want!r}, recomputed {got!r}")
    return bad


def check_instance(workload: Workload, cfg: cli.ExperimentConfig, result: dict,
                   points: int, rng: np.random.Generator) -> list[str]:
    """Exact-refit check of one instance; returns the violations found.

    For every problem: recompute the three approximate curves through
    the public API and compare them with what the command reported, then
    refit exactly at `points` seeded grid points and require each
    approximate level to bracket the exact p-value. The points are drawn
    where the loosest level's bracket is open, when there are enough.
    """
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for pb in workload.problems(cfg, result):
            curves = {kind: approx_pvalue_curves(
                pb.X, pb.Y, pb.x_query, pb.grid, ApproxMethod(kind, cfg.z_anchor),
                pb.lam, cfg.loss, cfg.kernel).curve for kind in APPROX_KINDS}
            bad += output_violations(pb.label, workload.command, curves,
                                     pb.expected, cfg.alpha)
            loose = curves["uniform_stability"]
            open_idx = np.flatnonzero(loose.upper > loose.lower)
            pool = open_idx if open_idx.size >= points else np.arange(pb.grid.m)
            idx = np.sort(rng.choice(pool, size=min(points, pool.size), replace=False))
            exact = [exact_pvalue(pb, int(j), cfg) for j in idx]
            if pb.exact is not None:
                bad += [f"{pb.label} grid[{j}]: command p={float(pb.exact[j])!r}, "
                        f"refit p={p!r}" for j, p in zip(idx, exact) if pb.exact[j] != p]
                # the command's own exact curve must sit inside every
                # bracket at every grid point
                bad += sandwich_violations(pb.label, curves, range(pb.grid.m), pb.exact)
            bad += sandwich_violations(pb.label, curves, idx, exact)
    return bad
