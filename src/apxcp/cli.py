"""Experiment harness and command-line entry point.

Subcommands
  gen-data       write a synthetic benchmark dataset as CSV
  region         build one prediction region by any method
  sweep          thickness gap and bound versus sample size, with log-log slopes
  compare        region length, coverage, and relative time across methods
  select-lambda  data-split regularization choice minimizing region measure

Every command reads an optional JSON config (--config), honors a --seed
override, and writes CSVs plus a meta.json (config, hash, version) into
--out. Numeric outputs are deterministic given (config, seed); timing
columns are the one exception.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from .approx import (APPROX_KINDS, ApproxMethod, approx_pvalue_curves,
                     approx_regions, base_fit, thickness_bound, thickness_gap)
from .conformal import (YGrid, cross_pvalues, full_conformal_pvalues,
                        oracle_pvalues, region_from_curve, split_pvalues,
                        write_region_csv, write_region_json)
from .data_io import friedman1, load_csv, save_csv, write_json, write_table
from .kernels import KernelSpec
from .losses import LossSpec, smoothness_constants
from .solver import SolverError, fit, z_anchored_problem

try:
    VERSION = metadata.version("artifact")
except metadata.PackageNotFoundError:  # running from a source tree
    VERSION = "0.1.0"

# lambda rule c * (n+1)^(-r); c chosen so the rule gives 0.5 at n+1 = 129,
# the midpoint-ish of the default schedule (the exponent is the part that
# matters; the constant is recorded in every meta.json)
DEFAULT_LAMBDA_C = 0.5 * 129.0 ** 0.33
DEFAULT_LAMBDA_R = 0.33
DEFAULT_LAMBDA_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)

REGION_METHODS = ("full", "split", "cross", "oracle") + APPROX_KINDS
# compare table name -> method, in table order
COMPARE_METHODS = {"SplitCP": "split", "UStableCP": "uniform_stability",
                   "LocStableCP": "local_stability",
                   "InfluenceFunctionCP": "influence_function",
                   "OracleCP": "oracle"}


def _log_ints(lo: int, hi: int, k: int) -> tuple[int, ...]:
    vals = np.unique(np.round(np.geomspace(lo, hi, k)).astype(int))
    return tuple(int(v) for v in vals)


DEFAULT_SCHEDULE = _log_ints(128, 1024, 15)
DESK_SCHEDULE = _log_ints(32, 256, 8)

# The JSON config file: group -> key -> (ExperimentConfig field, type),
# where group None holds the top-level keys. from_dict and to_dict walk
# this table, and construction checks every field against its type: float
# takes any finite real number, int any integer, (float,) and (int,) a
# list of them; None passes where it is the field's default.
_SCHEMA: dict[str | None, dict[str, tuple[str, object]]] = {
    None: {"kernel": ("kernel", KernelSpec), "loss": ("loss", LossSpec),
           "alpha": ("alpha", float), "z_anchor": ("z_anchor", float),
           "seed": ("seed", int), "n": ("n", int),
           "noise_sd": ("noise_sd", float), "method": ("method", str),
           "data_csv": ("data_csv", str),
           "lambda_grid": ("lambda_grid", (float,)),
           "n_schedule": ("n_schedule", (int,))},
    "grid": {"m": ("grid_m", int), "lo": ("grid_lo", float),
             "hi": ("grid_hi", float), "margin": ("grid_margin", float)},
    "lambda_rule": {"fixed": ("lambda_fixed", float),
                    "c": ("lambda_c", float), "r": ("lambda_r", float)},
    "sweep": {"repetitions": ("sweep_repetitions", int),
              "grid_m": ("sweep_grid_m", int)},
    "compare": {"repetitions": ("compare_repetitions", int),
                "split_fraction": ("split_fraction", float),
                "cross_folds": ("cross_folds", int)},
    "select": {"d1_fraction": ("d1_fraction", float)},
}
# field -> (its key as the file spells it, type)
_FIELDS = {name: (key if group is None else f"{group}.{key}", kind)
           for group, keys in _SCHEMA.items()
           for key, (name, kind) in keys.items()}
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               dict: "an object"}
# the types stored in the file as a JSON object, via from_config/to_config:
# key -> type of each field; a kernel bandwidth may also be "auto"
_SPECS = {KernelSpec: {"family": str, "bandwidth": float},
          LossSpec: {"family": str, "a": float, "t": float}}


def _checked(label: str, kind, value):
    """value if it has the given type, else a ValueError naming label.
    Numbers come back as float or int, so equal configs hash equally; a
    list type gives a tuple of its items. A spec type takes the spec or
    its JSON object and rebuilds the spec from the object's checked
    fields (label.field), leaving an unknown field to from_config."""
    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{label} must be a list, got {value!r}")
        return tuple(_checked(f"{label}[{i}]", kind[0], v)
                     for i, v in enumerate(value))
    if kind in _SPECS:
        obj = value.to_config() if isinstance(value, kind) else _checked(label, dict, value)
        types = _SPECS[kind]
        return kind.from_config({
            key: v if key not in types or (key, v) == ("bandwidth", "auto")
            else _checked(f"{label}.{key}", types[key], v) for key, v in obj.items()})
    if kind is float:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool):
        name = _KIND_NAMES.get(kind, f"a {kind.__name__}")
        raise ValueError(f"{label} must be {name}, got {value!r}")
    return kind(value) if kind in (float, int) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; from_dict/to_dict read and write the
    JSON file through _SCHEMA, whose types construction checks."""

    kernel: KernelSpec = field(default_factory=KernelSpec)
    loss: LossSpec = field(default_factory=LossSpec)
    alpha: float = 0.1
    z_anchor: float = 0.0
    seed: int = 0
    n: int = 200
    noise_sd: float = 0.0
    method: str = "influence_function"
    data_csv: str | None = None
    grid_m: int = 512
    grid_lo: float | None = None
    grid_hi: float | None = None
    grid_margin: float = 0.5
    lambda_fixed: float | None = None
    lambda_c: float = DEFAULT_LAMBDA_C
    lambda_r: float = DEFAULT_LAMBDA_R
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    n_schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    sweep_repetitions: int = 3
    sweep_grid_m: int = 400001
    compare_repetitions: int = 50
    split_fraction: float = 0.5
    cross_folds: int = 5
    d1_fraction: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, _checked(*_FIELDS[f.name], value))
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 <= self.lambda_r < 1.0):
            raise ValueError(f"lambda rule exponent must lie in [0, 1), got {self.lambda_r}")
        if self.lambda_fixed is not None and self.lambda_fixed <= 0:
            raise ValueError("fixed lambda must be positive")
        if self.lambda_c <= 0:
            raise ValueError("lambda rule constant must be positive")
        if self.sweep_repetitions < 1 or self.compare_repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2 (one query row is split off)")
        if self.method not in REGION_METHODS:
            raise ValueError(f"method must be one of {REGION_METHODS}, got {self.method!r}")
        if not self.lambda_grid or any(l <= 0 for l in self.lambda_grid):
            raise ValueError("lambda_grid must be nonempty and positive")
        if not (0.0 < self.split_fraction < 1.0) or not (0.0 < self.d1_fraction < 1.0):
            raise ValueError("split fractions must lie in (0, 1)")
        if self.cross_folds < 2:
            raise ValueError("cross_folds must be >= 2")
        if self.grid_m < 2 or self.sweep_grid_m < 2:
            raise ValueError("grid sizes must be >= 2")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if (self.grid_lo is None) != (self.grid_hi is None):
            raise ValueError("grid.lo and grid.hi must be set together")
        if self.grid_lo is not None and not self.grid_lo < self.grid_hi:
            raise ValueError(f"grid.lo must be below grid.hi, got "
                             f"[{self.grid_lo}, {self.grid_hi}]")
        if self.grid_margin < 0:
            raise ValueError(f"grid.margin must be nonnegative, got {self.grid_margin}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kw: dict = {}
        groups = set(_SCHEMA) - {None}
        for group, keys in _SCHEMA.items():
            block = _checked(group or "config", dict,
                             raw if group is None else raw.get(group) or {})
            unknown = set(block) - set(keys) - (groups if group is None else set())
            if unknown:
                where = "config keys" if group is None else f"keys in {group!r}"
                raise ValueError(f"unknown {where}: {sorted(unknown)}")
            kw.update((name, block[key]) for key, (name, _) in keys.items()
                      if key in block)
        return cls(**kw)

    def to_dict(self) -> dict:
        out: dict = {}
        for group, keys in _SCHEMA.items():
            block = out if group is None else out.setdefault(group, {})
            for key, (name, _) in keys.items():
                value = getattr(self, name)
                block[key] = value.to_config() if type(value) in _SPECS else value
        rule = out["lambda_rule"]
        # a fixed lambda replaces the c * (n+1)^(-r) rule in the file
        if self.lambda_fixed is not None:
            del rule["c"], rule["r"]
        else:
            del rule["fixed"]
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def lambda_for(self, n_plus_1: int) -> float:
        if self.lambda_fixed is not None:
            return float(self.lambda_fixed)
        return float(self.lambda_c * n_plus_1 ** (-self.lambda_r))

    def grid_for(self, Y, m: int | None = None) -> YGrid:
        m = self.grid_m if m is None else m
        if self.grid_lo is not None:
            return YGrid(float(self.grid_lo), float(self.grid_hi), m)
        return YGrid.from_targets(Y, m=m, margin=self.grid_margin)


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Config from a JSON file (defaults when path is None), seed overridable."""
    if path is None:
        cfg = ExperimentConfig()
    else:
        with open(path) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def _file_meta(cfg: ExperimentConfig) -> dict:
    """The stamp every output file carries: config hash and version."""
    return {"config_hash": cfg.config_hash(), "version": VERSION}


def _write_meta(out: Path, cfg: ExperimentConfig, command: str, **extra) -> None:
    write_json(out / "meta.json", {"command": command, "config": cfg.to_dict(),
                                   **_file_meta(cfg), **extra})


def _write_region(out: Path, cfg: ExperimentConfig, curve, region, extras,
                  **json_extra) -> None:
    """region.csv and region.json of one curve, both stamped."""
    write_region_csv(out / "region.csv", curve, region, extras=extras,
                     meta=_file_meta(cfg))
    write_region_json(out / "region.json", region, cfg.alpha, cfg.method,
                      meta={**_file_meta(cfg), **json_extra})


def _ols_slope(ns, values) -> tuple[float, float, int]:
    """Least-squares slope and intercept of log(value) against log(n).

    Nonpositive or nonfinite values carry no slope information on the log
    scale and are dropped; the used-point count is reported alongside.
    """
    pts = [(math.log(n), math.log(v)) for n, v in zip(ns, values)
           if math.isfinite(v) and v > 0]
    if len(pts) < 2:
        return (float("nan"), float("nan"), len(pts))
    x, y = (np.asarray(col, dtype=float) for col in zip(*pts))
    slope, intercept = np.polyfit(x, y, 1)
    return (float(slope), float(intercept), len(pts))


def _dataset(cfg: ExperimentConfig, seed) -> tuple:
    """(X, Y, x_query, y_true) from the config's CSV or a fresh draw."""
    ds = load_csv(cfg.data_csv) if cfg.data_csv else friedman1(cfg.n, cfg.noise_sd, seed)
    return ds.split_query()


def cmd_gen_data(cfg: ExperimentConfig, out: Path) -> Path:
    ds = friedman1(cfg.n, cfg.noise_sd, cfg.seed)
    path = out / "data.csv"
    save_csv(path, ds, comment=_file_meta(cfg))
    _write_meta(out, cfg, "gen-data", dataset=ds.meta)
    return path


def _approx_extras(profile) -> dict:
    """Envelope columns appended to approximate curve CSVs."""
    extras = {"tau_test": profile.test_tau}
    if profile.rho1 is not None:
        extras["rho1"] = profile.rho1
    if profile.rho2 is not None:
        extras["rho2"] = profile.rho2
    return extras


def _pvalue_curve(cfg: ExperimentConfig, method: str, X, Y, x_query, y_true,
                  grid, lam, seed):
    """Dispatch a method name to its p-value curve (plus tau columns when
    the method carries envelopes); seed draws the split and cross folds."""
    if method == "full":
        return full_conformal_pvalues(X, Y, x_query, grid, lam, cfg.loss,
                                      cfg.kernel), None
    if method == "oracle":
        problem = z_anchored_problem(X, Y, x_query, y_true, lam, cfg.loss, cfg.kernel)
        return oracle_pvalues(problem, y_true, grid), None
    if method == "split":
        return split_pvalues(X, Y, x_query, grid, lam, cfg.loss, cfg.kernel,
                             cfg.split_fraction, seed=seed), None
    if method == "cross":
        return cross_pvalues(X, Y, x_query, grid, lam, cfg.loss, cfg.kernel,
                             cfg.cross_folds, seed=seed), None
    approx = ApproxMethod(method, cfg.z_anchor)
    result = approx_pvalue_curves(X, Y, x_query, grid, approx, lam,
                                  cfg.loss, cfg.kernel)
    return result.curve, _approx_extras(result.taus)


def cmd_region(cfg: ExperimentConfig, out: Path) -> dict:
    if cfg.method in APPROX_KINDS:
        smoothness_constants(cfg.loss)  # a loss without them fails before any work
    X, Y, x_query, y_true = _dataset(cfg, cfg.seed)
    grid = cfg.grid_for(Y)
    lam = cfg.lambda_for(Y.size + 1)
    curve, extras = _pvalue_curve(cfg, cfg.method, X, Y, x_query, y_true, grid,
                                  lam, (cfg.seed, 1))
    region = region_from_curve(curve, cfg.alpha, side="upper")
    _write_region(out, cfg, curve, region, extras)
    _write_meta(out, cfg, "region", lam=lam,
                region={"measure": region.measure,
                        "intervals": [list(iv) for iv in region.intervals]})
    return {"region": region, "curve": curve, "lam": lam}


def cmd_sweep(cfg: ExperimentConfig, out: Path, desk: bool = False) -> dict:
    """Thickness gap and theoretical bound across the n-schedule.

    One row per (n, repetition, method); the three methods share one base
    fit, and each row's seconds count that fit plus the method's own
    work. A failed fit is recorded in all three rows, not raised. Slopes
    come from every successful row with a positive value.
    """
    schedule = DESK_SCHEDULE if desk else cfg.n_schedule
    if len(schedule) < 4:
        raise ValueError("the sweep needs a schedule with at least 4 points")
    constants = smoothness_constants(cfg.loss)
    rows = []
    for n in schedule:
        lam = cfg.lambda_for(n + 1)
        for rep in range(cfg.sweep_repetitions):
            ds = friedman1(n + 1, cfg.noise_sd, seed=(cfg.seed, n, rep))
            X, Y, x_query, _ = ds.split_query()
            grid = cfg.grid_for(Y, m=cfg.sweep_grid_m)
            start = time.perf_counter()
            try:
                base = base_fit(X, Y, x_query, cfg.z_anchor, lam, cfg.loss,
                                cfg.kernel)
            except SolverError as exc:
                seconds = time.perf_counter() - start
                rows.extend([n, rep, kind, lam, float("nan"), float("nan"), "",
                             seconds, f"solver_error: {exc}"]
                            for kind in APPROX_KINDS)
                continue
            fit_seconds = time.perf_counter() - start
            for kind in APPROX_KINDS:
                start = time.perf_counter()
                method = ApproxMethod(kind, cfg.z_anchor)
                result = approx_regions(base, grid, method, cfg.alpha)
                delta = thickness_gap(result.upper, result.lower)
                bound = thickness_bound(method, base.problem.gram, constants,
                                        lam, result.sup_tau)
                seconds = fit_seconds + time.perf_counter() - start
                rows.append([n, rep, kind, lam, delta, bound.value,
                             "" if bound.refined is None else str(bound.refined),
                             seconds, "ok"])
    header = ["n", "rep", "method", "lam", "delta", "bound", "bound_refined",
              "seconds", "status"]
    write_table(out / "sweep.csv", header, rows, _file_meta(cfg))

    ok = [r for r in rows if r[8] == "ok"]
    summary = []
    for n in schedule:
        for kind in APPROX_KINDS:
            grp = [r for r in ok if r[0] == n and r[2] == kind]
            if grp:
                summary.append([n, kind, grp[0][3],
                                float(np.mean([r[4] for r in grp])),
                                float(np.mean([r[5] for r in grp])),
                                float(np.mean([r[7] for r in grp])), len(grp)])
    write_table(out / "sweep_summary.csv",
                ["n", "method", "lam", "mean_delta", "mean_bound",
                 "mean_seconds", "reps_ok"], summary, _file_meta(cfg))

    slopes = {}
    slope_rows = []
    for kind in APPROX_KINDS:
        grp = [r for r in ok if r[2] == kind]
        for quantity, col in (("delta", 4), ("bound", 5)):
            slope, intercept, used = _ols_slope([r[0] for r in grp],
                                                [r[col] for r in grp])
            slopes[(kind, quantity)] = slope
            slope_rows.append([kind, quantity, slope, intercept, used])
    write_table(out / "sweep_slopes.csv",
                ["method", "quantity", "slope", "intercept", "points"],
                slope_rows, _file_meta(cfg))
    _write_meta(out, cfg, "sweep", desk=desk, schedule=list(schedule))
    return {"rows": rows, "summary": summary, "slopes": slopes}


def cmd_compare(cfg: ExperimentConfig, out: Path) -> dict:
    """Per-repetition region length, coverage, and time for every method,
    with times normalized by the single-fit benchmark's. The approximate
    methods share one base fit per repetition, and a failed fit fails all
    three; the oracle fit re-anchors the base fit's problem at the true
    output, sharing its Gram matrix and eigendecomposition. Each row's
    seconds count the shared work it uses plus its own."""
    smoothness_constants(cfg.loss)  # a loss without them fails before any work
    rows = []
    for rep in range(cfg.compare_repetitions):
        ds = friedman1(cfg.n, cfg.noise_sd, seed=(cfg.seed, rep))
        X, Y, x_query, y_true = ds.split_query()
        grid = cfg.grid_for(Y)
        lam = cfg.lambda_for(Y.size + 1)
        start = time.perf_counter()
        problem = z_anchored_problem(X, Y, x_query, cfg.z_anchor, lam,
                                     cfg.loss, cfg.kernel)
        problem.gram.eigenpairs  # decomposed here, so it is timed as set-up
        setup_seconds = time.perf_counter() - start
        try:
            base, fit_error = fit(problem), None
        except SolverError as exc:
            base, fit_error = None, exc
        fit_seconds = time.perf_counter() - start
        # shared seconds each method is charged: the approximate ones pay
        # the set-up and the base fit, the oracle the set-up alone
        charged = {"split": 0.0, "oracle": setup_seconds}
        rep_rows = {}
        for name, method in COMPARE_METHODS.items():
            start = time.perf_counter()
            try:
                if method in APPROX_KINDS:
                    if fit_error is not None:
                        raise fit_error
                    region = approx_regions(base, grid, ApproxMethod(method, cfg.z_anchor),
                                            cfg.alpha).upper
                else:
                    curve = (oracle_pvalues(problem, y_true, grid) if method == "oracle"
                             else _pvalue_curve(cfg, method, X, Y, x_query, y_true, grid,
                                                lam, (cfg.seed, rep, 1))[0])
                    region = region_from_curve(curve, cfg.alpha, "upper")
                length, covered, status = (region.measure,
                                           int(region.contains(y_true)), "ok")
            except SolverError as exc:
                length, covered, status = float("nan"), 0, f"solver_error: {exc}"
            seconds = time.perf_counter() - start + charged.get(method, fit_seconds)
            rep_rows[name] = [rep, name, length, covered, seconds, float("nan"),
                              status]
        oracle_row = rep_rows["OracleCP"]
        if oracle_row[6] == "ok" and oracle_row[4] > 0:
            for name in COMPARE_METHODS:
                if rep_rows[name][6] == "ok":
                    rep_rows[name][5] = rep_rows[name][4] / oracle_row[4]
        rows.extend(rep_rows[name] for name in COMPARE_METHODS)
    header = ["rep", "method", "length", "covered", "seconds", "rel_time", "status"]
    write_table(out / "compare.csv", header, rows, _file_meta(cfg))

    summary = []
    stats = {}
    for name in COMPARE_METHODS:
        grp = [r for r in rows if r[1] == name and r[6] == "ok"]
        if not grp:
            continue
        lengths = np.asarray([r[2] for r in grp])
        rel = np.asarray([r[5] for r in grp])
        rel = rel[np.isfinite(rel)]
        record = {"mean_length": float(lengths.mean()),
                  "median_length": float(np.median(lengths)),
                  "coverage": float(np.mean([r[3] for r in grp])),
                  "mean_seconds": float(np.mean([r[4] for r in grp])),
                  "mean_rel_time": float(rel.mean()) if rel.size else float("nan"),
                  "reps_ok": len(grp)}
        stats[name] = record
        summary.append([name, record["mean_length"], record["median_length"],
                        record["coverage"], record["mean_seconds"],
                        record["mean_rel_time"], record["reps_ok"]])
    write_table(out / "compare_summary.csv",
                ["method", "mean_length", "median_length", "coverage",
                 "mean_seconds", "mean_rel_time", "reps_ok"],
                summary, _file_meta(cfg))
    _write_meta(out, cfg, "compare")
    return {"rows": rows, "stats": stats}


def select_lambda_core(lambdas, measure_fn) -> tuple[float, list[float]]:
    """Pick the regularization weight minimizing measure_fn, ties going to
    the largest weight; returns the choice and every average measure."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("need at least one candidate lambda")
    averages = [float(measure_fn(lam)) for lam in lambdas]
    best = min(averages)
    chosen = max(lam for lam, avg in zip(lambdas, averages) if avg == best)
    return float(chosen), averages


def cmd_select_lambda(cfg: ExperimentConfig, out: Path) -> dict:
    """Three-step regularization choice.

    The data (minus the query row) splits into two parts. On the first,
    every point in turn becomes the query of an upper approximate region
    built from the remaining points; the candidate minimizing the average
    region measure wins, ties to the largest. The final region uses the
    second part as training data. Only the three approximate methods are
    eligible: the procedure scores candidates by upper-region measure.
    """
    if cfg.method not in APPROX_KINDS:
        raise ValueError(f"select-lambda needs an approximate method, got {cfg.method!r}")
    smoothness_constants(cfg.loss)  # a loss without them fails before any work
    X, Y, x_query, y_true = _dataset(cfg, cfg.seed)
    n = Y.size
    if n < 4:
        raise ValueError("select-lambda needs at least 4 data rows")
    rng = np.random.default_rng((cfg.seed, 101))
    perm = rng.permutation(n)
    n1 = min(max(int(round(cfg.d1_fraction * n)), 2), n - 1)
    d1_idx, d2_idx = perm[:n1], perm[n1:]
    method = ApproxMethod(cfg.method, cfg.z_anchor)
    lambdas = cfg.lambda_grid
    measures = np.empty((len(lambdas), n1))
    all_full = np.ones(len(lambdas), dtype=bool)
    for j in range(n1):
        keep = np.delete(d1_idx, j)
        X_keep, Y_keep, x_j = X[keep], Y[keep], X[d1_idx[j]]
        grid = cfg.grid_for(Y_keep)
        # one Gram matrix and eigendecomposition serve every candidate
        problem = z_anchored_problem(X_keep, Y_keep, x_j, cfg.z_anchor,
                                     lambdas[0], cfg.loss, cfg.kernel)
        for i, lam in enumerate(lambdas):
            base = fit(replace(problem, lam=lam))
            with warnings.catch_warnings():
                # degenerate full-grid regions are expected while scanning
                # oversized candidates; they surface in the summary instead
                # (the fit stays outside, so its own warnings still show)
                warnings.simplefilter("ignore", RuntimeWarning)
                region = approx_regions(base, grid, method, cfg.alpha).upper
            measures[i, j] = region.measure
            all_full[i] &= bool(region.mask.all())
    loo_average = dict(zip(lambdas, (float(row.mean()) for row in measures)))

    chosen, averages = select_lambda_core(lambdas, loo_average.__getitem__)
    if all_full.all():
        warnings.warn("every candidate lambda produced only full-grid regions; "
                      "the tie rule picked the largest lambda", RuntimeWarning)

    grid2 = cfg.grid_for(Y[d2_idx])
    result = approx_pvalue_curves(X[d2_idx], Y[d2_idx], x_query, grid2, method,
                                  chosen, cfg.loss, cfg.kernel)
    region = region_from_curve(result.curve, cfg.alpha, "upper")
    write_table(out / "selection.csv",
                ["lam", "avg_upper_measure", "all_regions_full"],
                [[lam, avg, str(full)]
                 for lam, avg, full in zip(lambdas, averages, all_full.tolist())],
                _file_meta(cfg))
    _write_region(out, cfg, result.curve, region, _approx_extras(result.taus),
                  lam=chosen)
    _write_meta(out, cfg, "select-lambda", lam_chosen=chosen,
                averages=dict(zip(map(str, lambdas), averages)))
    return {"lam": chosen, "averages": averages, "region": region,
            "y_true": y_true}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apxcp",
        description="Approximate full conformal prediction experiments")
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen-data": "write a synthetic dataset CSV",
        "region": "build one prediction region",
        "sweep": "thickness gap versus sample size",
        "compare": "length/coverage/time across methods",
        "select-lambda": "data-split regularization choice",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply when omitted)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
        sp.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (created if missing)")
        if name == "sweep":
            sp.add_argument("--desk", action="store_true",
                            help="small-n preset for quick runs (n schedule 32 to 256)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, seed_override=args.seed)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "gen-data":
        path = cmd_gen_data(cfg, out)
        print(f"wrote {path}")
    elif args.command == "region":
        result = cmd_region(cfg, out)
        region = result["region"]
        print(f"method={cfg.method} measure={region.measure!r} "
              f"intervals={len(region.intervals)} -> {out / 'region.json'}")
    elif args.command == "sweep":
        result = cmd_sweep(cfg, out, desk=args.desk)
        for (kind, quantity), slope in sorted(result["slopes"].items()):
            print(f"slope[{kind}/{quantity}] = {slope:.3f}")
        print(f"wrote {out / 'sweep.csv'}")
    elif args.command == "compare":
        result = cmd_compare(cfg, out)
        for name, rec in result["stats"].items():
            print(f"{name}: mean_length={rec['mean_length']:.3f} "
                  f"coverage={rec['coverage']:.3f} rel_time={rec['mean_rel_time']:.2f}")
        print(f"wrote {out / 'compare.csv'}")
    else:
        result = cmd_select_lambda(cfg, out)
        print(f"lambda={result['lam']} measure={result['region'].measure!r} "
              f"-> {out / 'region.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
