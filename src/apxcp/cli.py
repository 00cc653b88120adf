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
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from .approx import (APPROX_KINDS, ApproxMethod, approx_pvalue_curves,
                     approx_regions, base_fit, thickness_bound, thickness_gap)
from .conformal import (YGrid, cross_pvalues, full_conformal_pvalues, oracle_pvalues,
                        region_from_curve, split_pvalues, write_region_csv,
                        write_region_json)
from .data_io import (check_int, check_real, friedman1, load_csv, save_csv,
                      write_json, write_table)
from .kernels import KernelSpec
from .losses import LossSpec, smoothness_constants
from .solver import SolverError, fit, z_anchored_problem

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
    """k log-spaced integers from lo to hi, rounded, duplicates dropped.
    dict.fromkeys, not np.unique, which loads numpy.ma on first use."""
    return tuple(dict.fromkeys(int(v) for v in np.round(np.geomspace(lo, hi, k))))


DEFAULT_SCHEDULE = _log_ints(128, 1024, 15)
DESK_SCHEDULE = _log_ints(32, 256, 8)

# range rules: (predicate, phrase), the phrase completing "<key> ..."
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_2 = (lambda v: v >= 2, "must be >= 2")

_KIND_NAMES = {str: "a string", dict: "an object"}


def _checked(label: str, kind, value, rule=None):
    """value if it has the given type and keeps the rule, else a
    ValueError naming label. Numbers come back as float or int, so equal
    configs hash equally; a list type gives a tuple of its items, each
    checked against the rule. A spec type takes the spec or its JSON
    object and rebuilds the spec, which checks and normalises its own
    fields: label goes in front of its ValueError (label.field ...), a
    missing key takes its default, and an unknown one raises TypeError."""
    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{label} must be a list, got {value!r}")
        return tuple(_checked(f"{label}[{i}]", kind[0], v, rule)
                     for i, v in enumerate(value))
    if kind in (float, int):
        value = (check_real if kind is float else check_int)(label, value)
    elif is_dataclass(kind):
        obj = asdict(value) if isinstance(value, kind) else _checked(label, dict, value)
        try:
            return kind(**obj)
        except ValueError as exc:
            raise ValueError(f"{label}.{exc}") from None
    elif not isinstance(value, kind):
        raise ValueError(f"{label} must be {_KIND_NAMES[kind]}, got {value!r}")
    if rule is not None and not rule[0](value):
        raise ValueError(f"{label} {rule[1]}, got {value!r}")
    return value


def _key(path: str, kind, rule=None, **default):
    """An ExperimentConfig field declared with its JSON key path ("grid.m"
    in group "grid", a bare key at the top level), its type, its range
    rule or None, and default= or default_factory=."""
    return field(metadata={"key": path, "kind": kind, "rule": rule}, **default)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings. Each field is declared once, by _key,
    with its key in the JSON file, its type and its range rule;
    construction checks every field against its type, then its rule, and
    from_dict/to_dict read and write the file through the key paths."""

    # Types: float and int go through data_io.check_real and check_int,
    # (float,) and (int,) are a list of them with the rule applied to each
    # item, and a spec type is checked by the spec itself; None passes
    # where it is the field's default. compare.split_fraction also drives
    # `region --method split`, and compare.cross_folds drives only
    # `region --method cross`: cmd_compare runs no cross-conformal
    # (renaming the keys would change every hash).
    kernel: KernelSpec = _key("kernel", KernelSpec, default_factory=KernelSpec)
    loss: LossSpec = _key("loss", LossSpec, default_factory=LossSpec)
    alpha: float = _key("alpha", float, _OPEN_UNIT, default=0.1)
    z_anchor: float = _key("z_anchor", float, default=0.0)
    seed: int = _key("seed", int, _NONNEGATIVE, default=0)
    n: int = _key("n", int, _AT_LEAST_2, default=200)
    noise_sd: float = _key("noise_sd", float, _NONNEGATIVE, default=0.0)
    method: str = _key("method", str, (lambda v: v in REGION_METHODS,
                                       f"must be one of {REGION_METHODS}"),
                       default="influence_function")
    data_csv: str | None = _key("data_csv", str, default=None)
    grid_m: int = _key("grid.m", int, _AT_LEAST_2, default=512)
    grid_lo: float | None = _key("grid.lo", float, default=None)
    grid_hi: float | None = _key("grid.hi", float, default=None)
    grid_margin: float = _key("grid.margin", float, _NONNEGATIVE, default=0.5)
    lambda_fixed: float | None = _key("lambda_rule.fixed", float, _POSITIVE, default=None)
    lambda_c: float = _key("lambda_rule.c", float, _POSITIVE, default=DEFAULT_LAMBDA_C)
    lambda_r: float = _key("lambda_rule.r", float, (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
                           default=DEFAULT_LAMBDA_R)
    lambda_grid: tuple[float, ...] = _key("lambda_grid", (float,), _POSITIVE,
                                          default=DEFAULT_LAMBDA_GRID)
    n_schedule: tuple[int, ...] = _key("n_schedule", (int,), _AT_LEAST_1,
                                       default=DEFAULT_SCHEDULE)
    sweep_repetitions: int = _key("sweep.repetitions", int, _AT_LEAST_1, default=3)
    sweep_grid_m: int = _key("sweep.grid_m", int, _AT_LEAST_2, default=400001)
    compare_repetitions: int = _key("compare.repetitions", int, _AT_LEAST_1, default=50)
    split_fraction: float = _key("compare.split_fraction", float, _OPEN_UNIT, default=0.5)
    cross_folds: int = _key("compare.cross_folds", int, _AT_LEAST_2, default=5)
    d1_fraction: float = _key("select.d1_fraction", float, _OPEN_UNIT, default=0.5)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                meta = f.metadata
                object.__setattr__(self, f.name, _checked(meta["key"], meta["kind"],
                                                          value, meta["rule"]))
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be nonempty")
        repeated = [n for i, n in enumerate(self.n_schedule) if n in self.n_schedule[:i]]
        if repeated:
            # one problem run again would pose as more sample sizes in the slopes
            raise ValueError(f"n_schedule repeats {repeated[0]}")
        if (self.grid_lo is None) != (self.grid_hi is None):
            raise ValueError("grid.lo and grid.hi must be set together")
        if self.grid_lo is not None and not self.grid_lo < self.grid_hi:
            raise ValueError(f"grid.lo must be below grid.hi, got "
                             f"[{self.grid_lo}, {self.grid_hi}]")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        # group ("" at the top level) -> key within it -> field name
        groups: dict[str, dict[str, str]] = {}
        for f in fields(cls):
            group, _, key = f.metadata["key"].rpartition(".")
            groups.setdefault(group, {})[key] = f.name
        top = _checked("config", dict, raw)
        kw: dict = {}
        for group, keys in groups.items():
            # an absent group takes its defaults; a present one must be an object
            block = _checked(group, dict, top.get(group, {})) if group else top
            unknown = set(block) - set(keys) - (set() if group else set(groups) - {""})
            if unknown:
                where = f"keys in {group!r}" if group else "config keys"
                raise ValueError(f"unknown {where}: {sorted(unknown)}")
            kw.update((name, block[key]) for key, name in keys.items() if key in block)
        return cls(**kw)

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            group, _, key = f.metadata["key"].rpartition(".")
            value = getattr(self, f.name)
            block = out.setdefault(group, {}) if group else out
            block[key] = asdict(value) if is_dataclass(value) else value
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
            return YGrid(self.grid_lo, self.grid_hi, m)
        return YGrid.from_targets(Y, m=m, margin=self.grid_margin)


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs, refusing a repeated key,
    of which json.load would keep the last value silently."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeats key {key!r}")
        obj[key] = value
    return obj


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Config from a JSON file (defaults when path is None), seed overridable."""
    if path is None:
        cfg = ExperimentConfig()
    else:
        with open(path) as fh:
            try:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as err:
                raise ValueError(f"config file {path} is not valid JSON: {err}") from None
            except ValueError as err:
                raise ValueError(f"config file {path} {err}") from None
        cfg = ExperimentConfig.from_dict(raw)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def _file_meta(cfg: ExperimentConfig) -> dict:
    """The stamp every output file carries: config hash and version."""
    return {"config_hash": cfg.config_hash(), "version": VERSION}


def _write_meta(out: Path, cfg: ExperimentConfig, command: str, **extra) -> None:
    write_json(out / "meta.json", {"command": command, "config": cfg.to_dict(),
                                   **_file_meta(cfg), **extra})


def _warn_clipped(flags) -> None:
    """The command's one warning about its regions that reach an end of
    the grid, flags listing each region's PredictionRegion.clipped."""
    if any(flags):
        warnings.warn(f"{sum(flags)} of {len(flags)} prediction region(s) touch(es) "
                      "the grid boundary and may be clipped", RuntimeWarning)


def _write_region(out: Path, cfg: ExperimentConfig, curve, region, extras,
                  **json_extra) -> None:
    """region.csv and region.json of one curve, both stamped, with the
    clipping warning when the region touches the grid boundary."""
    _warn_clipped([region.clipped])
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


def _outcomes(run, keys, charged: float = 0.0) -> dict:
    """One outcome per key from one call of run, which returns a value per
    key, in order: key -> (its value, or the SolverError that stopped run,
    and the seconds run took plus charged, the same for every key)."""
    start = time.perf_counter()
    try:
        values = run()
    except SolverError as exc:
        values = [exc] * len(keys)
    seconds = time.perf_counter() - start + charged
    return {key: (value, seconds) for key, value in zip(keys, values)}


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

    One row per (n, repetition, method), all built from one outcome per
    problem: per method its gap and bound, or the fit's SolverError,
    recorded in all three rows, not raised. The three methods share one
    base fit and one joint scan of the grid, and each row's seconds count
    both, the same for the three rows. Slopes come from every successful
    row with a positive value. One warning counts the upper regions that
    touch the grid boundary.
    """
    schedule = DESK_SCHEDULE if desk else cfg.n_schedule
    if len(schedule) < 4:
        raise ValueError("the sweep needs a schedule with at least 4 points")
    constants = smoothness_constants(cfg.loss)
    rows, clipped = [], []
    for n in schedule:
        lam = cfg.lambda_for(n + 1)
        for rep in range(cfg.sweep_repetitions):
            ds = friedman1(n + 1, cfg.noise_sd, seed=(cfg.seed, n, rep))
            X, Y, x_query, _ = ds.split_query()
            grid = cfg.grid_for(Y, m=cfg.sweep_grid_m)
            # base and result outlive the timed block until the next problem
            # rebinds them: freed with it, they let the C heap trim its top, and
            # sweep-scan page-faulted them back in (2500 vs 800 faults/instance)
            start = time.perf_counter()
            try:
                base = base_fit(X, Y, x_query, cfg.z_anchor, lam, cfg.loss, cfg.kernel)
                cells = []
                for kind, result in zip(APPROX_KINDS, approx_regions(base, grid, APPROX_KINDS,
                                                                     cfg.alpha)):
                    delta = thickness_gap(result.upper, result.lower)
                    clipped.append(result.upper.clipped)
                    bound = thickness_bound(kind, base.problem.gram, constants,
                                            lam, result.sup_tau)
                    cells.append((delta, bound.value, "" if bound.refined is None
                                  else str(bound.refined), "ok"))
            except SolverError as exc:
                cells = [(float("nan"), float("nan"), "",
                          f"solver_error: {exc}")] * len(APPROX_KINDS)
            seconds = time.perf_counter() - start
            rows.extend([n, rep, kind, lam, gap, value, refined, seconds, status]
                        for kind, (gap, value, refined, status) in zip(APPROX_KINDS, cells))
    _warn_clipped(clipped)
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
    with times normalized by the single-fit benchmark's. Every row comes
    from one outcome per method (_outcomes): its upper region or the
    SolverError that stopped it, and its seconds. The approximate methods
    share one base fit and one joint scan, and a failed fit fails all
    three; the oracle refits the base fit's problem at the true output.
    Each row's seconds count the shared work it uses plus its own: the
    approximate rows read the same seconds, and the oracle row is charged
    the Gram build as set-up. One warning counts the ok rows' regions that
    touch the grid boundary."""
    smoothness_constants(cfg.loss)  # a loss without them fails before any work
    rows, clipped = [], []
    for rep in range(cfg.compare_repetitions):
        ds = friedman1(cfg.n, cfg.noise_sd, seed=(cfg.seed, rep))
        X, Y, x_query, y_true = ds.split_query()
        grid = cfg.grid_for(Y)
        lam = cfg.lambda_for(Y.size + 1)
        start = time.perf_counter()
        problem = z_anchored_problem(X, Y, x_query, cfg.z_anchor, lam,
                                     cfg.loss, cfg.kernel)
        setup_seconds = time.perf_counter() - start
        # the approximate methods share the set-up, the base fit and one
        # joint scan; the oracle pays the set-up, split nothing shared
        outcomes = _outcomes(
            lambda: [result.upper for result in approx_regions(
                fit(problem), grid, APPROX_KINDS, cfg.alpha)],
            APPROX_KINDS, setup_seconds)
        outcomes |= _outcomes(
            lambda: [region_from_curve(split_pvalues(
                X, Y, x_query, grid, lam, cfg.loss, cfg.kernel, cfg.split_fraction,
                seed=(cfg.seed, rep, 1)), cfg.alpha)], ["split"])
        outcomes |= _outcomes(
            lambda: [region_from_curve(oracle_pvalues(problem, y_true, grid),
                                       cfg.alpha)], ["oracle"], setup_seconds)
        oracle, oracle_seconds = outcomes["oracle"]
        timed = not isinstance(oracle, SolverError) and oracle_seconds > 0
        for name, method in COMPARE_METHODS.items():
            region, seconds = outcomes[method]
            if isinstance(region, SolverError):
                rows.append([rep, name, float("nan"), 0, seconds, float("nan"),
                             f"solver_error: {region}"])
            else:
                clipped.append(region.clipped)
                rows.append([rep, name, region.measure, int(region.contains(y_true)),
                             seconds, seconds / oracle_seconds if timed else float("nan"),
                             "ok"])
    _warn_clipped(clipped)
    header = ["rep", "method", "length", "covered", "seconds", "rel_time", "status"]
    write_table(out / "compare.csv", header, rows, _file_meta(cfg))

    # one record per method that had an ok row: its fields are the
    # summary's columns, in order
    fields = ("mean_length", "median_length", "coverage", "mean_seconds",
              "mean_rel_time", "reps_ok")
    stats = {}
    for name in COMPARE_METHODS:
        grp = [r for r in rows if r[1] == name and r[6] == "ok"]
        if not grp:
            continue
        lengths = np.asarray([r[2] for r in grp])
        rel = np.asarray([r[5] for r in grp])
        rel = rel[np.isfinite(rel)]
        stats[name] = dict(zip(fields, (
            float(lengths.mean()), float(np.median(lengths)),
            float(np.mean([r[3] for r in grp])), float(np.mean([r[4] for r in grp])),
            float(rel.mean()) if rel.size else float("nan"), len(grp))))
    write_table(out / "compare_summary.csv", ["method", *fields],
                [[name, *record.values()] for name, record in stats.items()],
                _file_meta(cfg))
    _write_meta(out, cfg, "compare")
    return {"rows": rows, "stats": stats}


def cmd_select_lambda(cfg: ExperimentConfig, out: Path) -> dict:
    """Three-step regularization choice.

    The data (minus the query row) splits into two parts. On the first,
    every point in turn becomes the query of an upper approximate region
    built from the remaining points; the candidate minimizing the average
    region measure wins, ties to the largest. The final region uses the
    second part as training data. Only the three approximate methods are
    eligible: the procedure scores candidates by upper-region measure.
    Only the final region is reported when it touches the grid boundary;
    the all_regions_full column sums up the leave-one-out regions.
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
    lambdas = cfg.lambda_grid
    measures = np.empty((len(lambdas), n1))
    all_full = np.ones(len(lambdas), dtype=bool)
    for j in range(n1):
        keep = np.delete(d1_idx, j)
        X_keep, Y_keep, x_j = X[keep], Y[keep], X[d1_idx[j]]
        grid = cfg.grid_for(Y_keep)
        # one Gram matrix serves every candidate
        problem = z_anchored_problem(X_keep, Y_keep, x_j, cfg.z_anchor,
                                     lambdas[0], cfg.loss, cfg.kernel)
        for i, lam in enumerate(lambdas):
            base = fit(replace(problem, lam=lam))
            region = approx_regions(base, grid, [cfg.method], cfg.alpha)[0].upper
            measures[i, j] = region.measure
            all_full[i] &= bool(region.mask.all())
    averages = [float(row.mean()) for row in measures]
    best = min(averages)
    chosen = float(max(lam for lam, avg in zip(lambdas, averages) if avg == best))
    if all_full.all():
        warnings.warn("every candidate lambda produced only full-grid regions; "
                      "the tie rule picked the largest lambda", RuntimeWarning)

    grid2 = cfg.grid_for(Y[d2_idx])
    curve, extras = _pvalue_curve(cfg, cfg.method, X[d2_idx], Y[d2_idx], x_query,
                                  y_true, grid2, chosen, None)
    region = region_from_curve(curve, cfg.alpha, "upper")
    write_table(out / "selection.csv",
                ["lam", "avg_upper_measure", "all_regions_full"],
                [[lam, avg, str(full)]
                 for lam, avg, full in zip(lambdas, averages, all_full.tolist())],
                _file_meta(cfg))
    _write_region(out, cfg, curve, region, extras, lam=chosen)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    out: Path = args.out
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, TypeError, ValueError) as err:
        # a config that cannot be read or fails a rule, or an --out that
        # cannot be made a directory, is a usage error: usage line and
        # message on stderr, exit code 2
        parser.error(str(err))
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
