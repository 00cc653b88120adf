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
import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from .approx import (APPROX_KINDS, ApproxMethod, approx_pvalue_curves,
                     thickness_bound, thickness_gap)
from .conformal import (YGrid, cross_pvalues, full_conformal_pvalues,
                        oracle_pvalues, region_from_curve, split_pvalues,
                        write_region_csv, write_region_json)
from .data_io import friedman1, load_csv, save_csv
from .kernels import KernelSpec
from .losses import LossSpec, smoothness_constants
from .solver import SolverError

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; from_dict/to_dict mirror the JSON file."""

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
        raw = dict(raw)
        kw: dict = {}

        def pull(group: str, mapping: dict[str, str]) -> None:
            block = raw.pop(group, None)
            if block is None:
                return
            unknown = set(block) - set(mapping)
            if unknown:
                raise ValueError(f"unknown keys in {group!r}: {sorted(unknown)}")
            for key, target in mapping.items():
                if key in block:
                    kw[target] = block[key]

        if "kernel" in raw:
            kw["kernel"] = KernelSpec.from_config(raw.pop("kernel"))
        if "loss" in raw:
            kw["loss"] = LossSpec.from_config(raw.pop("loss"))
        pull("grid", {"m": "grid_m", "lo": "grid_lo", "hi": "grid_hi",
                      "margin": "grid_margin"})
        pull("lambda_rule", {"fixed": "lambda_fixed", "c": "lambda_c",
                             "r": "lambda_r"})
        pull("sweep", {"repetitions": "sweep_repetitions", "grid_m": "sweep_grid_m"})
        pull("compare", {"repetitions": "compare_repetitions",
                         "split_fraction": "split_fraction",
                         "cross_folds": "cross_folds"})
        pull("select", {"d1_fraction": "d1_fraction"})
        for key in ("alpha", "z_anchor", "seed", "n", "noise_sd", "method",
                    "data_csv", "lambda_grid", "n_schedule"):
            if key in raw:
                kw[key] = raw.pop(key)
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        if "lambda_grid" in kw:
            kw["lambda_grid"] = tuple(float(l) for l in kw["lambda_grid"])
        if "n_schedule" in kw:
            kw["n_schedule"] = tuple(int(v) for v in kw["n_schedule"])
        return cls(**kw)

    def to_dict(self) -> dict:
        rule: dict = {"fixed": self.lambda_fixed} if self.lambda_fixed is not None \
            else {"c": self.lambda_c, "r": self.lambda_r}
        return {
            "kernel": self.kernel.to_config(),
            "loss": self.loss.to_config(),
            "alpha": self.alpha,
            "z_anchor": self.z_anchor,
            "seed": self.seed,
            "n": self.n,
            "noise_sd": self.noise_sd,
            "method": self.method,
            "data_csv": self.data_csv,
            "grid": {"m": self.grid_m, "lo": self.grid_lo, "hi": self.grid_hi,
                     "margin": self.grid_margin},
            "lambda_rule": rule,
            "lambda_grid": list(self.lambda_grid),
            "n_schedule": list(self.n_schedule),
            "sweep": {"repetitions": self.sweep_repetitions,
                      "grid_m": self.sweep_grid_m},
            "compare": {"repetitions": self.compare_repetitions,
                        "split_fraction": self.split_fraction,
                        "cross_folds": self.cross_folds},
            "select": {"d1_fraction": self.d1_fraction},
        }

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


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _write_table(path, header, rows, comment: str | None) -> None:
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_meta(out: Path, cfg: ExperimentConfig, command: str, **extra) -> None:
    meta = {"command": command, "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(), "version": VERSION}
    meta.update(extra)
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _stamp(cfg: ExperimentConfig) -> str:
    return f"config_hash={cfg.config_hash()} version={VERSION}"


def _file_meta(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "version": VERSION}


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
    save_csv(path, ds, comment=_stamp(cfg))
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
        return oracle_pvalues(X, Y, x_query, y_true, grid, lam, cfg.loss,
                              cfg.kernel), None
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
    X, Y, x_query, y_true = _dataset(cfg, cfg.seed)
    grid = cfg.grid_for(Y)
    lam = cfg.lambda_for(Y.size + 1)
    curve, extras = _pvalue_curve(cfg, cfg.method, X, Y, x_query, y_true, grid,
                                  lam, (cfg.seed, 1))
    region = region_from_curve(curve, cfg.alpha, side="upper")
    write_region_csv(out / "region.csv", curve, region, extras=extras,
                     meta=_file_meta(cfg))
    write_region_json(out / "region.json", region, cfg.alpha, cfg.method,
                      meta=_file_meta(cfg))
    _write_meta(out, cfg, "region", lam=lam,
                region={"measure": region.measure,
                        "intervals": [list(iv) for iv in region.intervals]})
    return {"region": region, "curve": curve, "lam": lam}


def cmd_sweep(cfg: ExperimentConfig, out: Path, desk: bool = False) -> dict:
    """Thickness gap and theoretical bound across the n-schedule.

    One row per (n, repetition, method); failures are recorded, not
    raised. Slopes come from every successful row with a positive value.
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
            for kind in APPROX_KINDS:
                method = ApproxMethod(kind, cfg.z_anchor)
                start = time.perf_counter()
                try:
                    result = approx_pvalue_curves(X, Y, x_query, grid, method,
                                                  lam, cfg.loss, cfg.kernel)
                    upper = region_from_curve(result.curve, cfg.alpha, "upper")
                    lower = region_from_curve(result.curve, cfg.alpha, "lower")
                    delta = thickness_gap(upper, lower)
                    bound = thickness_bound(method, result.base.problem.gram,
                                            constants, lam, result.taus.sup_tau())
                    seconds = time.perf_counter() - start
                    rows.append([n, rep, kind, lam, delta, bound.value,
                                 "" if bound.refined is None else str(bound.refined),
                                 seconds, "ok"])
                except SolverError as exc:
                    seconds = time.perf_counter() - start
                    rows.append([n, rep, kind, lam, float("nan"), float("nan"),
                                 "", seconds, f"solver_error: {exc}"])
    header = ["n", "rep", "method", "lam", "delta", "bound", "bound_refined",
              "seconds", "status"]
    _write_table(out / "sweep.csv", header, rows, _stamp(cfg))

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
    _write_table(out / "sweep_summary.csv",
                 ["n", "method", "lam", "mean_delta", "mean_bound",
                  "mean_seconds", "reps_ok"], summary, _stamp(cfg))

    slopes = {}
    slope_rows = []
    for kind in APPROX_KINDS:
        grp = [r for r in ok if r[2] == kind]
        for quantity, col in (("delta", 4), ("bound", 5)):
            slope, intercept, used = _ols_slope([r[0] for r in grp],
                                                [r[col] for r in grp])
            slopes[(kind, quantity)] = slope
            slope_rows.append([kind, quantity, slope, intercept, used])
    _write_table(out / "sweep_slopes.csv",
                 ["method", "quantity", "slope", "intercept", "points"],
                 slope_rows, _stamp(cfg))
    _write_meta(out, cfg, "sweep", desk=desk, schedule=list(schedule))
    return {"rows": rows, "summary": summary, "slopes": slopes}


def cmd_compare(cfg: ExperimentConfig, out: Path) -> dict:
    """Per-repetition region length, coverage, and time for every method,
    with times normalized by the single-fit benchmark's."""
    rows = []
    for rep in range(cfg.compare_repetitions):
        ds = friedman1(cfg.n, cfg.noise_sd, seed=(cfg.seed, rep))
        X, Y, x_query, y_true = ds.split_query()
        grid = cfg.grid_for(Y)
        lam = cfg.lambda_for(Y.size + 1)
        rep_rows = {}
        for name, method in COMPARE_METHODS.items():
            start = time.perf_counter()
            try:
                curve, _ = _pvalue_curve(cfg, method, X, Y, x_query, y_true,
                                         grid, lam, (cfg.seed, rep, 1))
                region = region_from_curve(curve, cfg.alpha, "upper")
                seconds = time.perf_counter() - start
                rep_rows[name] = [rep, name, region.measure,
                                  int(region.contains(y_true)), seconds,
                                  float("nan"), "ok"]
            except SolverError as exc:
                seconds = time.perf_counter() - start
                rep_rows[name] = [rep, name, float("nan"), 0, seconds,
                                  float("nan"), f"solver_error: {exc}"]
        oracle_row = rep_rows["OracleCP"]
        if oracle_row[6] == "ok" and oracle_row[4] > 0:
            for name in COMPARE_METHODS:
                if rep_rows[name][6] == "ok":
                    rep_rows[name][5] = rep_rows[name][4] / oracle_row[4]
        rows.extend(rep_rows[name] for name in COMPARE_METHODS)
    header = ["rep", "method", "length", "covered", "seconds", "rel_time", "status"]
    _write_table(out / "compare.csv", header, rows, _stamp(cfg))

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
    _write_table(out / "compare_summary.csv",
                 ["method", "mean_length", "median_length", "coverage",
                  "mean_seconds", "mean_rel_time", "reps_ok"],
                 summary, _stamp(cfg))
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
    X, Y, x_query, y_true = _dataset(cfg, cfg.seed)
    n = Y.size
    if n < 4:
        raise ValueError("select-lambda needs at least 4 data rows")
    rng = np.random.default_rng((cfg.seed, 101))
    perm = rng.permutation(n)
    n1 = min(max(int(round(cfg.d1_fraction * n)), 2), n - 1)
    d1_idx, d2_idx = perm[:n1], perm[n1:]
    method = ApproxMethod(cfg.method, cfg.z_anchor)
    full_flags: dict[float, bool] = {}

    def loo_average(lam: float) -> float:
        measures = np.empty(n1)
        all_full = True
        for j in range(n1):
            keep = np.delete(d1_idx, j)
            grid = cfg.grid_for(Y[keep])
            result = approx_pvalue_curves(X[keep], Y[keep], X[d1_idx[j]], grid,
                                          method, lam, cfg.loss, cfg.kernel)
            with warnings.catch_warnings():
                # degenerate full-grid regions are expected while scanning
                # oversized candidates; they surface in the summary instead
                warnings.simplefilter("ignore", RuntimeWarning)
                region = region_from_curve(result.curve, cfg.alpha, "upper")
            measures[j] = region.measure
            all_full &= bool(region.mask.all())
        full_flags[lam] = all_full
        return float(measures.mean())

    chosen, averages = select_lambda_core(cfg.lambda_grid, loo_average)
    if all(full_flags.values()):
        warnings.warn("every candidate lambda produced only full-grid regions; "
                      "the tie rule picked the largest lambda", RuntimeWarning)

    grid2 = cfg.grid_for(Y[d2_idx])
    result = approx_pvalue_curves(X[d2_idx], Y[d2_idx], x_query, grid2, method,
                                  chosen, cfg.loss, cfg.kernel)
    region = region_from_curve(result.curve, cfg.alpha, "upper")
    _write_table(out / "selection.csv",
                 ["lam", "avg_upper_measure", "all_regions_full"],
                 [[lam, avg, str(full_flags[lam])]
                  for lam, avg in zip(cfg.lambda_grid, averages)],
                 _stamp(cfg))
    write_region_csv(out / "region.csv", result.curve, region,
                     extras=_approx_extras(result.taus), meta=_file_meta(cfg))
    write_region_json(out / "region.json", region, cfg.alpha, cfg.method,
                      meta={**_file_meta(cfg), "lam": chosen})
    _write_meta(out, cfg, "select-lambda", lam_chosen=chosen,
                averages=dict(zip(map(str, cfg.lambda_grid), averages)))
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
        sp.add_argument("--desk", action="store_true",
                        help="small-n preset for quick runs (sweep schedule)")
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
