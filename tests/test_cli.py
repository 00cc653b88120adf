import csv
import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from apxcp import approx, cli, conformal, kernels, solver
from apxcp.approx import (APPROX_KINDS, ApproxMethod, approx_pvalue_curves,
                          thickness_gap)
from apxcp.cli import (COMPARE_METHODS, DEFAULT_LAMBDA_GRID, DEFAULT_SCHEDULE,
                       DESK_SCHEDULE, REGION_METHODS, ExperimentConfig,
                       _ols_slope, build_parser, cmd_compare, cmd_gen_data,
                       cmd_region, cmd_select_lambda, cmd_sweep, load_config,
                       main)
from apxcp.conformal import (PredictionRegion, cross_pvalues,
                             full_conformal_pvalues, oracle_pvalues,
                             region_from_curve, split_pvalues)
from apxcp.data_io import friedman1, load_csv
from apxcp.kernels import KernelSpec
from apxcp.losses import LossSpec
from apxcp.solver import SolverError, z_anchored_problem


# --- config plumbing ---

def test_config_round_trip():
    shared = dict(kernel=KernelSpec("gaussian_rbf", 0.3),
                  loss=LossSpec("pseudo_huber", 2.0), alpha=0.2, z_anchor=1.5,
                  seed=5, n=64, noise_sd=0.25, method="local_stability",
                  data_csv="data.csv", grid_m=65, grid_lo=-3.0, grid_hi=3.0,
                  grid_margin=0.125, lambda_grid=(0.1, 1.0),
                  n_schedule=(8, 12, 16, 24), sweep_repetitions=2,
                  sweep_grid_m=1001, compare_repetitions=7, split_fraction=0.4,
                  cross_folds=3, d1_fraction=0.6)
    fixed = ExperimentConfig(lambda_fixed=0.75, **shared)
    rule = ExperimentConfig(lambda_c=2.0, lambda_r=0.25, **shared)
    default = ExperimentConfig()
    # between them the two configs move every field off its default; a
    # fixed lambda replaces c and r in the file
    for cfg, at_default in ((fixed, {"lambda_c", "lambda_r"}),
                            (rule, {"lambda_fixed"})):
        assert {f.name for f in fields(ExperimentConfig)
                if getattr(cfg, f.name) == getattr(default, f.name)} == at_default
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert fixed.to_dict()["lambda_rule"] == {"fixed": 0.75}
    assert rule.to_dict()["lambda_rule"] == {"c": 2.0, "r": 0.25}
    assert ExperimentConfig.from_dict(default.to_dict()) == default


def test_config_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"alpa": 0.1})
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig.from_dict({"grid": {"cells": 100}})
    with pytest.raises(ValueError, match="lambda_rule"):
        ExperimentConfig.from_dict({"lambda_rule": {"exponent": 0.33}})
    # a misspelt key must not fall back to the default silently
    with pytest.raises(TypeError, match="famly"):
        ExperimentConfig.from_dict({"kernel": {"famly": "gaussian_rbf"}})
    with pytest.raises(TypeError, match="scale"):
        ExperimentConfig.from_dict({"loss": {"scale": 2.0}})


@pytest.mark.parametrize("kwargs", [
    {"alpha": 1.2},
    {"alpha": 0.0},
    {"lambda_r": 1.0},
    {"lambda_c": 0.0},
    {"lambda_fixed": -1.0},
    {"n": 1},
    {"method": "bogus"},
    {"lambda_grid": ()},
    {"lambda_grid": (0.5, -0.1)},
    {"split_fraction": 1.0},
    {"d1_fraction": 0.0},
    {"cross_folds": 1},
    {"grid_m": 1},
    {"sweep_grid_m": 0},
    {"noise_sd": -0.5},
    {"sweep_repetitions": 0},
    {"compare_repetitions": 0},
    {"n": True},
    {"seed": None},
    {"method": 3},
    {"kernel": "laplacian"},
    {"n_schedule": (8, 12.0, 16, 24)},
    {"noise_sd": math.nan},
    {"lambda_c": math.nan},
    {"lambda_fixed": math.inf},
    {"seed": -1},
    {"n_schedule": (-3, 1, 2, 3)},
    # the specs reject these themselves (see test_kernels and test_losses)
    {"kernel": {"family": "laplacian", "bandwidth": True}},
    {"loss": {"family": "logcosh", "a": True}},
    # one problem run again would pose as more sample sizes in the slopes
    {"n_schedule": (12, 12, 12, 12)},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("raw, message", [
    ({"n": "20"}, "n must be an integer, got '20'"),
    ({"alpha": "0.1"}, "alpha must be a finite number"),
    ({"lambda_grid": 0.5}, "lambda_grid must be a list"),
    ({"lambda_grid": [0.5, math.inf]}, r"lambda_grid\[1\] must be a finite number"),
    ({"grid": {"m": 2.5}}, "grid.m must be an integer"),
    ({"lambda_rule": {"fixed": math.nan}}, "lambda_rule.fixed must be a finite"),
    ({"z_anchor": math.nan}, "z_anchor must be a finite"),
    ({"grid": 5}, "grid must be an object"),
    ({"kernel": "laplacian"}, "kernel must be an object"),
    ({"kernel": {"bandwidth": True}}, "kernel.bandwidth must be a finite number, got True"),
    ({"kernel": {"bandwidth": "1"}}, "kernel.bandwidth must be a finite number, got '1'"),
    ({"kernel": {"bandwidth": math.inf}}, "kernel.bandwidth must be a finite number"),
    ({"kernel": {"family": 3}}, "kernel.family must be a string, got 3"),
    ({"loss": {"a": True}}, "loss.a must be a finite number, got True"),
    ({"loss": {"a": "1"}}, "loss.a must be a finite number, got '1'"),
    ({"loss": {"t": None}}, "loss.t must be a finite number, got None"),
    ({"loss": {"family": None}}, "loss.family must be a string, got None"),
    ({"noise_sd": 10**400}, "noise_sd must be a finite number, got 1000"),
    # a group that is present must be an object; only an absent one takes
    # the defaults
    ({"grid": 0}, "grid must be an object, got 0"),
    ({"grid": []}, r"grid must be an object, got \[\]"),
    ({"grid": False}, "grid must be an object, got False"),
    ({"grid": ""}, "grid must be an object, got ''"),
    ({"grid": None}, "grid must be an object, got None"),
    ({"lambda_rule": None}, "lambda_rule must be an object, got None"),
])
def test_config_type_errors_name_the_key(raw, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("raw, message", [
    ({"kernel": {"family": "mystery"}}, "kernel.family must be one of ("),
    ({"kernel": {"bandwidth": -1}}, "kernel.bandwidth must be positive or 'auto', got -1.0"),
    ({"loss": {"a": 0}}, "loss.a must be positive, got 0.0"),
    ({"loss": {"t": 1.5}}, "loss.t, the quantile level, must lie in (0, 1), got 1.5"),
    ({"grid": {"margin": True}}, "grid.margin must be a finite number, got True"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"sweep": {"repetitions": 0}}, "sweep.repetitions must be >= 1, got 0"),
    ({"compare": {"repetitions": 0}}, "compare.repetitions must be >= 1, got 0"),
    ({"sweep": {"grid_m": 1}}, "sweep.grid_m must be >= 2, got 1"),
    ({"select": {"d1_fraction": 1.0}}, "select.d1_fraction must lie in (0, 1), got 1.0"),
    ({"lambda_grid": [0.5, -0.1]}, "lambda_grid[1] must be positive, got -0.1"),
    ({"n_schedule": [-3, 1, 2, 3]}, "n_schedule[0] must be >= 1, got -3"),
    ({"lambda_grid": []}, "lambda_grid must be nonempty"),
    ({"n_schedule": [12, 16, 12, 20]}, "n_schedule repeats 12"),
])
def test_config_errors_of_a_spec_or_number_name_the_key(raw, message):
    # a spec checks its own fields; the config puts the key in front
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentConfig.from_dict(raw)


# values tried against every range rule of the config fields, by type
_RULE_PROBES = {float: (-1.0, 0.0, 0.5, 1.0, 2.0), int: (-1, 0, 1, 2, 3),
                str: ("bogus", "full")}
# field name -> (its key as the file spells it, type, rule)
_DECLARED = {f.name: (f.metadata["key"], f.metadata["kind"], f.metadata["rule"])
             for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("name", [name for name, (*_, rule) in _DECLARED.items()
                                  if rule is not None])
def test_config_table_holds_every_range_rule(name):
    # the field's declared rule alone decides each probe: a value it
    # rejects fails naming the key path, one it keeps builds a config (so
    # no range check outside the declaration rejects it)
    key, kind, (keeps, _) = _DECLARED[name]
    item = kind[0] if isinstance(kind, tuple) else kind
    rejected = 0
    for probe in _RULE_PROBES[item]:
        value = (probe,) if isinstance(kind, tuple) else probe
        if keeps(probe):
            ExperimentConfig(**{name: value})
            continue
        rejected += 1
        with pytest.raises(ValueError, match="^" + re.escape(key)):
            ExperimentConfig(**{name: value})
    assert rejected


@pytest.mark.parametrize("lambda_fixed, dropped", [
    (None, {"lambda_rule.fixed"}), (0.5, {"lambda_rule.c", "lambda_rule.r"})])
def test_config_keys_are_distinct_and_each_group_holds_its_own(lambda_fixed, dropped):
    keys = [key for key, *_ in _DECLARED.values()]
    assert len(keys) == len(set(keys)) == 24
    out = ExperimentConfig(lambda_fixed=lambda_fixed).to_dict()
    groups = {key.rpartition(".")[0] for key in keys} - {""}
    assert set(out) == {key for key in keys if "." not in key} | groups
    for group in groups:
        # a fixed lambda replaces c and r in the file
        assert {f"{group}.{key}" for key in out[group]} == {
            key for key in keys if key.startswith(group + ".")} - dropped


@pytest.mark.parametrize("raw, want", [
    ({"kernel": {"family": "gaussian_rbf"}}, KernelSpec("gaussian_rbf", "auto")),
    ({"kernel": {"bandwidth": 0.5}}, KernelSpec("laplacian", 0.5)),
    ({"kernel": {}}, KernelSpec()),
    ({"loss": {"a": 2.0, "t": 0.25}}, LossSpec("logcosh", 2.0, 0.25)),
    ({"loss": {"family": "pseudo_huber"}}, LossSpec("pseudo_huber")),
    ({"loss": {}}, LossSpec()),
])
def test_config_spec_keys_default(raw, want):
    cfg = ExperimentConfig.from_dict(raw)
    assert (cfg.kernel if "kernel" in raw else cfg.loss) == want


def test_config_numbers_are_normalized():
    cfg = ExperimentConfig.from_dict({"lambda_grid": [1, 2.5],
                                      "n_schedule": [8, 12, 16, 24],
                                      "noise_sd": 0, "n": np.int64(30)})
    assert cfg.lambda_grid == (1.0, 2.5)
    assert all(type(v) is float for v in cfg.lambda_grid)
    assert cfg.n_schedule == (8, 12, 16, 24)
    assert type(cfg.noise_sd) is float and type(cfg.n) is int
    # an integer where a float is expected hashes like the float, in the
    # kernel and loss objects too
    assert (ExperimentConfig(noise_sd=0).config_hash()
            == ExperimentConfig(noise_sd=0.0).config_hash())
    for raw_int, raw_float in (({"kernel": {"bandwidth": 1}}, {"kernel": {"bandwidth": 1.0}}),
                               ({"loss": {"a": 2}}, {"loss": {"a": 2.0}})):
        a, b = ExperimentConfig.from_dict(raw_int), ExperimentConfig.from_dict(raw_float)
        assert a == b and a.config_hash() == b.config_hash()
    assert type(ExperimentConfig.from_dict({"kernel": {"bandwidth": 1}}).kernel.bandwidth) is float
    assert (ExperimentConfig(loss=LossSpec(a=2)).config_hash()
            == ExperimentConfig(loss=LossSpec(a=2.0)).config_hash())


@pytest.mark.parametrize("grid, message", [
    ({"lo": -5}, "set together"),
    ({"lo": 2.0, "hi": -1.0}, "below"),
    ({"margin": -1.0}, "margin"),
    ({"lo": -math.inf, "hi": math.inf}, "finite"),
    ({"lo": 0.0, "hi": math.inf}, "finite"),
    ({"margin": math.inf}, "finite"),
    ({"margin": math.nan}, "finite"),
])
def test_config_rejects_bad_grid(grid, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({"grid": grid})


def test_config_hash_is_stable_and_sensitive():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12
    int(a.config_hash(), 16)


def test_lambda_rule_default_anchored_at_129():
    # rule calibrated so lambda(n+1 = 129) is exactly one half
    cfg = ExperimentConfig()
    assert cfg.lambda_for(129) == pytest.approx(0.5)
    fixed = ExperimentConfig(lambda_fixed=0.125)
    assert fixed.lambda_for(129) == 0.125
    assert fixed.lambda_for(10_000) == 0.125


def test_grid_override_and_default():
    cfg = ExperimentConfig(grid_lo=-2.0, grid_hi=4.0, grid_m=13)
    g = cfg.grid_for(np.array([0.0, 1.0]))
    assert (g.lo, g.hi, g.m) == (-2.0, 4.0, 13)
    auto = ExperimentConfig(grid_m=11).grid_for(np.array([2.0, 6.0]))
    assert (auto.lo, auto.hi, auto.m) == (0.0, 8.0, 11)
    finer = ExperimentConfig().grid_for(np.array([0.0, 1.0]), m=7)
    assert finer.m == 7


def test_load_config(tmp_path):
    assert load_config(None) == ExperimentConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.25, "n": 32,
                                "loss": {"family": "pseudo_huber", "a": 1.5}}))
    cfg = load_config(path, seed_override=9)
    assert cfg.alpha == 0.25 and cfg.n == 32 and cfg.seed == 9
    assert cfg.loss == LossSpec("pseudo_huber", 1.5)


@pytest.mark.parametrize("text, key", [
    ('{"alpha": 0.05, "n": 30, "alpha": 0.2}', "alpha"),
    ('{"grid": {"m": 101, "margin": 0.25, "m": 11}}', "m"),
])
def test_load_config_rejects_a_repeated_key(tmp_path, text, key):
    # json.load would keep the last value silently
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^config file {re.escape(str(path))} "
                                         f"repeats key '{key}'$"):
        load_config(path)


def test_schedules():
    assert len(DEFAULT_SCHEDULE) == 15
    assert DEFAULT_SCHEDULE[0] == 128 and DEFAULT_SCHEDULE[-1] == 1024
    assert len(DESK_SCHEDULE) == 8
    assert DESK_SCHEDULE[0] == 32 and DESK_SCHEDULE[-1] == 256
    for sched in (DEFAULT_SCHEDULE, DESK_SCHEDULE):
        assert all(b > a for a, b in zip(sched, sched[1:]))


# --- small numeric helpers ---

def test_ols_slope_recovers_power_law():
    ns = [16, 32, 64, 128, 256]
    vals = [3.0 * n ** -1.5 for n in ns]
    slope, intercept, used = _ols_slope(ns, vals)
    assert slope == pytest.approx(-1.5)
    assert intercept == pytest.approx(math.log(3.0))
    assert used == 5


def test_ols_slope_drops_nonpositive_points():
    slope, _, used = _ols_slope([10, 20, 40, 80], [1.0, 0.0, float("nan"), 0.5])
    assert used == 2
    assert math.isfinite(slope)
    _, _, used_few = _ols_slope([10, 20], [0.0, 1.0])
    assert used_few == 1
    assert math.isnan(_ols_slope([10, 20], [0.0, 0.0])[0])


# --- commands ---

def _tiny_cfg(**kwargs):
    base = dict(n=20, seed=0, grid_m=101)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_gen_data_deterministic_and_stamped(tmp_path):
    cfg = _tiny_cfg()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    p1 = cmd_gen_data(cfg, out1)
    p2 = cmd_gen_data(cfg, out2)
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_text().splitlines()[0]
    assert first.startswith(f"# config_hash={cfg.config_hash()} version=")
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["command"] == "gen-data"
    assert meta["config_hash"] == cfg.config_hash()
    assert meta["dataset"]["generator"] == "friedman1"


def test_gen_data_region_round_trip(tmp_path):
    gen_out = tmp_path / "gen"
    gen_out.mkdir()
    data_path = cmd_gen_data(_tiny_cfg(), gen_out)
    cfg = _tiny_cfg(method="local_stability", data_csv=str(data_path))
    region_out = tmp_path / "region"
    region_out.mkdir()
    result = cmd_region(cfg, region_out)
    ds = load_csv(data_path)
    assert result["curve"].grid.m == cfg.grid_m
    assert ds.n == 20
    lines = (region_out / "region.csv").read_text().splitlines()
    header = lines[1].split(",")
    # level-1 envelopes travel with the curve
    assert header == ["y", "upper_p", "lower_p", "in_region", "tau_test", "rho1"]
    blob = json.loads((region_out / "region.json").read_text())
    assert blob["method"] == "local_stability"
    assert blob["alpha"] == cfg.alpha


def test_region_extreme_alpha_keeps_only_pvalue_one_cells(tmp_path):
    # alpha above every attainable p-value except the exact-tie value 1:
    # the region is precisely the cells whose upper p-value equals 1
    cfg = _tiny_cfg(alpha=0.999, n=21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = cmd_region(cfg, tmp_path)
    region, curve = result["region"], result["curve"]
    np.testing.assert_array_equal(region.mask, curve.upper == 1.0)
    assert region.measure == pytest.approx(curve.grid.step * (curve.upper == 1.0).sum())


def test_region_outputs_byte_deterministic(tmp_path):
    cfg = _tiny_cfg(method="influence_function")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        out.mkdir()
        cmd_region(cfg, out)
        outs.append(out)
    for fname in ("region.csv", "region.json", "meta.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _library_curve(cfg, method, X, Y, xq, y_true, grid, lam, seed):
    """A method's p-value curve straight from the library."""
    args = (grid, lam, cfg.loss, cfg.kernel)
    if method == "full":
        return full_conformal_pvalues(X, Y, xq, *args)
    if method == "split":
        return split_pvalues(X, Y, xq, *args, cfg.split_fraction, seed=seed)
    if method == "cross":
        return cross_pvalues(X, Y, xq, *args, cfg.cross_folds, seed=seed)
    if method == "oracle":
        return oracle_pvalues(z_anchored_problem(X, Y, xq, y_true, lam, cfg.loss,
                                                 cfg.kernel), y_true, grid)
    return approx_pvalue_curves(X, Y, xq, grid, ApproxMethod(method, cfg.z_anchor),
                                lam, cfg.loss, cfg.kernel).curve


@pytest.mark.parametrize("method", REGION_METHODS)
def test_region_csv_matches_library_curve(tmp_path, method):
    cfg = _tiny_cfg(method=method, n=24, grid_m=41, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cmd_region(cfg, tmp_path)
    X, Y, xq, y_true = friedman1(cfg.n, cfg.noise_sd, cfg.seed).split_query()
    curve = _library_curve(cfg, method, X, Y, xq, y_true, cfg.grid_for(Y),
                           cfg.lambda_for(Y.size + 1), (cfg.seed, 1))
    lines = (tmp_path / "region.csv").read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    for column, want in (("upper_p", curve.upper), ("lower_p", curve.lower)):
        np.testing.assert_array_equal([float(r[column]) for r in rows], want)


def test_compare_lengths_match_library_regions(tmp_path):
    cfg = ExperimentConfig(n=24, compare_repetitions=2, grid_m=41, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = cmd_compare(cfg, tmp_path)["rows"]
        for rep, name, length, *_ in rows:
            X, Y, xq, y_true = friedman1(cfg.n, cfg.noise_sd,
                                         seed=(cfg.seed, rep)).split_query()
            curve = _library_curve(cfg, COMPARE_METHODS[name], X, Y, xq, y_true,
                                   cfg.grid_for(Y), cfg.lambda_for(Y.size + 1),
                                   (cfg.seed, rep, 1))
            assert length == region_from_curve(curve, cfg.alpha, "upper").measure, name


def test_sweep_small_schedule(tmp_path):
    cfg = ExperimentConfig(n_schedule=(8, 12, 16, 24), sweep_repetitions=1,
                           sweep_grid_m=2001, seed=0)
    result = cmd_sweep(cfg, tmp_path)
    rows = result["rows"]
    assert len(rows) == 4 * 1 * 3
    assert all(r[8] == "ok" for r in rows)
    for r in rows:
        assert r[5] >= r[4]  # bound dominates the observed gap
        assert r[7] >= 0.0
    assert set(result["slopes"]) == {(k, q) for k in
                                     ("uniform_stability", "local_stability",
                                      "influence_function")
                                     for q in ("delta", "bound")}
    for fname in ("sweep.csv", "sweep_summary.csv", "sweep_slopes.csv", "meta.json"):
        assert (tmp_path / fname).exists()
    slope_lines = (tmp_path / "sweep_slopes.csv").read_text().splitlines()
    assert slope_lines[0].startswith("# config_hash=")
    assert slope_lines[1] == "method,quantity,slope,intercept,points"


def _count_fits(monkeypatch, fail_on=None):
    """Record every fit the approximate methods make, through base_fit or
    from the command's shared problem; call number fail_on (1-based)
    raises SolverError instead."""
    calls = []
    real_fit = approx.fit

    def counted(problem, *args, **kwargs):
        calls.append(problem)
        if len(calls) == fail_on:
            raise SolverError("injected failure", np.zeros(problem.gram.n), 1.0)
        return real_fit(problem, *args, **kwargs)

    monkeypatch.setattr(approx, "fit", counted)
    monkeypatch.setattr(cli, "fit", counted)
    return calls


SWEEP_CFG = ExperimentConfig(n_schedule=(8, 12, 16, 24), sweep_repetitions=1,
                             sweep_grid_m=2001, seed=0)
COMPARE_CFG = ExperimentConfig(n=30, compare_repetitions=2, grid_m=201, seed=1)


@pytest.mark.parametrize("command, cfg, problems", [
    (cmd_sweep, SWEEP_CFG, 4),      # one per n of the schedule
    (cmd_compare, COMPARE_CFG, 2),  # one per repetition
])
def test_one_base_fit_per_problem(tmp_path, monkeypatch, command, cfg, problems):
    calls = _count_fits(monkeypatch)
    command(cfg, tmp_path)
    assert len(calls) == problems


def test_sweep_failed_base_fit_fails_its_three_rows(tmp_path, monkeypatch):
    _count_fits(monkeypatch, fail_on=2)  # the n=12 problem
    result = cmd_sweep(SWEEP_CFG, tmp_path)
    rows = result["rows"]
    assert len(rows) == 4 * 3
    for n, _, kind, _, delta, bound, _, seconds, status in rows:
        if n == 12:
            assert status == "solver_error: injected failure", kind
            assert math.isnan(delta) and math.isnan(bound)
        else:
            assert status == "ok", (n, kind)
        assert seconds >= 0.0
    assert {r[0] for r in result["summary"]} == {8, 16, 24}


def test_compare_failed_base_fit_fails_the_approximate_rows(tmp_path, monkeypatch):
    _count_fits(monkeypatch, fail_on=2)  # repetition 1
    result = cmd_compare(COMPARE_CFG, tmp_path)
    for rep, name, length, _, _, rel_time, status in result["rows"]:
        if rep == 1 and COMPARE_METHODS[name] in APPROX_KINDS:
            assert status == "solver_error: injected failure", name
            assert math.isnan(length) and math.isnan(rel_time)
        else:
            assert status == "ok", (rep, name)
    reps_ok = {name: rec["reps_ok"] for name, rec in result["stats"].items()}
    assert reps_ok == {"SplitCP": 2, "UStableCP": 1, "LocStableCP": 1,
                       "InfluenceFunctionCP": 1, "OracleCP": 2}



def _fail_baseline_fits(monkeypatch, which):
    """Make every conformal fit of one compare baseline raise SolverError:
    the oracle's refit (z anchor on) or the split training fit (both
    anchors off)."""
    real_fit = conformal.fit

    def failing(problem, *args, **kwargs):
        if (problem.weights[problem.n] == 1.0) == (which == "oracle"):
            raise SolverError(f"injected {which} failure", np.zeros(problem.gram.n), 1.0)
        return real_fit(problem, *args, **kwargs)

    monkeypatch.setattr(conformal, "fit", failing)


def test_compare_failed_oracle_refit_fails_its_row_and_every_rel_time(tmp_path,
                                                                       monkeypatch):
    _fail_baseline_fits(monkeypatch, "oracle")
    result = cmd_compare(COMPARE_CFG, tmp_path)
    for rep, name, length, _, seconds, rel_time, status in result["rows"]:
        if name == "OracleCP":
            assert status == "solver_error: injected oracle failure", rep
            assert math.isnan(length)
        else:
            assert status == "ok", (rep, name)
        assert math.isnan(rel_time), (rep, name)
        assert seconds >= 0.0
    assert "OracleCP" not in result["stats"]


def test_compare_failed_split_fit_fails_only_its_row(tmp_path, monkeypatch):
    _fail_baseline_fits(monkeypatch, "split")
    rows = {(r[0], r[1]): r for r in cmd_compare(COMPARE_CFG, tmp_path)["rows"]}
    for (rep, name), (_, _, length, _, seconds, rel_time, status) in rows.items():
        if name == "SplitCP":
            assert status == "solver_error: injected split failure", rep
            assert math.isnan(length) and math.isnan(rel_time)
        else:
            assert status == "ok", (rep, name)
            assert rel_time == seconds / rows[rep, "OracleCP"][4], (rep, name)


def _count_grams(monkeypatch):
    """Count the Gram matrices built and the eigendecompositions run."""
    counts = {"gram": 0, "eigh": 0}

    def counting(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(solver, "gram", counting("gram", kernels.gram))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    return counts


def test_compare_builds_one_gram_for_the_base_and_oracle_fits(tmp_path, monkeypatch):
    counts = _count_grams(monkeypatch)
    cmd_compare(COMPARE_CFG, tmp_path)
    # per repetition: the approximate and oracle methods' shared problem,
    # and the split method's training fit
    reps = COMPARE_CFG.compare_repetitions
    assert counts == {"gram": 2 * reps, "eigh": 2 * reps}


def test_select_lambda_builds_one_gram_per_leave_one_out_problem(tmp_path, monkeypatch):
    counts = _count_grams(monkeypatch)
    cfg = ExperimentConfig(n=12, seed=3, grid_m=101, method="local_stability",
                           lambda_grid=(0.25, 0.5, 1.0))
    cmd_select_lambda(cfg, tmp_path)
    n1 = 6  # half of the 11 rows left after the query row
    # one per leave-one-out problem, whatever the number of candidates,
    # and one for the final region
    assert counts == {"gram": n1 + 1, "eigh": n1 + 1}


@pytest.mark.parametrize("command, method", [
    (cmd_compare, "influence_function"), (cmd_select_lambda, "local_stability"),
    *((cmd_region, kind) for kind in APPROX_KINDS)])
def test_a_loss_without_smoothness_constants_fails_before_any_gram(tmp_path, monkeypatch,
                                                                    command, method):
    counts = _count_grams(monkeypatch)
    cfg = ExperimentConfig(n=12, grid_m=21, compare_repetitions=1, method=method,
                           loss=LossSpec("squared"))
    with pytest.raises(ValueError, match="loss.family 'squared'"):
        command(cfg, tmp_path)
    assert counts == {"gram": 0, "eigh": 0}


def test_compare_oracle_rows_match_the_oracle_from_scratch(tmp_path):
    rows = cmd_compare(COMPARE_CFG, tmp_path)["rows"]
    oracle_rows = [r for r in rows if r[1] == "OracleCP"]
    assert len(oracle_rows) == COMPARE_CFG.compare_repetitions
    for rep, _, length, covered, *_ in oracle_rows:
        X, Y, xq, y_true = friedman1(COMPARE_CFG.n, COMPARE_CFG.noise_sd,
                                     seed=(COMPARE_CFG.seed, rep)).split_query()
        problem = z_anchored_problem(X, Y, xq, y_true, COMPARE_CFG.lambda_for(Y.size + 1),
                                     COMPARE_CFG.loss, COMPARE_CFG.kernel)
        region = region_from_curve(oracle_pvalues(problem, y_true, COMPARE_CFG.grid_for(Y)),
                                   COMPARE_CFG.alpha, "upper")
        assert (length, covered) == (region.measure, int(region.contains(y_true)))


@pytest.mark.parametrize("alpha", [0.1, 0.3])
def test_sweep_deltas_match_library_curves(tmp_path, alpha):
    cfg = replace(SWEEP_CFG, alpha=alpha)
    rows = cmd_sweep(cfg, tmp_path)["rows"]
    assert any(r[4] > 0 for r in rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n, rep, kind, lam, delta, *_ in rows:
            X, Y, xq, _ = friedman1(n + 1, cfg.noise_sd,
                                    seed=(cfg.seed, n, rep)).split_query()
            curve = approx_pvalue_curves(
                X, Y, xq, cfg.grid_for(Y, m=cfg.sweep_grid_m),
                ApproxMethod(kind, cfg.z_anchor), lam, cfg.loss, cfg.kernel).curve
            want = thickness_gap(region_from_curve(curve, cfg.alpha, "upper"),
                                 region_from_curve(curve, cfg.alpha, "lower"))
            assert delta == want, (n, kind)


def _count_scans(monkeypatch, refuse=False):
    """Record every sandwich p-value curve a scan counts, or refuse them."""
    calls = []
    real_pvalues = approx._ProblemScan.pvalues

    def counted(*args, **kwargs):
        if refuse:
            raise AssertionError("a sandwich p-value curve was counted")
        calls.append(args)
        return real_pvalues(*args, **kwargs)

    monkeypatch.setattr(approx._ProblemScan, "pvalues", counted)
    return calls


@pytest.mark.parametrize("command, cfg", [(cmd_sweep, SWEEP_CFG),
                                          (cmd_compare, COMPARE_CFG)])
def test_sweep_and_compare_count_no_pvalues(tmp_path, monkeypatch, command, cfg):
    # their regions come from one order statistic per grid point
    _count_scans(monkeypatch, refuse=True)
    rows = command(cfg, tmp_path)["rows"]
    assert all(r[-1] == "ok" for r in rows)


def test_select_lambda_counts_pvalues_for_its_final_region_only(tmp_path, monkeypatch):
    calls = _count_scans(monkeypatch)
    cfg = ExperimentConfig(n=12, seed=3, grid_m=101, method="local_stability",
                           lambda_grid=(0.5, 1.0))
    cmd_select_lambda(cfg, tmp_path)
    assert len(calls) == 1  # the leave-one-out regions count none


def test_sweep_requires_four_schedule_points(tmp_path):
    cfg = ExperimentConfig(n_schedule=(8, 12, 16))
    with pytest.raises(ValueError, match="4 points"):
        cmd_sweep(cfg, tmp_path)


def test_compare_small_run(tmp_path):
    cfg = ExperimentConfig(n=30, compare_repetitions=2, grid_m=201, seed=1)
    result = cmd_compare(cfg, tmp_path)
    rows = result["rows"]
    assert len(rows) == 2 * 5
    assert all(r[6] == "ok" for r in rows)
    oracle_rows = [r for r in rows if r[1] == "OracleCP"]
    assert all(r[5] == 1.0 for r in oracle_rows)
    stats = result["stats"]
    assert set(stats) == {"SplitCP", "UStableCP", "LocStableCP",
                          "InfluenceFunctionCP", "OracleCP"}
    for rec in stats.values():
        assert rec["reps_ok"] == 2
        assert 0.0 <= rec["coverage"] <= 1.0
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare_summary.csv").exists()


def test_select_lambda_requires_approximate_method(tmp_path):
    cfg = _tiny_cfg(method="full")
    with pytest.raises(ValueError, match="approximate"):
        cmd_select_lambda(cfg, tmp_path)


@pytest.mark.parametrize("n", [2, 4])
def test_select_lambda_needs_four_data_rows(tmp_path, n):
    # one of the n drawn rows is the query
    cfg = ExperimentConfig(n=n, seed=3, grid_m=21, method="local_stability")
    with pytest.raises(ValueError, match="select-lambda needs at least 4 data rows"):
        cmd_select_lambda(cfg, tmp_path)


def test_select_lambda_small_run(tmp_path):
    cfg = ExperimentConfig(n=12, seed=3, grid_m=101, method="local_stability",
                           lambda_grid=(0.5, 1.0))
    result = cmd_select_lambda(cfg, tmp_path)
    lam, averages = result["lam"], result["averages"]
    assert len(averages) == 2
    # the least average wins, and no larger candidate ties it
    chosen = cfg.lambda_grid.index(lam)
    assert averages[chosen] == min(averages)
    assert all(avg > averages[chosen]
               for other, avg in zip(cfg.lambda_grid, averages) if other > lam)
    lines = (tmp_path / "selection.csv").read_text().splitlines()
    assert lines[1] == "lam,avg_upper_measure,all_regions_full"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["lam_chosen"] == result["lam"]
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "region.json").exists()


def _count_regions(monkeypatch):
    """Record the mask of every PredictionRegion.from_mask call."""
    calls = []
    real = PredictionRegion.from_mask.__func__

    def counted(cls, grid, mask):
        calls.append(np.array(mask, dtype=bool))
        return real(cls, grid, mask)

    monkeypatch.setattr(PredictionRegion, "from_mask", classmethod(counted))
    return calls


def test_select_lambda_default_run_builds_upper_regions_only(tmp_path, monkeypatch):
    # the leave-one-out loop reads only the upper region of each of its
    # 100 x 6 fits, and the final region is one more: 601 regions, where
    # building the unread lower ones too made 1201
    calls = _count_regions(monkeypatch)
    cfg = ExperimentConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cmd_select_lambda(cfg, tmp_path)
    assert len(calls) == 601


def test_compare_builds_upper_regions_only(tmp_path, monkeypatch):
    calls = _count_regions(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = cmd_compare(COMPARE_CFG, tmp_path)["rows"]
    # one region per row: split, oracle and the three approximate uppers
    assert len(calls) == len(rows)


def test_select_lambda_picks_the_least_average_ties_to_the_largest(tmp_path, monkeypatch):
    # every leave-one-out region measures a fixed value per candidate, so
    # the averages are those values. The least, 1.0, ties at 0.5, 2.0 and
    # 0.25, so the first or last tie, or the smallest or largest
    # candidate, would be another choice
    measure = {1.0: 3.0, 0.5: 1.0, 0.1: 2.0, 2.0: 1.0, 0.25: 1.0, 4.0: 5.0}

    def fake_regions(base, grid, methods, alpha):
        upper = SimpleNamespace(measure=measure[base.problem.lam],
                                mask=np.zeros(grid.m, dtype=bool))
        return [SimpleNamespace(upper=upper)]

    monkeypatch.setattr(cli, "approx_regions", fake_regions)
    cfg = ExperimentConfig(n=12, seed=3, grid_m=21, method="local_stability",
                           lambda_grid=tuple(measure))
    result = cmd_select_lambda(cfg, tmp_path)
    assert result["averages"] == list(measure.values())
    assert result["lam"] == 2.0


def test_select_lambda_degenerate_full_regions_warn(tmp_path):
    # alpha below the p-value floor keeps every cell for every candidate
    cfg = ExperimentConfig(n=12, seed=3, grid_m=51, method="uniform_stability",
                           alpha=0.001, lambda_grid=(0.5, 1.0))
    with pytest.warns(RuntimeWarning, match="full-grid"):
        result = cmd_select_lambda(cfg, tmp_path)
    assert result["lam"] == 1.0  # tie rule picks the largest candidate


# --- clipping warnings ---

def _warnings_of(command, *args):
    """One command call's result and the (category, message) of every
    warning it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = command(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def _clipping(count: int, total: int):
    return (RuntimeWarning, f"{count} of {total} prediction region(s) touch(es) "
                            "the grid boundary and may be clipped")


@pytest.mark.parametrize("method", ["full", "influence_function"])
def test_region_warns_once_when_a_pinned_narrow_grid_clips_it(tmp_path, method):
    narrow = _tiny_cfg(method=method, grid_lo=10.0, grid_hi=11.0)
    assert _warnings_of(cmd_region, narrow, tmp_path)[1] == [_clipping(1, 1)]
    # a wider grid, on more data at a larger alpha, holds the whole region
    wide = _tiny_cfg(method=method, n=60, alpha=0.3, grid_margin=1.0)
    assert _warnings_of(cmd_region, wide, tmp_path)[1] == []


def test_compare_warns_once_with_the_count_of_clipped_regions(tmp_path, monkeypatch):
    cfg = replace(COMPARE_CFG, alpha=0.5, grid_margin=1.0)
    masks = _count_regions(monkeypatch)
    _, caught = _warnings_of(cmd_compare, cfg, tmp_path)
    # one region per row, some of them clipped
    clipped = sum(bool(mask[0] or mask[-1]) for mask in masks)
    assert 0 < clipped < len(masks) == 10
    assert caught == [_clipping(clipped, len(masks))]


def test_sweep_warns_once_with_the_count_of_clipped_upper_regions(tmp_path):
    cfg = replace(SWEEP_CFG, alpha=0.5, grid_margin=1.0)
    result, caught = _warnings_of(cmd_sweep, cfg, tmp_path)
    clipped = 0
    for n, rep, kind, lam, *_ in result["rows"]:
        X, Y, xq, _ = friedman1(n + 1, cfg.noise_sd, seed=(cfg.seed, n, rep)).split_query()
        upper = approx_pvalue_curves(
            X, Y, xq, cfg.grid_for(Y, m=cfg.sweep_grid_m), ApproxMethod(kind, cfg.z_anchor),
            lam, cfg.loss, cfg.kernel).curve.upper > cfg.alpha
        clipped += bool(upper[0] or upper[-1])
    assert 0 < clipped < len(result["rows"]) == 12
    assert caught == [_clipping(clipped, 12)]


def test_select_lambda_never_warns_of_its_leave_one_out_regions(tmp_path, monkeypatch):
    # every leave-one-out region reaches the grid's ends, the final one
    # does not
    loo = []
    real = cli.approx_regions

    def recorded(*args):
        results = real(*args)
        loo.append(results[0].upper.clipped)
        return results

    monkeypatch.setattr(cli, "approx_regions", recorded)
    cfg = ExperimentConfig(n=100, grid_m=101, lambda_grid=(0.5, 1.0), alpha=0.3,
                           grid_margin=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = cmd_select_lambda(cfg, tmp_path)
    assert len(loo) == 100 and all(loo)
    assert not result["region"].clipped
    # a clipped final region is the one clipping warning
    loo.clear()
    degenerate = ExperimentConfig(n=12, seed=3, grid_m=51, method="uniform_stability",
                                  alpha=0.001, lambda_grid=(0.5, 1.0))
    _, caught = _warnings_of(cmd_select_lambda, degenerate, tmp_path)
    assert len(loo) > 1 and all(loo)
    assert caught[1:] == [_clipping(1, 1)]
    assert "full-grid" in caught[0][1]


# --- argv plumbing ---

def test_main_gen_data_with_seed_override(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["gen-data", "--out", str(out), "--seed", "7"]) == 0
    assert (out / "data.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["seed"] == 7
    assert "wrote" in capsys.readouterr().out


def test_main_region_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 20, "grid": {"m": 101},
                                    "method": "influence_function"}))
    out = tmp_path / "out"
    code = main(["region", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "method=influence_function" in captured
    assert "measure=" in captured
    assert (out / "region.json").exists()


@pytest.mark.parametrize("config, argv, named", [
    (None, ["--seed", "-1"], "seed must be nonnegative"),
    ({"grid": {"m": 1}}, [], "grid.m"),
    ({"kernel": {"bogus": 1}}, [], "bogus"),
    ("{not json", [], "cfg.json is not valid JSON: Expecting property name"),
    ({"grid": None}, [], "grid must be an object, got None"),
    ({"n_schedule": [12, 12, 12, 12]}, [], "n_schedule repeats 12"),
    ('{"alpha": 0.05, "alpha": 0.2}', [], "cfg.json repeats key 'alpha'"),
])
def test_main_reports_a_bad_config_as_a_usage_error(tmp_path, capsys, config, argv,
                                                     named):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(cfg_path)]
    with pytest.raises(SystemExit) as exc:
        main(["region", *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apxcp") and named in err
    assert not (tmp_path / "out").exists()


def test_main_reports_a_missing_config_file_as_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["region", "--config", str(missing), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert str(missing) in capsys.readouterr().err


def test_main_reports_an_out_path_naming_a_file_as_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        main(["region", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: apxcp") and str(out) in err
    assert out.read_text() == "not a directory"
    assert sorted(tmp_path.iterdir()) == [out]


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("apxcp ")


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_desk_is_a_sweep_flag(capsys):
    assert build_parser().parse_args(["sweep", "--desk"]).desk
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["region", "--desk"])
    assert exc.value.code == 2
    assert "--desk" in capsys.readouterr().err


def test_default_lambda_grid_positive():
    assert all(l > 0 for l in DEFAULT_LAMBDA_GRID)
    assert list(DEFAULT_LAMBDA_GRID) == sorted(DEFAULT_LAMBDA_GRID)
