"""Hash every output file of the apxcp CLI on small configs.

Usage: python tools/cli_digest.py SRC OUT

SRC is the source directory holding the ``apxcp`` package (``src`` of a
checkout) and OUT a scratch directory for the outputs. The script runs
``region`` for every method, ``compare``, ``sweep --desk`` and
``select-lambda`` for two approximate methods, all with the default
logcosh loss and laplacian kernel; then ``region`` with the pseudo_huber,
smoothed_pinball (t = 0.8) and squared losses and ``compare`` with the
gaussian_rbf kernel, whose configs spell some numbers as JSON integers;
then a ``region`` (cross) and a ``compare`` run that move every checked
number the other runs leave at its default (alpha, z_anchor, noise_sd,
the grid, a fixed lambda, the compare split fraction and fold count) and
a ``select-lambda`` run with its own d1 fraction and grid margin; then
a ``region`` (full) run in the informative regime (noise_sd 1, a fixed
lambda of 0.01, the pseudo_huber loss), whose exact refits rebuild their
chord factor several times along the grid, and a ``sweep`` run in the same
regime over four small n on 20 001 grid points, three scan blocks, where
the band the region scan compares exactly lies inside blocks and, at
n = 29, runs across the first block boundary; then a ``region`` (full)
run in that regime at a fixed lambda of 1e-4 with the logcosh loss, where
most refits leave the block of refits early (solver.refit_block) and
``fit`` finishes them by chord steps from the previous grid point; last,
a ``gen-data`` run at a small n and its own seed, whose data.csv and
meta.json carry the config stamp like every other output. It prints one
``sha256  path`` line per output file. Timing columns are dropped from
the CSVs before hashing, so two checkouts whose numeric outputs agree
print the same lines: diff the output of two runs to check that a
refactor left the CLI outputs byte-identical. Each run's wall seconds go
to stderr, one ``seconds  name`` line per run, so stdout stays
comparable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import time
import warnings
from pathlib import Path

TIMING_COLUMNS = {"seconds", "mean_seconds", "rel_time", "mean_rel_time"}

# (run name, subcommand argv, config) of the runs after the region runs
FIXED_RUNS = [
    ("compare", ["compare"],
     {"n": 30, "grid": {"m": 101}, "compare": {"repetitions": 2}, "seed": 1}),
    ("sweep-desk", ["sweep", "--desk"],
     {"sweep": {"repetitions": 1, "grid_m": 2001}, "seed": 2}),
]
FIXED_RUNS += [(f"select-lambda-{method}", ["select-lambda"],
                {"n": 16, "grid": {"m": 101}, "method": method,
                 "lambda_grid": [0.5, 1.0], "seed": 4})
               for method in ("influence_function", "uniform_stability")]
# the other losses and kernel; a JSON integer where the spec takes a float
# must give the outputs of the float
FIXED_RUNS += [
    (f"region-{loss['family']}", ["region"],
     {"n": 40, "grid": {"m": 101}, "method": method, "loss": loss, "seed": 3})
    for method, loss in (("influence_function", {"family": "pseudo_huber", "a": 2}),
                         ("local_stability",
                          {"family": "smoothed_pinball", "a": 0.5, "t": 0.8}),
                         ("full", {"family": "squared"}))]
FIXED_RUNS += [
    ("compare-gaussian_rbf", ["compare"],
     {"n": 30, "grid": {"m": 101}, "compare": {"repetitions": 2}, "seed": 5,
      "kernel": {"family": "gaussian_rbf", "bandwidth": 1}}),
]

# every checked number off its default; region and compare pin the grid
# (lo, hi), so the select-lambda run is the one whose own margin pads it
OFF_DEFAULT = {"alpha": 0.2, "z_anchor": 1.5, "noise_sd": 0.5,
               "grid": {"m": 101, "lo": -5.0, "hi": 35.0, "margin": 0.25},
               "lambda_rule": {"fixed": 0.3},
               "compare": {"repetitions": 2, "split_fraction": 0.4, "cross_folds": 3}}
FIXED_RUNS += [
    ("region-off-default", ["region"],
     OFF_DEFAULT | {"n": 40, "method": "cross", "seed": 6}),
    ("compare-off-default", ["compare"], OFF_DEFAULT | {"n": 30, "seed": 7}),
    ("select-lambda-off-default", ["select-lambda"],
     {"n": 16, "grid": {"m": 101, "margin": 0.25}, "method": "local_stability",
      "lambda_grid": [0.5, 1.0], "select": {"d1_fraction": 0.4}, "seed": 8}),
    ("region-full-informative", ["region"],
     {"n": 40, "grid": {"m": 101}, "method": "full", "noise_sd": 1,
      "lambda_rule": {"fixed": 0.01}, "loss": {"family": "pseudo_huber"}, "seed": 9}),
    ("sweep-informative", ["sweep"],
     {"n_schedule": [20, 24, 29, 35], "sweep": {"repetitions": 1, "grid_m": 20001},
      "noise_sd": 1, "lambda_rule": {"fixed": 0.01}, "loss": {"family": "pseudo_huber"},
      "seed": 10}),
    ("region-full-fallback", ["region"],
     {"n": 40, "grid": {"m": 101}, "method": "full", "noise_sd": 1,
      "lambda_rule": {"fixed": 0.0001}, "seed": 11}),
    ("gen-data", ["gen-data"], {"n": 25, "seed": 12}),
]


def runs(region_methods) -> list:
    """Every run: one region run per method of region_methods, then
    FIXED_RUNS. main passes the REGION_METHODS of the CLI under test, so
    a method added there is hashed without editing this file."""
    return [(f"region-{method}", ["region"],
             {"n": 40, "grid": {"m": 101}, "method": method, "seed": 3})
            for method in region_methods] + FIXED_RUNS


def canonical(path: Path) -> bytes:
    """File bytes, with the timing columns removed from a CSV table."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    lines = data.decode().splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    if not body:
        return data
    rows = list(csv.reader(lines[body[0]:]))
    keep = [j for j, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([row[j] for j in keep])
    return "".join(lines[:body[0]]).encode() + buf.getvalue().encode()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    from apxcp import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"apxcp was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    for name, command, config in runs(cli.REGION_METHODS):
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(config))
        with warnings.catch_warnings(), \
                open(run_dir / "stdout.txt", "w") as log:
            warnings.simplefilter("ignore", RuntimeWarning)
            stdout, sys.stdout = sys.stdout, log
            start = time.perf_counter()
            try:
                cli.main(command + ["--config", str(cfg_path),
                                    "--out", str(run_dir / "out")])
            finally:
                sys.stdout = stdout
        print(f"{time.perf_counter() - start:8.3f}  {name}", file=sys.stderr)
        for path in sorted((run_dir / "out").iterdir()):
            digest = hashlib.sha256(canonical(path)).hexdigest()
            print(f"{digest}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
