"""Hash every output file of the apxcp CLI on small configs.

Usage: python tools/cli_digest.py SRC OUT

SRC is the source directory holding the ``apxcp`` package (``src`` of a
checkout) and OUT a scratch directory for the outputs. The script runs
``region`` for every method, ``compare``, ``sweep --desk`` and
``select-lambda`` for two approximate methods, then prints one
``sha256  path`` line per output file. Timing columns are dropped from
the CSVs before hashing, so two checkouts whose numeric outputs agree
print the same lines: diff the output of two runs to check that a
refactor left the CLI outputs byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

TIMING_COLUMNS = {"seconds", "mean_seconds", "rel_time", "mean_rel_time"}

REGION_METHODS = ("full", "split", "cross", "oracle", "uniform_stability",
                  "local_stability", "influence_function")

# (run name, subcommand argv, config)
RUNS = [(f"region-{method}", ["region"],
         {"n": 40, "grid": {"m": 101}, "method": method, "seed": 3})
        for method in REGION_METHODS]
RUNS += [
    ("compare", ["compare"],
     {"n": 30, "grid": {"m": 101}, "compare": {"repetitions": 2}, "seed": 1}),
    ("sweep-desk", ["sweep", "--desk"],
     {"sweep": {"repetitions": 1, "grid_m": 2001}, "seed": 2}),
]
RUNS += [(f"select-lambda-{method}", ["select-lambda"],
          {"n": 16, "grid": {"m": 101}, "method": method,
           "lambda_grid": [0.5, 1.0], "seed": 4})
         for method in ("influence_function", "uniform_stability")]


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
    for name, command, config in RUNS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(config))
        with warnings.catch_warnings(), \
                open(run_dir / "stdout.txt", "w") as log:
            warnings.simplefilter("ignore", RuntimeWarning)
            stdout, sys.stdout = sys.stdout, log
            try:
                cli.main(command + ["--config", str(cfg_path),
                                    "--out", str(run_dir / "out")])
            finally:
                sys.stdout = stdout
        for path in sorted((run_dir / "out").iterdir()):
            digest = hashlib.sha256(canonical(path)).hexdigest()
            print(f"{digest}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
