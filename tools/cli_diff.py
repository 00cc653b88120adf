"""Say which cells of the apxcp CLI outputs differ between two runs.

Usage: python tools/cli_diff.py OLD_OUT NEW_OUT

OLD_OUT and NEW_OUT are output directories written by
``tools/cli_digest.py``. For every output file and every column of it,
the script prints the number of differing cells and the largest relative
difference |a - b| / max(|a|, |b|) among the numeric ones; timing columns
are skipped, as in the digest. A JSON file's columns are its key paths,
with list indices folded into ``[]``; any other file is compared whole.
Exits 0 when nothing differs, 1 when something does, 2 on bad usage.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

from cli_digest import TIMING_COLUMNS


def csv_columns(path: Path) -> dict[str, list[str]]:
    """Column name -> cells, comment lines and timing columns dropped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    if not lines:
        return {}
    rows = list(csv.reader(lines))
    return {name: [row[j] for row in rows[1:]]
            for j, name in enumerate(rows[0]) if name not in TIMING_COLUMNS}


def json_columns(path: Path) -> dict[str, list]:
    """Key path (list indices folded into []) -> leaf values in order."""
    columns: dict[str, list] = defaultdict(list)

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, f"{key}[]")
        else:
            columns[key].append(node)

    walk(json.loads(path.read_text()), "")
    return columns


def relative_difference(a, b) -> float | None:
    """|a - b| / max(|a|, |b|) for two numbers, None when either is not one."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_columns(old: dict, new: dict) -> list[str]:
    """One line per column that differs."""
    out = []
    for name in list(old) + [k for k in new if k not in old]:
        if name not in old or name not in new:
            out.append(f"{name}: only in {'NEW' if name in new else 'OLD'}")
            continue
        a, b = old[name], new[name]
        if len(a) != len(b):
            out.append(f"{name}: {len(a)} cells in OLD, {len(b)} in NEW")
            continue
        differ = [(x, y) for x, y in zip(a, b) if x != y]
        if not differ:
            continue
        rels = [relative_difference(x, y) for x, y in differ]
        numeric = [r for r in rels if r is not None]
        line = f"{name}: {len(differ)}/{len(a)} cells differ"
        if numeric:
            line += f", max relative difference {max(numeric):.3g}"
        if len(numeric) < len(rels):
            line += f", {len(rels) - len(numeric)} not numeric"
        out.append(line)
    return out


def compare_file(old: Path, new: Path) -> list[str]:
    if old.suffix == ".csv":
        return compare_columns(csv_columns(old), csv_columns(new))
    if old.suffix == ".json":
        return compare_columns(json_columns(old), json_columns(new))
    return [] if old.read_bytes() == new.read_bytes() else ["file differs"]


def outputs(root: Path) -> set[str]:
    """Paths, relative to root, of the files the CLI wrote (run/out/file)."""
    return {str(p.relative_to(root)) for p in root.glob("*/out/*") if p.is_file()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[0]), Path(argv[1])
    old_files, new_files = outputs(old_root), outputs(new_root)
    if not old_files and not new_files:
        print(f"no CLI outputs under {old_root} or {new_root}", file=sys.stderr)
        return 2
    differing = 0
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            lines = [f"only in {'NEW' if rel in new_files else 'OLD'}"]
        else:
            lines = compare_file(old_root / rel, new_root / rel)
        if lines:
            differing += 1
            for line in lines:
                print(f"{rel}  {line}")
    print(f"{differing} of {len(old_files | new_files)} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
