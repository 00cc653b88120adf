import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import cli_diff  # noqa: E402


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _outputs(root, bound, seconds, measure, stdout="run 1\n"):
    _write(root, "sweep/out/sweep.csv",
           "# config_hash=abc version=0.1.0\n"
           f"n,delta,bound,seconds\n32,0.5,{bound},{seconds}\n64,0.25,0.75,{seconds}\n")
    _write(root, "region/out/region.json",
           json.dumps({"intervals": [[-1.0, 2.0]], "measure": measure, "method": "x"}))
    _write(root, "region/stdout.txt", stdout)


def test_reports_each_differing_column_and_skips_timing(tmp_path, capsys):
    _outputs(tmp_path / "old", 0.3, 0.01, 3.0)
    _outputs(tmp_path / "new", 0.30000000000000004, 0.02, 3.0, stdout="run 2\n")
    assert cli_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    # seconds is a timing column and stdout.txt is not a CLI output
    assert lines == ["sweep/out/sweep.csv  bound: 1/2 cells differ, "
                     "max relative difference 1.85e-16",
                     "1 of 2 files differ"]


def test_json_key_paths_missing_files_and_identical_runs(tmp_path, capsys):
    _outputs(tmp_path / "old", 0.3, 0.01, 3.0)
    _outputs(tmp_path / "new", 0.3, 0.01, 4.0)
    _write(tmp_path / "new", "sweep/out/extra.csv", "a\n1\n")
    assert cli_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "region/out/region.json  measure: 1/1 cells differ, max relative difference 0.25" in out
    assert "sweep/out/extra.csv  only in NEW" in out
    assert cli_diff.main([str(tmp_path / "old"), str(tmp_path / "old")]) == 0
    assert capsys.readouterr().out == "0 of 2 files differ\n"
    assert cli_diff.main([str(tmp_path / "old")]) == 2


def test_digest_prints_one_timing_per_run_on_stderr(tmp_path, capsys):
    import cli_digest

    from apxcp import cli

    runs = cli_digest.runs(cli.REGION_METHODS)
    src = Path(__file__).resolve().parents[1] / "src"
    assert cli_digest.main([str(src), str(tmp_path)]) == 0
    captured = capsys.readouterr()
    digests = captured.out.splitlines()
    # stdout holds only the digest lines, one per output file
    assert len(digests) == sum(len(list((tmp_path / name / "out").iterdir()))
                               for name, _, _ in runs)
    assert all(len(line.split("  ")[0]) == 64 for line in digests)
    timings = [line.split() for line in captured.err.splitlines()]
    assert [name for _, name in timings] == [name for name, _, _ in runs]
    assert all(float(seconds) > 0.0 for seconds, _ in timings)
