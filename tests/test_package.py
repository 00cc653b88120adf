import os
import subprocess
import sys
from pathlib import Path

import pytest

import apxcp
from apxcp import cli

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_and_appear_once():
    names = apxcp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(apxcp, name) is not None, name


def test_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the test oracles
    code = ("import sys, apxcp, apxcp.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # the distribution carries the import package's and the script's name
    assert project["name"] == "apxcp" == apxcp.__name__
    assert "apxcp" in project["scripts"]
    assert apxcp.__version__ == project["version"]
    assert cli.VERSION == apxcp.__version__
