import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import code_lines  # noqa: E402

# each line that counts ends in "# code"; every other line does not count
MODULE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment-only line
class Spec:  # code
    """Class docstring."""

    size = 3  # code

    def method(self):  # code
        """Method docstring,

        with a blank line."""
        text = """a string that is not a docstring,  # code

        blank line above and below not counted,  # code

        """  # code
        return text  # code


async def job():  # code
    """Async docstring."""
    "a string statement after the first is code"  # code
    return os.sep  # code
'''


def test_counts_code_lines_outside_comments_blanks_and_docstrings():
    assert code_lines.code_lines(MODULE) == MODULE.count("# code")


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    n = MODULE.count("# code")
    assert lines == [["1", "b.py"], [str(n), "pkg/a.py"], [str(n + 1), "total"]]


def test_main_rejects_bad_usage_and_an_empty_directory(tmp_path):
    assert code_lines.main([]) == 2
    assert code_lines.main([str(tmp_path)]) == 2


def test_main_with_a_base_prints_base_head_and_change(tmp_path, capsys):
    head, base = tmp_path / "head", tmp_path / "base"
    for root in (head, base):
        (root / "pkg").mkdir(parents=True)
    (head / "pkg" / "a.py").write_text(MODULE)
    (base / "pkg" / "a.py").write_text("x = 1\n")
    (head / "new.py").write_text("x = 1\ny = 2\n")  # only in the head
    (base / "gone.py").write_text("x = 1\n")  # only in the base
    assert code_lines.main([str(head), "--base", str(base)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    n = MODULE.count("# code")
    assert lines == [["base", "head", "change", "module"],
                     ["1", "0", "-1", "gone.py"],
                     ["0", "2", "+2", "new.py"],
                     ["1", str(n), f"+{n - 1}", "pkg/a.py"],
                     ["2", str(n + 2), f"+{n}", "total"]]


def test_main_with_a_base_rejects_bad_usage_and_an_empty_base(tmp_path):
    (tmp_path / "head").mkdir()
    (tmp_path / "head" / "a.py").write_text("x = 1\n")
    (tmp_path / "base").mkdir()
    head, base = str(tmp_path / "head"), str(tmp_path / "base")
    assert code_lines.main([head, "--base", base]) == 2
    assert code_lines.main([head, base]) == 2
    assert code_lines.main([head, "--base"]) == 2
