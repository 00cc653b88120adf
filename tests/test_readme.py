"""README's "Library use" examples run as written, in order, so the
signatures they show cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_examples_run(capsys):
    blocks = _library_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == sum(block.count("print(") for block in blocks)
