"""The line counter in tools/src_lines.py, on a small source tree."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

ALPHA = '''"""Module docstring,
on two lines."""

# a comment line
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,
        spanning
        three lines."""
        "a string expression that is not a docstring"
        return os.sep  # a trailing comment keeps the line code
'''

BETA = '''async def run():
    """Async function docstring."""

    # an indented comment line
    return 1
'''


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "alpha.py").write_text(ALPHA, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "beta.py").write_text(BETA, encoding="utf-8")
    return tmp_path


def test_rows_and_total(tree, capsys):
    assert src_lines.main([str(tree)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "code", "docs"]
    rows = {name: (int(code), int(docs)) for name, code, docs in map(str.split, lines[1:])}
    # alpha: import, class, def, the bare string and return are code; the
    # module (2), class (1) and method (3) docstrings are docstring lines
    assert rows == {"alpha.py": (5, 6), "pkg/beta.py": (2, 1), "total": (7, 7)}
    assert list(rows) == ["alpha.py", "pkg/beta.py", "total"]


def test_count_of_one_module():
    assert src_lines.count(ALPHA) == (5, 6)
    assert src_lines.count(BETA) == (2, 1)
