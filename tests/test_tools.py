"""The tools: the line counter in tools/src_lines.py, on a small source
tree, and the fresh-process probe in tools/fresh_peak.py, on E8."""

import importlib.util
import sys
from pathlib import Path

import pytest

from coxfusion import check_main_theorem, parse_diagram

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = _load("src_lines")
fresh_peak = _load("fresh_peak")

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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM in /proc")
def test_fresh_peak_of_e8(capsys):
    assert fresh_peak.main(["--runs", "2", "E8"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["diagram", "time_s", "vmhwm_mb", "distance"]
    tag, seconds, peak_mb, distance = row.split()
    assert tag == "E8" and 0 < float(seconds) < 10 and 1 < float(peak_mb) < 1000
    expected = check_main_theorem(parse_diagram("E8")).projector_distance
    assert distance == f"{expected:.2e}"


def test_fresh_peak_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(fresh_peak, "measure", lambda tag, src: (0.5, 40.0, 1.0, False))
    assert fresh_peak.main(["E8"]) == 1
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split() == ["E8", "0.500", "40.0", "1.00e+00", "FAILED"]
