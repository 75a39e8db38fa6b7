"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coxfusion
import coxfusion.cli
import coxfusion.coxeter
import coxfusion.fusion_ring
import coxfusion.zplus_module
from coxfusion.cli import _points_to_csv, _points_to_svg, build_parser, main, parse_roster
from coxfusion.coxeter import (
    CoxeterDiagram,
    coxeter_plane,
    diagram,
    parse_diagram,
    project_to_plane,
    root_system,
)
from coxfusion.fusion_ring import even_subring, verlinde_ring
from coxfusion.linalg import ConvergenceError, perron_eigenpair
from coxfusion.report import CheckResult
from coxfusion.verify import check_main_theorem, default_roster
from coxfusion.zplus_module import ZPlusModuleError
from helpers import fstring_csv, fstring_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRing:
    def test_table_default(self, capsys):
        code, out, _ = run(capsys, "ring", "3", "--table")
        assert code == 0
        data = json.loads(out)
        assert data["labels"] == ["Δ_0", "Δ_1", "Δ_2"]
        assert data["unit"] == 0
        assert data["involution"] == [0, 1, 2]
        assert data["products"]["Δ_1*Δ_1"] == ["Δ_0", "Δ_2"]

    def test_fpdims(self, capsys):
        code, out, _ = run(capsys, "ring", "3", "--fpdims")
        assert code == 0
        dims = json.loads(out)
        assert dims["Δ_0"] == 1.0
        assert dims["Δ_1"] == pytest.approx(math.sqrt(2.0), abs=1e-11)
        assert dims["Δ_2"] == 1.0

    def test_even_fpdims(self, capsys):
        code, out, _ = run(capsys, "ring", "5", "--even", "--fpdims")
        assert code == 0
        dims = json.loads(out)
        assert list(dims) == ["Δ_0", "Δ_2", "Δ_4"]
        assert dims["Δ_2"] == pytest.approx(2.0, abs=1e-10)
        assert dims["Δ_4"] == pytest.approx(1.0, abs=1e-10)

    def test_even_fpdims_take_one_solve(self, capsys, monkeypatch):
        # The even part reads R_N's dimensions: one Perron solve, of R_N.
        solves = []

        def counted(total, images):
            solves.append(len(total))
            return perron_eigenpair(total, images)

        monkeypatch.setattr(coxfusion.fusion_ring, "perron_eigenpair", counted)
        verlinde_ring.cache_clear()
        even_subring.cache_clear()
        code, out, _ = run(capsys, "ring", "40", "--even", "--fpdims")
        assert code == 0 and len(json.loads(out)) == 20
        assert solves == [40]

    def test_verify_mode(self, capsys):
        code, out, _ = run(capsys, "ring", "7", "--verify")
        assert code == 0
        report = json.loads(out)
        assert all(entry["passed"] for entry in report)

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "ring", "0")
        assert code == 1
        assert "error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ring.json"
        code, out, _ = run(capsys, "ring", "4", "--fpdims", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["Δ_1"] == pytest.approx(
            2.0 * math.cos(math.pi / 5.0), abs=1e-10
        )

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.28 TiB"), MemoryError()])
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, exc):
        # A real ``ring 100000`` asks for an n**3 mask and may be killed by the
        # system before numpy raises, so the failure is injected.
        def exhausted(n):
            raise exc

        monkeypatch.setattr(coxfusion.cli, "verlinde_ring", exhausted)
        code, out, err = run(capsys, "ring", "100000", "--fpdims")
        assert code == 1
        assert out == ""
        assert err == f"error: {str(exc) or 'MemoryError'}\n"

    def test_out_unwritable(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ring", "4", "--out", str(tmp_path / "missing" / "x.json")
        )
        assert code == 3
        assert "i/o error" in err


class TestVerify:
    def test_a3_all(self, capsys):
        code, out, _ = run(capsys, "verify", "A3", "--all")
        assert code == 0
        results = json.loads(out)
        assert results["main theorem"]["passed"]
        assert results["bifurcation lemma"]["passed"]
        assert results["decomposition lemma"]["passed"]
        assert results["regular split"]["passed"]

    def test_lemma_witnesses_at_twelve_digits(self, capsys):
        # the CLI rounds the regular-split residuals like every float it
        # prints; the library's CheckResult keeps them at full precision
        code, out, _ = run(capsys, "verify", "E8", "--lemmas")
        assert code == 0
        witness = json.loads(out)["regular split"]["witness"]
        full = check_main_theorem(diagram("E", 8)).lemmas[2].witness
        assert witness == {key: float(f"{v:.12g}") for key, v in full.items()}
        assert witness != full

    def test_default_is_all(self, capsys):
        code, out, _ = run(capsys, "verify", "D4")
        assert code == 0
        assert set(json.loads(out)) == {
            "bifurcation lemma",
            "decomposition lemma",
            "regular split",
            "main theorem",
        }

    def test_theorem_only_with_tol(self, capsys):
        code, out, _ = run(capsys, "verify", "E8", "--theorem", "--tol", "1e-8")
        assert code == 0
        results = json.loads(out)
        assert list(results) == ["main theorem"]
        assert results["main theorem"]["h"] == 30

    def test_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("COXFUSION_TOL", "1e-20")
        code, out, _ = run(capsys, "verify", "A5", "--theorem")
        assert code == 2
        assert not json.loads(out)["main theorem"]["passed"]

    def test_rank_one_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "A1")
        assert code == 1 and "rank" in err

    def test_non_ade_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "B4")
        assert code == 1 and "ADE" in err

    def test_custom_matrix(self, capsys):
        matrix = json.dumps([[1, 3, 2], [3, 1, 3], [2, 3, 1]])  # an A3 path
        code, out, _ = run(capsys, "verify", "--matrix", matrix)
        assert code == 0
        assert json.loads(out)["main theorem"]["h"] == 4

    @pytest.mark.parametrize(
        "matrix",
        ["[[1,3.7],[3.7,1]]", "5", "[[1,1e300],[1e300,1]]",
         "[[1,9223372036854775808],[9223372036854775808,1]]"],
    )
    def test_malformed_matrix(self, capsys, matrix):
        # truncating 3.7 to 3 would verify A2
        code, out, err = run(capsys, "verify", "--matrix", matrix, "--theorem")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_gate_per_command(self, capsys, monkeypatch):
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(CoxeterDiagram, "is_ade", counting("is_ade", CoxeterDiagram.is_ade))
        monkeypatch.setattr(
            coxfusion.coxeter,
            "coxeter_number",
            counting("coxeter_number", coxfusion.coxeter.coxeter_number),
        )
        code, _, _ = run(capsys, "verify", "E8")
        assert code == 0
        assert sorted(calls) == ["coxeter_number", "is_ade"]

    def test_missing_diagram(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 1 and "diagram" in err

    def test_non_convergence_is_exit_one(self, capsys, monkeypatch):
        def diverge(total, images):
            raise ConvergenceError("power iteration did not converge in 1 steps")

        monkeypatch.setattr(coxfusion.zplus_module, "perron_eigenpair", diverge)
        code, out, err = run(capsys, "verify", "A3")
        assert code == 1 and out == ""
        assert err == "error: power iteration did not converge in 1 steps\n"

    @pytest.mark.parametrize(
        "argv", [("suite", "--roster", "E8"), ("verify", "E8", "--theorem"), ("verify", "E8")]
    )
    def test_a_failed_lemma_fails_the_verdict(self, capsys, monkeypatch, argv):
        def failing(restricted, parts):
            return CheckResult("decomposition lemma", False, [[0]])

        monkeypatch.setattr(coxfusion.verify, "check_decomposition_lemma", failing)
        code, out, _ = run(capsys, *argv)
        assert code == 2
        reports = json.loads(out)
        report = reports[0] if argv[0] == "suite" else reports["main theorem"]
        assert report["decomposition_ok"] is False and report["passed"] is False

    def test_module_error_is_one_error_line(self, capsys, monkeypatch):
        # regular_element's absolute 1e-9 residual can fail at large rank
        def residual_too_large(module):
            raise ZPlusModuleError("eigen-relation for basis element 1 fails (residual 2.000e-09)")

        monkeypatch.setattr(coxfusion.verify, "regular_element", residual_too_large)
        code, out, err = run(capsys, "verify", "E8")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: eigen-relation for basis element 1 fails (residual 2.000e-09)"
        ]


class TestProject:
    def test_a2_hexagon_csv(self, capsys):
        code, out, _ = run(capsys, "project", "A2")
        assert code == 0
        points = [tuple(map(float, line.split(","))) for line in out.splitlines()]
        assert len(points) == 6
        angles = sorted(math.atan2(y, x) % (2.0 * math.pi) for x, y in points)
        assert np.max(np.abs(np.diff(angles) - math.pi / 3.0)) < 1e-6
        radii = [math.hypot(x, y) for x, y in points]
        assert max(radii) - min(radii) < 1e-6

    def test_a2_and_i2_3_print_exact_zeros(self, capsys):
        # the same group: with the exact form both print 0, not rounding noise
        outputs = [run(capsys, "project", tag)[1] for tag in ("A2", "I2(3)")]
        assert outputs[0] == outputs[1]
        assert "e-1" not in outputs[0]

    def test_rank_one_rejected(self, capsys):
        code, _, err = run(capsys, "project", "A1")
        assert code == 1 and "rank" in err

    def test_e8_svg(self, capsys, tmp_path):
        target = tmp_path / "e8.svg"
        code, _, _ = run(capsys, "project", "E8", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith('<?xml version="1.0"')
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', text)
        assert len(circles) == 240
        points = np.array([[float(x), float(y)] for x, y in circles])
        # 30-fold rotational symmetry of the projected point set
        theta = 2.0 * math.pi / 30.0
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        for point in points @ rot.T:
            assert np.min(np.max(np.abs(points - point), axis=1)) < 1e-6

    def test_svg_labels(self, capsys, tmp_path):
        target = tmp_path / "a3.svg"
        code, _, _ = run(capsys, "project", "A3", "--labels", "--out", str(target))
        assert code == 0
        assert target.read_text().count("<title>") == 12

    @pytest.mark.parametrize("tag", ["E8", "H4", "I2(9)"])
    def test_one_coxeter_number_per_diagram(self, capsys, monkeypatch, tag):
        import coxfusion.coxeter

        calls = []
        original = coxfusion.coxeter.coxeter_number

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(coxfusion.coxeter, "coxeter_number", counted)
        code, _, _ = run(capsys, "project", tag)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("tag", ["E8", "H4", "I2(9)"])
    def test_project_builds_the_plane_once(self, capsys, monkeypatch, tag):
        # one form, one walk of the graph and one gamma = s_plus s_minus feed the
        # plane and the roots; the gate reads the spectrum of the plane's eigh
        calls = []
        for name in ("_walk", "_bipartite_word", "cartan_form"):

            def counted(*args, name=name, original=getattr(coxfusion.coxeter, name), **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(coxfusion.coxeter, name, counted)
        code, _, _ = run(capsys, "project", tag)
        assert code == 0
        assert sorted(calls) == ["_bipartite_word", "_walk", "cartan_form"]

    def test_non_crystallographic(self, capsys):
        code, out, _ = run(capsys, "project", "H3")
        assert code == 0
        assert len(out.splitlines()) == 30

    def test_large_dihedral(self, capsys):
        # past m = 82570 the h interval is wider than 1 but still holds only m
        for tag, rows in [("I2(1001)", 2002), ("I2(90000)", 180000)]:
            code, out, _ = run(capsys, "project", tag)
            assert code == 0
            assert len(out.splitlines()) == rows

    def test_dihedral_past_float_resolution(self, capsys):
        code, out, err = run(capsys, "project", "I2(1000000)")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "float64 resolution" in lines[0]


RENDERED = ["A2", "A3", "E8", "H4", "F4", "B10", "D30"] + [f"I2({m})" for m in range(5, 41)]


def projected(tag):
    plane = coxeter_plane(parse_diagram(tag))
    return project_to_plane(root_system(plane), plane)


class TestRenderers:
    # the single % call against the per-point f-strings, byte for byte
    @pytest.mark.parametrize("tag", RENDERED)
    def test_csv_matches_fstring_reference(self, tag):
        points = projected(tag)
        assert _points_to_csv(points) == fstring_csv(points)

    @pytest.mark.parametrize("labels", [False, True], ids=["plain", "labels"])
    @pytest.mark.parametrize("tag", RENDERED)
    def test_svg_matches_fstring_reference(self, tag, labels):
        points = projected(tag)
        assert _points_to_svg(points, labels) == fstring_svg(points, labels)

    def test_special_values_match_fstring_reference(self):
        values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1e308, 1 / 3, -1e-5]
        points = np.array([[x, y] for x in values for y in values])
        assert _points_to_csv(points) == fstring_csv(points)
        finite = points[np.isfinite(points).all(axis=1)]
        for labels in (False, True):
            assert _points_to_svg(finite, labels) == fstring_svg(finite, labels)


class TestParserCache:
    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        original = coxfusion.cli._Parser.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(coxfusion.cli._Parser, "__init__", counted)
        build_parser.cache_clear()
        try:
            for argv in (["ring", "4"], ["project", "A3"], ["verify", "A3"], ["ring", "0"]):
                run(capsys, *argv)
        finally:
            build_parser.cache_clear()
        # the top-level parser and one subparser per command, each built once
        assert built == [
            "coxfusion",
            "coxfusion ring",
            "coxfusion verify",
            "coxfusion project",
            "coxfusion suite",
        ]

    def test_sections_do_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "verify", "E8", "--lemmas")
        assert code == 0 and "main theorem" not in json.loads(out)
        code, out, _ = run(capsys, "verify", "E8")
        sections = json.loads(out)
        assert code == 0 and "main theorem" in sections and len(sections) > 1

    def test_usage_error_does_not_carry_over(self, capsys):
        code, _, _ = run(capsys, "verify", "--lemmas", "--theorem", "A3")
        assert code == 1
        code, out, err = run(capsys, "verify", "A3", "--theorem")
        assert code == 0 and err == "" and json.loads(out)["main theorem"]["passed"]

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        target = tmp_path / "a3.csv"
        code, out, _ = run(capsys, "project", "A3", "--out", str(target))
        assert code == 0 and out == ""
        written = target.read_text()
        target.unlink()
        code, out, _ = run(capsys, "project", "A3")
        assert code == 0 and out == written
        assert not target.exists()


class TestRoster:
    def test_parse_ranges(self):
        names = [d.name for d in parse_roster("A2..A4,D4,E6")]
        assert names == ["A2", "A3", "A4", "D4", "E6"]

    def test_parse_blank_tokens(self):
        assert [d.name for d in parse_roster("A3, ,E7")] == ["A3", "E7"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "suite", "--roster", "A2..D5")
        assert code == 1 and "roster" in err

    @pytest.mark.parametrize("roster", ["A5..A2", "", ","])
    def test_empty_roster_rejected(self, capsys, roster):
        # a suite that verifies nothing must not report success
        code, out, err = run(capsys, "suite", "--roster", roster)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "roster" in err


class TestSuite:
    def test_small_roster(self, capsys):
        code, out, _ = run(capsys, "suite", "--roster", "A2,A3,D4")
        assert code == 0
        data = json.loads(out)
        assert [row["diagram"] for row in data] == ["A2", "A3", "D4"]
        assert all(row["passed"] for row in data)

    def test_default_roster(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 23
        assert [row["diagram"] for row in data] == [d.name for d in default_roster()]
        assert max(row["projector_distance"] for row in data) < 1e-8

    def test_default_roster_gates_each_diagram_once(self, capsys, monkeypatch):
        # the CLI's gate and ade_module's read one verdict per diagram
        calls = []
        original = coxfusion.coxeter._dynkin_tree

        def counted(neighbours, depth):
            calls.append(len(depth))
            return original(neighbours, depth)

        monkeypatch.setattr(coxfusion.coxeter, "_dynkin_tree", counted)
        code, _, _ = run(capsys, "suite")
        assert code == 0
        assert calls == [d.rank for d in default_roster()]

    def test_csv_output(self, capsys, tmp_path):
        json_path = tmp_path / "suite.json"
        csv_path = tmp_path / "suite.csv"
        code, _, _ = run(
            capsys,
            "suite",
            "--roster",
            "A2,E6",
            "--out",
            str(json_path),
            "--csv",
            str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("diagram,h,")
        assert lines[1].split(",")[0] == "A2"
        assert lines[2].split(",")[0] == "E6"

    def test_non_ade_roster_entry_rejected(self, capsys):
        code, out, err = run(capsys, "suite", "--roster", "A2,B3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "roster diagram B3" in err

    def test_rank_one_in_roster_rejected(self, capsys):
        code, _, err = run(capsys, "suite", "--roster", "A1,A2")
        assert code == 1 and "rank" in err

    def test_strict_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "suite", "--roster", "A2,A3", "--tol", "1e-18")
        assert code == 2
        assert "failing diagrams" in err
        assert not any(row["passed"] for row in json.loads(out))

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "suite", "--roster", "A2..A6,D4..D6,E6")
        _, second, _ = run(capsys, "suite", "--roster", "A2..A6,D4..D6,E6")
        assert first == second


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize(
    "command",
    [["verify", "A3", "--theorem"], ["suite", "--roster", "A2,A3"]],
    ids=["verify", "suite"],
)
def test_invalid_tolerance_rejected(capsys, monkeypatch, command, source, value):
    # nan, 0 and -1 would fail every diagram and inf would pass any distance
    argv = list(command)
    if source == "flag":
        argv += ["--tol", value]
    else:
        monkeypatch.setenv("COXFUSION_TOL", value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "tolerance" in err


def test_runtime_imports_only_numpy():
    # Modules loaded by site hooks (.pth files) show up in a bare
    # interpreter too, so only what importing the CLI adds is compared.
    # -I ignores PYTHONPATH, so the script puts src on sys.path itself.
    src = str(pathlib.Path(coxfusion.__file__).resolve().parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import coxfusion.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, src],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    added = set(result.stdout.split())
    assert {"coxfusion", "numpy"} <= added
    assert added - sys.stdlib_module_names <= {"coxfusion", "numpy"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "D12", "--theorem"],
        ["suite", "--roster", "A3,D4"],
        ["ring", "30", "--verify"],
        ["project", "H4"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_import_nothing_lazily(argv):
    # A command imports only what argparse's first message lookup does
    # (locale); a hot-path call that imports lazily, such as np.unique's
    # first call importing numpy.ma (8.7-11 ms), fails here.
    src = str(pathlib.Path(coxfusion.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1])\n"
        "import coxfusion.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = coxfusion.cli.main(sys.argv[2:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, src, *argv],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    code, added = json.loads(result.stdout)
    assert code == 0
    assert added == ["_locale", "locale"]


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "invalid choice" in err


# Bond orders of random diagrams: mostly commuting pairs, so that finite
# types turn up among the mostly hyperbolic rest; 0 is an infinite bond.
FUZZ_ORDERS = st.sampled_from([2, 2, 2, 2, 3, 3, 4, 5, 6, 7, 0])
FUZZ_ILLEGAL = st.sampled_from([1, -3, 2.5, 1e300, 2**63, float("inf"), float("nan")])
HYPERBOLIC_TREE = [[1, 7, 2, 3], [7, 1, 3, 2], [2, 3, 1, 2], [3, 2, 2, 1]]


@st.composite
def coxeter_matrices(draw):
    """Random Coxeter matrices of rank <= 7; a quarter carry an illegal entry,
    mirrored across the diagonal or not."""
    n = draw(st.integers(min_value=1, max_value=7))
    matrix = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(FUZZ_ORDERS)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i][j] = draw(FUZZ_ILLEGAL)
        if draw(st.booleans()):
            matrix[j][i] = matrix[i][j]
    return matrix


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["verify", "project"]), matrix=coxeter_matrices())
@example(command="project", matrix=HYPERBOLIC_TREE)
@example(command="verify", matrix=[[1, 1e300], [1e300, 1]])
def test_fuzzed_matrix_exits_cleanly(command, matrix):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main([command, "--matrix", json.dumps(matrix)])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
