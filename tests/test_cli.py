"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import re

import numpy as np
import pytest

import coxfusion.zplus_module
from coxfusion.cli import main, parse_roster
from coxfusion.linalg import ConvergenceError


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

    @pytest.mark.parametrize("matrix", ["[[1,3.7],[3.7,1]]", "5"])
    def test_malformed_matrix(self, capsys, matrix):
        # truncating 3.7 to 3 would verify A2
        code, out, err = run(capsys, "verify", "--matrix", matrix, "--theorem")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_diagram(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 1 and "diagram" in err

    def test_non_convergence_is_exit_one(self, capsys, monkeypatch):
        def diverge(matrix):
            raise ConvergenceError("power iteration did not converge in 1 steps")

        monkeypatch.setattr(coxfusion.zplus_module, "perron_eigenpair", diverge)
        code, out, err = run(capsys, "verify", "A3")
        assert code == 1 and out == ""
        assert err == "error: power iteration did not converge in 1 steps\n"


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

    def test_non_crystallographic(self, capsys):
        code, out, _ = run(capsys, "project", "H3")
        assert code == 0
        assert len(out.splitlines()) == 30


class TestRoster:
    def test_parse_ranges(self):
        names = [d.name for d in parse_roster("A2..A4,D4,E6")]
        assert names == ["A2", "A3", "A4", "D4", "E6"]

    def test_parse_blank_tokens(self):
        assert [d.name for d in parse_roster("A3, ,E7")] == ["A3", "E7"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "suite", "--roster", "A2..D5")
        assert code == 1 and "roster" in err


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
        assert max(row["projector_distance"] for row in data) < 1e-8

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


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "invalid choice" in err
