"""End-to-end comparison of fixed spaces with Coxeter planes."""

import importlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from coxfusion.coxeter import (
    CoxeterDiagram,
    CoxeterError,
    bipartition,
    coxeter_plane,
    diagram,
    parse_diagram,
)
from coxfusion.fusion_ring import even_subring, verlinde_ring
from coxfusion.hypergroup import action_from_module, fixed_space
from coxfusion.linalg import subspace_projector
from coxfusion.verify import (
    check_bifurcation_lemma,
    check_decomposition_lemma,
    check_main_theorem,
    check_regular_split,
    default_roster,
    reports_to_csv,
    reports_to_json,
    run_suite,
)
from coxfusion.zplus_module import ZPlusModule, ade_module, regular_element, restrict


def even_restriction(d):
    module = ade_module(d)
    even, embedding = even_subring(module.ring)
    return restrict(module, even, embedding)


class TestBifurcationLemma:
    @pytest.mark.parametrize("tag", ["A3", "A12", "D4", "D12", "E7", "E8"])
    def test_passes(self, tag):
        d = parse_diagram(tag)
        assert check_bifurcation_lemma(d.adjacency_matrix(), bipartition(d)).passed

    def test_rank_one(self):
        d = diagram("A", 1)
        assert check_bifurcation_lemma(d.adjacency_matrix(), bipartition(d)).passed

    def test_rejects_non_ade(self):
        # The ADE gate sits in ade_module, the first stage of every check.
        with pytest.raises(CoxeterError):
            ade_module(diagram("B", 3))


class TestDecompositionLemma:
    @pytest.mark.parametrize("tag", ["A2", "A7", "D5", "D10", "E6", "E8"])
    def test_passes(self, tag):
        d = parse_diagram(tag)
        parts = bipartition(d)
        result = check_decomposition_lemma(even_restriction(d), parts)
        assert result.passed
        assert result.witness == [sorted(parts.plus), sorted(parts.minus)]

    def test_rank_one_rejected(self):
        # The rank gate sits in check_main_theorem, before any stage runs.
        with pytest.raises(CoxeterError, match="rank < 2"):
            check_main_theorem(diagram("A", 1))


class TestRegularSplit:
    @pytest.mark.parametrize("d", default_roster(), ids=lambda d: d.name)
    def test_passes_roster(self, d):
        result = check_regular_split(ade_module(d), bipartition(d))
        assert result.passed
        assert result.witness["sum"] < 1e-9
        assert result.witness["diff"] < 1e-9

    def test_a3_halves(self):
        d = diagram("A", 3)
        reg = regular_element(ade_module(d)).coordinates
        scale = 2.0 + math.sqrt(2.0)
        assert np.max(np.abs(reg * scale - [1.0, math.sqrt(2.0), 1.0])) < 1e-9
        parts = bipartition(d)
        assert parts.plus == (0, 2) and parts.minus == (1,)

    def test_a2_equal_masses(self):
        reg = regular_element(ade_module(diagram("A", 2))).coordinates
        assert np.max(np.abs(reg - 0.5)) < 1e-10

    @pytest.mark.parametrize("tag", ["A3", "D4", "E6", "E8"])
    def test_halves_span_the_plane(self, tag):
        # r+ + r- and r+ - r- are the +/- eigenvectors that span the same
        # subspace as the plane eigenvectors u+ and u-.
        d = parse_diagram(tag)
        reg = regular_element(ade_module(d)).coordinates
        parts = bipartition(d)
        r_plus = np.zeros(d.rank)
        r_minus = np.zeros(d.rank)
        r_plus[list(parts.plus)] = reg[list(parts.plus)]
        r_minus[list(parts.minus)] = reg[list(parts.minus)]
        plane = coxeter_plane(d)
        span_reg = subspace_projector([r_plus + r_minus, r_plus - r_minus])
        span_plane = subspace_projector([plane.u_plus, plane.u_minus])
        assert np.max(np.abs(span_reg - span_plane)) < 1e-8


class TestMainTheorem:
    def test_a3(self):
        report = check_main_theorem(diagram("A", 3))
        assert report.passed
        assert report.h == 4
        assert report.fixed_dimension == 2
        assert report.projector_distance < 1e-10
        assert [check.passed for check in report.lemmas] == [True, True, True]

    def test_a2_plane_is_whole_space(self):
        report = check_main_theorem(diagram("A", 2))
        assert report.passed
        assert report.fixed_dimension == 2
        assert report.projector_distance < 1e-10

    def test_e8(self):
        report = check_main_theorem(diagram("E", 8))
        assert report.passed
        assert report.h == 30
        assert abs(abs(report.rotation_angle) - 2.0 * math.pi / 30.0) < 1e-10

    def test_rank_one_rejected(self):
        with pytest.raises(CoxeterError):
            check_main_theorem(diagram("A", 1))

    def test_non_ade_rejected(self):
        with pytest.raises(CoxeterError):
            check_main_theorem(diagram("H", 3))


class TestSuite:
    def test_default_roster_names(self):
        names = [d.name for d in default_roster()]
        assert names[0] == "A2" and names[-1] == "E8"
        assert len(names) == 11 + 9 + 3

    def test_run_suite_all_green(self):
        reports = run_suite(default_roster())
        assert all(r.passed for r in reports)
        assert max(r.projector_distance for r in reports) < 1e-10
        assert all(r.fixed_dimension == 2 for r in reports)

    def test_json_round_trip(self):
        reports = run_suite([diagram("A", 2), diagram("D", 4)])
        data = json.loads(reports_to_json(reports))
        assert [row["diagram"] for row in data] == ["A2", "D4"]
        assert all(row["passed"] for row in data)
        assert data[1]["h"] == 6

    def test_csv_shape(self):
        reports = run_suite([diagram("A", 3)])
        lines = reports_to_csv(reports).splitlines()
        assert lines[0] == "diagram,h,fixed_dimension,projector_distance,passed"
        fields = lines[1].split(",")
        assert fields[0] == "A3" and fields[1] == "4" and fields[-1] == "True"


MODULES = [
    importlib.import_module(f"coxfusion.{name}")
    for name in ("cli", "coxeter", "fusion_ring", "hypergroup", "linalg", "verify", "zplus_module")
]


def rebind(monkeypatch, name, make):
    """Replace ``name`` by ``make(original)`` in every module that binds it."""
    bound = [module for module in MODULES if name in vars(module)]
    replacement = make(vars(bound[0])[name])
    for module in bound:
        monkeypatch.setattr(module, name, replacement)


def forbid(monkeypatch, *names):
    for name in names:

        def make(original, name=name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{name} called from the other pipeline")

            return refuse

        rebind(monkeypatch, name, make)


class TestIndependence:
    @pytest.mark.parametrize("tag,h", [("E8", 30), ("D7", 12)])
    def test_fixed_space_path_reads_no_coxeter_data(self, monkeypatch, tag, h):
        forbid(
            monkeypatch,
            "coxeter_number",
            "cartan_form",
            "reflection_matrices",
            "distinguished_coxeter_element",
        )
        module = ade_module(parse_diagram(tag))
        assert module.ring.rank == h - 1
        even, embedding = even_subring(module.ring)
        action = action_from_module(restrict(module, even, embedding))
        assert fixed_space(action).dimension == 2

    @pytest.mark.parametrize("tag,h", [("E8", 30), ("D7", 12)])
    def test_plane_path_reads_no_fusion_data(self, monkeypatch, tag, h):
        forbid(monkeypatch, "verlinde_ring", "ade_module", "perron_eigenpair")
        assert coxeter_plane(parse_diagram(tag)).h == h


def test_main_theorem_runs_each_stage_once(monkeypatch):
    calls = Counter()

    def counting(name):
        def make(original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        return make

    for name in ("ade_module", "restrict", "coxeter_number", "perron_eigenpair"):
        rebind(monkeypatch, name, counting(name))
    monkeypatch.setattr(CoxeterDiagram, "is_ade", counting("is_ade")(CoxeterDiagram.is_ade))
    monkeypatch.setattr(
        ZPlusModule, "__init__", counting("ZPlusModule")(ZPlusModule.__init__)
    )
    # FP dimensions are cached on the ring objects; start from fresh rings.
    verlinde_ring.cache_clear()
    even_subring.cache_clear()
    assert check_main_theorem(diagram("E", 8)).passed
    # One Perron solve each for the full ring, the even ring and the module;
    # the only modules built are the ADE module and its even restriction.
    assert calls == {
        "ade_module": 1,
        "restrict": 1,
        "coxeter_number": 1,
        "is_ade": 1,
        "perron_eigenpair": 3,
        "ZPlusModule": 2,
    }
