"""End-to-end comparison of fixed spaces with Coxeter planes."""

import importlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from coxfusion.coxeter import (
    Bipartition,
    CoxeterDiagram,
    CoxeterError,
    bipartition,
    coxeter_number,
    coxeter_plane,
    diagram,
    parse_diagram,
)
from coxfusion.fusion_ring import FusionRing, even_subring, verlinde_ring
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
from coxfusion.zplus_module import AdeModule, ade_module, regular_element, restrict
from helpers import reference_stack, traced_peak


def even_restriction(d):
    return restrict(ade_module(d))


class TestBifurcationLemma:
    @pytest.mark.parametrize("tag", ["A3", "A12", "D4", "D12", "E7", "E8"])
    def test_passes(self, tag):
        d = parse_diagram(tag)
        assert check_bifurcation_lemma(d.adjacency_matrix(), bipartition(d)).passed

    def test_rank_one(self):
        d = diagram("A", 1)
        assert check_bifurcation_lemma(d.adjacency_matrix(), bipartition(d)).passed

    @pytest.mark.parametrize(
        "plus,minus,witness",
        [((0, 2, 3), (1,), [(2, 3)]), ((0,), (1, 2, 3), [(1, 2)])],
    )
    def test_witness_names_vertices(self, plus, minus, witness):
        # A4 is the path 0-1-2-3; each wrong class joins one edge.
        parts = Bipartition(plus=plus, minus=minus)
        result = check_bifurcation_lemma(diagram("A", 4).adjacency_matrix(), parts)
        assert not result.passed
        assert result.witness == witness

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
        module = ade_module(d)
        result = check_regular_split(module, bipartition(d), regular_element(module))
        assert result.passed
        assert result.witness["sum"] < 1e-9
        assert result.witness["diff"] < 1e-9

    def test_a3_halves(self):
        d = diagram("A", 3)
        reg = regular_element(ade_module(d))
        scale = 2.0 + math.sqrt(2.0)
        assert np.max(np.abs(reg * scale - [1.0, math.sqrt(2.0), 1.0])) < 1e-9
        parts = bipartition(d)
        assert parts.plus == (0, 2) and parts.minus == (1,)

    def test_a2_equal_masses(self):
        reg = regular_element(ade_module(diagram("A", 2)))
        assert np.max(np.abs(reg - 0.5)) < 1e-10

    @pytest.mark.parametrize("tag", ["A3", "D4", "E6", "E8"])
    def test_halves_span_the_plane(self, tag):
        # r+ + r- and r+ - r- are the +/- eigenvectors that span the same
        # subspace as the plane eigenvectors u+ and u-.
        d = parse_diagram(tag)
        reg = regular_element(ade_module(d))
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

    def test_d300_projector_distance(self):
        # measured 1.5e-12; the dense rounding of the plane side once gave 6.4e-11
        assert check_main_theorem(parse_diagram("D300")).projector_distance < 5e-12

    def test_empty_fixed_space_fails_at_the_plane_distance(self, monkeypatch):
        # the projector onto no vectors is zero, so the distance is |P_plane| = sqrt(2)
        import coxfusion.verify

        empty = np.zeros((0, 8))
        monkeypatch.setattr(coxfusion.verify, "fixed_space", lambda action, regular: empty)
        report = check_main_theorem(diagram("E", 8))
        assert not report.passed
        assert report.fixed_dimension == 0
        assert report.projector_distance == pytest.approx(math.sqrt(2.0), rel=1e-14)

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
            "_bipartite_word",
        )
        module = ade_module(parse_diagram(tag))
        assert module.ring.rank == h - 1
        action = action_from_module(restrict(module))
        assert len(fixed_space(action, regular_element(module))) == 2

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

    for name in (
        "ade_module",
        "restrict",
        "even_subring",
        "coxeter_number",
        "cartan_form",
        "_bipartite_word",
        "_walk",
        "regular_element",
        "action_from_module",
        "fixed_space",
        "decompose",
        "perron_eigenpair",
    ):
        rebind(monkeypatch, name, counting(name))
    monkeypatch.setattr(CoxeterDiagram, "is_ade", counting("is_ade")(CoxeterDiagram.is_ade))
    monkeypatch.setattr(AdeModule, "__init__", counting("AdeModule")(AdeModule.__init__))
    # FP dimensions are cached on the ring objects; start from fresh rings.
    verlinde_ring.cache_clear()
    even_subring.cache_clear()
    assert check_main_theorem(diagram("E", 8)).passed
    # One Perron solve each for the full ring and the module: the even ring
    # reads the full ring's FP dimensions at its indices.  The only modules
    # built are the ADE module and its even restriction, whose action the
    # fixed space reads and whose support the decomposition lemma reads,
    # each once.  The regular element is solved for once, for the fixed
    # space and the regular-split lemma.  The plane builds the form, its walk and
    # gamma = s_plus s_minus once, and the lemmas read its classes; the graph
    # is walked once by the plane and once by the gate.
    assert calls == {
        "ade_module": 1,
        "restrict": 1,
        "even_subring": 1,
        "regular_element": 1,
        "action_from_module": 1,
        "fixed_space": 1,
        "decompose": 1,
        "coxeter_number": 1,
        "cartan_form": 1,
        "_bipartite_word": 1,
        "_walk": 2,
        "is_ade": 1,
        "perron_eigenpair": 2,
        "AdeModule": 2,
    }


class TestFactorisations:
    """How many dense symmetric or singular-value factorisations a theorem
    check takes: a second factorisation on the fusion side, or a second
    spectrum on the plane side, fails here."""

    NAMES = ("eigh", "eigvalsh", "svd", "eig", "eigvals")

    @classmethod
    def counted(cls, monkeypatch, call, *args):
        calls = Counter()
        for name in cls.NAMES:

            def count(*a, name=name, original=getattr(np.linalg, name), **kw):
                calls[name] += 1
                return original(*a, **kw)

            monkeypatch.setattr(np.linalg, name, count)
        result = call(*args)
        return calls, result

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30"])
    def test_one_eigh_per_side(self, monkeypatch, tag):
        # eigh of T on the fusion side, eigh of 2I - form on the plane side
        calls, report = self.counted(monkeypatch, check_main_theorem, parse_diagram(tag))
        assert report.passed
        assert calls == {"eigh": 2}

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30"])
    def test_no_einsum(self, monkeypatch, tag):
        # no stack of actions to contract: the Perron images of the regular
        # element come from the exact recursion, and W is a plain sum
        subscripts, einsum = Counter(), np.einsum

        def counted(spec, *operands, **kwargs):
            subscripts[spec] += 1
            return einsum(spec, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        assert check_main_theorem(parse_diagram(tag)).passed
        assert not subscripts

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30", "H4"])
    def test_coxeter_number_alone_takes_one_eigvalsh(self, monkeypatch, tag):
        calls, _ = self.counted(monkeypatch, coxeter_number, parse_diagram(tag))
        assert calls == {"eigvalsh": 1}


def test_cold_main_theorem_stores_no_stack():
    # D100: no ring table (R_197's would be 7.6 MB) and no stack of the
    # module's actions (1.97 MB in int8), only rank**2 arrays: the module's
    # sums, the exact images (0.32 MB) and the Perron arrays of R_197.  The
    # whole call peaks below the stack's size, so no one block reaches it.
    # The warm-up keeps numpy's first-call allocations out of the count.
    check_main_theorem(parse_diagram("D5"))
    d = parse_diagram("D100")
    verlinde_ring.cache_clear()
    even_subring.cache_clear()
    peak = traced_peak(check_main_theorem, d)
    assert peak < reference_stack(d).nbytes


def test_cold_d500_main_theorem_holds_one_image_array_per_solve():
    # The R_997 solve sets the peak: the int32 run-length sum (3.8 MB), the
    # Perron loop's float copy of it and one image array (7.6 MB each), and
    # one residual block.  A (k, n) residual temporary and a second image
    # array took it to 30.6 MiB, with the int64 adjacency held beside it.
    check_main_theorem(parse_diagram("D5"))
    d = parse_diagram("D500")
    verlinde_ring.cache_clear()
    even_subring.cache_clear()
    assert traced_peak(check_main_theorem, d) < 24 * 2**20


def test_d500_in_a_fresh_process_stays_under_100_mb():
    # The stored stack alone was 250 MB here, and the process peaked at
    # 296 MB.  The child reads its peak off VmHWM, the high-water mark of its
    # own address space: ru_maxrss of a child forked from this test process
    # starts at this process's size.
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "from coxfusion import check_main_theorem, parse_diagram;"
        "passed = check_main_theorem(parse_diagram('D500')).passed;"
        "status = open('/proc/self/status').read().split('VmHWM:')[1];"
        "print(json.dumps([passed, int(status.split()[0]) / 1024]))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-I", "-c", script, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    passed, rss_mb = json.loads(out.stdout)
    assert passed and rss_mb < 100


def test_main_theorem_builds_no_ring_table(monkeypatch):
    def refuse(ring):
        raise AssertionError(f"the table of {ring!r} was built")

    monkeypatch.setattr(FusionRing, "constants", property(refuse))
    verlinde_ring.cache_clear()
    even_subring.cache_clear()
    assert check_main_theorem(parse_diagram("D100")).passed
