"""Acceptance gate: one test per published correctness criterion.

Each test prints a single pass/fail line so the suite output doubles as
a checklist.  Tolerances are pinned here and must not be loosened.
"""

import math

import numpy as np
import pytest

from chebyshev import delta
from coxfusion.cli import main
from coxfusion.coxeter import (
    bipartition,
    coxeter_number,
    coxeter_plane,
    diagram,
    plane_restriction,
    project_to_plane,
    root_system,
    rotation_angle,
)
from coxfusion.fusion_ring import even_subring, verlinde_ring
from coxfusion.hypergroup import from_fusion_ring
from coxfusion.report import all_passed
from coxfusion.verify import check_main_theorem, default_roster
from coxfusion.zplus_module import ade_module
from helpers import dense_constants, matrix_order, reference_stack

ADE_ROSTER = default_roster()

ALL_TYPES_RANK_GE_2 = (
    [diagram("A", n) for n in range(2, 13)]
    + [diagram("D", n) for n in range(4, 13)]
    + [diagram("E", n) for n in (6, 7, 8)]
    + [diagram("B", n) for n in range(2, 9)]
    + [diagram("F", 4), diagram("H", 3), diagram("H", 4)]
    + [diagram("I2", m=m) for m in range(3, 21)]
)


def report(number: int, label: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number:2d} [{label}]: {verdict}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_01_fixed_space_equals_coxeter_plane():
    ok = True
    for d in ADE_ROSTER:
        r = check_main_theorem(d, tol=1e-8)
        ok = ok and r.fixed_dimension == 2 and r.projector_distance < 1e-8
    report(1, "fixed space equals Coxeter plane on the full roster", ok)


def test_criterion_02_module_well_defined():
    ok = True
    for d in ADE_ROSTER + [diagram("A", 1)]:
        module = ade_module(d)
        actions = reference_stack(d)
        h = coxeter_number(d)
        ok = ok and module.ring.rank == len(actions) == h - 1
        ok = ok and np.array_equal(module.total, actions.sum(axis=0, dtype=np.int32))
        ok = ok and np.all(actions >= 0)
        # the recursion must terminate: the next step is the exact zero matrix
        if h >= 3:
            top = actions[1] @ actions[-1] - actions[-2]
            ok = ok and np.array_equal(top, np.zeros_like(top))
        else:
            ok = ok and np.array_equal(d.adjacency_matrix(), np.zeros((1, 1), dtype=np.int64))
    report(2, "diagram modules have nonnegative terminating actions", ok)


def test_criterion_03_exact_fusion_ring_axioms():
    ok = True
    for n in range(1, 16):
        ring = verlinde_ring(n)
        sub = even_subring(ring)
        ok = ok and all_passed(ring.verify_axioms())
        ok = ok and all_passed(sub.verify_axioms())
    report(3, "exact fusion ring axioms for rank <= 15 and even parts", ok)


def test_criterion_04_hypergroup_axioms():
    ok = True
    for n in range(1, 31):
        for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))):
            constants = dense_constants(from_fusion_ring(ring))
            ok = ok and np.max(np.abs(constants.sum(axis=2) - 1.0)) < 1e-10
            col0 = constants[:, :, 0]
            ok = ok and np.max(np.abs(col0 - col0.T)) < 1e-10
            for i in range(ring.rank):
                for j in range(ring.rank):
                    ok = ok and (col0[i, j] > 0) == (j == i)
    report(4, "hypergroup row sums and involution condition up to rank 30", ok)


def test_criterion_05_fp_dimension_closed_form():
    # The closed form evaluates the basis polynomial at 2cos(pi/(n+1)).
    # Plain float Horner on the large integer coefficients is not accurate
    # to 1e-10 near rank 30, so the evaluation is done in extended
    # precision; the comparison itself stays at the stated tolerance.
    sympy = pytest.importorskip("sympy")
    ok = True
    for n in range(1, 31):
        ring = verlinde_ring(n)
        arg = (2 * sympy.cos(sympy.pi / (n + 1))).evalf(50)
        for k in range(n):
            coeffs = delta(k).coefficients
            exact = sum(c * arg**m for m, c in enumerate(coeffs))
            ok = ok and abs(ring.fp_dim(k) - float(exact.evalf(30))) < 1e-10
    report(5, "FP dimensions match the evaluated closed form up to rank 30", ok)


def test_criterion_06_coxeter_numbers():
    expected = (
        [(diagram("A", n), n + 1) for n in range(1, 13)]
        + [(diagram("D", n), 2 * n - 2) for n in range(4, 13)]
        + [(diagram("E", 6), 12), (diagram("E", 7), 18), (diagram("E", 8), 30)]
        + [(diagram("B", n), 2 * n) for n in range(2, 9)]
        + [(diagram("F", 4), 12), (diagram("H", 3), 10), (diagram("H", 4), 30)]
        + [(diagram("I2", m=m), m) for m in range(3, 21)]
    )
    ok = True
    for d, h in expected:
        ok = ok and coxeter_number(d) == h
        if d.is_ade():
            lam = float(np.max(np.linalg.eigvalsh(d.adjacency_matrix().astype(float))))
            ok = ok and abs(lam - 2.0 * math.cos(math.pi / h)) < 1e-9
    report(6, "Coxeter numbers for every listed family with spectral cross-check", ok)


def test_criterion_07_plane_eigenvalue_simplicity_and_rotation_order():
    ok = True
    for d in ALL_TYPES_RANK_GE_2:
        plane = coxeter_plane(d)  # raises unless the 2cos(pi/h) gap at the top exceeds 1e-6
        eigenvalues = np.linalg.eigvalsh(2.0 * np.eye(d.rank) - np.array(plane.form))
        lam = 2.0 * math.cos(math.pi / plane.h)
        for target in (lam, -lam):
            gaps = np.abs(eigenvalues - target)
            nearest = np.sort(gaps)
            ok = ok and nearest[0] < 1e-9 and (len(nearest) < 2 or nearest[1] > 1e-6)
        ok = ok and matrix_order(plane_restriction(plane)) == plane.h
    report(7, "plane eigenvalues are simple and the rotation has order h", ok)


def test_criterion_08_structure_lemmas():
    ok = True
    for d in ADE_ROSTER:
        bifurcation, decomposition, split = check_main_theorem(d).lemmas
        ok = ok and bifurcation.passed
        ok = ok and decomposition.passed
        ok = ok and split.passed
    report(8, "bifurcation, decomposition and regular-split lemmas on the roster", ok)


def test_criterion_09_root_projection():
    pins = {"A2": 6, "A3": 12, "D4": 24, "E8": 240}
    ok = True
    for tag, count in pins.items():
        family, rank = tag[0], int(tag[1:])
        d = diagram(family, rank)
        plane = coxeter_plane(d)
        roots = root_system(plane)
        ok = ok and len(roots) == count
        points = np.asarray(project_to_plane(roots, plane))
        theta = rotation_angle(plane)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        for point in points @ rot.T:
            ok = ok and np.min(np.max(np.abs(points - point), axis=1)) < 1e-6
    report(9, "root counts match pins and projections are rotation invariant", ok)


def test_criterion_10_deterministic_suite(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["suite", "--out", str(first)]) == 0
    assert main(["suite", "--out", str(second)]) == 0
    capsys.readouterr()
    ok = first.read_bytes() == second.read_bytes() and first.stat().st_size > 0
    report(10, "two suite runs produce byte-identical reports", ok)
