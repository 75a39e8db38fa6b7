"""Diagrams, geometric representation, Coxeter numbers, planes, roots."""

import math

import numpy as np
import pytest

from coxfusion.coxeter import (
    CoxeterDiagram,
    CoxeterError,
    bipartition,
    cartan_form,
    coxeter_number,
    coxeter_plane,
    diagram,
    distinguished_coxeter_element,
    parse_diagram,
    plane_restriction,
    project_to_plane,
    reflection_matrices,
    root_system,
    rotation_angle,
)
from coxfusion.linalg import ConvergenceError, matrix_order, subspace_projector

ALL_TYPES = (
    [diagram("A", n) for n in range(2, 9)]
    + [diagram("B", n) for n in range(2, 9)]
    + [diagram("D", n) for n in range(4, 9)]
    + [diagram("E", n) for n in (6, 7, 8)]
    + [diagram("F", 4), diagram("H", 3), diagram("H", 4)]
    + [diagram("I2", m=m) for m in (4, 5, 7, 12)]
)

HYPERBOLIC_TREE = [[1, 7, 2, 3], [7, 1, 3, 2], [2, 3, 1, 2], [3, 2, 2, 1]]
AFFINE_A2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]


def _cycle(n):
    """Affine A_{n-1}: a cycle of n simple bonds."""
    mat = np.full((n, n), 2)
    np.fill_diagonal(mat, 1)
    for i in range(n):
        mat[i, (i + 1) % n] = mat[(i + 1) % n, i] = 3
    return mat


def _affine_d(n):
    """Affine D_{n-1}: a path on n - 2 vertices with one more leaf at each end."""
    mat = np.full((n, n), 2)
    np.fill_diagonal(mat, 1)
    bonds = [(i, i + 1) for i in range(n - 3)] + [(n - 2, 1), (n - 1, n - 4)]
    for i, j in bonds:
        mat[i, j] = mat[j, i] = 3
    return mat


class TestDiagram:
    def test_a3_path(self):
        d = diagram("A", 3)
        assert d.edges() == [(0, 1), (1, 2)]
        assert all(d.order(i, j) == 3 for i, j in d.edges())

    def test_i2_label(self):
        d = diagram("I2", m=7)
        assert d.order(0, 1) == 7

    def test_d4_star(self):
        d = diagram("D", 4)
        assert sorted(d.edges()) == [(0, 1), (1, 2), (1, 3)]

    def test_illegal_types(self):
        with pytest.raises(CoxeterError):
            diagram("D", 3)
        with pytest.raises(CoxeterError):
            diagram("I2", m=2)
        with pytest.raises(CoxeterError):
            diagram("E", 9)
        with pytest.raises(CoxeterError):
            diagram("Z", 4)

    def test_parse(self):
        assert parse_diagram("A3").name == "A3"
        assert parse_diagram("I2(7)").order(0, 1) == 7
        assert parse_diagram("e8").rank == 8
        with pytest.raises(CoxeterError):
            parse_diagram("Q17")

    def test_custom_matrix_validation(self):
        with pytest.raises(CoxeterError):
            CoxeterDiagram([[1, 3], [4, 1]])  # not symmetric
        with pytest.raises(CoxeterError):
            CoxeterDiagram([[2, 3], [3, 1]])  # bad diagonal

    @pytest.mark.parametrize(
        "matrix",
        [[[1, 3.7], [3.7, 1]], 5, [1, 3], [[[1]]], [[1, float("nan")], [float("nan"), 1]],
         [[1, None], [None, 1]], [[1, "x"], ["x", 1]], [[1, 1e300], [1e300, 1]],
         [[1, 2**63], [2**63, 1]]],
        ids=["fractional", "scalar", "vector", "3d", "nan", "none", "text", "1e300", "2**63"],
    )
    def test_non_integer_or_non_2d_rejected(self, matrix):
        with pytest.raises(CoxeterError):
            CoxeterDiagram(matrix)

    def test_integral_floats_accepted(self):
        d = CoxeterDiagram([[1.0, 3.0], [3.0, 1.0]])
        assert d.coxeter_matrix.dtype == np.int64 and d.order(0, 1) == 3

    def test_is_ade(self):
        assert diagram("A", 5).is_ade()
        assert diagram("E", 8).is_ade()
        assert not diagram("B", 4).is_ade()
        # affine A~1 (infinite type) is simply laced but not ADE-finite
        affine = CoxeterDiagram([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        assert not affine.is_ade()


class TestCartanForm:
    def test_a2(self):
        form = cartan_form(diagram("A", 2))
        assert np.allclose(form, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_i2_4_off_diagonal(self):
        form = cartan_form(diagram("I2", m=4))
        assert form[0, 1] == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_diagonal_always_two(self):
        for d in ALL_TYPES:
            assert np.allclose(np.diag(cartan_form(d)), 2.0, atol=1e-14)

    def test_infinite_bond_convention(self):
        d = CoxeterDiagram([[1, 0], [0, 1]])  # INFINITE sentinel is 0
        assert cartan_form(d)[0, 1] == pytest.approx(-2.0)

    def test_ade_adjacency_identity(self):
        for tag in ("A5", "D6", "E7"):
            d = parse_diagram(tag)
            sym = 2.0 * np.eye(d.rank) - cartan_form(d)
            assert np.max(np.abs(sym - d.adjacency_matrix())) < 1e-12


class TestReflections:
    def test_a2_first_reflection(self):
        s1 = reflection_matrices(diagram("A", 2))[0]
        assert np.allclose(s1, [[-1.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_involutions(self):
        for d in ALL_TYPES:
            for s in reflection_matrices(d):
                assert np.max(np.abs(s @ s - np.eye(d.rank))) < 1e-12

    def test_braid_relation_a3(self):
        s = reflection_matrices(diagram("A", 3))
        braid = np.linalg.matrix_power(s[0] @ s[1], 3)
        assert np.max(np.abs(braid - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_defining_relations(self, d):
        s = reflection_matrices(d)
        for i in range(d.rank):
            for j in range(d.rank):
                if i == j:
                    continue
                power = np.linalg.matrix_power(s[i] @ s[j], d.order(i, j))
                assert np.max(np.abs(power - np.eye(d.rank))) < 1e-9


class TestBipartition:
    def test_a3(self):
        parts = bipartition(diagram("A", 3))
        assert parts.plus == (0, 2)
        assert parts.minus == (1,)

    def test_a1(self):
        parts = bipartition(diagram("A", 1))
        assert parts.plus == (0,)
        assert parts.minus == ()

    def test_d4(self):
        parts = bipartition(diagram("D", 4))
        assert sorted(map(len, (parts.plus, parts.minus))) == [1, 3]

    def test_non_tree_rejected(self):
        triangle = CoxeterDiagram([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        with pytest.raises(CoxeterError):
            bipartition(triangle)


class TestDistinguishedElement:
    def test_orders(self):
        assert matrix_order(distinguished_coxeter_element(diagram("A", 2))) == 3
        assert matrix_order(distinguished_coxeter_element(diagram("A", 1))) == 2
        assert matrix_order(distinguished_coxeter_element(diagram("E", 8))) == 30

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_half_products_are_involutions(self, d):
        parts = bipartition(d)
        refl = reflection_matrices(d)
        for group in (parts.plus, parts.minus):
            half = np.eye(d.rank)
            for k in group:
                half = half @ refl[k]
            assert np.max(np.abs(half @ half - np.eye(d.rank))) < 1e-10


EXPECTED_H = (
    [(diagram("A", n), n + 1) for n in range(1, 13)]
    + [(diagram("D", n), 2 * n - 2) for n in range(4, 13)]
    + [(diagram("E", 6), 12), (diagram("E", 7), 18), (diagram("E", 8), 30)]
    + [(diagram("B", n), 2 * n) for n in range(2, 9)]
    + [(diagram("F", 4), 12), (diagram("H", 3), 10), (diagram("H", 4), 30)]
    + [(diagram("I2", m=m), m) for m in range(3, 21)]
)


class TestCoxeterNumber:
    @pytest.mark.parametrize("d,h", EXPECTED_H, ids=lambda v: str(v))
    def test_values(self, d, h):
        if isinstance(d, CoxeterDiagram):
            assert coxeter_number(d) == h

    @pytest.mark.parametrize(
        "d,h", [(d, h) for d, h in EXPECTED_H if d.is_ade()], ids=lambda v: str(v)
    )
    def test_ade_spectral_cross_check(self, d, h):
        if not isinstance(d, CoxeterDiagram):
            return
        top = float(np.max(np.linalg.eigvalsh(d.adjacency_matrix().astype(float))))
        assert abs(top - 2.0 * math.cos(math.pi / h)) < 1e-9

    def test_infinite_bond_rejected(self):
        with pytest.raises(CoxeterError):
            coxeter_number(CoxeterDiagram([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("m", [805, 999, 1001, 2000])
    def test_large_dihedral(self, m):
        # the h-th power of gamma rounds to about 1e-8 from I here
        assert coxeter_number(diagram("I2", m=m)) == m

    def test_order_past_float_resolution_raises(self):
        # the float64 powers of gamma drift by more than 1 from I here;
        # the search once returned 999997
        with pytest.raises(ConvergenceError, match="float64 resolution"):
            coxeter_number(diagram("I2", m=10**6))

    @pytest.mark.parametrize(
        "matrix",
        [HYPERBOLIC_TREE, [[1, 0], [0, 1]], AFFINE_A2, _cycle(101), _affine_d(101), _affine_d(301)],
        ids=["hyperbolic tree", "infinite bond", "affine A2", "affine A100", "affine D100",
             "affine D300"],
    )
    def test_form_gate_rejects_before_any_power(self, monkeypatch, matrix):
        import coxfusion.coxeter

        def forbidden(*args, **kwargs):
            raise AssertionError("matrix_order called on a non-finite type")

        monkeypatch.setattr(coxfusion.coxeter, "matrix_order", forbidden)
        with pytest.raises(CoxeterError, match="not positive definite"):
            coxeter_number(CoxeterDiagram(matrix))


class TestCoxeterPlane:
    def test_a3(self):
        plane = coxeter_plane(diagram("A", 3))
        assert plane.h == 4
        direction = plane.u_plus / plane.u_plus[0]
        assert np.max(np.abs(direction - [1.0, math.sqrt(2.0), 1.0])) < 1e-9
        direction = plane.u_minus / plane.u_minus[0]
        assert np.max(np.abs(direction - [1.0, -math.sqrt(2.0), 1.0])) < 1e-9

    def test_a2(self):
        plane = coxeter_plane(diagram("A", 2))
        assert plane.h == 3
        assert np.allclose(plane.u_plus / plane.u_plus[0], [1.0, 1.0], atol=1e-10)
        assert np.allclose(plane.u_minus / plane.u_minus[0], [1.0, -1.0], atol=1e-10)

    def test_i2_spans_everything(self):
        for m in (4, 9, 20):
            plane = coxeter_plane(diagram("I2", m=m))
            assert plane.h == m
            proj = subspace_projector([plane.u_plus, plane.u_minus])
            assert np.max(np.abs(proj - np.eye(2))) < 1e-9

    def test_rank_one_rejected(self):
        with pytest.raises(CoxeterError):
            coxeter_plane(diagram("A", 1))

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_eigenvector_relations(self, d):
        plane = coxeter_plane(d)
        form = cartan_form(d)
        sym = 2.0 * np.eye(d.rank) - form
        lam = 2.0 * math.cos(math.pi / plane.h)
        assert np.max(np.abs(sym @ plane.u_plus - lam * plane.u_plus)) < 1e-9
        assert np.max(np.abs(sym @ plane.u_minus + lam * plane.u_minus)) < 1e-9

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_gamma_preserves_plane_and_rotates_with_order_h(self, d):
        plane = coxeter_plane(d)
        proj = subspace_projector([plane.u_plus, plane.u_minus])
        leak = (np.eye(d.rank) - proj) @ plane.gamma @ proj
        assert np.max(np.abs(leak)) < 1e-8
        restricted = plane_restriction(plane)
        assert abs(np.linalg.det(restricted) - 1.0) < 1e-8
        assert -2.0 - 1e-8 <= np.trace(restricted) <= 2.0 + 1e-8
        assert matrix_order(restricted) == plane.h

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_gamma_order_matches_h(self, d):
        plane = coxeter_plane(d)
        assert matrix_order(plane.gamma) == plane.h

    def test_u_plus_positive(self):
        for d in ALL_TYPES:
            assert np.all(coxeter_plane(d).u_plus > 0)


ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "D4": 24, "B3": 18, "H3": 30, "E6": 72, "E8": 240,
    "F4": 48, "H4": 120, "B10": 200, "D30": 1740, "I2(40)": 80,
}


class TestRootSystem:
    @pytest.mark.parametrize("tag,count", sorted(ROOT_COUNTS.items()))
    def test_counts(self, tag, count):
        assert len(root_system(parse_diagram(tag))) == count

    def test_a1_roots(self):
        roots = root_system(diagram("A", 1))
        assert sorted(r[0] for r in roots) == [-1.0, 1.0]

    @pytest.mark.parametrize("tag", ["D4", "F4", "H3", "H4", "E8", "I2(7)"])
    def test_closed_under_reflections(self, tag):
        # distinct, containing the simple roots and closed under the
        # simple reflections: with the count n*h that is exactly Phi
        d = parse_diagram(tag)
        roots = np.array(root_system(d))
        gaps = np.max(np.abs(roots[:, None, :] - roots[None, :, :]), axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert np.min(gaps) > 1e-6
        for alpha in np.eye(d.rank):
            assert np.min(np.max(np.abs(roots - alpha), axis=1)) < 1e-9
        for s in reflection_matrices(d):
            for root in roots:
                image = s @ root
                assert np.min(np.max(np.abs(roots - image), axis=1)) < 1e-9

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 3, 3, 3, 3], [3, 1, 2, 2, 2], [3, 2, 1, 2, 2], [3, 2, 2, 1, 2], [3, 2, 2, 2, 1]],
            AFFINE_A2,
            [[1, 2], [2, 1]],
            [[1, 0], [0, 1]],
        ],
        ids=["affine D4", "affine A2", "A1xA1", "infinite bond"],
    )
    def test_non_finite_or_reducible_rejected(self, matrix):
        # affine D4 is a tree with finite bonds: its form is only
        # positive semidefinite, which tells it apart from a finite type
        with pytest.raises(CoxeterError):
            root_system(CoxeterDiagram(matrix))

    @pytest.mark.parametrize("tag", ["E8", "H4", "I2(7)"])
    def test_given_h_skips_coxeter_number(self, monkeypatch, tag):
        import coxfusion.coxeter

        d = parse_diagram(tag)
        expected = np.array(root_system(d))
        h = coxeter_number(d)

        def forbidden(*args, **kwargs):
            raise AssertionError("root_system recomputed h")

        monkeypatch.setattr(coxfusion.coxeter, "coxeter_number", forbidden)
        assert np.array_equal(np.array(root_system(d, h)), expected)

    @pytest.mark.parametrize("tag", ["E8", "H4"])
    def test_rows_are_gamma_orbits(self, tag):
        d = parse_diagram(tag)
        gamma = distinguished_coxeter_element(d)
        roots = np.array(root_system(d))
        assert np.max(np.abs(roots[d.rank :] - roots[: -d.rank] @ gamma.T)) < 1e-9


class TestProjection:
    def test_u_plus_projects_to_unit_x(self):
        plane = coxeter_plane(diagram("D", 5))
        point = project_to_plane([plane.u_plus], plane)[0]
        assert np.max(np.abs(point - [1.0, 0.0])) < 1e-10

    def test_a2_hexagon(self):
        d = diagram("A", 2)
        plane = coxeter_plane(d)
        points = project_to_plane(root_system(d), plane)
        angles = sorted(math.atan2(y, x) % (2.0 * math.pi) for x, y in points)
        gaps = np.diff(angles)
        assert np.max(np.abs(gaps - math.pi / 3.0)) < 1e-6
        radii = [math.hypot(x, y) for x, y in points]
        assert max(radii) - min(radii) < 1e-6

    @pytest.mark.parametrize("tag", ["A3", "D4", "E6", "E8", "H3", "B4"])
    def test_rotation_invariance(self, tag):
        d = parse_diagram(tag)
        plane = coxeter_plane(d)
        points = project_to_plane(root_system(d), plane)
        theta = rotation_angle(plane)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = points @ rot.T
        for point in rotated:
            assert np.min(np.max(np.abs(points - point), axis=1)) < 1e-6

    def test_gamma_image_matches_rotated_projection(self):
        d = diagram("E", 6)
        plane = coxeter_plane(d)
        roots = np.array(root_system(d))
        projected_images = project_to_plane(roots @ plane.gamma.T, plane)
        theta = rotation_angle(plane)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        expected = project_to_plane(roots, plane) @ rot.T
        assert np.max(np.abs(projected_images - expected)) < 1e-8
