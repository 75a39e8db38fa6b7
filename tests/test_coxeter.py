"""Diagrams, geometric representation, Coxeter numbers, planes, roots."""

import math

import numpy as np
import pytest

from coxfusion.coxeter import (
    CoxeterDiagram,
    CoxeterError,
    _bipartite_word,
    bipartition,
    cartan_form,
    coxeter_number,
    coxeter_plane,
    diagram,
    parse_diagram,
    plane_restriction,
    project_to_plane,
    root_system,
    rotation_angle,
)
from coxfusion.linalg import ConvergenceError, subspace_projector
from coxfusion.verify import default_roster
from helpers import (
    affine_d,
    cycle,
    e10,
    edges,
    matrix_order,
    positive_definite,
    reflection_matrices,
    traced_peak,
)

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


class TestDiagram:
    def test_a3_path(self):
        d = diagram("A", 3)
        assert edges(d) == [(0, 1), (1, 2)]
        assert all(d.coxeter_matrix[i, j] == 3 for i, j in edges(d))

    def test_i2_label(self):
        d = diagram("I2", m=7)
        assert d.coxeter_matrix[0, 1] == 7

    def test_d4_star(self):
        d = diagram("D", 4)
        assert sorted(edges(d)) == [(0, 1), (1, 2), (1, 3)]

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
        assert parse_diagram("I2(7)").coxeter_matrix[0, 1] == 7
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
        assert d.coxeter_matrix.dtype == np.int64 and d.coxeter_matrix[0, 1] == 3

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

    @pytest.mark.parametrize("m,entry", [(2, 0.0), (3, -1.0)])
    def test_exact_entries(self, m, entry):
        # -2cos(pi/2) and -2cos(pi/3) round to -1.2e-16 and -1.0000000000000002
        form = cartan_form(CoxeterDiagram([[1, m], [m, 1]]))
        assert np.array_equal(form, [[2.0, entry], [entry, 2.0]])

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
                power = np.linalg.matrix_power(s[i] @ s[j], d.coxeter_matrix[i, j])
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

    @pytest.mark.parametrize(
        "tag,perm,degree",
        [
            ("D5", [1, 4, 0, 2, 3], 3),
            ("D5", [3, 0, 1, 2, 4], 2),
            ("E6", [2, 0, 1, 3, 4, 5], 3),
            ("E6", [3, 5, 4, 2, 1, 0], 2),
        ],
        ids=["D5 branch", "D5 inner", "E6 branch", "E6 inner"],
    )
    def test_classes_are_distance_parity_from_vertex_0(self, tag, perm, degree):
        d = CoxeterDiagram(parse_diagram(tag).coxeter_matrix[np.ix_(perm, perm)])
        adj = d.adjacency_matrix()
        assert adj[0].sum() == degree
        # reference: the distance to v is the first k with (A + I)**k [0, v] > 0
        dist = np.full(d.rank, -1)
        reach = np.eye(d.rank, dtype=np.int64)[0]
        for k in range(d.rank):
            dist[(reach > 0) & (dist < 0)] = k
            reach = np.minimum(reach @ (adj + np.eye(d.rank, dtype=np.int64)), 1)
        assert np.all(dist >= 0)
        parts = bipartition(d)
        assert parts.plus == tuple(np.flatnonzero(dist % 2 == 0).tolist())
        assert parts.minus == tuple(np.flatnonzero(dist % 2 == 1).tolist())

    @pytest.mark.parametrize("isolated", [0, 3])
    def test_forest_with_rank_minus_one_edges_rejected(self, isolated):
        # a triangle and an isolated vertex: rank - 1 edges, yet the walk misses a vertex
        matrix = np.full((4, 4), 3)
        matrix[isolated, :] = matrix[:, isolated] = 2
        np.fill_diagonal(matrix, 1)
        d = CoxeterDiagram(matrix)
        assert len(edges(d)) == d.rank - 1
        with pytest.raises(CoxeterError, match="tree-shaped"):
            bipartition(d)


def dense_word(d):
    """Reference for the closed form: the running product of the dense
    reflections along the bipartite order, with the column taken at each step."""
    parts = bipartition(d)
    refl = reflection_matrices(d)
    gamma = np.eye(d.rank)
    theta = []
    for k in parts.plus + parts.minus:
        theta.append(gamma[:, k].copy())
        gamma = gamma @ refl[k]
    return np.array(theta), gamma


class TestDistinguishedElement:
    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_walk_matches_dense_product(self, d):
        # measured: 0 on every type here, since the form is exactly 0 inside each class
        _, gamma = dense_word(d)
        closed = _bipartite_word(bipartition(d), cartan_form(d))[1]
        assert np.max(np.abs(closed - gamma)) <= 1e-14

    @pytest.mark.parametrize("d", ALL_TYPES, ids=lambda d: d.name)
    def test_first_roots_are_running_product_columns(self, d):
        # theta_j is alpha_j on the even class and column j of s_plus on the odd class
        theta, _ = dense_word(d)
        roots = np.array(root_system(coxeter_plane(d)))
        assert np.max(np.abs(roots[: d.rank] - theta)) <= 1e-14

    def test_orders(self):
        assert matrix_order(dense_word(diagram("A", 2))[1]) == 3
        assert matrix_order(dense_word(diagram("A", 1))[1]) == 2
        assert matrix_order(dense_word(diagram("E", 8))[1]) == 30

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

    @pytest.mark.parametrize("m", [805, 999, 1001, 2000, 82571, 100000])
    def test_large_dihedral(self, m):
        # past m = 82570 the eigenvalue's error bar spans more than one unit of h,
        # but the interval stays centred on m and holds no other integer
        assert coxeter_number(diagram("I2", m=m)) == m

    def test_order_past_float_resolution_raises(self):
        # the smallest form eigenvalue places h within about 1800 integers here
        with pytest.raises(ConvergenceError, match="float64 resolution"):
            coxeter_number(diagram("I2", m=10**6))

    @pytest.mark.parametrize("tag", ["A100", "D100", "B10", "H4", "E8", "I2(805)"])
    def test_matches_gamma_order(self, tag):
        # the spectral h against gamma's order, found by the independent power walk
        d = parse_diagram(tag)
        assert coxeter_number(d) == matrix_order(dense_word(d)[1])

    @pytest.mark.parametrize(
        "d,h",
        [
            (CoxeterDiagram(matrix), None)
            for matrix in (
                HYPERBOLIC_TREE, [[1, 0], [0, 1]], AFFINE_A2, cycle(101), affine_d(101),
                affine_d(301),
            )
        ]
        + [(diagram("E", 8), 30), (diagram("H", 4), 30), (diagram("I2", m=7), 7)],
        ids=["hyperbolic tree", "infinite bond", "affine A2", "affine A100", "affine D100",
             "affine D300", "E8", "H4", "I2(7)"],
    )
    def test_form_gate_rejects_before_any_power(self, monkeypatch, d, h):
        # the gate and h both come from the form's eigenvalues: no bipartition, no gamma
        import coxfusion.coxeter

        def forbidden(*args, **kwargs):
            raise AssertionError("coxeter_number built the bipartition or gamma")

        for name in ("_bipartite_word", "bipartition"):
            monkeypatch.setattr(coxfusion.coxeter, name, forbidden)
        if h is None:
            with pytest.raises(CoxeterError, match="not positive definite"):
                coxeter_number(d)
        else:
            assert coxeter_number(d) == h


def _simply_laced_and_connected(d):
    off = d.coxeter_matrix[~np.eye(d.rank, dtype=bool)]
    return d.is_connected() and bool(np.all((off == 2) | (off == 3)))


GATE_INPUTS = list(
    {
        d.name: d
        for d in ALL_TYPES
        + [d for d, _ in EXPECTED_H]
        + [
            CoxeterDiagram(matrix, name)
            for matrix, name in [
                (e10(), "E10"),
                (AFFINE_A2, "affine A2"),
                (cycle(101), "affine A100"),
                (affine_d(101), "affine D100"),
                (affine_d(301), "affine D300"),
            ]
        ]
        if _simply_laced_and_connected(d)
    }.values()
)


@pytest.mark.parametrize("d", GATE_INPUTS, ids=lambda d: d.name)
def test_is_ade_agrees_with_coxeter_number_gate(d):
    # the fusion side gates on 2I - A, the plane side on the form: one rule, two matrices
    try:
        coxeter_number(d)
    except CoxeterError:
        finite = False
    else:
        finite = True
    assert d.is_ade() == finite


def tree(bonds, name):
    """The simply laced diagram with the given bonds, its vertices permuted by a
    fixed shuffle, so that vertex 0 is no particular vertex of the tree."""
    n = 1 + max((max(bond) for bond in bonds), default=0)
    perm = np.random.default_rng(n).permutation(n)
    mat = np.full((n, n), 2)
    np.fill_diagonal(mat, 1)
    for i, j in bonds:
        mat[perm[i], perm[j]] = mat[perm[j], perm[i]] = 3
    return CoxeterDiagram(mat, name)


def star(*arms):
    """T_{p,q,r,...}: arms of p, q, r, ... vertices around vertex 0, the centre
    counted in each; one arm of p vertices is the path A_p."""
    bonds, size = [], 1
    for arm in arms:
        prev = 0
        for _ in range(arm - 1):
            bonds.append((prev, size))
            prev, size = size, size + 1
    return tree(bonds, "T" + ",".join(map(str, arms)))


def double_star(left, spine, right):
    """Two branch vertices joined by a path of ``spine`` bonds, each carrying
    two more arms, of the vertex counts in ``left`` and ``right`` (the branch
    vertex counted in each)."""
    bonds = [(i, i + 1) for i in range(spine)]
    size = spine + 1
    for centre, arms in ((0, left), (spine, right)):
        for arm in arms:
            prev = centre
            for _ in range(arm - 1):
                bonds.append((prev, size))
                prev, size = size, size + 1
    return tree(bonds, f"H{left},{spine},{right}")


STARS = [star(p, q, r) for p in range(1, 10) for q in range(p, 10) for r in range(q, 10)]
PATHS = [star(n) for n in list(range(1, 41)) + [97, 200, 301]]
WIDE_TREES = [
    star(2, 2, 2, 2),  # affine D4
    star(2, 2, 2, 3),
    star(2, 2, 2, 2, 2),
    star(3, 3, 3, 3),
    double_star((2, 2), 1, (2, 2)),  # affine D5
    double_star((2, 2), 4, (2, 2)),  # affine D8
    double_star((2, 2), 1, (2, 3)),
    double_star((2, 3), 5, (3, 4)),
    double_star((2, 2), 1, (2, 2, 2)),  # a degree-4 vertex and a second branch
]
AFFINE = [
    CoxeterDiagram(matrix, name)
    for matrix, name in [(cycle(n + 1), f"affine A{n}") for n in range(2, 12)]
    + [(affine_d(n + 1), f"affine D{n}") for n in range(4, 16)]
] + [star(3, 3, 3), star(2, 4, 4), star(2, 3, 6)]  # affine E6, E7, E8


@pytest.mark.parametrize(
    "d", STARS + PATHS + WIDE_TREES + AFFINE + GATE_INPUTS, ids=lambda d: d.name
)
def test_exact_gate_agrees_with_the_form(d):
    # the graph rule decides what the spectral test of 2I - A decides
    reference = positive_definite(2.0 * np.eye(d.rank) - d.adjacency_matrix())
    assert d.is_ade() == reference


def test_gate_inputs_on_both_sides_of_the_rule():
    # the 45 paths T_{1,q,r}, D_{r+2} as T_{2,2,r} (8) and E6..E8 as T_{2,3,3..5}
    assert sum(d.is_ade() for d in STARS) == 45 + 8 + 3
    assert not any(d.is_ade() for d in WIDE_TREES + AFFINE)


def _double_top_eigenvalue(evals, evecs):
    evals[-2] = evals[-1]


def _mix_top_vector_signs(evals, evecs):
    top = evecs[:, -1]
    top[np.argmin(np.abs(top))] *= -1.0  # the largest entry keeps its sign


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

    @pytest.mark.parametrize("tag", ["E8", "H4", "I2(7)", "B3"])
    def test_wrong_h_has_no_plane(self, monkeypatch, tag):
        # 2cos(pi/(h+1)) is no eigenvalue of 2I - A; E8 reads 1.98973864678
        # against its closest eigenvalue 1.98904379074
        import coxfusion.coxeter

        d = parse_diagram(tag)
        h = coxeter_number(d)
        monkeypatch.setattr(coxfusion.coxeter, "coxeter_number", lambda _, spectrum=None: h + 1)
        with pytest.raises(CoxeterError, match="no eigenvalue of 2I-A near"):
            coxeter_plane(d)

    @pytest.mark.parametrize("tag", ["E8", "H4", "B3"])
    def test_h_minus_one_has_no_plane(self, monkeypatch, tag):
        # 2cos(pi/(h-1)) lies inside the spectrum of 2I - A, below its top end
        # 2cos(pi/h): reading the top end still refuses it
        import coxfusion.coxeter

        d = parse_diagram(tag)
        h = coxeter_number(d)
        evals = np.linalg.eigvalsh(2.0 * np.eye(d.rank) - cartan_form(d))
        assert evals[0] < 2.0 * math.cos(math.pi / (h - 1)) < evals[-1]
        monkeypatch.setattr(coxfusion.coxeter, "coxeter_number", lambda _, spectrum=None: h - 1)
        with pytest.raises(CoxeterError, match="no eigenvalue of 2I-A near"):
            coxeter_plane(d)

    @pytest.mark.parametrize("tag", ["E8", "H4", "B3"])
    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (_double_top_eigenvalue, "is not simple"),
            (_mix_top_vector_signs, "plus eigenvector is not entrywise positive"),
        ],
        ids=["doubled", "sign-mixed"],
    )
    def test_bad_top_eigenpair_refused(self, monkeypatch, tag, corrupt, message):
        import coxfusion.coxeter

        eigh = np.linalg.eigh

        def corrupted(sym):
            evals, evecs = eigh(sym)
            corrupt(evals, evecs)
            return evals, evecs

        monkeypatch.setattr(coxfusion.coxeter.np.linalg, "eigh", corrupted)
        with pytest.raises(CoxeterError, match=message):
            coxeter_plane(parse_diagram(tag))

    def test_gap_at_h_5442_is_simple(self, monkeypatch):
        # From h = 5442 on, 2cos(pi/h) - 2cos(2pi/h) is below 1e-6 (9.998e-7
        # here), yet far above the spectrum's error bar, 1.8e-14 for A4.  A4's
        # own eigenvectors carry the top of that spectrum, so no rank-5441
        # eigh runs; the gap is compared with ``spectrum_slack``.
        import coxfusion.coxeter

        h, eigh = 5442, np.linalg.eigh

        def handed(sym):
            _, evecs = eigh(sym)
            return 2.0 * np.cos(np.pi * np.arange(4, 0, -1) / h), evecs

        monkeypatch.setattr(coxfusion.coxeter.np.linalg, "eigh", handed)
        monkeypatch.setattr(coxfusion.coxeter, "coxeter_number", lambda _, spectrum=None: h)
        plane = coxeter_plane(diagram("A", 4))
        assert plane.h == h
        assert np.all(plane.u_plus > 0)

    @pytest.mark.parametrize(
        "d",
        [parse_diagram(tag) for tag in ("A100", "D100", "D300")] + ALL_TYPES,
        ids=lambda d: d.name,
    )
    def test_u_minus_mirrors_u_plus_exactly(self, d):
        # u_minus is u_plus with the minus class negated, up to one scale factor:
        # measured 4.5e-16 at worst, at A100
        plane = coxeter_plane(d)
        sign = np.ones(d.rank)
        sign[list(bipartition(d).minus)] = -1.0
        ratio = plane.u_minus * sign / plane.u_plus
        assert np.ptp(ratio) / ratio.mean() < 1e-14

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

    @pytest.mark.parametrize("tag", ["E8", "D100"])
    def test_rotation_angle_is_2pi_over_h(self, tag):
        # measured 1.1e-14 at D100
        plane = coxeter_plane(parse_diagram(tag))
        assert abs(abs(rotation_angle(plane)) - 2.0 * math.pi / plane.h) < 1e-13

    def test_u_plus_positive(self):
        for d in ALL_TYPES:
            assert np.all(coxeter_plane(d).u_plus > 0)


ROOT_COUNTS = {
    "A2": 6, "A3": 12, "D4": 24, "B3": 18, "H3": 30, "E6": 72, "E8": 240,
    "F4": 48, "H4": 120, "B10": 200, "D30": 1740, "I2(40)": 80,
}


class TestRootSystem:
    @pytest.mark.parametrize("tag,count", sorted(ROOT_COUNTS.items()))
    def test_counts(self, tag, count):
        assert len(root_system(coxeter_plane(parse_diagram(tag)))) == count

    @pytest.mark.parametrize("tag", [d.name for d in default_roster()] + ["A100", "D30"])
    def test_simply_laced_gamma_and_roots_are_integers(self, tag):
        # the exact form makes every product integral: no rounding enters
        plane = coxeter_plane(parse_diagram(tag))
        for x in (plane.gamma, root_system(plane)):
            assert np.array_equal(x, np.round(x))

    @pytest.mark.parametrize("tag", ["D4", "F4", "H3", "H4", "E8", "I2(7)"])
    def test_closed_under_reflections(self, tag):
        # distinct, containing the simple roots and closed under the
        # simple reflections: with the count n*h that is exactly Phi
        d = parse_diagram(tag)
        roots = np.array(root_system(coxeter_plane(d)))
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
            root_system(coxeter_plane(CoxeterDiagram(matrix)))

    @pytest.mark.parametrize("tag", ["E8", "H4", "I2(7)"])
    def test_reads_the_plane_only(self, monkeypatch, tag):
        # theta, gamma and h come from the plane: no second gate, bipartition or form
        import coxfusion.coxeter

        plane = coxeter_plane(parse_diagram(tag))

        def forbidden(*args, **kwargs):
            raise AssertionError("root_system rebuilt the plane side")

        for name in ("coxeter_number", "bipartition", "cartan_form", "_bipartite_word"):
            monkeypatch.setattr(coxfusion.coxeter, name, forbidden)
        roots = root_system(plane)
        assert roots.shape == (plane.h * len(plane.theta), len(plane.theta))
        assert np.array_equal(roots[: len(plane.theta)], plane.theta)

    @pytest.mark.parametrize("tag", ["E8", "H4", "F4", "B10", "D30", "I2(7)"])
    def test_blocks_are_the_stacked_products_bit_for_bit(self, tag):
        # the same products in the same order as a list of h blocks stacked
        plane = coxeter_plane(parse_diagram(tag))
        blocks = [plane.theta]
        for _ in range(plane.h - 1):
            blocks.append(blocks[-1] @ plane.gamma.T)
        assert np.array_equal(root_system(plane), np.vstack(blocks))

    def test_d30_fills_one_array(self):
        # no list of h blocks and no stacked copy: 818 KiB against 409 KiB
        plane = coxeter_plane(parse_diagram("D30"))
        root_system(plane)
        assert traced_peak(root_system, plane) <= 1.1 * 30 * 58 * 30 * 8

    @pytest.mark.parametrize("tag", ["E8", "H4"])
    def test_rows_are_gamma_orbits(self, tag):
        d = parse_diagram(tag)
        gamma = dense_word(d)[1]
        roots = np.array(root_system(coxeter_plane(d)))
        assert np.max(np.abs(roots[d.rank :] - roots[: -d.rank] @ gamma.T)) < 1e-9


class TestProjection:
    def test_u_plus_projects_to_unit_x(self):
        plane = coxeter_plane(diagram("D", 5))
        point = project_to_plane([plane.u_plus], plane)[0]
        assert np.max(np.abs(point - [1.0, 0.0])) < 1e-10

    def test_a2_hexagon(self):
        d = diagram("A", 2)
        plane = coxeter_plane(d)
        points = project_to_plane(root_system(plane), plane)
        angles = sorted(math.atan2(y, x) % (2.0 * math.pi) for x, y in points)
        gaps = np.diff(angles)
        assert np.max(np.abs(gaps - math.pi / 3.0)) < 1e-6
        radii = [math.hypot(x, y) for x, y in points]
        assert max(radii) - min(radii) < 1e-6

    @pytest.mark.parametrize("tag", ["A3", "D4", "E6", "E8", "H3", "B4"])
    def test_rotation_invariance(self, tag):
        d = parse_diagram(tag)
        plane = coxeter_plane(d)
        points = project_to_plane(root_system(plane), plane)
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
        roots = np.array(root_system(plane))
        projected_images = project_to_plane(roots @ plane.gamma.T, plane)
        theta = rotation_angle(plane)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        expected = project_to_plane(roots, plane) @ rot.T
        assert np.max(np.abs(projected_images - expected)) < 1e-8
