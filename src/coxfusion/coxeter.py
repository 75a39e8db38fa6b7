"""Coxeter diagrams, geometric representations and Coxeter planes.

Named diagrams follow the vertex orderings of the standard
classification tables: vertex 1 is a leaf and every prefix {1..k} is a
connected subtree, so the parity classes of graph distance from vertex 1
bipartition the tree.  Indices are 0-based in code; reports render them
1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import connected_components, matrix_order

#: Sentinel for an infinite bond order inside integer Coxeter matrices.
INFINITE = 0


class CoxeterError(ValueError):
    """Illegal diagram data or a precondition violation."""


class CoxeterDiagram:
    """A Coxeter matrix with a fixed vertex ordering and a display name."""

    def __init__(self, coxeter_matrix, name: str = "custom"):
        try:
            raw = np.asarray(coxeter_matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CoxeterError(f"Coxeter matrix must be numeric: {exc}") from exc
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise CoxeterError(f"Coxeter matrix must be square, got shape {raw.shape}")
        # |raw| < 2**63 also rejects inf and nan, and keeps the int64 cast exact
        if not np.all((np.abs(raw) < 2.0**63) & (raw == np.round(raw))):
            raise CoxeterError("Coxeter matrix entries must be integers in the int64 range")
        mat = raw.astype(np.int64)
        n = mat.shape[0]
        if not np.array_equal(mat, mat.T):
            raise CoxeterError("Coxeter matrix must be symmetric")
        if np.any(np.diag(mat) != 1):
            raise CoxeterError("diagonal entries of a Coxeter matrix must be 1")
        off = mat[~np.eye(n, dtype=bool)]
        if np.any((off < 2) & (off != INFINITE)):
            raise CoxeterError("off-diagonal orders must be >= 2 (or infinite)")
        mat.setflags(write=False)
        self.coxeter_matrix = mat
        self.name = name

    @property
    def rank(self) -> int:
        return self.coxeter_matrix.shape[0]

    def order(self, i: int, j: int) -> int:
        """Bond order m(i, j); INFINITE encodes an unbounded order."""
        return int(self.coxeter_matrix[i, j])

    def edges(self) -> list[tuple[int, int]]:
        """Pairs i < j joined by a bond of order >= 3 or infinite, in row order."""
        return [tuple(e) for e in np.argwhere(np.triu(self.adjacency_matrix())).tolist()]

    def adjacency_matrix(self) -> np.ndarray:
        """0/1 adjacency of the underlying graph, exact integers."""
        return ((self.coxeter_matrix >= 3) | (self.coxeter_matrix == INFINITE)).astype(np.int64)

    def is_connected(self) -> bool:
        return len(connected_components(self.adjacency_matrix())) == 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges()) == self.rank - 1

    def is_ade(self) -> bool:
        """Simply laced and of finite type (adjacency spectral radius < 2)."""
        off = self.coxeter_matrix[~np.eye(self.rank, dtype=bool)]
        if np.any((off != 2) & (off != 3)):
            return False
        if not self.is_connected():
            return False
        top = float(np.max(np.linalg.eigvalsh(self.adjacency_matrix().astype(float))))
        return top < 2.0 - 1e-9

    def __repr__(self) -> str:
        return f"CoxeterDiagram({self.name}, rank={self.rank})"


def _path_matrix(n: int) -> np.ndarray:
    mat = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(mat, 1)
    for i in range(n - 1):
        mat[i, i + 1] = mat[i + 1, i] = 3
    return mat


def diagram(family: str, rank: int | None = None, m: int | None = None) -> CoxeterDiagram:
    """Named finite irreducible diagram with the classification ordering.

    ``family`` is one of A, B, D, E, F, H, I2; ``m`` is the bond order
    for I2.  Raises CoxeterError for illegal (family, rank) pairs.
    """
    family = family.upper()
    if family == "I2":
        if rank not in (None, 2):
            raise CoxeterError("I2 diagrams have rank 2")
        if m is None or m < 3:
            raise CoxeterError(f"I2 requires a bond order m >= 3, got {m}")
        mat = np.array([[1, m], [m, 1]], dtype=np.int64)
        return CoxeterDiagram(mat, f"I2({m})")
    if rank is None:
        raise CoxeterError(f"family {family} requires a rank")
    if family == "A":
        if rank < 1:
            raise CoxeterError(f"A_n requires n >= 1, got {rank}")
        return CoxeterDiagram(_path_matrix(rank), f"A{rank}")
    if family == "B":
        if rank < 2:
            raise CoxeterError(f"B_n requires n >= 2, got {rank}")
        mat = _path_matrix(rank)
        mat[0, 1] = mat[1, 0] = 4
        return CoxeterDiagram(mat, f"B{rank}")
    if family == "D":
        if rank < 4:
            raise CoxeterError(f"D_n requires n >= 4, got {rank}")
        # Chain n-(n-1)-...-4-2 with leaves 1 and 3 on vertex 2.
        mat = np.full((rank, rank), 2, dtype=np.int64)
        np.fill_diagonal(mat, 1)
        edges = [(0, 1), (1, 2), (1, 3)] + [(i, i + 1) for i in range(3, rank - 1)]
        for i, j in edges:
            mat[i, j] = mat[j, i] = 3
        return CoxeterDiagram(mat, f"D{rank}")
    if family == "E":
        if rank not in (6, 7, 8):
            raise CoxeterError(f"E_n exists only for n in {{6, 7, 8}}, got {rank}")
        mat = np.full((rank, rank), 2, dtype=np.int64)
        np.fill_diagonal(mat, 1)
        branch = {6: 2, 7: 3, 8: 4}[rank]  # trivalent vertex, 0-based
        edges = [(i, i + 1) for i in range(rank - 2)] + [(branch, rank - 1)]
        for i, j in edges:
            mat[i, j] = mat[j, i] = 3
        return CoxeterDiagram(mat, f"E{rank}")
    if family == "F":
        if rank != 4:
            raise CoxeterError(f"F_n exists only for n = 4, got {rank}")
        mat = _path_matrix(4)
        mat[1, 2] = mat[2, 1] = 4
        return CoxeterDiagram(mat, "F4")
    if family == "H":
        if rank not in (3, 4):
            raise CoxeterError(f"H_n exists only for n in {{3, 4}}, got {rank}")
        mat = _path_matrix(rank)
        mat[0, 1] = mat[1, 0] = 5
        return CoxeterDiagram(mat, f"H{rank}")
    raise CoxeterError(f"unknown diagram family {family!r}")


_SPEC_RE = re.compile(r"^([ABDEFH])_?(\d+)$|^I_?2\((\d+)\)$", re.IGNORECASE)


def parse_diagram(spec: str) -> CoxeterDiagram:
    """Parse a diagram tag such as ``A3``, ``D4``, ``E8`` or ``I2(7)``."""
    match = _SPEC_RE.match(spec.strip())
    if not match:
        raise CoxeterError(f"cannot parse diagram spec {spec!r}")
    if match.group(3) is not None:
        return diagram("I2", m=int(match.group(3)))
    return diagram(match.group(1), int(match.group(2)))


def cartan_form(d: CoxeterDiagram) -> np.ndarray:
    """Symmetric bilinear form matrix with entries -2cos(pi/m(i, j)), one math.cos per order."""
    form = np.empty((d.rank, d.rank))
    for m in set(d.coxeter_matrix.ravel().tolist()):
        form[d.coxeter_matrix == m] = -2.0 if m == INFINITE else -2.0 * math.cos(math.pi / m)
    return form


def reflection_matrices(d: CoxeterDiagram) -> list[np.ndarray]:
    """Matrices of the simple reflections s_i in the alpha basis."""
    form = cartan_form(d)
    n = d.rank
    out = []
    for i in range(n):
        mat = np.eye(n)
        mat[i, :] -= form[i, :]
        out.append(mat)
    return out


@dataclass(frozen=True)
class Bipartition:
    """Parity classes of graph distance from vertex 1 (index 0)."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]


def bipartition(d: CoxeterDiagram) -> Bipartition:
    if not d.is_tree():
        raise CoxeterError("bipartition requires a tree-shaped diagram")
    # even distance from vertex 0 = joined to it by two-step walks, the graph of A**2
    adj = d.adjacency_matrix()
    plus = connected_components(adj @ adj > 0)[0]
    minus = [v for v in range(d.rank) if v not in plus]
    return Bipartition(tuple(plus), tuple(minus))


def _bipartite_word(d: CoxeterDiagram) -> tuple[list[np.ndarray], np.ndarray]:
    """The running product along i_1 ... i_n, the even class then the odd class:
    the roots theta_j = s_{i_1} ... s_{i_{j-1}} alpha_{i_j} and gamma = s_{i_1} ... s_{i_n}."""
    parts = bipartition(d)
    refl = reflection_matrices(d)
    gamma = np.eye(d.rank)
    theta = []
    for k in parts.plus + parts.minus:
        theta.append(gamma[:, k])
        gamma = gamma @ refl[k]
    return theta, gamma


def distinguished_coxeter_element(d: CoxeterDiagram) -> np.ndarray:
    """gamma = s_{i_1} ... s_{i_n}: the even-class reflections, then the odd class."""
    return _bipartite_word(d)[1]


def coxeter_number(d: CoxeterDiagram) -> int:
    """Order h of the distinguished Coxeter element; the plane side's one gate.

    A Coxeter group is finite exactly when its bilinear form is positive
    definite (Humphreys, Reflection Groups and Coxeter Groups, 6.4).  The
    diagram must be connected, and the smallest eigenvalue of its form
    must exceed 10 * rank * eps times the largest: in that unit affine
    forms read -0.35 to 0, finite types 1e8 (D300) to 3e12 (H4), and
    I2(m) about 5.6e15 / m**2.  Then ``matrix_order`` finds h below
    the cap max(2 * rank, 30, largest bond order), which bounds h for
    every finite irreducible type; a ConvergenceError is numerical.
    """
    if not d.is_connected():
        raise CoxeterError("Coxeter number requires an irreducible (connected) diagram")
    evals = np.linalg.eigvalsh(cartan_form(d))
    if evals[0] <= 10 * d.rank * np.finfo(float).eps * evals[-1]:
        raise CoxeterError(
            f"diagram {d.name} is not of finite type: its bilinear form is not positive definite"
        )
    cap = max(2 * d.rank, 30, int(d.coxeter_matrix.max()))
    return matrix_order(distinguished_coxeter_element(d), cap=cap)


@dataclass(frozen=True)
class CoxeterPlane:
    """Coxeter number, plane-spanning eigenvectors and the element gamma.

    ``u_plus`` and ``u_minus`` are normalised to unit length in the
    bilinear-form norm, so that projection coordinates taken against
    them are isometric on the plane and gamma acts on them as a
    Euclidean rotation of order h.  Sign convention: u_plus is
    entrywise positive; u_minus is positive at vertex 1.
    """

    h: int
    u_plus: np.ndarray
    u_minus: np.ndarray
    gamma: np.ndarray
    form: np.ndarray


def coxeter_plane(d: CoxeterDiagram) -> CoxeterPlane:
    if d.rank < 2:
        raise CoxeterError("Coxeter plane requires rank >= 2")
    h = coxeter_number(d)
    form = cartan_form(d)
    sym = 2.0 * np.eye(d.rank) - form
    evals, evecs = np.linalg.eigh(sym)
    target = 2.0 * math.cos(math.pi / h)
    vectors = []
    for sign in (1.0, -1.0):
        idx = int(np.argmin(np.abs(evals - sign * target)))
        if abs(evals[idx] - sign * target) > 1e-9:
            raise CoxeterError(
                f"no eigenvalue of 2I-A near {sign * target:.12g} (closest: {evals[idx]:.12g})"
            )
        others = np.delete(evals, idx)
        if np.min(np.abs(others - evals[idx])) <= 1e-6:
            raise CoxeterError(f"eigenvalue {sign * target:.12g} is not simple")
        vectors.append(evecs[:, idx].copy())
    u_plus, u_minus = vectors
    # past the gate the form is positive definite: <u|u> = 2 -+ 2cos(pi/h) > 0
    for vec in (u_plus, u_minus):
        vec /= math.sqrt(float(vec @ form @ vec))
    if u_plus[int(np.argmax(np.abs(u_plus)))] < 0:
        u_plus = -u_plus
    if np.any(u_plus <= 0):
        raise CoxeterError("plus eigenvector is not entrywise positive")
    if u_minus[0] < 0:
        u_minus = -u_minus
    gamma = distinguished_coxeter_element(d)
    for arr in (u_plus, u_minus, gamma, form):
        arr.setflags(write=False)
    return CoxeterPlane(h=h, u_plus=u_plus, u_minus=u_minus, gamma=gamma, form=form)


def plane_restriction(p: CoxeterPlane) -> np.ndarray:
    """2x2 matrix of gamma on the plane in the form-orthonormal basis."""
    cols = []
    for vec in (p.u_plus, p.u_minus):
        image = p.gamma @ vec
        cols.append([float(p.u_plus @ p.form @ image), float(p.u_minus @ p.form @ image)])
    return np.array(cols).T


def rotation_angle(p: CoxeterPlane) -> float:
    """Signed rotation angle of gamma on the plane, in radians."""
    g = plane_restriction(p)
    return math.atan2(g[1, 0], g[0, 0])


def root_system(d: CoxeterDiagram, h: int | None = None) -> list[np.ndarray]:
    """The roots of a finite irreducible type, in the alpha basis.

    For gamma = s_{i_1} ... s_{i_n}, taken in the bipartite order of
    ``distinguished_coxeter_element``, the roots
    theta_j = s_{i_1} ... s_{i_{j-1}} alpha_{i_j} lie in n distinct
    gamma-orbits of size h, and these orbits make up the root system
    (Steinberg, Trans. AMS 1959; Bourbaki, Lie groups and Lie algebras,
    Ch. V-VI).  Rows come as h blocks of n, theta, gamma theta, ...,
    gamma^(h-1) theta, so row r + n is gamma applied to row r, and each
    root appears exactly once.  The diagram must be of finite irreducible
    type; ``coxeter_number`` raises CoxeterError otherwise, unless the
    caller passes the h it already has from ``coxeter_plane``.
    """
    if h is None:
        h = coxeter_number(d)
    theta, gamma = _bipartite_word(d)
    blocks = [np.array(theta)]
    for _ in range(h - 1):
        blocks.append(blocks[-1] @ gamma.T)
    return list(np.vstack(blocks))


def project_to_plane(vectors, p: CoxeterPlane) -> np.ndarray:
    """Orthogonal (form-metric) projection of vectors onto the plane.

    Coordinates are <v|u+>/<u+|u+> and <v|u->/<u-|u-> in the bilinear
    form; with the form-unit eigenvectors of ``coxeter_plane`` this is
    an isometry of the plane.
    """
    quad_plus = float(p.u_plus @ p.form @ p.u_plus)
    quad_minus = float(p.u_minus @ p.form @ p.u_minus)
    axis_plus = p.form @ p.u_plus / quad_plus
    axis_minus = p.form @ p.u_minus / quad_minus
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    return np.column_stack([vectors @ axis_plus, vectors @ axis_minus])
