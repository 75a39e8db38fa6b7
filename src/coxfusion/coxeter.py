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

from .linalg import ConvergenceError, spectrum_slack

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
        self._ade = None

    @property
    def rank(self) -> int:
        return self.coxeter_matrix.shape[0]

    def adjacency_matrix(self) -> np.ndarray:
        """0/1 adjacency of the underlying graph, exact integers."""
        return ((self.coxeter_matrix >= 3) | (self.coxeter_matrix == INFINITE)).astype(np.int64)

    def is_connected(self) -> bool:
        return min(_walk(self)[1], default=-1) >= 0

    def is_ade(self) -> bool:
        """Simply laced, connected and of finite type, decided exactly on the graph.

        A connected simply laced diagram has a positive definite form
        2I - A exactly when it is a Dynkin tree A_n, D_n or E_6..E_8
        (Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7): a tree
        with no degree above 3 and at most one branch vertex, whose three
        arms of p, q and r vertices, the centre counted in each, have
        1/p + 1/q + 1/r > 1, that is qr + pr + pq > pqr.  A path has no
        branch vertex and is A_n.  One ``_walk`` reads the graph; no
        eigenvalue is taken.  Decided once per instance, since the Coxeter
        matrix is read-only: ``suite`` gates each roster diagram and
        ``ade_module`` gates it again."""
        if self._ade is None:
            cm = self.coxeter_matrix
            # simply laced: every entry in {1, 2, 3}, so no bond is infinite (0)
            laced = bool(cm.min(initial=1) >= 1 and cm.max(initial=1) <= 3)
            self._ade = laced and _dynkin_tree(*_walk(self))
        return self._ade

    def __repr__(self) -> str:
        return f"CoxeterDiagram({self.name}, rank={self.rank})"


def _walk(d: CoxeterDiagram) -> tuple[list[list[int]], list[int]]:
    """Adjacency lists of the diagram's graph, read off one ``np.nonzero``,
    and the depth of each vertex on one breadth-first walk from vertex 0
    over them, -1 where the walk does not reach."""
    cm = d.coxeter_matrix
    neighbours = [[] for _ in range(d.rank)]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero((cm >= 3) | (cm == INFINITE)))):
        neighbours[i].append(j)
    depth, queue = [-1] * d.rank, []
    if d.rank:
        depth[0], queue = 0, [0]
    for v in queue:  # the walk's queue: reached vertices are appended
        for w in neighbours[v]:
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                queue.append(w)
    return neighbours, depth


def _is_tree(neighbours: list[list[int]], depth: list[int]) -> bool:
    """Whether the walk reached every vertex over exactly rank - 1 bonds."""
    return min(depth, default=-1) >= 0 and sum(map(len, neighbours)) == 2 * (len(depth) - 1)


def _dynkin_tree(neighbours: list[list[int]], depth: list[int]) -> bool:
    """Whether a walked graph is a tree A_n, D_n or E_6..E_8 (see ``is_ade``)."""
    if not _is_tree(neighbours, depth):
        return False
    branches = [v for v, adj in enumerate(neighbours) if len(adj) > 2]
    if not branches:
        return True
    centre = branches[0]
    if len(branches) > 1 or len(neighbours[centre]) > 3:
        return False
    arms = []
    for first in neighbours[centre]:
        prev, v, length = centre, first, 2
        while len(neighbours[v]) == 2:  # no other branch vertex: the arm ends at a leaf
            left, right = neighbours[v]
            prev, v = v, right if left == prev else left
            length += 1
        arms.append(length)
    p, q, r = arms
    return q * r + p * r + p * q > p * q * r


def _path_matrix(n: int) -> np.ndarray:
    mat = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(mat, 1)
    bond = np.arange(n - 1)
    mat[bond, bond + 1] = 3
    mat[bond + 1, bond] = 3
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


#: Orders whose form entry -2cos(pi/m) is a float64 integer, written exactly:
#: cos(pi/2) and cos(pi/3) round to 6.1e-17 and 0.5000000000000001.
_EXACT_ENTRIES = {1: 2.0, 2: 0.0, 3: -1.0, INFINITE: -2.0}


def cartan_form(d: CoxeterDiagram) -> np.ndarray:
    """Symmetric bilinear form matrix with entries -2cos(pi/m(i, j)), one mask and
    one math.cos per order present: exactly 2, 0, -1 and -2 at m = 1, 2, 3 and
    infinity.  The orders above 3 are read off their own entries, which simply
    laced diagrams do not have, so no list of all n**2 entries is made."""
    cm = d.coxeter_matrix
    form = np.zeros((d.rank, d.rank))  # m = 2
    np.fill_diagonal(form, _EXACT_ENTRIES[1])
    for m in (3, INFINITE):
        form[cm == m] = _EXACT_ENTRIES[m]
    for m in set(cm[cm > 3].tolist()):
        form[cm == m] = -2.0 * math.cos(math.pi / m)
    return form


@dataclass(frozen=True)
class Bipartition:
    """Parity classes of graph distance from vertex 1 (index 0)."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]


def bipartition(d: CoxeterDiagram) -> Bipartition:
    """The parity classes of the depths of one breadth-first walk from vertex 0.
    A tree's rank - 1 edges reach every vertex; any other diagram raises CoxeterError."""
    return _parity_classes(*_walk(d))


def _parity_classes(neighbours: list[list[int]], depth: list[int]) -> Bipartition:
    if not _is_tree(neighbours, depth):
        raise CoxeterError("bipartition requires a tree-shaped diagram")
    return Bipartition(
        tuple(v for v, k in enumerate(depth) if k % 2 == 0),
        tuple(v for v, k in enumerate(depth) if k % 2 == 1),
    )


def _bipartite_word(parts: Bipartition, form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma = s_{i_1} ... s_{i_n}, even class then odd, and its roots
    theta_j = s_{i_1} ... s_{i_{j-1}} alpha_{i_j}, one per row, in closed form.

    This rests on the form being exactly 0 inside each class, as ``cartan_form``
    writes it at m = 2: the reflections of one class then commute, and their
    product is the involution I - P form, with P the diagonal projector onto the
    class, which keeps the class's rows of the form (Steinberg, Trans. AMS 1959;
    Humphreys 3.17).  So gamma = s_plus s_minus; theta_j = alpha_j on the even
    class, and theta_j = s_plus alpha_j, column j of s_plus, on the odd class."""
    plus, minus = list(parts.plus), list(parts.minus)
    eye = np.eye(len(form))
    s_plus, s_minus = eye.copy(), eye.copy()
    s_plus[plus] -= form[plus]
    s_minus[minus] -= form[minus]
    theta = np.vstack([eye[plus], s_plus.T[minus]])
    return theta, s_plus @ s_minus


_NOT_CONNECTED = "Coxeter number requires an irreducible (connected) diagram"


def coxeter_number(d: CoxeterDiagram, spectrum=None) -> int:
    """Coxeter number h of a finite irreducible type; the plane side's one gate.

    The diagram must be connected and the smallest eigenvalue of its form must
    lie above the error bar s of ``spectrum_slack``: a positive definite form
    means a finite group (Humphreys, Reflection Groups and Coxeter Groups, 6.4).
    That eigenvalue is 4 sin(pi / 2h)**2 (Coxeter 1951; Humphreys 3.16-3.19), so h
    is the one integer between pi / (2 asin(sqrt(lambda_min +- s) / 2)), else
    ConvergenceError.

    Called alone, it checks connectivity and takes one ``eigvalsh`` of the form.
    ``coxeter_plane`` hands over ``spectrum``, the form's ascending eigenvalues
    read off its own ``eigh``, after checking connectivity itself.
    """
    if spectrum is None:
        if not d.is_connected():
            raise CoxeterError(_NOT_CONNECTED)
        spectrum = np.linalg.eigvalsh(cartan_form(d))
    lowest, slack = spectrum[0], spectrum_slack(spectrum)
    if not lowest > slack:
        raise CoxeterError(
            f"diagram {d.name} is not of finite type: its bilinear form is not positive definite"
        )
    lo, hi = (math.pi / (2 * math.asin(math.sqrt(lowest + e) / 2)) for e in (slack, -slack))
    if math.floor(hi) != math.ceil(lo):
        raise ConvergenceError(f"Coxeter number of {d.name} is past float64 resolution")
    return math.ceil(lo)


@dataclass(frozen=True)
class CoxeterPlane:
    """The plane side of one diagram: Coxeter number, plane-spanning eigenvectors,
    gamma, the form, the ``parts`` that order gamma's word and its roots ``theta``.

    ``u_plus`` and ``u_minus`` are normalised to unit length in the
    bilinear-form norm, so that projection coordinates taken against
    them are isometric on the plane and gamma acts on them as a
    Euclidean rotation of order h.  Sign convention: u_plus is
    entrywise positive; u_minus is u_plus with the minus class of ``parts``
    negated, rescaled, so it is positive on the plus class, vertex 1 included.
    """

    h: int
    u_plus: np.ndarray
    u_minus: np.ndarray
    gamma: np.ndarray
    form: np.ndarray
    parts: Bipartition
    theta: np.ndarray


def coxeter_plane(d: CoxeterDiagram) -> CoxeterPlane:
    """The plane side's one build: one form, one ``_walk`` of the graph, one
    ``eigh`` of 2I - form and gamma = s_plus s_minus.

    The walk gives connectivity, tree shape and the parity classes; the
    ``eigh`` gives the form's spectrum, 2 minus its eigenvalues reversed, which
    ``coxeter_number`` (the gate) reads for h.  A diagram that is not connected,
    then one not of finite type, then one that is not a tree raises
    CoxeterError, in that order.  The exponents run from 1 to h - 1, so
    2cos(pi/h) must top the spectrum, simple; anything else raises
    CoxeterError.  2I - form is exactly 0 on its diagonal and inside each class,
    so D (2I - form) D = -(2I - form) bit for bit, with D = +-1 on the two
    classes: u_minus = D u_plus is the eigenvector at -2cos(pi/h), with u_plus's
    residual (Steinberg, Trans. AMS 1959; Humphreys 3.17)."""
    if d.rank < 2:
        raise CoxeterError("Coxeter plane requires rank >= 2")
    form = cartan_form(d)
    neighbours, depth = _walk(d)
    if min(depth) < 0:
        raise CoxeterError(_NOT_CONNECTED)
    evals, evecs = np.linalg.eigh(2.0 * np.eye(d.rank) - form)
    h = coxeter_number(d, spectrum=2.0 - evals[::-1])
    parts = _parity_classes(neighbours, depth)
    target = 2.0 * math.cos(math.pi / h)
    if abs(evals[-1] - target) > 1e-9:
        raise CoxeterError(
            f"no eigenvalue of 2I-A near {target:.12g} (spectrum end: {evals[-1]:.12g})"
        )
    if abs(evals[-2] - evals[-1]) <= 1e-6:
        raise CoxeterError(f"eigenvalue {target:.12g} is not simple")
    u_plus = evecs[:, -1].copy()
    if u_plus[int(np.argmax(np.abs(u_plus)))] < 0:
        u_plus = -u_plus
    if np.any(u_plus <= 0):
        raise CoxeterError("plus eigenvector is not entrywise positive")
    u_minus = u_plus.copy()
    u_minus[list(parts.minus)] *= -1.0
    # past the gate the form is positive definite: <u|u> = 2 -+ 2cos(pi/h) > 0
    for vec in (u_plus, u_minus):
        vec /= math.sqrt(float(vec @ form @ vec))
    theta, gamma = _bipartite_word(parts, form)
    for arr in (u_plus, u_minus, gamma, form, theta):
        arr.setflags(write=False)
    return CoxeterPlane(h, u_plus, u_minus, gamma, form, parts, theta)


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


def root_system(p: CoxeterPlane) -> np.ndarray:
    """The roots of the plane's diagram, in the alpha basis, as the rows of
    an (n * h, n) array; read from the plane, with nothing rebuilt.

    For gamma = s_{i_1} ... s_{i_n}, taken in the bipartite order of
    ``CoxeterPlane.parts``, the roots
    theta_j = s_{i_1} ... s_{i_{j-1}} alpha_{i_j} lie in n distinct
    gamma-orbits of size h, and these orbits make up the root system
    (Steinberg, Trans. AMS 1959; Bourbaki, Lie groups and Lie algebras,
    Ch. V-VI).  Rows come as h blocks of n, theta, gamma theta, ...,
    gamma^(h-1) theta, so row r + n is gamma applied to row r, and each
    root appears exactly once.
    """
    blocks = [p.theta]
    for _ in range(p.h - 1):
        blocks.append(blocks[-1] @ p.gamma.T)
    return np.vstack(blocks)


def project_to_plane(vectors, p: CoxeterPlane) -> np.ndarray:
    """Orthogonal (form-metric) projection of vectors onto the plane.

    Coordinates are <v|u+> and <v|u-> in the bilinear form: u+ and u- are
    form-orthonormal, so this is an isometry of the plane.  The form is
    applied to the two axes first, which costs O(N n) for N vectors.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    return vectors @ (p.form @ np.column_stack([p.u_plus, p.u_minus]))
