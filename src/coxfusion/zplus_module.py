"""Z+-modules over fusion rings and the ADE modules over Verlinde rings.

The ADE module of a diagram with Coxeter number h lives over the
Verlinde ring R_{h-1}; its generator Delta_1 acts by the diagram's
adjacency matrix and the remaining actions are generated by the
Chebyshev recursion.  h is read off that recursion (Delta_{h-1} is the
first action to vanish), so the module is built from the adjacency
matrix alone and never consults the Coxeter element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterDiagram, CoxeterError
from .fusion_ring import FusionRing, FusionRingError, verlinde_ring
from .linalg import EXACT_FLOAT_BOUND, connected_components, exact_dtype, perron_eigenpair
from .report import CheckResult, exact_check, sliced_check


class ZPlusModuleError(Exception):
    """Malformed module data or a failed construction self-test."""


class ZPlusModule:
    """Module basis with one nonnegative integer matrix per ring basis.

    ``actions[i]`` is the matrix of the ring basis element b_i; entry
    (k, l) is the coefficient of m_k in b_i . m_l.
    """

    def __init__(self, ring: FusionRing, labels, actions):
        labels = tuple(str(lab) for lab in labels)
        m = len(labels)
        actions = np.array(actions, dtype=np.int64)
        if actions.shape != (ring.rank, m, m):
            raise ZPlusModuleError(
                f"actions tensor has shape {actions.shape}, expected {(ring.rank, m, m)}"
            )
        actions.setflags(write=False)
        self.ring = ring
        self.labels = labels
        self.actions = actions

    @property
    def rank(self) -> int:
        """Module rank (number of basis elements)."""
        return len(self.labels)

    def verify_axioms(self) -> list[CheckResult]:
        """Exact checks: unit action, nonnegativity, ring compatibility, the
        last one i at a time (b_i . (b_j . m) against (b_i b_j) . m) in the dtype
        ``exact_dtype`` picks, up to the first i with a mismatch."""
        acts, c = self.actions, self.ring.constants
        top = int(np.abs(acts).max(initial=0))
        dtype = exact_dtype(max(self.rank * top, self.ring.rank * int(c.max())) * top)
        a, x = acts.astype(dtype), c.astype(dtype)
        bad = (a[i] @ a != np.tensordot(x[i], a, 1) for i in range(len(c)))
        eye = np.eye(self.rank, dtype=np.int64)
        return [
            exact_check("unit acts as identity", acts[self.ring.unit] != eye),
            exact_check("nonnegative integer entries", acts < 0),
            sliced_check("module compatibility", bad),
        ]

    def __repr__(self) -> str:
        return f"ZPlusModule(ring_rank={self.ring.rank}, module_rank={self.rank})"


def regular_module(ring: FusionRing) -> ZPlusModule:
    """The ring acting on itself by left multiplication."""
    actions = np.stack([ring.left_mult_matrix(i) for i in range(ring.rank)])
    return ZPlusModule(ring, ring.labels, actions)


def ade_module(d: CoxeterDiagram) -> ZPlusModule:
    """The Z+-module of an ADE diagram over the Verlinde ring R_{h-1}.

    The actions Delta_k(A) follow Delta_{k+1} = A Delta_k - Delta_{k-1}
    until the first k with Delta_k(A) = 0, which is k = h - 1.  The ADE
    gate makes the loop end: the eigenvalues of A are then 2cos(pi m / h)
    over the exponents m, with m = 1 among them, and
    Delta_k(2cos t) = sin((k + 1) t) / sin t.  The recursion runs in
    float64 (BLAS), exact while (rank + 1) * max|entry| < 2**53.
    """
    if not d.is_ade():
        raise CoxeterError(f"diagram {d.name} is not of ADE type")
    adjacency = d.adjacency_matrix().astype(float)
    acts = [np.eye(d.rank), adjacency]
    while np.any(acts[-1] != 0):
        acts.append(adjacency @ acts[-1] - acts[-2])
    acts = np.stack(acts[:-1])
    if (d.rank + 1) * int(np.abs(acts).max()) >= EXACT_FLOAT_BOUND:
        raise ZPlusModuleError(f"Chebyshev actions of {d.name} exceed exact float64 range")
    if np.any(acts < 0):
        raise ZPlusModuleError(f"generated action with negative entries for {d.name}")
    labels = tuple(f"α_{i + 1}" for i in range(d.rank))
    return ZPlusModule(verlinde_ring(len(acts)), labels, acts)


def restrict(module: ZPlusModule, sub: FusionRing, embedding) -> ZPlusModule:
    """View the module over a fusion subring via an index embedding."""
    embedding = np.asarray(embedding, dtype=np.int64)
    if embedding.shape != (sub.rank,):
        raise FusionRingError("embedding length does not match subring rank")
    parent = module.ring
    if np.any((embedding < 0) | (embedding >= parent.rank)):
        raise FusionRingError("embedding index out of range for the parent ring")
    block = parent.constants[np.ix_(embedding, embedding)]
    if np.any(np.delete(block, embedding, axis=2) != 0):
        raise FusionRingError("embedding is not closed under the parent product")
    if np.any(block[:, :, embedding] != sub.constants):
        raise FusionRingError("subring constants disagree with the parent ring")
    actions = module.actions[embedding]
    return ZPlusModule(sub, module.labels, actions)


def decompose(module: ZPlusModule) -> list[list[int]]:
    """Basis index lists of the Z+-submodules along support-graph components.

    An edge joins basis indices l and k whenever some action matrix is
    nonzero at (k, l) or (l, k); each connected component spans a
    submodule, whose actions are ``module.actions[:, comp][:, :, comp]``.
    Components are sorted and ordered by smallest basis index.
    """
    support = np.any(module.actions != 0, axis=0)
    return connected_components(support | support.T)


@dataclass(frozen=True)
class RegularElement:
    """Common positive eigenvector of all actions, coordinate-sum 1."""

    coordinates: np.ndarray


def regular_element(module: ZPlusModule) -> RegularElement:
    """Regular element of an irreducible module.

    The common Perron vector of all actions, from one solve on the stack,
    checked against every generator at eigenvalue FP(b_i): the max-norm
    residual of each must be at most 1e-9.
    """
    components = decompose(module)
    if len(components) != 1:
        raise ZPlusModuleError(
            f"module is reducible ({len(components)} components); regular element undefined"
        )
    _, vec = perron_eigenpair(module.actions)
    vec = vec / vec.sum()
    if np.any(vec <= 0):
        raise ZPlusModuleError("Perron vector is not strictly positive")
    fp = module.ring.fp_dims()
    residuals = np.max(np.abs(module.actions @ vec - fp[:, None] * vec), axis=1)
    failing = np.flatnonzero(residuals > 1e-9)
    if failing.size:
        i = int(failing[0])
        raise ZPlusModuleError(
            f"eigen-relation for basis element {i} fails (residual {residuals[i]:.3e})"
        )
    vec.setflags(write=False)
    return RegularElement(vec)
