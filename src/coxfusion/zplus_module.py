"""Z+-modules over fusion rings and the ADE modules over Verlinde rings.

The ADE module of a diagram with Coxeter number h lives over the
Verlinde ring R_{h-1}; its generator Delta_1 acts by the diagram's
adjacency matrix and the remaining actions are generated by the
Chebyshev recursion, in exact int8 on the tree.  h is read off that
recursion (Delta_{h-1} is the first action to vanish), so the module is
built from the adjacency matrix alone and never consults the Coxeter
element.  ``restrict`` views a module over the even part of its ring,
the only subring used.
"""

from __future__ import annotations

import numpy as np

from .coxeter import CoxeterDiagram, CoxeterError
from .fusion_ring import FusionRing, even_subring, verlinde_ring
from .linalg import connected_components, narrow_integers, perron_eigenpair


class ZPlusModuleError(ValueError):
    """Malformed module data or a failed construction self-test."""


class ZPlusModule:
    """Module basis with one nonnegative integer matrix per ring basis.

    ``actions[i]`` is the matrix of the ring basis element b_i; entry
    (k, l) is the coefficient of m_k in b_i . m_l.  As in ``FusionRing``,
    b_0 is the unit and the ring's basis is self-dual, and the actions are
    stored read-only in int8 (an ADE module's entries are at most 6),
    without a copy when the caller hands over a read-only int8 stack
    (``linalg.read_only``).  Entries that are not integers in the int8
    range raise ZPlusModuleError.
    """

    def __init__(self, ring: FusionRing, actions):
        actions = np.asarray(actions)
        m = actions.shape[-1] if actions.ndim else 0
        if actions.shape != (ring.rank, m, m):
            raise ZPlusModuleError(
                f"actions tensor has shape {actions.shape}, expected {(ring.rank, m, m)}"
            )
        actions = narrow_integers(actions, ZPlusModuleError)
        self.ring = ring
        self.actions = actions

    @property
    def rank(self) -> int:
        """Module rank (number of basis elements)."""
        return self.actions.shape[1]

    def __repr__(self) -> str:
        return f"ZPlusModule(ring_rank={self.ring.rank}, module_rank={self.rank})"


def ade_module(d: CoxeterDiagram) -> ZPlusModule:
    """The Z+-module of an ADE diagram over the Verlinde ring R_{h-1}.

    The actions Delta_k(A) follow Delta_{k+1} = A Delta_k - Delta_{k-1}
    until the first k with Delta_k(A) = 0, which is k = h - 1.  The ADE
    gate makes the loop end: the eigenvalues of A are then 2cos(pi m / h)
    over the exponents m, with m = 1 among them, and
    Delta_k(2cos t) = sin((k + 1) t) / sin t.  The recursion runs in
    exact int8 on the tree: row v of A X sums the rows of X at v's
    neighbours, padded to the largest degree with a zero row appended to
    a copy of X, so a step is O(rank**2) with no matmul.  Each step must
    be nonnegative with max * (largest degree + 1) <= 127, so that the
    next cannot wrap.  That check runs once after the loop, as one min and
    one max per step over the stack, and raises for the first failing
    step, whose entries are exact since every step before it passed; what
    the steps after it hold, once they may have wrapped, decides nothing.

    h - 1 is read first off the row sums Delta_k(A) 1, in int64 and
    O(rank) per step, so that the stack is allocated once and filled in
    place.  They first vanish at k = h - 1 as well: the all-ones vector
    has a positive component along the Perron eigenvector of A, on which
    Delta_k(A) acts by sin((k + 1) pi / h) / sin(pi / h) > 0 for k < h - 1.
    Their loop stops at the first k where no row sum is positive or one
    exceeds 127 * rank / (largest degree + 1).  Unless Delta_k(A) is then
    zero, one of its entries fails the check above, so a diagram past the
    gate that is not ADE raises.  On such a diagram the loop still ends:
    with spectral radius 2 or more, the Perron component grows.
    """
    if not d.is_ade():
        raise CoxeterError(f"diagram {d.name} is not of ADE type")
    adjacency = d.adjacency_matrix()
    n = d.rank
    degree = adjacency.sum(axis=0)
    width = int(degree.max(initial=0))
    order = np.argsort(adjacency == 0, axis=0)[:width]
    neighbours = np.where(np.arange(width)[:, None] < degree, order, n)

    def times_adjacency(x, padded):
        padded[:n] = x
        return padded[neighbours].sum(axis=0, dtype=x.dtype)

    padded = np.zeros(n + 1, dtype=np.int64)
    count, prev, sums = 0, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    while 0 < int(sums.max()) * (width + 1) <= 127 * n:
        count += 1
        prev, sums = sums, times_adjacency(sums, padded) - prev
    actions = np.empty((count, n, n), dtype=np.int8)
    padded = np.zeros((n + 1, n), dtype=np.int8)
    prev, step = np.zeros((n, n), dtype=np.int8), np.eye(n, dtype=np.int8)
    for k in range(count):
        actions[k] = step
        prev, step = step, times_adjacency(step, padded) - prev
    # the last step is zero, unless the row sums stopped where a check fails
    lows = actions.min(axis=(1, 2)).tolist() + [int(step.min())]
    highs = actions.max(axis=(1, 2)).tolist() + [int(step.max())]
    for low, high in zip(lows, highs):
        if low < 0:
            raise ZPlusModuleError(f"generated action with negative entries for {d.name}")
        if high * (width + 1) > 127:
            raise ZPlusModuleError(f"Chebyshev actions of {d.name} leave the int8 range")
    actions.setflags(write=False)
    return ZPlusModule(verlinde_ring(count), actions)


def restrict(module: ZPlusModule) -> ZPlusModule:
    """The module viewed over the even subring of its ring.

    The subring comes from ``even_subring`` (cached per ring); the actions
    of the even basis elements are ``module.actions[::2]``, a read-only
    strided view that the restricted module takes without a copy.
    """
    return ZPlusModule(even_subring(module.ring), module.actions[::2])


def decompose(module: ZPlusModule) -> list[list[int]]:
    """Basis index lists of the Z+-submodules along support-graph components.

    An edge joins basis indices l and k whenever some action matrix is
    nonzero at (k, l) or (l, k); each connected component spans a
    submodule, whose actions are ``module.actions[:, comp][:, :, comp]``.
    Components are sorted and ordered by smallest basis index.  The support
    is one buffered reduction over the stack, with no mask of its size.
    """
    support = module.actions.any(axis=0)
    return connected_components(support | support.T)


def regular_element(module: ZPlusModule) -> np.ndarray:
    """Regular element of an irreducible module, as a read-only vector with
    coordinate sum 1.

    It is the common Perron vector of all actions, from one solve on the stack,
    checked against every generator at eigenvalue FP(b_i): the max-norm
    residual of each must be at most 1e-9.  The sum is taken in int32,
    exact while the stack is shorter than 2**24 (each entry is at most 128
    times its length in magnitude), and ``perron_eigenpair`` widens it in
    its own float64 copy; the images come from a buffered einsum.  Neither
    makes a float64 copy of the integer stack.  The check reads the images
    that the solve took last, at the vector it returns, scaled by the same
    coordinate sum: no second einsum over the stack.

    The module is irreducible when the support of Delta_1 alone is
    connected, since every submodule of ``decompose`` is a union of its
    components; only otherwise is the whole stack's support read.
    """
    mats = module.actions
    if len(mats) < 2 or len(connected_components((mats[1] != 0) | (mats[1].T != 0))) != 1:
        components = decompose(module)
        if len(components) != 1:
            raise ZPlusModuleError(
                f"module is reducible ({len(components)} components); regular element undefined"
            )
    fp = module.ring.fp_dims()
    moved = None

    def images(vec):
        nonlocal moved
        moved = np.einsum("kij,j->ki", mats, vec)
        return moved

    _, vec = perron_eigenpair(mats.sum(axis=0, dtype=np.int32), images)
    total = vec.sum()
    vec = vec / total
    if np.any(vec <= 0):
        raise ZPlusModuleError("Perron vector is not strictly positive")
    moved /= total  # the images at vec
    moved -= fp[:, None] * vec
    residuals = np.max(np.abs(moved, out=moved), axis=1)
    failing = np.flatnonzero(residuals > 1e-9)
    if failing.size:
        i = int(failing[0])
        raise ZPlusModuleError(
            f"eigen-relation for basis element {i} fails (residual {residuals[i]:.3e})"
        )
    vec.setflags(write=False)
    return vec
