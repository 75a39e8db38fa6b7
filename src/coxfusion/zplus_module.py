"""The ADE Z+-modules over Verlinde rings, held as the sums of their actions.

The ADE module of a diagram with Coxeter number h lives over the
Verlinde ring R_{h-1}; its generator Delta_1 acts by the diagram's
adjacency matrix A and the remaining actions Delta_k(A) are generated by
the Chebyshev recursion, in exact int8 on the tree.  h is read off that
recursion (Delta_{h-1} is the first action to vanish), so the module is
built from the adjacency matrix alone and never consults the Coxeter
element.  Every stage downstream reads either a sum of the actions or
each action at one vector, so the (h - 1, n, n) stack of actions is
never stored: ``ade_module`` keeps the int32 sums of the even and the odd
actions, and ``regular_element`` runs half the recursion again on
vectors and reads the other half off the diagram automorphism.
``restrict`` views a module over the even part of its ring, the only
subring used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterDiagram, CoxeterError
from .fusion_ring import FusionRing, even_subring, verlinde_ring
from .linalg import connected_components, perron_eigenpair, row_residuals


class ZPlusModuleError(ValueError):
    """A failed construction self-test or an eigen-relation that fails."""


@dataclass(frozen=True)
class AdeModule:
    """The ADE module of a diagram over ``ring``, R_{h-1} or its even part,
    whose basis element k acts by Delta_k(A), or by Delta_{2k}(A) over the
    even part.

    ``adjacency`` is A = Delta_1, in int8 as its entries are 0 and 1, and
    ``neighbours`` its (width, n) adjacency lists, padded with n, which the
    recursion gathers along.  ``mirror`` is the permutation sigma with
    Delta_{h-2}(A)[i, sigma(i)] = 1, the last nonzero action, which
    ``ade_module`` checks to be a permutation matrix: by
    Delta_{h-2} Delta_k = Delta_{h-2-k} in R_{h-1}, row i of
    Delta_{h-2-k}(A) is row sigma(i) of Delta_k(A).  ``total`` is the
    read-only int32 sum of the actions of every basis element of the ring,
    and ``even`` that of Delta_0, Delta_2, ...: over the even part the two
    are one array.  Every action is nonnegative and symmetric, as
    ``ade_module`` certifies, so the support of ``total`` is the union of
    the supports of the actions.
    """

    ring: FusionRing
    adjacency: np.ndarray  # (n, n) int8
    neighbours: np.ndarray  # (width, n)
    mirror: np.ndarray  # (n,)
    total: np.ndarray  # (n, n) int32
    even: np.ndarray  # (n, n) int32

    @property
    def rank(self) -> int:
        """Module rank (number of basis elements)."""
        return len(self.adjacency)


def ade_module(d: CoxeterDiagram) -> AdeModule:
    """The Z+-module of an ADE diagram over the Verlinde ring R_{h-1}, from
    one pass of the recursion.

    The actions Delta_k(A) follow Delta_{k+1} = A Delta_k - Delta_{k-1}
    until the first k with Delta_k(A) = 0, which is k = h - 1.  The ADE
    gate makes the loop end: the eigenvalues of A are then 2cos(pi m / h)
    over the exponents m, with m = 1 among them, and
    Delta_k(2cos t) = sin((k + 1) t) / sin t.  The recursion runs in exact
    int8 on the tree, in three rotating (n + 1, n) buffers whose last row
    stays zero: row v of A X sums the rows of X at v's neighbours, padded
    to the largest degree with that zero row, so a step is O(rank**2)
    with no matmul.  Each odd step is added into the int32 sum S_odd,
    exact while h is below 2**24, and no step is stored.  Summing
    A Delta_k = Delta_{k+1} + Delta_{k-1} over the odd k, with
    Delta_{h-1}(A) = 0, gives
        2 S_even = A S_odd + I + [h even] Delta_{h-2}(A)
    for the sum S_even of the even steps, so it takes one gather after the
    loop; that the right side
    is even everywhere is checked exactly.  Delta_{h-2}(A), the step left
    in the buffer, must be a permutation matrix, the diagram automorphism
    (its eigenvalues Delta_{h-2}(2cos(pi m / h)) are +1 and -1), and that
    is checked exactly too.

    Each step must be nonnegative with max * (largest degree + 1) <= 127,
    so that the next cannot wrap.  One ``max`` of its uint8 view tests
    both, since a negative int8 reads as 128 or more there; only a step
    that fails is read again, for the message.  A max of 0 is the step
    that vanishes and ends the loop.  On a diagram forced past the gate
    the loop still ends: its entries grow until the test fails.  Every
    Delta_k(A) is a polynomial in A computed exactly, so it is symmetric
    once A is, which is checked once.
    """
    if not d.is_ade():
        raise CoxeterError(f"diagram {d.name} is not of ADE type")
    adjacency = d.adjacency_matrix().astype(np.int8)
    if not np.array_equal(adjacency, adjacency.T):
        raise ZPlusModuleError(f"adjacency matrix of {d.name} is not symmetric")
    n = d.rank
    degree = adjacency.sum(axis=0)
    width = int(degree.max(initial=0))
    order = np.argsort(adjacency == 0, axis=0)[:width]
    neighbours = np.where(np.arange(width)[:, None] < degree, order, n)
    limit = 127 // (width + 1)
    prev, step, spare = np.zeros((3, n + 1, n), dtype=np.int8)
    np.fill_diagonal(step, 1)
    odd = np.zeros((n + 1, n), dtype=np.int32)  # its last row stays zero too
    count = 0
    while (top := int(step.view(np.uint8).max())) != 0:
        if top > limit:
            if step.min() < 0:
                raise ZPlusModuleError(f"generated action with negative entries for {d.name}")
            raise ZPlusModuleError(f"Chebyshev actions of {d.name} leave the int8 range")
        if count % 2:
            np.add(odd[:n], step[:n], out=odd[:n])
        count += 1
        np.add.reduce(np.take(step, neighbours, axis=0), axis=0, dtype=np.int8, out=spare[:n])
        np.subtract(spare[:n], prev[:n], out=spare[:n])
        prev, step, spare = step, spare, prev
    rows, mirror = np.nonzero(prev[:n])  # Delta_{h-2}(A), h - 1 = count
    if not (
        np.array_equal(rows, np.arange(n))
        and np.all(prev[rows, mirror] == 1)
        and np.array_equal(np.sort(mirror), np.arange(n))
    ):
        raise ZPlusModuleError(f"Delta_(h-2)(A) of {d.name} is not a permutation matrix")
    even = np.add.reduce(np.take(odd, neighbours, axis=0), axis=0, dtype=np.int32)
    even[rows, rows] += 1
    even[rows, mirror] += count % 2
    if np.any(even & 1):
        raise ZPlusModuleError(f"the even and odd sums of {d.name} do not match")
    even >>= 1
    total = np.add(even, odd[:n])
    for arr in (adjacency, neighbours, mirror, total, even):
        arr.setflags(write=False)
    return AdeModule(verlinde_ring(count), adjacency, neighbours, mirror, total, even)


def restrict(module: AdeModule) -> AdeModule:
    """The module viewed over the even subring of its ring, from
    ``even_subring`` (cached per ring): its actions sum to ``module.even``,
    taken without a copy."""
    ring = even_subring(module.ring)
    return AdeModule(ring, module.adjacency, module.neighbours, module.mirror, module.even, module.even)


def decompose(module: AdeModule) -> list[list[int]]:
    """Basis index lists of the Z+-submodules along support-graph components.

    An edge joins basis indices k and l whenever some action is nonzero at
    (k, l), that is, wherever ``module.total`` is; each connected component
    spans a submodule.  Components are sorted and ordered by smallest
    basis index.
    """
    return connected_components(module.total != 0)


def regular_element(module: AdeModule) -> np.ndarray:
    """Regular element of an irreducible ADE module: the common Perron
    vector of all its actions, as a read-only positive float64 (n,) vector
    with coordinate sum 1.

    It comes from one ``perron_eigenpair`` solve on ``module.total`` and
    is checked against every basis element k at eigenvalue FP(b_k), read
    off ``module.ring.fp_dims()``: each max-norm residual, from
    ``row_residuals`` plus the rounding bound below, must be at most 1e-9.

    The images Delta_k(A) v come from an exact int64 run of the recursion
    on R = rint(v * 2**E), with E such that 127 * rank * max|R| stays
    below 2**62, so no partial sum wraps.  The run stops at
    k = (h - 2) // 2; each later image Delta_{h-2-k}(A) R is Delta_k(A) R
    with its rows in the order of ``module.mirror``, the same integers.
    The row sums Delta_k(A) 1 ride along as a second column, and the check
    adds (Delta_k(A) 1) * 2**-(E + 1), the bound on the rounding of R, to
    the residual of k.  The check reads the images of the solve's last
    call, at the returned vector, divided in place by its coordinate sum.

    Raises ZPlusModuleError if the support of ``module.total`` is not
    connected (over the even part every module of rank 2 or more), if the
    Perron vector is not strictly positive, or if an eigen-relation fails;
    ConvergenceError from the solve.

    Memory: past the module and the ring, the int64 columns of half the
    steps, one (h - 1, n) float64 image array that every call rewrites,
    and the solve's float64 copy of the sum and its residual block.
    """
    components = connected_components(module.total != 0)
    if len(components) != 1:
        raise ZPlusModuleError(
            f"module is reducible ({len(components)} components); regular element undefined"
        )
    fp = module.ring.fp_dims()
    n, neighbours, mirror = module.rank, module.neighbours, module.mirror
    half = (len(fp) + 1) // 2  # Delta_0 .. Delta_{(h-2)//2}, run exactly
    rest = len(fp) - half  # Delta_half .. Delta_{h-2}, mirrored
    columns = np.zeros((half + 1, n + 1, 2), dtype=np.int64)  # [0] is Delta_{-1} = 0
    columns[1, :n, 1] = 1
    moved, exponent = np.empty((len(fp), n)), 0

    def images(vec):
        nonlocal exponent
        exponent = 61 - math.frexp(127 * n * float(np.max(np.abs(vec))))[1]
        columns[1, :n, 0] = np.rint(np.ldexp(vec, exponent))
        for k in range(2, half + 1):
            np.add.reduce(np.take(columns[k - 1], neighbours, axis=0), axis=0, out=columns[k, :n])
            np.subtract(columns[k, :n], columns[k - 2, :n], out=columns[k, :n])
        np.ldexp(columns[1:, :n, 0], -exponent, out=moved[:half])
        # any mode but "raise" writes ``out`` directly, not through a buffer
        np.take(moved[:rest][::-1], mirror, axis=1, out=moved[half:], mode="clip")
        return moved

    _, vec = perron_eigenpair(module.total, images)
    coordinate_sum = vec.sum()
    vec = vec / coordinate_sum
    if np.any(vec <= 0):
        raise ZPlusModuleError("Perron vector is not strictly positive")
    moved /= coordinate_sum
    row_max = columns[1:, :n, 1].max(axis=1)
    row_max = np.concatenate([row_max, row_max[:rest][::-1]])
    rounding = np.ldexp(row_max, -exponent - 1) / coordinate_sum
    residuals = row_residuals(moved, fp, vec) + rounding
    failing = np.flatnonzero(residuals > 1e-9)
    if failing.size:
        i = int(failing[0])
        raise ZPlusModuleError(
            f"eigen-relation for basis element {i} fails (residual {residuals[i]:.3e})"
        )
    vec.setflags(write=False)
    return vec
