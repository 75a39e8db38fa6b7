"""Hypergroups from fusion rings, their actions and fixed subspaces.

A fusion ring induces a hypergroup by renormalising each basis element
by its Frobenius-Perron dimension; a Z+-module then induces an action
whose matrices are the integer actions divided by the same dimensions.
A common fixed vector lies in the kernel of W = sum_i FP_i (I - Theta_i),
the plain sum (sum_i FP_i) I - sum_i M_i of the integer actions M_i; the
fixed space is that kernel when a positive common fixed vector is known,
and is cut out of it by singular-value thresholding otherwise.
W and the products Theta_i V are read off the integer stack and the
dimensions directly, so no float copy of the stack is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion_ring import (
    _BLOCK_BYTES,
    FusionRing,
    _transposed_blocks,
    associators,
    graded_associators,
    parity_graded,
)
from .linalg import read_only
from .report import CheckResult, blocked_check
from .zplus_module import ZPlusModule


class Hypergroup:
    """Real algebra with row-stochastic nonnegative structure constants.

    Basis element 0 is the unit and the basis is self-dual, as in the
    fusion rings it is built from.  Constants are stored read-only in
    float64, taken without a copy when handed over (``linalg.read_only``).
    """

    def __init__(self, constants):
        constants = read_only(constants, np.float64)
        if constants.ndim != 3 or constants.shape != (len(constants),) * 3:
            raise ValueError(f"constants tensor has shape {constants.shape}, expected (n, n, n)")
        self.constants = constants

    @property
    def rank(self) -> int:
        return len(self.constants)

    def __repr__(self) -> str:
        return f"Hypergroup(rank={self.rank})"


def from_fusion_ring(ring: FusionRing) -> Hypergroup:
    """Hypergroup on the basis b_i / FP(b_i) of a fusion ring: one float
    tensor, divided in place and handed to the hypergroup."""
    fp = ring.fp_dims()
    constants = np.multiply(ring.constants, fp)
    constants /= fp[:, None, None] * fp[None, :, None]
    constants.setflags(write=False)
    return Hypergroup(constants)


_AXIOM_TOL = 1e-10


@np.errstate(invalid="ignore", over="ignore")
def verify_hypergroup_axioms(hg: Hypergroup) -> list[CheckResult]:
    """Checks of the hypergroup axioms; failures are reported.

    Unit law, row sums and associativity pass within 1e-10.  With b_0
    the unit and a self-dual basis, the involution conditions ask the
    unit coefficients c_{ij}^0 to be nonzero exactly at i == j, and the
    involution to be an anti-automorphism, (b_i b_j)* = b_j b_i, that is
    c_{ij}^k = c_{ji}^k within 1e-12; a bitwise commutative table forms
    no difference.  That one comparison of c with its transpose also
    picks the associativity scan.  The witness is the largest
    |(b_i b_j) b_k - b_i (b_j b_k)| over every entry, in float64; the
    tests pin it bit for bit to that of the dense products at the ranks
    they list.  The nucleus certificate of ``FusionRing.verify_axioms``
    proves an exact associator zero, but bounds no residual of a float
    table.
    - A bitwise commutative table that is exactly ``parity_graded``, as
      the hypergroup of every Verlinde ring, takes
      ``graded_associators``: the entries it skips are exactly 0.0, and
      it takes a quarter of the multiply-adds of the dense products.
    - Any other table, such as an even part from R_4 on or a perturbed
      table, takes ``associators``, which computes half of it for a
      commutative table.
    Both hold a few float64 buffers within ``2 * fusion_ring._BLOCK_BYTES``
    next to the table, and the comparisons with the transpose and the sign
    check read the table in the ``fusion_ring._transposed_blocks`` of
    ``_block_rows`` values of i, the first axis, so no mask of the table's
    size is made.  A NaN or an infinity anywhere in the table reaches a row
    of some product, so associativity fails with a non-finite witness; no
    floating-point warning is raised.
    """
    c = hg.constants
    eye = np.eye(hg.rank)
    unit_ok = (
        np.max(np.abs(c[0] - eye)) < _AXIOM_TOL and np.max(np.abs(c[:, 0, :] - eye)) < _AXIOM_TOL
    )
    sums = c.sum(axis=2)
    rows_ok = np.max(np.abs(sums - 1.0)) < _AXIOM_TOL
    witness = None
    if not rows_ok:
        i, j = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
        witness = (int(i), int(j), float(sums[i, j]))
    rows, pairs = _transposed_blocks(c)
    commutative = all(np.array_equal(block, flipped) for block, flipped in pairs)
    sym_ok = commutative or np.max([np.max(np.abs(b - f)) for b, f in pairs]) < 1e-12
    support_ok = np.array_equal(c[:, :, 0] > 0, eye > 0)
    if commutative and parity_graded(c):
        blocks = graded_associators(c)
    else:
        blocks = (block for _, _, block in associators(c, commutative))
    # np.max, unlike the builtin max, keeps a NaN wherever it comes.
    assoc_err = float(np.max([max(a.max(), -a.min()) for a in blocks]))
    return [
        blocked_check("nonnegativity", (block < 0 for block, _ in pairs), rows),
        CheckResult("unit law", bool(unit_ok)),
        CheckResult("row sums equal 1", bool(rows_ok), witness),
        CheckResult("involution conditions", bool(sym_ok and support_ok)),
        CheckResult("associativity", assoc_err < _AXIOM_TOL, assoc_err),
    ]


@dataclass(frozen=True)
class HypergroupAction:
    """Algebra homomorphism into matrices: basis element i acts by
    Theta_i = matrices[i] / fp_dims[i].

    An action induced by a Z+-module keeps the module's integer stack and
    the ring's FP dimensions, so Theta is never stored as a float stack.
    """

    matrices: np.ndarray  # (rank, dim, dim)
    fp_dims: np.ndarray  # (rank,)


def action_from_module(module: ZPlusModule) -> HypergroupAction:
    """Action of the ring's hypergroup induced by a Z+-module: the module's
    read-only actions and the ring's FP dimensions, with nothing copied."""
    return HypergroupAction(module.actions, module.ring.fp_dims())


def fixed_space(action: HypergroupAction, regular=None) -> np.ndarray:
    """Read-only (dim, n) orthonormal rows spanning the intersection of the
    kernels of Theta(r_i) - I, found inside ker W.

    V: the kernel of W = (sum_i FP_i) I - sum_i M_i = sum_i FP_i (I - Theta_i),
    M_i the stored matrices and FP_i the dimensions, the vectors at singular
    value <= |FP|_2 * 1e-8, from one ``eigh`` of W when the stored stack is
    exactly symmetric, and from its ``svd`` otherwise.  sum_i M_i is one
    buffered ``sum(axis=0)`` over the stack, in int32 for an int8 stack
    (exact while it is shorter than 2**24), so W is integer off the
    diagonal and memory stays O(n**2).  When every FP_i is 1, W is
    T = sum_i (I - Theta_i) and the cut is sqrt(k) * 1e-8.
    Symmetry is compared with ``array_equal`` on blocks of matrices whose
    masks fit in ``fusion_ring._BLOCK_BYTES``, not on the whole stack.

    ``regular``, a positive common fixed vector r of the Theta_i that the
    caller has certified (``zplus_module.regular_element`` does), skips the
    second stage on a symmetric nonnegative stack with positive dimensions:
    each Theta_i then has Perron root 1 at r, so every FP_i (I - Theta_i)
    is positive semidefinite and W v = 0 only where each (I - Theta_i) v = 0
    (Perron-Frobenius; Horn & Johnson, Matrix Analysis, 8.1).  V is the
    fixed space.  Here r is only checked to be positive with |W r| within
    the cut times |r|; a vector that fails is ignored.

    Otherwise the result is V ker(S V) at the absolute cut 1e-8, S the
    never-built stack of Theta_i - I, with the Theta_i V buffered einsums
    divided by fp_dims.  |W v| <= |FP|_2 |S v| by Cauchy-Schwarz, so it is
    the stacked SVD's kernel when W's least singular value sigma above the
    cut is far from it (ADE: I - Theta_i >= 0 and dim V = 2)."""
    mats, fp = action.matrices, action.fp_dims
    k, dim = mats.shape[:2]
    w = fp.sum() * np.eye(dim) - mats.sum(axis=0, dtype=np.result_type(mats, np.int32))
    cut = np.linalg.norm(fp) * 1e-8
    step = max(1, _BLOCK_BYTES // (dim * dim))
    blocks = (mats[i : i + step] for i in range(0, k, step))
    if all(np.array_equal(block, block.transpose(0, 2, 1)) for block in blocks):
        evals, vecs = np.linalg.eigh(w)
        cand = vecs.T[np.abs(evals) <= cut]
        certified = (
            regular is not None
            and mats.min(initial=0) >= 0
            and fp.min(initial=1) > 0
            and np.all(regular > 0)
            and np.linalg.norm(w @ regular) <= cut * np.linalg.norm(regular)
        )
        if certified:
            cand.setflags(write=False)
            return cand
    else:
        _, svals, vt = np.linalg.svd(w)
        cand = vt[svals <= cut]
    images = np.einsum("kij,jc->kic", mats, cand.T) / fp[:, None, None]
    moved = (images - cand.T).reshape(k * dim, len(cand))
    _, svals, vt = np.linalg.svd(moved, full_matrices=False)
    basis = vt[int(np.sum(svals >= 1e-8)) :] @ cand
    basis.setflags(write=False)
    return basis
