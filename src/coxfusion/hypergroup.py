"""Hypergroups from fusion rings, their actions and fixed subspaces.

A fusion ring induces a hypergroup by renormalising each basis element
by its Frobenius-Perron dimension.  The hypergroup keeps the ring's int8
table and those dimensions, and computes a float structure constant only
where a check reads it.  A Z+-module then induces an action
whose matrices are the integer actions divided by the same dimensions.
The common fixed space is the kernel of W = sum_i FP_i (I - Theta_i),
the plain sum (sum_i FP_i) I - sum_i M_i of the integer actions M_i, and
on an ADE module's even part it has one Perron vector of sum_i M_i per
component of that sum's support, found by power iteration from a
positive common fixed vector, so no action is stored one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion_ring import (
    FusionRing,
    _transposed_blocks,
    associators,
    graded_associators,
    parity_graded,
)
from .linalg import connected_components, read_only
from .report import CheckResult, blocked_check
from .zplus_module import AdeModule


class Hypergroup:
    """Real algebra with row-stochastic nonnegative structure constants
    h_ij^k = (t_ij^k * d_k) / (d_i * d_j), held as the table t and the
    dimensions d.

    Basis element 0 is the unit and the basis is self-dual, as in the
    fusion rings it is built from.  ``table`` is a read-only (n, n, n)
    array, int8 as a ring's table is kept and float64 otherwise, and
    ``dims`` a read-only float64 (n,) vector, both taken without a copy
    when handed over (``linalg.read_only``).  A fusion ring hands over its
    int8 table and its FP dimensions; a table of the constants themselves
    comes with dims of ones, and then each h_ij^k is the table's entry,
    (x * 1) / (1 * 1) = x, NaN and infinities included.  No float copy of
    the table is kept: ``entries`` computes h over three slices when a
    check reads it, from the table, the dims and their (n, n) products
    d_i * d_j, kept next to them.
    """

    def __init__(self, table, dims):
        table = np.asarray(table)
        table = read_only(table, np.int8 if table.dtype == np.int8 else np.float64)
        dims = read_only(dims, np.float64)
        if table.ndim != 3 or table.shape != (len(table),) * 3:
            raise ValueError(f"table has shape {table.shape}, expected (n, n, n)")
        if dims.shape != (len(table),):
            raise ValueError(f"dims have shape {dims.shape}, expected ({len(table)},)")
        self.table = table
        self.dims = dims
        self._products = dims[:, None] * dims  # d_i * d_j

    @property
    def rank(self) -> int:
        return len(self.table)

    def entries(self, i: slice, j: slice, k: slice, out=None) -> np.ndarray:
        """h[i, j, k] over three slices as a float64 array, written into
        ``out`` when given: t * d_k, then divided by d_i * d_j.  Those are
        the two roundings of the whole float table (t * d) / (d d^T), so
        each entry is bit for bit the one that table holds.  Past ``out``,
        numpy takes an iterator buffer of up to 64 KiB for each cast or
        broadcast operand, 128.8 KiB in all at R_60."""
        out = np.multiply(self.table[i, j, k], self.dims[k], out=out)
        return np.divide(out, self._products[i, j, None], out=out)

    def __repr__(self) -> str:
        return f"Hypergroup(rank={self.rank})"


def from_fusion_ring(ring: FusionRing) -> Hypergroup:
    """Hypergroup on the basis b_i / FP(b_i) of a fusion ring: its int8
    table and its FP dimensions, with nothing converted."""
    return Hypergroup(ring.constants, ring.fp_dims())


_AXIOM_TOL = 1e-10


@np.errstate(invalid="ignore", over="ignore")
def verify_hypergroup_axioms(hg: Hypergroup) -> list[CheckResult]:
    """Checks of the hypergroup axioms on ``hg``: nonnegativity, unit law,
    row sums equal 1, involution conditions and associativity, in that
    order.  A failed axiom is reported, never raised, and a NaN or an
    infinity raises no floating-point warning.

    Unit law, row sums and associativity pass within 1e-10.  With b_0 the
    unit and a self-dual basis, the involution conditions ask h_{ij}^0 to
    be nonzero exactly at i == j and h_{ij}^k = h_{ji}^k within 1e-12 (the
    involution an anti-automorphism).  Witnesses: the first negative index,
    (i, j, sum) at the row sum farthest from 1, and the largest
    |(b_i b_j) b_k - b_i (b_j b_k)| over every entry in float64, which a
    NaN or an infinity anywhere in the table makes non-finite.

    With positive finite dims, h has the sign and the zeros of the table t
    and equals its transpose exactly where t does, so the sign check, the
    support of h[:, :, 0], ``parity_graded`` and the bitwise comparison
    with the transpose read t, in the ``fusion_ring._transposed_blocks``.
    Float entries come from ``Hypergroup.entries`` only where read: rows 0,
    the row sums in row blocks, the 1e-12 comparison of a table that is
    not bitwise commutative, and the associator scan:
    - a bitwise commutative ``parity_graded`` table, as the hypergroup of
      every Verlinde ring, takes ``graded_associators`` through
      ``entries``;
    - any other table takes ``associators`` on h widened to float64 once.

    Memory: past the table and the dims, rank**2 arrays, one row block of
    float entries within ``_BLOCK_BYTES``, and the scan.  The graded scan's
    buffers fit in ``2 * _BLOCK_BYTES``, and each ``entries`` call adds
    numpy's iterator buffers for its cast and broadcast operands, 64 KiB
    each at most (128.8 KiB at R_60): the scan peaks at 322 KiB at R_60,
    the whole check at 0.51 MiB.  The full scan also holds h as a rank**3
    float64 array.
    """
    n, t, every = hg.rank, hg.table, slice(None)
    eye = np.eye(n)
    unit_ok = (
        np.max(np.abs(hg.entries(slice(0, 1), every, every)[0] - eye)) < _AXIOM_TOL
        and np.max(np.abs(hg.entries(every, slice(0, 1), every)[:, 0] - eye)) < _AXIOM_TOL
    )
    rows, pairs = _transposed_blocks(t)
    parts = [slice(start, start + rows) for start in range(0, n, rows)]
    sums, buffer = np.empty((n, n)), np.empty((min(rows, n), n, n))
    for part in parts:
        loaded = hg.entries(part, every, every, out=buffer[: len(sums[part])])
        loaded.sum(axis=2, out=sums[part])
    rows_ok = np.max(np.abs(sums - 1.0)) < _AXIOM_TOL
    witness = None
    if not rows_ok:
        i, j = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
        witness = (int(i), int(j), float(sums[i, j]))
    commutative = all(np.array_equal(block, flipped) for block, flipped in pairs)
    sym_ok = commutative or np.max([_asymmetry(hg, part) for part in parts]) < 1e-12
    support_ok = np.array_equal(t[:, :, 0] > 0, eye > 0)
    if commutative and parity_graded(t):
        blocks = graded_associators(hg.entries, n)
    else:
        widened = hg.entries(every, every, every)
        blocks = (block for _, _, block in associators(widened))
    # np.max, unlike the builtin max, keeps a NaN wherever it comes.
    assoc_err = float(np.max([max(a.max(), -a.min()) for a in blocks]))
    return [
        blocked_check("nonnegativity", (block < 0 for block, _ in pairs), rows),
        CheckResult("unit law", bool(unit_ok)),
        CheckResult("row sums equal 1", bool(rows_ok), witness),
        CheckResult("involution conditions", bool(sym_ok and support_ok)),
        CheckResult("associativity", assoc_err < _AXIOM_TOL, assoc_err),
    ]


def _asymmetry(hg: Hypergroup, part: slice) -> float:
    """Largest |h_ij^k - h_ji^k| over i in ``part``, from float entries."""
    every = slice(None)
    flipped = hg.entries(every, part, every).transpose(1, 0, 2)
    return np.max(np.abs(hg.entries(part, every, every) - flipped))


@dataclass(frozen=True)
class HypergroupAction:
    """What the common fixed space of an action reads: ``matrices``, the sum
    sum_i M_i of the integer matrices by which basis element i acts as
    Theta_i = M_i / fp_dims[i], and those FP dimensions.

    An action induced by a Z+-module keeps the module's int32 sum and the
    ring's FP dimensions, so no Theta_i is ever stored.
    """

    matrices: np.ndarray  # (dim, dim): sum_i M_i
    fp_dims: np.ndarray  # (rank,)


def action_from_module(module: AdeModule) -> HypergroupAction:
    """Action of the ring's hypergroup induced by a Z+-module: the module's
    read-only sum of its actions and the ring's FP dimensions, with nothing
    copied."""
    return HypergroupAction(module.total, module.ring.fp_dims())


def fixed_space(action: HypergroupAction, regular) -> np.ndarray:
    """Read-only (c, n) unit rows spanning the common fixed space of the
    Theta_i, one positive row per connected component of the support of
    S = sum_i M_i, certified by ``regular``, a positive common fixed vector
    r such as ``zplus_module.regular_element``.  Each row is r masked to
    its component after 8 power steps on a float64 copy of S, normalised
    each step.  A condition that fails raises ValueError naming it: every
    FP_i is positive, r is positive, |W r| <= cut * |r| and |W b| <= cut
    for each row b, with W = (sum_i FP_i) I - S = sum_i FP_i (I - Theta_i)
    and cut = |FP|_2 * 1e-8.  Memory: S's copy, its support and O(c * n).

    The dimension c is exact on an ADE module's even part.  Four facts,
    checked exactly upstream, make A's Perron root 2cos(pi/h), at which
    the FP_i are taken: Delta_{h-1}(A) = 0, every earlier Delta_k(A)
    nonnegative and nonzero, A symmetric (all in ``ade_module``), and the
    support of the module's sum connected (``regular_element``).  Then A's
    Perron vector, masked to a component, is a positive eigenvector of its
    block of S at sum_i FP_i, which is thus that block's simple Perron root
    (Perron-Frobenius; Horn & Johnson, Matrix Analysis, 8.4): ker W, the
    fixed space, has one dimension per component.  S's other eigenvalues
    there are p_j = sin^2(N j pi/h) / sin^2(j pi/h), N = h // 2, at most
    p_1 / 4, so each step shrinks the error at least 4x, and 8 take a
    start about 2e-11 from the Perron vector to rounding level."""
    total, fp = action.matrices, action.fp_dims
    summed, cut = total.astype(float), np.linalg.norm(fp) * 1e-8
    residual = np.linalg.norm(fp.sum() * regular - summed @ regular)
    for holds, condition in (
        (fp.min(initial=1) > 0, "an FP dimension is not positive"),
        (np.all(regular > 0), "the regular vector is not positive"),
        (residual <= cut * np.linalg.norm(regular), "|W r| exceeds the cut times |r|"),
    ):
        if not holds:
            raise ValueError(f"fixed space not certified: {condition}")
    components = connected_components(total != 0)
    basis = np.zeros((len(components), len(total)))
    for row, component in zip(basis, components):
        row[component] = regular[component]
    for _ in range(8):
        basis = basis @ summed
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    if not np.all(np.linalg.norm(fp.sum() * basis - basis @ summed, axis=1) <= cut):
        raise ValueError("fixed space not certified: |W b| exceeds the cut for a basis row")
    basis.setflags(write=False)
    return basis
