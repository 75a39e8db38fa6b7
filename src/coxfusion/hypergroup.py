"""Hypergroups from fusion rings, their actions and fixed subspaces.

A fusion ring induces a hypergroup by renormalising each basis element
by its Frobenius-Perron dimension; a Z+-module then induces an action
whose matrices are the integer actions divided by the same dimensions.
A common fixed vector lies in the kernel of T = sum_i (I - Theta_i); the
fixed space is cut out of that kernel by singular-value thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion_ring import FusionRing, associators
from .report import CheckResult, exact_check
from .zplus_module import ZPlusModule


class Hypergroup:
    """Real algebra with row-stochastic nonnegative structure constants."""

    def __init__(self, labels, constants, unit: int = 0, involution=None):
        labels = tuple(str(lab) for lab in labels)
        rank = len(labels)
        constants = np.array(constants, dtype=float)
        if constants.shape != (rank, rank, rank):
            raise ValueError(
                f"constants tensor has shape {constants.shape}, expected {(rank,) * 3}"
            )
        if involution is None:
            involution = tuple(range(rank))
        constants.setflags(write=False)
        self.labels = labels
        self.constants = constants
        self.unit = unit
        self.involution = tuple(int(i) for i in involution)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Hypergroup(rank={self.rank}, labels={list(self.labels)})"


def from_fusion_ring(ring: FusionRing) -> Hypergroup:
    """Hypergroup on the basis b_i / FP(b_i) of a fusion ring."""
    fp = ring.fp_dims()
    constants = (
        ring.constants.astype(float)
        * fp[None, None, :]
        / (fp[:, None, None] * fp[None, :, None])
    )
    labels = tuple(f"{lab}/FP({lab})" for lab in ring.labels)
    return Hypergroup(labels, constants, ring.unit, ring.involution)


_AXIOM_TOL = 1e-10


def verify_hypergroup_axioms(hg: Hypergroup) -> list[CheckResult]:
    """Checks of the hypergroup axioms; failures are reported.

    Unit law, row sums and associativity pass within 1e-10 and the
    symmetry of the unit coefficients within 1e-12.  The associativity
    witness is max |(b_i b_j) b_k - b_i (b_j b_k)|, taken one i at a
    time in rank**3 memory.
    """
    c = hg.constants
    n = hg.rank
    u = hg.unit
    inv = np.array(hg.involution)
    eye = np.eye(n)
    unit_ok = (
        np.max(np.abs(c[u] - eye)) < _AXIOM_TOL and np.max(np.abs(c[:, u, :] - eye)) < _AXIOM_TOL
    )
    sums = c.sum(axis=2)
    rows_ok = np.max(np.abs(sums - 1.0)) < _AXIOM_TOL
    witness = None
    if not rows_ok:
        i, j = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
        witness = (int(i), int(j), float(sums[i, j]))
    perm_ok = inv[u] == u and np.array_equal(inv[inv], np.arange(n))
    sym_ok = np.max(np.abs(c[:, :, u] - c[:, :, u].T)) < 1e-12
    support_ok = np.array_equal(c[:, :, u] > 0, np.arange(n)[None, :] == inv[:, None])
    assoc_err = max(float(max(a.max(), -a.min())) for a in associators(c))
    return [
        exact_check("nonnegativity", c < 0),
        CheckResult("unit law", bool(unit_ok)),
        CheckResult("row sums equal 1", bool(rows_ok), witness),
        CheckResult("involution conditions", bool(perm_ok and sym_ok and support_ok)),
        CheckResult("associativity", assoc_err < _AXIOM_TOL, assoc_err),
    ]


@dataclass(frozen=True)
class HypergroupAction:
    """Algebra homomorphism into matrices: one matrix per basis element."""

    ring: FusionRing
    matrices: np.ndarray  # (rank, dim, dim)

    @property
    def hypergroup(self) -> Hypergroup:
        """The acting hypergroup, built from ``ring`` on each access."""
        return from_fusion_ring(self.ring)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]


def action_from_module(module: ZPlusModule) -> HypergroupAction:
    """Action of the ring's hypergroup induced by a Z+-module."""
    fp = module.ring.fp_dims()
    matrices = module.actions.astype(float) / fp[:, None, None]
    matrices.setflags(write=False)
    return HypergroupAction(module.ring, matrices)


@dataclass(frozen=True)
class FixedSpace:
    """Orthonormal basis (rows) of the common fixed subspace."""

    basis: np.ndarray  # (dimension_of_fixed_space, ambient_dimension)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def fixed_space(action: HypergroupAction) -> FixedSpace:
    """Intersection of the kernels of Theta(r_i) - I, found inside ker T.

    V: right singular vectors of T = sum_i (I - Theta_i) at singular value <= sqrt(k)*1e-8;
    result V ker(S V) at the absolute cut 1e-8, S the never-built stack of Theta_i - I.
    |T v| <= sqrt(k) |S v|, so it is the stacked SVD's kernel when T's least singular value
    sigma above the cut is far from it (ADE: I - Theta_i >= 0, dim V = 2, sigma >= 1.38)."""
    k, dim = action.matrices.shape[:2]
    _, svals, vt = np.linalg.svd(k * np.eye(dim) - action.matrices.sum(axis=0))
    cand = vt[svals <= np.sqrt(k) * 1e-8]
    moved = (action.matrices @ cand.T - cand.T).reshape(k * dim, len(cand))
    _, svals, vt = np.linalg.svd(moved, full_matrices=False)
    basis = vt[int(np.sum(svals >= 1e-8)) :] @ cand
    basis.setflags(write=False)
    return FixedSpace(basis)
