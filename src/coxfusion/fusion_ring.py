"""Fusion rings with exact integer structure constants.

Covers the generic based-ring machinery plus the one concrete family
used downstream: the Verlinde ring R_n = Z[x]/(Delta_n) with basis
Delta_0..Delta_{n-1}, and its even part.  Frobenius-Perron
dimensions come from one Perron solve on the stack of left
multiplication matrices: the regular element sum_i FP(b_i) b_i is their
common Perron vector, and each dimension is a Rayleigh quotient on it.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import exact_dtype, narrow_integers, perron_eigenpair
from .report import CheckResult, exact_check, sliced_check


class FusionRingError(ValueError):
    """Malformed ring data or a failed Frobenius-Perron computation."""


class FusionRing:
    """Finite-rank unital based ring with nonnegative integer constants.

    ``constants[i, j, k]`` is the coefficient of basis element k in the
    product b_i * b_j.  Basis element 0 is the unit and the basis is
    self-dual (every b_i is its own dual), as in the Verlinde rings and
    their even parts.  Instances are immutable; structure constants are
    stored as a read-only dense tensor in the narrowest signed integer
    dtype that holds them (``linalg.narrow_integers``: int8 for every
    Verlinde ring, so R_597 takes 213 MB rather than 1.7 GB), without a
    copy when the caller hands over a read-only tensor stored so
    (``linalg.read_only``).  Entries that are not integers raise
    FusionRingError.  Products of the stored constants wrap in that
    dtype, so every consumer widens them first.
    """

    def __init__(self, labels, constants):
        labels = tuple(str(lab) for lab in labels)
        rank = len(labels)
        constants = np.asarray(constants)
        if constants.shape != (rank, rank, rank):
            raise FusionRingError(
                f"constants tensor has shape {constants.shape}, expected {(rank,) * 3}"
            )
        constants = narrow_integers(constants, FusionRingError)
        if constants.min(initial=0) < 0:
            raise FusionRingError("structure constants must be nonnegative")
        self.labels = labels
        self.constants = constants
        self._fp_dims: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    def fp_dims(self) -> np.ndarray:
        """Frobenius-Perron dimensions of all basis elements (cached)."""
        if self._fp_dims is None:
            try:
                dims, _ = perron_eigenpair(self.constants.transpose(0, 2, 1))
            except ArithmeticError as exc:
                raise FusionRingError("FP dimensions did not converge") from exc
            dims.setflags(write=False)
            self._fp_dims = dims
        return self._fp_dims

    def fp_dim(self, i: int) -> float:
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range for rank {self.rank}")
        return float(self.fp_dims()[i])

    def verify_axioms(self) -> list[CheckResult]:
        """Exact integer checks of the based-ring axioms.

        With b_0 the unit and a self-dual basis, the based condition reads
        c_{ij}^0 = [i == j] and the involution anti-automorphism is
        commutativity.  Associativity compares (b_i b_j) b_k with
        b_i (b_j b_k) one i at a time in rank**3 memory, in the dtype
        ``exact_dtype`` picks for sums up to max(c)**2 * rank, and stops at
        the first i with a mismatch.
        """
        c = self.constants
        eye = np.eye(self.rank, dtype=np.int64)
        exact = c.astype(exact_dtype(int(c.max()) ** 2 * self.rank))
        return [
            exact_check("unit law", c[0] != eye, c[:, 0, :] != eye),
            sliced_check("associativity", (a != 0 for a in associators(exact))),
            exact_check("based condition", c[:, :, 0] != eye),
            exact_check("involution anti-automorphism", c != c.transpose(1, 0, 2)),
        ]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": 0,
            "involution": list(range(self.rank)),
            "constants": self.constants.tolist(),
        }

    def __repr__(self) -> str:
        return f"FusionRing(rank={self.rank}, labels={list(self.labels)})"


def associators(c: np.ndarray):
    """Yield (b_i b_j) b_k - b_i (b_j b_k) as a [j, k, l] array for i = 0, 1, ...

    Two matmuls per i into two rank**3 buffers that each step overwrites.
    """
    n = len(c)
    by_i, by_l = c.reshape(n, n * n), c.reshape(n * n, n)
    left, right = np.empty((n, n * n), c.dtype), np.empty((n * n, n), c.dtype)
    for i in range(n):
        np.matmul(c[i], by_i, out=left)
        np.matmul(by_l, c[i], out=right)
        yield np.subtract(left, right.reshape(n, n * n), out=left).reshape(n, n, n)


@functools.lru_cache(maxsize=None)
def verlinde_ring(n: int) -> FusionRing:
    """The Verlinde fusion ring R_n with basis Delta_0 .. Delta_{n-1}.

    c_{ij}^k = 1 iff |j-k| <= i <= min(j+k, 2n-j-k-2) and i = j+k mod 2
    (``chebyshev.product_support``; the rule is symmetric in i, j, k).
    For each (j, k) the i with c_{ij}^k = 1 are one run lo, lo+2, .., hi,
    so the int8 table is written in place: +1 at row lo and -1 at row
    hi+2 (two spare rows take the marks past the end), then row i adds
    row i-2 for i = 2, 3, ...  Past the table itself the build holds only
    rank**2 index arrays, and it makes one numpy call per row.
    """
    if n < 1:
        raise FusionRingError(f"ring order must be positive, got {n}")
    j = np.arange(n)[:, None]
    k = np.arange(n)
    pair = j * n + k
    total = j + k
    marks = np.zeros((n + 2, n, n), dtype=np.int8)
    flat = marks.reshape(-1)
    flat[np.abs(j - k) * n * n + pair] = 1
    flat[(np.minimum(total, 2 * n - total - 2) + 2) * n * n + pair] = -1
    for i in range(2, n):
        np.add(marks[i], marks[i - 2], out=marks[i])
    marks.setflags(write=False)
    labels = tuple(f"Δ_{k}" for k in range(n))
    return FusionRing(labels, marks[:n])


@functools.lru_cache(maxsize=None)
def even_subring(ring: FusionRing) -> tuple[FusionRing, tuple[int, ...]]:
    """Even-indexed fusion subring of a Verlinde ring.

    The one place that fixes the even part as basis indices 0, 2, 4, ...:
    constants and labels are the strided slices ``[::2]``, and new index
    k corresponds to old index ``embedding[k]`` = 2k.  Raises if the
    even-indexed constants are not closed (impossible for Verlinde
    rings, kept as a guard for malformed input).
    """
    c = ring.constants
    if np.any(c[::2, ::2, 1::2]):
        raise FusionRingError("even-indexed basis elements are not multiplicatively closed")
    return FusionRing(ring.labels[::2], c[::2, ::2, ::2]), tuple(range(0, ring.rank, 2))
