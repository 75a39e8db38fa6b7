"""Fusion rings with exact integer structure constants.

Covers the generic based-ring machinery plus the two concrete families
used downstream: the Verlinde ring R_n = Z[x]/(Delta_n) with basis
Delta_0..Delta_{n-1}, and the rank-2 Fibonacci ring.  Frobenius-Perron
dimensions come from one Perron solve on the stack of left
multiplication matrices: the regular element sum_i FP(b_i) b_i is their
common Perron vector, and each dimension is a Rayleigh quotient on it.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import exact_dtype, perron_eigenpair
from .report import CheckResult, exact_check, sliced_check


class FusionRingError(Exception):
    """Malformed ring data or a failed Frobenius-Perron computation."""


class FusionRing:
    """Finite-rank unital based ring with nonnegative integer constants.

    ``constants[i, j, k]`` is the coefficient of basis element k in the
    product b_i * b_j.  Instances are immutable; structure constants are
    stored as a read-only dense integer tensor.
    """

    def __init__(self, labels, constants, unit: int = 0, involution=None):
        labels = tuple(str(lab) for lab in labels)
        rank = len(labels)
        constants = np.array(constants, dtype=np.int64)
        if constants.shape != (rank, rank, rank):
            raise FusionRingError(
                f"constants tensor has shape {constants.shape}, expected {(rank,) * 3}"
            )
        if np.any(constants < 0):
            raise FusionRingError("structure constants must be nonnegative")
        if not 0 <= unit < rank:
            raise FusionRingError(f"unit index {unit} out of range")
        if involution is None:
            involution = tuple(range(rank))
        involution = tuple(int(i) for i in involution)
        if sorted(involution) != list(range(rank)):
            raise FusionRingError("involution must be a permutation of the basis indices")
        constants.setflags(write=False)
        self.labels = labels
        self.constants = constants
        self.unit = unit
        self.involution = involution
        self._fp_dims: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    def element(self, coefficients) -> "FusionElement":
        return FusionElement(self, np.array(coefficients, dtype=np.int64))

    def basis_element(self, i: int) -> "FusionElement":
        coeffs = np.zeros(self.rank, dtype=np.int64)
        coeffs[i] = 1
        return FusionElement(self, coeffs)

    def one(self) -> "FusionElement":
        return self.basis_element(self.unit)

    def left_mult_matrix(self, i: int) -> np.ndarray:
        """Matrix of left multiplication by b_i; entry (k, j) is c_{ij}^k."""
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range for rank {self.rank}")
        return self.constants[i].T.copy()

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

        Associativity compares (b_i b_j) b_k with b_i (b_j b_k) one i at a
        time in rank**3 memory, in the dtype ``exact_dtype`` picks for sums
        up to max(c)**2 * rank, and stops at the first i with a mismatch.
        """
        c = self.constants
        n = self.rank
        u = self.unit
        inv = np.array(self.involution)
        eye = np.eye(n, dtype=np.int64)
        exact = c.astype(exact_dtype(int(c.max()) ** 2 * n))
        dual = np.arange(n)[None, :] == inv[:, None]
        anti = exact_check(
            "involution anti-automorphism", c != c[np.ix_(inv, inv)][:, :, inv].transpose(1, 0, 2)
        )
        perm_ok = inv[u] == u and np.array_equal(inv[inv], np.arange(n))
        return [
            exact_check("unit law", c[u] != eye, c[:, u, :] != eye),
            sliced_check("associativity", (a != 0 for a in associators(exact))),
            exact_check("based condition", c[:, :, u] != dual),
            CheckResult(anti.name, bool(perm_ok and anti.passed), anti.witness),
        ]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": self.unit,
            "involution": list(self.involution),
            "constants": self.constants.tolist(),
        }

    def __repr__(self) -> str:
        return f"FusionRing(rank={self.rank}, labels={list(self.labels)})"


class FusionElement:
    """Integer linear combination of the basis of one fusion ring."""

    def __init__(self, ring: FusionRing, coefficients):
        coefficients = np.asarray(coefficients, dtype=np.int64)
        if coefficients.shape != (ring.rank,):
            raise FusionRingError(
                f"coefficient vector has length {coefficients.size}, expected {ring.rank}"
            )
        self.ring = ring
        self.coefficients = coefficients

    def _check_ring(self, other: "FusionElement"):
        if self.ring is not other.ring:
            raise FusionRingError("elements belong to different rings")

    def __add__(self, other: "FusionElement") -> "FusionElement":
        self._check_ring(other)
        return FusionElement(self.ring, self.coefficients + other.coefficients)

    def __sub__(self, other: "FusionElement") -> "FusionElement":
        self._check_ring(other)
        return FusionElement(self.ring, self.coefficients - other.coefficients)

    def __mul__(self, other: "FusionElement") -> "FusionElement":
        self._check_ring(other)
        out = np.einsum(
            "i,j,ijk->k", self.coefficients, other.coefficients, self.ring.constants
        )
        return FusionElement(self.ring, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FusionElement)
            and self.ring is other.ring
            and np.array_equal(self.coefficients, other.coefficients)
        )

    def __hash__(self):
        return hash((id(self.ring), self.coefficients.tobytes()))

    def __repr__(self) -> str:
        terms = [
            f"{c}*{lab}" for c, lab in zip(self.coefficients, self.ring.labels) if c != 0
        ]
        return " + ".join(terms) if terms else "0"


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

    c_{ij}^k = 1 iff |i-j| <= k <= min(i+j, 2n-i-j-2) and k = i+j mod 2
    (``chebyshev.product_support``), built as a bool mask.
    """
    if n < 1:
        raise FusionRingError(f"ring order must be positive, got {n}")
    i = np.arange(n)[:, None, None]
    j = np.arange(n)[None, :, None]
    k = np.arange(n)
    total = i + j
    mask = np.abs(i - j) <= k
    mask &= k <= np.minimum(total, 2 * n - total - 2)
    mask &= k % 2 == total % 2
    labels = tuple(f"Δ_{k}" for k in range(n))
    return FusionRing(labels, mask)


def fib_ring() -> FusionRing:
    """Rank-2 Fibonacci ring: basis {1, x} with x*x = 1 + x."""
    constants = np.zeros((2, 2, 2), dtype=np.int64)
    constants[0] = np.eye(2, dtype=np.int64)
    constants[1, 0, 1] = 1
    constants[1, 1, 0] = 1
    constants[1, 1, 1] = 1
    return FusionRing(("1", "x"), constants)


@functools.lru_cache(maxsize=None)
def even_subring(ring: FusionRing) -> tuple[FusionRing, tuple[int, ...]]:
    """Even-indexed fusion subring of a Verlinde ring.

    Returns the subring together with the embedding map: new index k
    corresponds to old index ``embedding[k]`` = 2k.  Raises if the
    even-indexed constants are not closed (impossible for Verlinde
    rings, kept as a guard for malformed input).
    """
    evens = tuple(range(0, ring.rank, 2))
    odds = [k for k in range(ring.rank) if k % 2 == 1]
    block = ring.constants[np.ix_(evens, evens)]
    if odds and np.any(block[:, :, odds] != 0):
        raise FusionRingError("even-indexed basis elements are not multiplicatively closed")
    if any(ring.involution[e] not in evens for e in evens):
        raise FusionRingError("involution does not preserve the even-indexed basis")
    sub_constants = block[:, :, evens]
    labels = tuple(ring.labels[e] for e in evens)
    inv = tuple(evens.index(ring.involution[e]) for e in evens)
    unit = evens.index(ring.unit)
    return FusionRing(labels, sub_constants, unit, inv), evens
