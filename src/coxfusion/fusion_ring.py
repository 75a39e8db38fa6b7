"""Fusion rings with exact integer structure constants.

The one family used downstream is the Verlinde ring R_n = Z[x]/(Delta_n)
with basis Delta_0..Delta_{n-1}, and its even part.  Both are stored as
runs: for each (j, k), the i with c_{ij}^k = 1 are lo, lo + step, .., hi.
Frobenius-Perron dimensions come from one Perron solve on the left
multiplication matrices, read off the runs in O(rank**2): the regular
element sum_i FP(b_i) b_i is their common Perron vector, and each
dimension is a Rayleigh quotient on it.  The rank**3 table of structure
constants is built only when it is read.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import perron_eigenpair
from .report import CheckResult, exact_check, sliced_check


class FusionRingError(ValueError):
    """Malformed ring data or a failed Frobenius-Perron computation."""


class FusionRing:
    """Verlinde ring R_n or its even part: a unital based ring stored as runs.

    Basis element 0 is the unit and the basis is self-dual.  c_{ij}^k = 1
    iff |j-k| <= i <= min(j+k, fold-j-k) and i = j+k mod step, else 0; the
    rule is symmetric in i, j, k.  R_n has fold 2n-2 and step 2, the
    product rule of the Chebyshev polynomials Delta_k modulo Delta_n; its
    even part, in its own indices, has fold n-1 and step 1.  ``fp_dims``
    reads the runs in O(rank**2) memory.
    ``constants[i, j, k]``, the coefficient of b_k in b_i * b_j, is the
    read-only int8 table of the rule, rank**3 bytes (213 MB for R_597):
    it is built on first read and kept.  Only the table commands, the
    axiom checks and ``hypergroup.from_fusion_ring`` read it.  Products of
    its entries wrap in int8, so every consumer widens them first.
    Instances are immutable.
    """

    def __init__(self, labels, fold: int, step: int):
        self.labels = tuple(labels)
        self.fold = fold
        self.step = step
        self._fp_dims: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def constants(self) -> np.ndarray:
        """The table, written in place: +1 at row lo and -1 at row hi + step
        (step spare rows take the marks past the end), then row i adds row
        i - step for i = step, step + 1, ...  Past the table the build holds
        only rank**2 index arrays, and it makes one numpy call per row."""
        n, step = self.rank, self.step
        past_hi, lo = self._run_ends(np.arange(n + step))
        pair = np.arange(n * n).reshape(n, n)
        marks = np.zeros((n + step, n, n), dtype=np.int8)
        flat = marks.reshape(-1)
        flat[lo * n * n + pair] = 1
        flat[past_hi * n * n + pair] = -1
        for i in range(step, n):
            np.add(marks[i], marks[i - step], out=marks[i])
        marks.setflags(write=False)
        return marks[:n]

    def _run_ends(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values[hi + step], values[lo]) as (rank, rank) views over (j, k),
        where lo = |j - k| and hi = min(j + k, fold - j - k) are the first
        and the last i with c_{ij}^k = 1.

        hi depends on j + k only and lo on j - k only, so each is a strided
        view of 2 * rank - 1 values read off ``values``, Hankel and Toeplitz:
        no rank**2 index array is built.
        """
        n = self.rank
        m = np.arange(2 * n - 1)
        upper = values[np.minimum(m, self.fold - m) + self.step]  # at m = j + k
        lower = values[np.abs(m - (n - 1))]  # at m = n - 1 - j + k
        size = upper.itemsize
        return (
            np.ndarray((n, n), upper.dtype, upper, 0, (size, size)),
            np.ndarray((n, n), lower.dtype, lower, (n - 1) * size, (-size, size)),
        )

    def _perron_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """``perron_eigenpair`` of the left multiplication matrices
        L_i[k, j] = c_{ij}^k, read off the runs.

        Their sum at (k, j) is the length of the run of (j, k),
        (hi - lo) / step + 1 = (hi + step) // step - lo // step (hi = lo mod
        step), an int32 array.  By the symmetry of the rule, (L_i v)_k sums
        v over the run of (i, k), which is S[hi + step] - S[lo] for the
        prefix sums S[m] = sum of v_t over t < m with t = m mod step.  Both
        are differences of the two ``_run_ends`` windows, so past the Perron
        loop's own float copy of the sum this holds one int32 rank**2 array.
        """
        n, step = self.rank, self.step

        def images(vec):
            sums = np.zeros(n + step)
            for start in range(step):
                np.cumsum(vec[start::step], out=sums[start + step :: step])
            return np.subtract(*self._run_ends(sums))

        lengths = np.arange(n + step, dtype=np.int32) // step
        return perron_eigenpair(np.subtract(*self._run_ends(lengths)), images)

    def fp_dims(self) -> np.ndarray:
        """Frobenius-Perron dimensions of all basis elements (cached)."""
        if self._fp_dims is None:
            try:
                dims, _ = self._perron_pair()
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
        commutativity.  When the unit law holds, associativity is first
        certified by ``nucleus_certificate`` in O(rank**4) time: b_1 lies
        in the middle nucleus, which is a subalgebra (Schafer 1966), and
        generates the ring.  Every Verlinde ring and even part takes this
        path.  Without the certificate, it compares (b_i b_j) b_k with
        b_i (b_j b_k) one i at a time in rank**3 memory, and stops at the
        first i with a mismatch; on this table, symmetric in all three
        indices, ``associators`` takes one product per i, over k >= i.  Both
        multiply in float64, which is exact here: each associator entry
        sums at most rank products of int8 entries, so it stays below
        127**2 * rank, less than 2**53 for any rank below about 5.6e11.
        """
        c = self.constants
        eye = np.eye(self.rank, dtype=np.int64)
        exact = c.astype(float)
        unit = exact_check("unit law", c[0] != eye, c[:, 0, :] != eye)
        if unit.passed and nucleus_certificate(exact):
            associative = CheckResult("associativity", True)
        else:
            associative = sliced_check("associativity", (a != 0 for a in associators(exact)))
        return [
            unit,
            associative,
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


# Rows i of the j = 1 associator slice that ``nucleus_certificate`` forms
# at once: two (rows, rank, rank) float64 buffers.
_SLICE_ROWS = 16


def nucleus_certificate(c: np.ndarray) -> bool:
    """True when b_1 certifies the table ``c``, whose b_0 is a two-sided
    unit, associative; False proves nothing either way.

    The middle nucleus N_m = {a : (x a) y = x (a y) for all x, y} of any
    algebra is a subalgebra (Schafer, *An Introduction to Nonassociative
    Algebras*, 1966), so a table is associative exactly when elements
    that generate it lie in N_m: Light's test, stated for algebras.
    - b_0 is in N_m by the unit law.
    - N_m is a subspace closed under products.  So from K = {0, 1}, if
      b_k b_1 for a k in K has exactly one basis index outside K, that
      index joins K; the sweeps stop when K stops growing, and K must
      cover every index.  This reads only the support of c[:, 1].
    - b_1 is in N_m when the j = 1 slice of the associator is 0:
      (b_i b_1) b_k = b_i (b_1 b_k), that is c[i, 1] @ c.reshape(n, n*n)
      equals (c[1] @ c[i]).ravel(), for ``_SLICE_ROWS`` rows i at a time:
      O(rank**4) products in O(rank**2) memory per row, where a full
      associator scan takes O(rank**5).
    """
    n = len(c)
    if n == 1:
        return True
    inside = np.arange(n) < 2
    support = c[:, 1] != 0
    while True:
        outside = support[inside] & ~inside
        joins = outside[outside.sum(axis=1) == 1].any(axis=0)
        if not joins.any():
            break
        inside |= joins
    if not inside.all():
        return False
    flat = c.reshape(n, n * n)
    for start in range(0, n, _SLICE_ROWS):
        rows = slice(start, start + _SLICE_ROWS)
        left = c[rows, 1] @ flat
        if not np.array_equal(left, (c[1] @ c[rows]).reshape(left.shape)):
            return False
    return True


def associators(c: np.ndarray):
    """Yield (b_i b_j) b_k - b_i (b_j b_k) as a [j, k, l] array for i = 0, 1, ...

    With C_i = c[i] and B_k = c[:, k], both indexed [m, l], the (j, l) block
    at k is the commutator C_i B_k - B_k C_i; each step writes these blocks
    by k into two rank**3 buffers, and yields a transposed view.
    - A commutative table has B_k = C_k, so block k of step i is minus
      block i of step k, and step i computes only k >= i: its blocks
      k < i read 0.  The first nonzero entry stays where it was (were it
      at some k < i, step k would hold one first), so a scan up to it
      reads the same witness.  The largest |entry| is the same in exact
      arithmetic; on a float table, products taken in blocks may round
      apart from one wide product in the last bit.  Two products per
      step, over k >= i.
    - If every C_k is also symmetric (a self-dual table reciprocal in all
      three indices, as the Verlinde table), C_k C_i = (C_i C_k)^T: one
      product per step, and its blocks minus their transposes.
    - Any other table takes both products over every k.
    """
    n = len(c)
    commutative = np.array_equal(c, c.transpose(1, 0, 2))
    reciprocal = commutative and np.array_equal(c, c.transpose(0, 2, 1))
    by_k = c if commutative else c.transpose(1, 0, 2)
    blocks, products = np.empty((n, n, n), c.dtype), np.empty((n, n, n), c.dtype)
    for i in range(n):
        start = i if commutative else 0
        if start:
            blocks[start - 1] = 0  # the blocks below it are still 0 from earlier steps
        left = np.matmul(c[i], by_k[start:], out=products[start:])
        if reciprocal:
            np.subtract(left, left.transpose(0, 2, 1), out=blocks[start:])
        else:
            right = np.matmul(by_k[start:], c[i], out=blocks[start:])
            np.subtract(left, right, out=right)
        yield blocks.transpose(1, 0, 2)


@functools.lru_cache(maxsize=None)
def verlinde_ring(n: int) -> FusionRing:
    """The Verlinde fusion ring R_n with basis Delta_0 .. Delta_{n-1}:
    the runs of fold 2n - 2 and step 2."""
    if n < 1:
        raise FusionRingError(f"ring order must be positive, got {n}")
    return FusionRing((f"Δ_{k}" for k in range(n)), 2 * n - 2, 2)


@functools.lru_cache(maxsize=None)
def even_subring(ring: FusionRing) -> FusionRing:
    """Even-indexed fusion subring of a Verlinde ring: its basis element k
    is the ring's 2k.  Halving i, j and k in the rule of R_n gives the
    runs of fold n - 1 and step 1.  Any other ring raises FusionRingError:
    in an even part of rank 4 or more, for one, the even-indexed elements
    are not closed.
    """
    if ring.step != 2:
        raise FusionRingError(f"the even part is taken of Verlinde rings only, not {ring!r}")
    return FusionRing(ring.labels[::2], ring.fold // 2, 1)
