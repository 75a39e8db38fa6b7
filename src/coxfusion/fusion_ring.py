"""Fusion rings with exact integer structure constants.

The one family used downstream is the Verlinde ring R_n = Z[x]/(Delta_n)
with basis Delta_0..Delta_{n-1}, and its even part.  Both are stored as
runs: for each (j, k), the i with c_{ij}^k = 1 are lo, lo + step, .., hi.
Frobenius-Perron dimensions come from one Perron solve on the left
multiplication matrices of R_n, read off the runs in O(rank**2): the
regular element sum_i FP(b_i) b_i is their common Perron vector, and each
dimension is a Rayleigh quotient on it.  The even part reads R_n's.  The
rank**3 table of structure constants is built only when it is read.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import perron_eigenpair
from .report import CheckResult, blocked_check, exact_check


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
        """Frobenius-Perron dimensions of all basis elements (cached).

        An even part (step 1, fold n - 1) reads them off R_n, the cached
        ``verlinde_ring(fold + 1)``, at the even indices: FP dimensions
        restrict to a based subring (Etingof, Gelaki, Nikshych & Ostrik,
        *Tensor Categories*, 3.3), so R_n and its even part share one Perron
        solve.  Any other ring solves ``_perron_pair`` on its own runs.
        """
        if self._fp_dims is None and self.step == 1:
            self._fp_dims = verlinde_ring(self.fold + 1).fp_dims()[::2]
        elif self._fp_dims is None:
            try:
                self._fp_dims, _ = self._perron_pair()
            except ArithmeticError as exc:
                raise FusionRingError("FP dimensions did not converge") from exc
            self._fp_dims.setflags(write=False)
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
        path.  Without the certificate, ``associativity_witness`` scans
        every associator up to the first step i with a mismatch; on this
        table, symmetric in all three indices, ``associators`` takes one
        product per i, over k >= i.  Both read the int8 table in blocks
        of at most ``_BLOCK_BYTES`` widened to float64, so no float copy of
        the whole table is made, and multiply in float64, which is
        exact here: each associator entry sums at most rank products of
        int8 entries, so it stays below 127**2 * rank, less than 2**53 for
        any rank below about 5.6e11.  The involution check compares the
        table with its transpose in the ``_transposed_blocks`` that the
        hypergroup check reads too, through ``report.blocked_check``: the
        witness is the first index of the whole mask, which is never built.
        """
        c = self.constants
        rows, pairs = _transposed_blocks(c)
        eye = np.eye(self.rank, dtype=np.int64)
        unit = exact_check("unit law", c[0] != eye, c[:, 0, :] != eye)
        if unit.passed and nucleus_certificate(c):
            associative = CheckResult("associativity", True)
        else:
            witness = associativity_witness(c)
            associative = CheckResult("associativity", witness is None, witness)
        return [
            unit,
            associative,
            exact_check("based condition", c[:, :, 0] != eye),
            blocked_check("involution anti-automorphism", (b != f for b, f in pairs), rows),
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


# Bytes of one float64 block buffer of the axiom checks, which take their
# products over rank**2 * rows entries at a time: small enough that the
# few buffers of a block stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 17


def _block_rows(n: int) -> int:
    """Rows of an (rows, n, n) float64 block within ``_BLOCK_BYTES``, at least 1."""
    return max(1, _BLOCK_BYTES // (8 * n * n))


def _transposed_blocks(c: np.ndarray) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """``_block_rows(rank)`` and, for i = 0, rows, 2 * rows, ..., the views
    (c[i : i + rows], c.transpose(1, 0, 2)[i : i + rows]): the blocks in
    which both axiom checks compare a table with its transpose over its
    first two indices, so that no mask of the table's size is made."""
    rows = _block_rows(len(c))
    starts = range(0, len(c), rows)
    return rows, [(c[i : i + rows], c[:, i : i + rows].transpose(1, 0, 2)) for i in starts]


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
      (b_i b_1) b_k = b_i (b_1 b_k) for all i, k.  It is compared in
      column blocks l0:l1 of the table, each T = c[:, :, l0:l1] widened
      to float64 once and read twice: c[:, 1] @ T.reshape(n, -1) on the
      left, and on the right c[1] @ T[i], batched over i.  That is
      O(rank**4) products in ``_BLOCK_BYTES`` buffers, where a full
      associator scan takes O(rank**5); ``c`` may be an int8 table, and
      the float products of its entries are exact.
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
    by_one, one_by = c[:, 1].astype(float), c[1].astype(float)
    cols = _block_rows(n)
    for start in range(0, n, cols):
        table = c[:, :, start : start + cols].astype(float)
        left = by_one @ table.reshape(n, -1)
        if not np.array_equal(left.reshape(table.shape), np.matmul(one_by, table)):
            return False
    return True


def associators(c: np.ndarray, commutative: bool | None = None):
    """Yield (b_i b_j) b_k - b_i (b_j b_k) in blocks over k, as (i, k0, block)
    with block[k - k0, j, l], for i = 0, 1, ... and k0 ascending.

    With C_i = c[i] and B_k = c[:, k], both indexed [m, l], block k of step
    i is the commutator C_i B_k - B_k C_i, indexed [j, l].  A block spans
    ``_block_rows(rank)`` values of k, so its two float64 buffers hold at
    most ``_BLOCK_BYTES`` each (one k at least); they are overwritten by
    the next block.  An integer table is widened to float64 a block at a
    time, C_i once per step and each block of B as it is read, so no float
    copy of the whole table is made; its products are exact while every
    sum of rank products of entries stays below 2**53.  ``commutative``,
    when given, is whether ``c`` equals its transpose over i and j, which
    is then not compared again.
    - A commutative table has B_k = C_k, so block k of step i is minus
      block i of step k, and step i yields only k >= i.  The first step
      with a nonzero entry still yields all of them (were one at some
      k < i, step k would hold one first).  The largest |entry| is the
      same in exact arithmetic; on a float table, products taken in blocks
      may round apart from one wide product in the last bit.  Two products
      per block, over k >= i.
    - If every C_k is also symmetric (a self-dual table reciprocal in all
      three indices, as the Verlinde table), C_k C_i = (C_i C_k)^T: one
      product per block, and its blocks minus their transposes.
    - Any other table takes both products over every k.
    """
    n = len(c)
    if commutative is None:
        commutative = np.array_equal(c, c.transpose(1, 0, 2))
    reciprocal = commutative and np.array_equal(c, c.transpose(0, 2, 1))
    by_k = c if commutative else c.transpose(1, 0, 2)
    rows = _block_rows(n)
    blocks, products = np.empty((rows, n, n)), np.empty((rows, n, n))
    for i in range(n):
        c_i = c[i].astype(float, copy=False)
        for k0 in range(i if commutative else 0, n, rows):
            b_k = by_k[k0 : k0 + rows].astype(float, copy=False)
            block = blocks[: len(b_k)]
            left = np.matmul(c_i, b_k, out=products[: len(b_k)])
            if reciprocal:
                np.subtract(left, left.transpose(0, 2, 1), out=block)
            else:
                np.subtract(left, np.matmul(b_k, c_i, out=block), out=block)
            yield i, k0, block


def parity_graded(c: np.ndarray) -> bool:
    """True when c_ij^k is exactly 0 wherever i + j + k is odd.

    Every Verlinde ring is graded so, by the parity of its indices: that
    is its universal Z/2 grading (Gelaki & Nikshych, *Adv. Math.* 217,
    2008).  Its even part from R_4 on is not, nor is any table with a
    nonzero entry, NaN included, at an odd slot.
    """
    return not any(c[a::2, b::2, (a ^ b ^ 1) :: 2].any() for a in (0, 1) for b in (0, 1))


def graded_associators(c: np.ndarray):
    """Yield blocks of (b_i b_j) b_k - b_i (b_j b_k) that hold, up to sign,
    every entry a commutative ``parity_graded`` float table can leave
    nonzero, each overwritten by the next.

    As in ``associators``, the associator at (i, k) is C_i C_k - C_k C_i
    over [j, l], with C_i = c[i].  Class a holds the h_a = (rank + 1 - a)
    // 2 indices of parity a.  C_i[j, m] is 0 unless m is in class s ^ p_i
    for j in class s (p_i the parity of i), so on rows j of class s the
    commutator is 0 off the columns l of class t = s ^ p_i ^ p_k, and
    there it is
        C_i[s, s ^ p_i] C_k[s ^ p_i, t] - C_k[s, s ^ p_k] C_i[s ^ p_k, t]:
    two products over one class of m, a quarter of the dense products'
    multiply-adds.  The terms dropped are 0 * x, so on a finite table the
    entries skipped are exactly 0.0 and those kept equal the dense sums in
    exact arithmetic.  In float64 they agree where BLAS adds the terms
    left in the same order; its kernel for the last (columns mod 8) of a
    product may round a sum otherwise, in either scan.
    - i and k run in tiles of T indices of one parity.  A tile A of
      parity p is copied once per class s into Q[x, a, y] = c[a, x, y],
      x in class s and y in class s ^ p: its rows (x, a) are the left
      factors C_a[s, s ^ p] of all a in A, its (x, (a, y)) matrix their
      right factors.
    - Each pair of tiles, A even and B odd, or both of one parity with B
      from A on, takes two GEMMs per class s, (T h, h) @ (h, T h):
      ((j, a), m) @ (m, (b, l)) is C_a C_b and ((j, b), m) @ (m, (a, l))
      is C_b C_a, and the block is the first less the second with a and b
      swapped.  A tile paired with itself takes the first GEMM only, G,
      and its block, G less G with a and b swapped, holds each pair of
      distinct steps twice, once per sign, and exactly 0 where a = b.
    - With h = h_0, the two tiles' copies take 2 T h**2 floats each and
      the two products T**2 h**2 each: T is the largest, at least 1, that
      keeps all four within ``2 * _BLOCK_BYTES``, the two buffers of
      ``associators``, then spread evenly over the tiles of a class (5 at
      R_30, 3 at R_60, 1 at R_120).
    """
    n = len(c)
    h, classes = ((n + 1) // 2, n // 2), range(min(n, 2))
    square = h[0] * h[0]
    size = max(1, int((_BLOCK_BYTES / (8 * square) + 1) ** 0.5) - 1)
    count = -(-h[0] // size)
    size = -(-h[0] // count)
    copies = np.empty((2, 2 * size * square))
    lefts, rights = np.empty(size * size * square), np.empty(size * size * square)
    tiles = [[slice(a, a + 2 * size, 2) for a in range(p, n, 2 * size)] for p in classes]

    def copy(buffer, tile, p):
        blocks, start = [], 0
        for s in classes:
            part = c[tile, s::2, (s ^ p) :: 2].transpose(1, 0, 2)
            blocks.append(buffer[start : start + part.size].reshape(part.shape))
            np.copyto(blocks[-1], part)
            start += part.size
        return blocks

    for p in classes:
        for at, tile_a in enumerate(tiles[p]):
            qa = copy(copies[0], tile_a, p)
            for q in classes[p:]:
                for tile_b in tiles[q][at if q == p else 0 :]:
                    qb = qa if tile_b is tile_a else copy(copies[1], tile_b, q)
                    for s in classes:
                        (_, ta, m), (_, tb, l) = qa[s].shape, qb[s ^ p].shape
                        left = np.matmul(
                            qa[s].reshape(-1, m),
                            qb[s ^ p].reshape(m, -1),
                            out=lefts[: h[s] * ta * tb * l].reshape(h[s] * ta, tb * l),
                        ).reshape(h[s], ta, tb, l)
                        if qb is qa:
                            out = rights[: left.size].reshape(left.shape)
                            yield np.subtract(left, left.transpose(0, 2, 1, 3), out=out)
                            continue
                        right = np.matmul(
                            qb[s].reshape(h[s] * tb, -1),
                            qa[s ^ q].reshape(-1, ta * l),
                            out=rights[: left.size].reshape(h[s] * tb, ta * l),
                        ).reshape(h[s], tb, ta, l)
                        yield np.subtract(left, right.transpose(0, 2, 1, 3), out=left)


def associativity_witness(c: np.ndarray) -> tuple[int, int, int, int] | None:
    """First (i, j, k, l) at which (b_i b_j) b_k - b_i (b_j b_k) has a
    nonzero coefficient of b_l, or None: read off ``associators`` up to
    the first step i with one.  Blocks split that step over k, so its
    witness is the least of their first hits."""
    first = None
    for i, k0, block in associators(c):
        if first is not None and first[0] < i:
            break
        hits = np.argwhere(block.transpose(1, 0, 2))
        if len(hits):
            j, k, l = (int(x) for x in hits[0])
            hit = (i, j, k0 + k, l)
            first = hit if first is None else min(first, hit)
    return first


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
    runs of fold n - 1 and step 1, and its ``fp_dims`` are R_n's at the
    even indices, with no Perron solve of its own.  Any other ring raises
    FusionRingError: in an even part of rank 4 or more, for one, the
    even-indexed elements are not closed.
    """
    if ring.step != 2:
        raise FusionRingError(f"the even part is taken of Verlinde rings only, not {ring!r}")
    return FusionRing(ring.labels[::2], ring.fold // 2, 1)
