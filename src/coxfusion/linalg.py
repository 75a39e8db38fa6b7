"""Small numerical kernels: Perron pairs, outer products, spectral error
bars, projectors, components, read-only storage."""

from __future__ import annotations

import math

import numpy as np


class ConvergenceError(ArithmeticError):
    """Raised when an iterative eigenvalue computation fails to settle."""


def read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` whose entries ``[i]`` are
    C-ordered: only its first axis may be strided.

    An array that already is one, and whose every base array is read-only
    too, is returned as it is: a caller hands over an array it has just
    built, or a strided view of one, by making it read-only.  Anything
    else, in particular an array the caller can still write or a view of
    one, is copied in C order, so that no later write reaches the result."""
    arr = np.asarray(values)
    rows_c_ordered = arr.flags.c_contiguous or (arr.ndim > 1 and arr[:1].flags.c_contiguous)
    if arr.dtype == dtype and rows_c_ordered and _frozen(arr):
        return arr
    arr = arr.astype(dtype, order="C")
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> bool:
    """Whether ``arr`` and each array down its chain of bases are read-only."""
    while not arr.flags.writeable:
        if arr.base is None:
            return True
        if not isinstance(arr.base, np.ndarray):
            return False
        arr = arr.base
    return False


# Bytes of one float64 block buffer, shared by ``row_residuals`` and the
# axiom checks, which take their products over rank**2 * rows entries at a
# time: small enough that the few buffers of a block stay in a core's L2
# cache.
_BLOCK_BYTES = 1 << 17

_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_MAX_ITER = 100_000
_PERRON_STILL = 1e-15
_PERRON_STALLS = 3


def perron_eigenpair(total, images) -> tuple[np.ndarray, np.ndarray]:
    """Common Perron eigenvector of commuting nonnegative matrices M_0 .. M_{k-1}.

    Inputs: ``total``, their (n, n) sum, of any real dtype and never
    written, and ``images(v)``, which returns the (k, n) float64 array of
    the M_i v.  Only these are read, so the matrices need not be held as
    floats, or at all.  Returns (values, vec): each matrix's Rayleigh
    quotient values[i] = (M_i vec) . vec / (vec . vec) and the unit vector
    vec, from the last call of ``images``, which is at vec, so a caller
    may read that call's result rather than take the images again.

    Power iteration from the all-ones vector on ``total + I`` in a float64
    copy: a positive combination keeps the common Perron eigenspace, and
    the unit shift breaks the +/- eigenvalue tie of bipartite supports.
    The sum has converged when successive Rayleigh quotients differ by
    less than 1e-14 and its residual is below 1e-12, both scaled by
    max(1, |quotient|); the vector is returned once every matrix's
    ``row_residuals`` is below 1e-12 * max(1, |values[i]|) too.  The float
    copy of an exact integer sum is the float sum bit for bit while every
    partial sum stays below 2**53.

    Raises ValueError if ``total`` is not square, and ConvergenceError if
    the iteration collapses to zero, at its 100000th step, or at the third
    failed check whose vector moved by at most 1e-15 in max norm since the
    previous one (or the start): matrices with no common Perron vector
    come to rest there.

    Memory: past the caller's sum and the array ``images`` returns, the
    float64 copy of the sum, a few n-vectors and ``row_residuals``' block.
    """
    total = np.asarray(total)
    if total.ndim != 2 or total.shape[0] != total.shape[1]:
        raise ValueError(f"expected the (n, n) sum of the matrices, got shape {total.shape}")
    n = len(total)
    shifted = total.astype(float)  # the loop's own copy: the caller's sum is never written
    shifted.flat[:: n + 1] += 1.0
    vec = np.ones(n) / np.sqrt(n)
    image = shifted @ vec
    rq_prev, checked, stalls = np.inf, vec, 0
    for _ in range(_PERRON_MAX_ITER):
        norm = math.sqrt(image @ image)  # np.linalg.norm's 1-D path, bit for bit
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector")
        vec = image / norm
        image = shifted @ vec
        rq = float(vec @ image)
        scale = max(1.0, abs(rq))
        if (
            abs(rq - rq_prev) < 1e-14 * scale
            and np.max(np.abs(image - rq * vec)) < _PERRON_RESIDUAL_TOL * scale
        ):
            moved = images(vec)
            values = moved @ vec / (vec @ vec)
            limits = _PERRON_RESIDUAL_TOL * np.maximum(1.0, np.abs(values))
            if np.all(row_residuals(moved, values, vec) < limits):
                return values, vec
            stalls += np.max(np.abs(vec - checked)) <= _PERRON_STILL
            if stalls == _PERRON_STALLS:
                raise ConvergenceError("power iteration came to rest off a common Perron vector")
            checked = vec
        rq_prev = rq
    raise ConvergenceError(f"power iteration did not converge in {_PERRON_MAX_ITER} steps")


def row_residuals(moved, values, vec) -> np.ndarray:
    """max_j |moved[i, j] - values[i] * vec[j]| for every row i, as a
    float64 (k,) array, from a (k, n) ``moved``, a (k,) ``values`` and an
    (n,) ``vec``; ``moved`` is not written.

    Each entry is that of the whole-array expression bit for bit: the
    products are ``outer_product``'s one rounding each, then one
    subtraction.  They are taken in row blocks of at most ``_BLOCK_BYTES``,
    so past its result it holds one such block.  NaN propagates to its
    row.
    """
    out = np.empty(len(moved))
    rows = max(1, _BLOCK_BYTES // (8 * len(vec)))
    for i in range(0, len(moved), rows):
        off = outer_product(values[i : i + rows], vec)  # then |moved - off|, in place
        np.abs(np.subtract(moved[i : i + rows], off, out=off), out=off)
        np.max(off, axis=1, out=out[i : i + rows])
    return out


def outer_product(column, row) -> np.ndarray:
    """The (len(column), len(row)) products column[i] * row[j], each the
    one rounding of ``column[:, None] * row`` up to the sign of a zero: a
    matmul over an inner axis of length 1, where that broadcast product
    would also take two buffers of up to 64 KiB each."""
    return np.matmul(column[:, None], row[None, :])


def spectrum_slack(evals) -> float:
    """Error bar of the ascending eigenvalues of a symmetric matrix, from
    ``eigvalsh`` or ``eigh``: 10 * n * eps * largest."""
    return 10 * len(evals) * np.finfo(float).eps * evals[-1]


def subspace_projector(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given row vectors; the zero
    matrix for a (0, n) array of them."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.shape[1] == 0:
        raise ValueError("cannot project: the vectors have no ambient dimension")
    q, _ = np.linalg.qr(rows.T)
    return q @ q.T


def connected_components(support) -> list[list[int]]:
    """Sorted vertex lists of the components of a symmetric boolean adjacency,
    by smallest vertex: a breadth-first walk from each vertex not yet
    reached, level by level, with one ``any`` over the rows of each level
    (a level of one vertex reads its row as it is).  Each vertex's row is
    read once, so O(n**2) in all, in a number of numpy calls that grows with
    the number of levels, not of vertices."""
    adj = np.asarray(support, dtype=bool)
    unseen = np.ones(len(adj), dtype=bool)
    components = []
    while unseen.any():
        root = int(unseen.argmax())
        unseen[root] = False
        component, level = [root], [root]
        while level:
            rows = adj[level[0]] if len(level) == 1 else adj[level].any(axis=0)
            reached = (rows & unseen).nonzero()[0]
            unseen[reached] = False
            level = reached.tolist()
            component += level
        components.append(sorted(component))
    return components
