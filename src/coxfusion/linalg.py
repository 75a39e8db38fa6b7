"""Small numerical kernels: Perron pairs, spectral error bars, projectors,
components, read-only int8 storage."""

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


def narrow_integers(values, error: type[Exception]) -> np.ndarray:
    """``values`` as a read-only, C-ordered int8 array, the one width in
    which the library stores integer tables; copied unless ``read_only``
    may take it as it is.  An int8 array is taken without a scan.

    Raises ``error`` unless every entry is an integer in [-128, 127].
    Products of int8 arrays wrap silently: take them in float64, which is
    exact while every partial sum stays below 2**53."""
    arr = np.asarray(values)
    if arr.dtype == np.int8:
        return read_only(arr, np.int8)
    kind = arr.dtype.kind
    integral = kind in "biu" or (kind == "f" and np.all(np.isfinite(arr) & (arr == np.round(arr))))
    if not integral:
        raise error("entries must be integers")
    if not -128 <= int(arr.min(initial=0)) <= int(arr.max(initial=0)) <= 127:
        raise error("entries must be integers in the int8 range")
    return read_only(arr, np.int8)


_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_MAX_ITER = 100_000


def perron_eigenpair(total, images) -> tuple[np.ndarray, np.ndarray]:
    """Common Perron eigenvector of commuting nonnegative matrices M_0 .. M_{k-1},
    given their (n, n) sum ``total`` and ``images(v)``, the (k, n) array of
    the M_i v.

    Power iteration from the all-ones vector on ``total + I``, built in a
    float64 copy, so that ``total`` may be an integer array and is never
    written: a positive combination keeps the common Perron eigenspace,
    and the unit shift breaks the +/- eigenvalue tie of bipartite
    supports.  The sum has converged when successive Rayleigh quotients
    differ by less than 1e-14 and the residual is below 1e-12, both scaled
    by max(1, |quotient|) (an absolute 1e-14 falls below the float spacing
    of quotients above about 64).  Returns each matrix's Rayleigh
    quotient, whose error is quadratic in the vector's when the set is
    closed under transposition, and the unit vector, once every matrix's
    residual also passes 1e-12; matrices with no common Perron vector
    never do, and after 100000 steps ConvergenceError is raised.  The
    last call of ``images`` is at the returned vector, so a caller may
    keep its result rather than take the images again.

    Only the sum and the images are read, so the matrices need not be
    held as floats, or at all: ``regular_element`` passes its int8
    stack's exact ``sum(axis=0, dtype=np.int32)`` and a buffered einsum,
    which never copy the stack to float64, and a ``FusionRing`` its int32
    run lengths and prefix sums.  A float sum of an integer stack is exact
    while every partial sum stays below 2**53, so there the float64 copy
    of an exact integer sum is the float sum, bit for bit.
    """
    total = np.asarray(total)
    if total.ndim != 2 or total.shape[0] != total.shape[1]:
        raise ValueError(f"expected the (n, n) sum of the matrices, got shape {total.shape}")
    n = len(total)
    shifted = total.astype(float)  # the loop's own copy: the caller's sum is never written
    shifted.flat[:: n + 1] += 1.0
    vec = np.ones(n) / np.sqrt(n)
    image = shifted @ vec
    rq_prev = np.inf
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
            off = values[:, None] * vec  # then |moved - off|, in place
            residuals = np.max(np.abs(np.subtract(moved, off, out=off), out=off), axis=1)
            if np.all(residuals < _PERRON_RESIDUAL_TOL * np.maximum(1.0, np.abs(values))):
                return values, vec
        rq_prev = rq
    raise ConvergenceError(f"power iteration did not converge in {_PERRON_MAX_ITER} steps")


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
