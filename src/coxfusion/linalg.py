"""Small numerical kernels: Perron pairs, projectors, components, exact matmuls."""

from __future__ import annotations

import numpy as np


class ConvergenceError(ArithmeticError):
    """Raised when an iterative eigenvalue computation fails to settle."""


EXACT_FLOAT_BOUND = 2**53


def exact_dtype(bound: int) -> type:
    """Dtype of exact integer matmuls whose partial sums stay below ``bound``:
    float64 (BLAS) below 2**53, int64 (no BLAS) below 2**63, else OverflowError."""
    if bound < EXACT_FLOAT_BOUND:
        return np.float64
    if bound < 2**63:
        return np.int64
    raise OverflowError(f"integer products up to {bound} overflow int64")


_PERRON_RESIDUAL_TOL = 1e-12
_PERRON_MAX_ITER = 100_000


def perron_eigenpair(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Common Perron eigenvector of a (k, n, n) stack of commuting nonnegative matrices.

    Power iteration from the all-ones vector on ``sum + I``: a positive
    combination keeps the common Perron eigenspace, and the unit shift
    breaks the +/- eigenvalue tie of bipartite supports.  The sum has
    converged when successive Rayleigh quotients differ by less than
    1e-14 and the residual is below 1e-12, both scaled by
    max(1, |quotient|) (an absolute 1e-14 falls below the float spacing
    of quotients above about 64).  Returns each matrix's Rayleigh
    quotient, whose error is quadratic in the vector's when the stack is
    closed under transposition, and the unit vector, once every matrix's
    residual also passes 1e-12; a stack with no common Perron vector
    never does, and after 100000 steps ConvergenceError is raised.
    """
    mats = np.asarray(matrix, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack of matrices, got shape {mats.shape}")
    n = mats.shape[1]
    shifted = mats.sum(axis=0) + np.eye(n)
    vec = np.ones(n) / np.sqrt(n)
    rq_prev = np.inf
    for _ in range(_PERRON_MAX_ITER):
        image = shifted @ vec
        norm = float(np.linalg.norm(image))
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
            images = mats @ vec
            values = images @ vec / (vec @ vec)
            residuals = np.max(np.abs(images - values[:, None] * vec), axis=1)
            if np.all(residuals < _PERRON_RESIDUAL_TOL * np.maximum(1.0, np.abs(values))):
                return values, vec
        rq_prev = rq
    raise ConvergenceError(f"power iteration did not converge in {_PERRON_MAX_ITER} steps")


def subspace_projector(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given row vectors."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        raise ValueError("cannot project onto an empty span")
    q, _ = np.linalg.qr(rows.T)
    return q @ q.T


def matrix_order(matrix, cap: int = 1000) -> int:
    """Smallest k >= 1 with matrix**k == I, up to ``cap``.

    The k-th power passes within 4 k**3 eps of I in max norm.  For a
    Coxeter element in the simple-root basis the rounding of its h-th
    power measured 0.03 to 0.31 h**3 eps (I2(5) to I2(100000), E8, H4,
    B10, A300, D300), and every other power was 2 away from I.  Past
    the k where the tolerance reaches 0.5 (about 82000) a wrong power
    could pass, so the search stops there with a ConvergenceError.
    """
    mat = np.asarray(matrix, dtype=float)
    eye = np.eye(mat.shape[0])
    power = eye
    for k in range(1, cap + 1):
        tol = 4 * k**3 * 2.0**-52  # float64 eps = 2**-52
        if tol > 0.5:
            raise ConvergenceError(f"matrix order exceeds {k - 1}, past float64 resolution")
        power = power @ mat
        if np.max(np.abs(power - eye)) < tol:
            return k
    raise ConvergenceError(f"matrix order exceeds cap {cap}; input may not be of finite order")


def connected_components(support) -> list[list[int]]:
    """Sorted vertex lists of the components of a symmetric boolean adjacency,
    by smallest vertex; log2(n) + 1 squarings of reachability cover every path."""
    n = len(support)
    reach = (np.asarray(support, dtype=bool) | np.eye(n, dtype=bool)).astype(float)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return [np.flatnonzero(row).tolist() for v, row in enumerate(reach) if row.argmax() == v]
