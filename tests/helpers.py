"""Test fixtures and references that the library itself never builds.

The library builds only Verlinde rings, their even parts and ADE modules,
and holds an ADE module as the sums of its actions.  ``ZPlusModule`` is a
module held as its whole stack of actions, stored in int8 by
``narrow_integers``, and ``reference_module`` is the ADE module so held,
built by ``reference_stack``: the reference that the streamed pass of
``zplus_module.ade_module`` and the images of ``regular_element`` are
pinned to.  ``TableRing`` is a fusion ring handed over as a dense table,
with FP dimensions from the Perron solve on its stack (``stack_perron``,
the sum and einsum images of a stored stack): the reference for the
library's runs, and the carrier of injected defects.  ``reference_perron``
is the Perron solve as it was before its residuals were blocked, the
reference for the library's FP dimensions and regular elements.  The
Fibonacci ring (``fib_ring``) and the regular module (``regular_module``)
keep the generic FP-dimension and axiom code under test on data outside
those families.  ``verify_module_axioms`` is the
exact Z+-module axiom check, which no pipeline stage reads, read one
step at a time by ``sliced_check``, and
``dense_associators`` the associator slices of one wide product pair
per i, the reference for ``fusion_ring.associators``' blocks, and
``dense_associator_max`` their largest |entry|, the hypergroup check's
reference witness.  ``dense_constants`` is a hypergroup's whole float
tensor of structure constants, which the library never builds, and
``plain_hypergroup`` a hypergroup handed over as such a tensor.
``reflection_matrices`` are the dense simple reflections, the reference
that the library's closed form for the Coxeter element is tested against,
and ``matrix_order`` is the power walk that checks its order against h.
``edges`` lists a diagram's bonds and ``squaring_components`` is the
reachability-squaring reference for ``linalg.connected_components``.
``positive_definite`` is the spectral reference for the exact graph gate
``CoxeterDiagram.is_ade``.
``fstring_csv`` and ``fstring_svg`` are the per-point f-string renderers
of ``project``'s output, the references for the CLI's single-format ones.
``traced_peak`` is the tracemalloc peak of one call, for the memory pins;
``caller_writable`` gives the arrays a constructor must copy.  ``cycle``,
``affine_d`` and ``e10`` are Coxeter matrices of simply laced diagrams of
infinite type, for the finite-type gates and what lies behind them.
"""

import math
import tracemalloc

import numpy as np

from coxfusion.coxeter import CoxeterDiagram, cartan_form
from coxfusion.fusion_ring import FusionRing, FusionRingError, verlinde_ring
from coxfusion.hypergroup import Hypergroup
from coxfusion.linalg import ConvergenceError, perron_eigenpair, read_only, spectrum_slack
from coxfusion.report import CheckResult, exact_check
from coxfusion.zplus_module import ZPlusModuleError


def narrow_integers(values, error: type[Exception]) -> np.ndarray:
    """``values`` as a read-only, C-ordered int8 array, the one width in
    which the tests store integer tables; copied unless ``read_only``
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


class ZPlusModule:
    """Module basis with one nonnegative integer matrix per ring basis.

    ``actions[i]`` is the matrix of the ring basis element b_i; entry
    (k, l) is the coefficient of m_k in b_i . m_l.  As in ``FusionRing``,
    b_0 is the unit and the ring's basis is self-dual, and the actions are
    stored read-only in int8 by ``narrow_integers``, without a copy when
    the caller hands over a read-only int8 stack.  Entries that are not
    integers in the int8 range raise ZPlusModuleError.
    """

    def __init__(self, ring: FusionRing, actions):
        actions = np.asarray(actions)
        m = actions.shape[-1] if actions.ndim else 0
        if actions.shape != (ring.rank, m, m):
            raise ZPlusModuleError(
                f"actions tensor has shape {actions.shape}, expected {(ring.rank, m, m)}"
            )
        self.ring = ring
        self.actions = narrow_integers(actions, ZPlusModuleError)

    @property
    def rank(self) -> int:
        """Module rank (number of basis elements)."""
        return self.actions.shape[1]


def reference_stack(d: CoxeterDiagram) -> np.ndarray:
    """The actions Delta_k(A), k < h - 1, of the ADE module of ``d``, stored
    whole as a read-only (h - 1, n, n) int8 stack: the recursion in int64,
    with A X summed over the edges by one ``np.add.reduceat``, narrowed
    step by step.  It ends at the first zero step, so ADE diagrams only."""
    adjacency = d.adjacency_matrix()
    rows, cols = np.nonzero(adjacency)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    prev, step, steps = 0, np.eye(d.rank, dtype=np.int64), []
    while step.any():
        steps.append(narrow_integers(step, ZPlusModuleError))
        moved = np.add.reduceat(step[cols], starts) if len(cols) else 0 * step
        prev, step = step, moved - prev
    stack = np.stack(steps)
    stack.setflags(write=False)
    return stack


def reference_module(d: CoxeterDiagram) -> ZPlusModule:
    """The ADE module of ``d`` over R_{h-1}, held as ``reference_stack``."""
    stack = reference_stack(d)
    return ZPlusModule(verlinde_ring(len(stack)), stack)


class TableRing(FusionRing):
    """A fusion ring handed over as a dense table: ``constants[i, j, k]`` is
    the coefficient of b_k in b_i * b_j, stored in int8 by
    ``narrow_integers`` (read-only, taken without a copy when handed over
    so; entries outside [-128, 127] raise FusionRingError).  It
    has no runs: FP dimensions come from the Perron solve on the stack of
    left multiplication matrices ``constants[i].T``, and ``even_subring``
    refuses it."""

    def __init__(self, labels, constants):
        super().__init__((str(lab) for lab in labels), fold=None, step=None)
        constants = np.asarray(constants)
        if constants.shape != (self.rank,) * 3:
            raise FusionRingError(
                f"constants tensor has shape {constants.shape}, expected {(self.rank,) * 3}"
            )
        constants = narrow_integers(constants, FusionRingError)
        if constants.min(initial=0) < 0:
            raise FusionRingError("structure constants must be nonnegative")
        self.constants = constants

    def _perron_pair(self):
        return stack_perron(self.constants.transpose(0, 2, 1))


def stack_perron(mats):
    """``perron_eigenpair`` of a (k, n, n) stack of matrices from the float
    sum of the stack and buffered einsum images, with no float64 copy of an
    integer stack: the reference for ``regular_element``, which sums its
    int8 stack in int32."""
    mats = np.asarray(mats)
    return perron_eigenpair(
        mats.sum(axis=0, dtype=float), lambda vec: np.einsum("kij,j->ki", mats, vec)
    )


def reference_perron(total, images) -> tuple[np.ndarray, np.ndarray]:
    """``linalg.perron_eigenpair`` as it was before its residuals were taken
    in row blocks: the (k, n) product values * vec and |images - values *
    vec| over all k at once, with the images of a failed check still held
    while ``images`` is called again.  The reference that the FP dimensions
    and the regular elements are pinned to, bit for bit."""
    total = np.asarray(total)
    n = len(total)
    shifted = total.astype(float)
    shifted.flat[:: n + 1] += 1.0
    vec = np.ones(n) / np.sqrt(n)
    image = shifted @ vec
    rq_prev, checked, stalls = np.inf, vec, 0
    for _ in range(100_000):
        norm = math.sqrt(image @ image)
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector")
        vec = image / norm
        image = shifted @ vec
        rq = float(vec @ image)
        scale = max(1.0, abs(rq))
        if abs(rq - rq_prev) < 1e-14 * scale and np.max(np.abs(image - rq * vec)) < 1e-12 * scale:
            moved = images(vec)
            values = moved @ vec / (vec @ vec)
            off = values[:, None] * vec
            residuals = np.max(np.abs(np.subtract(moved, off, out=off), out=off), axis=1)
            if np.all(residuals < 1e-12 * np.maximum(1.0, np.abs(values))):
                return values, vec
            stalls += np.max(np.abs(vec - checked)) <= 1e-15
            if stalls == 3:
                raise ConvergenceError("power iteration came to rest off a common Perron vector")
            checked = vec
        rq_prev = rq
    raise ConvergenceError("power iteration did not converge in 100000 steps")


def fib_ring() -> FusionRing:
    """Rank-2 Fibonacci ring: basis {1, x} with x*x = 1 + x."""
    constants = np.zeros((2, 2, 2), dtype=np.int64)
    constants[0] = np.eye(2, dtype=np.int64)
    constants[1, 0, 1] = 1
    constants[1, 1, 0] = 1
    constants[1, 1, 1] = 1
    return TableRing(("1", "x"), constants)


def regular_module(ring: FusionRing) -> ZPlusModule:
    """The ring acting on itself by left multiplication: b_i acts by constants[i].T."""
    return ZPlusModule(ring, ring.constants.transpose(0, 2, 1))


def sliced_check(name: str, bad) -> CheckResult:
    """``exact_check(name, mask)`` with ``bad`` yielding mask[i] for i = 0, 1, ...,
    read up to the first set one: the witness is the same as on the full mask."""
    for i, mask in enumerate(bad):
        if mask.any():
            return CheckResult(name, False, (i, *(int(x) for x in np.argwhere(mask)[0])))
    return CheckResult(name, True)


def verify_module_axioms(module: ZPlusModule) -> list[CheckResult]:
    """Exact checks: unit action, nonnegativity, ring compatibility, the
    last one i at a time (b_i . (b_j . m) against (b_i b_j) . m) up to the
    first i with a mismatch.  The products are taken in float64, which is
    exact here: each entry sums at most max(module rank, ring rank)
    products of int8 entries, so it stays below 128**2 times that rank in
    magnitude, less than 2**53 for any rank below about 5.5e11."""
    acts, c = module.actions, module.ring.constants
    a, x = acts.astype(float), c.astype(float)
    bad = (a[i] @ a != np.tensordot(x[i], a, 1) for i in range(len(c)))
    eye = np.eye(module.rank, dtype=np.int64)
    return [
        exact_check("unit acts as identity", acts[0] != eye),
        exact_check("nonnegative integer entries", acts < 0),
        sliced_check("module compatibility", bad),
    ]


def dense_associators(c: np.ndarray):
    """Yield (b_i b_j) b_k - b_i (b_j b_k) as a [j, k, l] array for i = 0, 1, ...:
    two matmuls per i over every k, into two rank**3 buffers that each step
    overwrites, whatever the symmetry of the table."""
    n = len(c)
    by_i, by_l = c.reshape(n, n * n), c.reshape(n * n, n)
    left, right = np.empty((n, n * n), c.dtype), np.empty((n * n, n), c.dtype)
    for i in range(n):
        np.matmul(c[i], by_i, out=left)
        np.matmul(by_l, c[i], out=right)
        yield np.subtract(left, right.reshape(n, n * n), out=left).reshape(n, n, n)


def dense_associator_max(c: np.ndarray) -> float:
    """Largest |entry| over every ``dense_associators`` slice; NaN if any
    entry is NaN, and no floating-point warning on a non-finite table."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max([np.max(np.abs(a)) for a in dense_associators(c)]))


def dense_constants(hg: Hypergroup) -> np.ndarray:
    """The (n, n, n) float64 tensor of ``hg``'s structure constants, built
    whole: the table times d_k, divided in place by d_i * d_j.  It is the
    reference that ``Hypergroup.entries`` and the checks that read it are
    pinned to bit for bit."""
    d = hg.dims
    constants = np.multiply(hg.table, d)
    constants /= d[:, None, None] * d[None, :, None]
    return constants


def plain_hypergroup(constants) -> Hypergroup:
    """The hypergroup whose structure constants are ``constants``
    themselves: the float table with dims of ones."""
    return Hypergroup(constants, np.ones(len(constants)))


def reflection_matrices(d: CoxeterDiagram) -> list[np.ndarray]:
    """Dense matrices of the simple reflections s_i in the alpha basis:
    the identity with form[i] subtracted from row i."""
    form = cartan_form(d)
    out = []
    for i in range(d.rank):
        mat = np.eye(d.rank)
        mat[i, :] -= form[i, :]
        out.append(mat)
    return out


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


def edges(d: CoxeterDiagram) -> list[tuple[int, int]]:
    """Pairs i < j joined by a bond of order >= 3 or infinite, in row order."""
    return [tuple(e) for e in np.argwhere(np.triu(d.adjacency_matrix())).tolist()]


def squaring_components(support) -> list[list[int]]:
    """Components as ``linalg.connected_components`` gives them, from
    log2(n) + 1 squarings of the dense reachability matrix, O(n**3 log n)."""
    n = len(support)
    reach = (np.asarray(support, dtype=bool) | np.eye(n, dtype=bool)).astype(float)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return [np.flatnonzero(row).tolist() for v, row in enumerate(reach) if row.argmax() == v]


def positive_definite(sym) -> bool:
    """Whether a symmetric matrix's smallest eigenvalue exceeds its ``spectrum_slack``."""
    evals = np.linalg.eigvalsh(sym)
    return bool(evals[0] > spectrum_slack(evals))


def cycle(n):
    """Affine A_{n-1}: a cycle of n simple bonds."""
    mat = np.full((n, n), 2)
    np.fill_diagonal(mat, 1)
    for i in range(n):
        mat[i, (i + 1) % n] = mat[(i + 1) % n, i] = 3
    return mat


def affine_d(n):
    """Affine D_{n-1}: a path on n - 2 vertices with one more leaf at each end."""
    mat = np.full((n, n), 2)
    np.fill_diagonal(mat, 1)
    bonds = [(i, i + 1) for i in range(n - 3)] + [(n - 2, 1), (n - 1, n - 4)]
    for i, j in bonds:
        mat[i, j] = mat[j, i] = 3
    return mat


def e10():
    """Hyperbolic E10 = T(2, 3, 7): a chain of nine with a leaf on vertex 7."""
    mat = np.full((10, 10), 2)
    np.fill_diagonal(mat, 1)
    for i, j in [(i, i + 1) for i in range(8)] + [(6, 9)]:
        mat[i, j] = mat[j, i] = 3
    return mat


def fstring_csv(points) -> str:
    """``project``'s CSV, one f-string per point."""
    lines = [f"{x:.12g},{y:.12g}" for x, y in points]
    return "\n".join(lines) + "\n"


def fstring_svg(points, with_labels: bool) -> str:
    """``project``'s SVG, one f-string per circle."""
    xs = points[:, 0]
    ys = points[:, 1]
    extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    pad = 0.05 * extent
    radius = 0.005 * extent
    view = (
        f"{xs.min() - pad:.12g} {ys.min() - pad:.12g} "
        f"{extent + 2 * pad:.12g} {extent + 2 * pad:.12g}"
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    for x, y in points:
        circle = f'<circle cx="{x:.12g}" cy="{y:.12g}" r="{radius:.12g}" fill="black"'
        if with_labels:
            parts.append(f"{circle}><title>({x:.12g}, {y:.12g})</title></circle>")
        else:
            parts.append(f"{circle}/>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def traced_peak(call, *args):
    """Peak bytes that tracemalloc sees above its start during ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WRITABLE_SOURCES = ("array", "view", "read-only view")


def caller_writable(arr: np.ndarray) -> dict[str, np.ndarray]:
    """Arrays through which a caller can still write ``arr``: itself, a
    C-ordered view of it and a read-only view of it, by ``WRITABLE_SOURCES``."""
    frozen_view = arr.view()
    frozen_view.setflags(write=False)
    return dict(zip(WRITABLE_SOURCES, (arr, arr[:], frozen_view)))
