"""The Perron kernel on stacks of commuting nonnegative matrices."""

import math
import tracemalloc

import numpy as np
import pytest

from coxfusion.coxeter import diagram
from coxfusion.fusion_ring import verlinde_ring
from coxfusion.linalg import (
    ConvergenceError,
    connected_components,
    narrow_integers,
    perron_eigenpair,
    read_only,
    subspace_projector,
)
from helpers import (
    WRITABLE_SOURCES,
    caller_writable,
    cycle,
    matrix_order,
    positive_definite,
    squaring_components,
    stack_perron,
)


class TestPerronEigenpair:
    def test_stack_of_one_bipartite(self):
        # A3 is bipartite: its spectrum is symmetric about 0, and unshifted
        # power iteration would stall between the +-sqrt(2) eigenvectors.
        values, vec = stack_perron([diagram("A", 3).adjacency_matrix()])
        assert values.shape == (1,)
        assert values[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert np.all(vec > 0)

    def test_left_multiplication_stack_of_r5(self):
        ring = verlinde_ring(5)
        values, vec = stack_perron(ring.constants.transpose(0, 2, 1))
        expected = [math.sin((k + 1) * math.pi / 6) / math.sin(math.pi / 6) for k in range(5)]
        assert np.max(np.abs(values - expected) / expected) < 1e-14
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-14)

    def test_integer_stack_is_not_copied_to_float(self):
        mats = verlinde_ring(97).constants.transpose(0, 2, 1)
        assert mats.dtype == np.int8
        tracemalloc.start()
        try:
            stack_perron(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an eighth of what a float64 copy of the stack alone would take
        assert peak < mats.size

    def test_integer_sum_is_read_not_written(self):
        # The loop shifts its own float copy: a read-only integer sum gives
        # the same pair as its float64 cast.
        mats = verlinde_ring(9).constants.transpose(0, 2, 1)
        total = mats.sum(axis=0)
        total.setflags(write=False)
        values, vec = perron_eigenpair(total, lambda v: np.einsum("kij,j->ki", mats, v))
        expected_values, expected_vec = stack_perron(mats)
        assert np.array_equal(values, expected_values) and np.array_equal(vec, expected_vec)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_non_stack(self, shape):
        with pytest.raises(ValueError):
            stack_perron(np.ones(shape))


class TestNarrowIntegers:
    @pytest.mark.parametrize(
        "values,dtype",
        [
            ([], np.int8),
            ([True, False], np.int8),
            ([0, 127], np.int8),
            ([-128, 5], np.int8),
            ([128], np.int16),
            ([-129], np.int16),
            ([2.0, 40000.0], np.int32),
            ([2**40], np.int64),
            ([2**63 - 1], np.int64),
            (np.array([-128, 127], dtype=np.int8), np.int8),
        ],
    )
    def test_narrowest_signed_dtype(self, values, dtype):
        # int8 is the one width stored: values whose narrowest signed dtype
        # is wider raise
        if dtype is not np.int8:
            with pytest.raises(ValueError, match="integers in the int8 range"):
                narrow_integers(np.array(values), ValueError)
            return
        out = narrow_integers(np.array(values), ValueError)
        assert out.dtype == np.int8
        assert out.tolist() == [int(v) for v in values]

    def test_c_ordered_copy(self):
        src = np.arange(6).reshape(2, 3)
        out = narrow_integers(src.T, ValueError)
        assert out.flags.c_contiguous and not np.shares_memory(out, src)
        assert np.array_equal(out, src.T)

    @pytest.mark.parametrize(
        "values",
        [[1.5], [np.nan], [np.inf], [2.0**63], np.array([2**63], dtype=np.uint64), ["1"], [1j]],
    )
    def test_rejects_non_integers(self, values):
        with pytest.raises(ArithmeticError):
            narrow_integers(values, ArithmeticError)


class TestReadOnly:
    def test_takes_a_handed_over_array(self):
        arr = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int8)
        arr.setflags(write=False)
        assert read_only(arr, np.int8) is arr
        view = arr[:1]
        assert read_only(view, np.int8) is view

    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_copies_what_the_caller_can_write(self, which):
        arr = np.arange(6, dtype=np.int8).reshape(2, 3)
        out = read_only(caller_writable(arr)[which], np.int8)
        assert not np.shares_memory(out, arr) and not out.flags.writeable
        assert out.flags.c_contiguous and np.array_equal(out, arr)

    def test_takes_a_strided_view_of_a_frozen_array(self):
        # restrict keeps the even actions of a module as actions[::2]
        arr = np.zeros((5, 2, 3), dtype=np.int8)
        arr.setflags(write=False)
        view = arr[::2]
        assert not view.flags.c_contiguous
        assert read_only(view, np.int8) is view

    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_copies_a_strided_view_the_caller_can_write(self, which):
        arr = np.arange(30, dtype=np.int8).reshape(5, 2, 3)
        out = read_only(caller_writable(arr)[which][::2], np.int8)
        assert not np.shares_memory(out, arr) and not out.flags.writeable
        assert out.flags.c_contiguous and np.array_equal(out, arr[::2])

    def test_read_only_view_of_a_writable_base_is_copied(self):
        arr = np.arange(6, dtype=np.int8).reshape(2, 3)  # a view of the writable arange
        arr.setflags(write=False)
        assert not np.shares_memory(read_only(arr, np.int8), arr)

    def test_converts_dtype_and_order(self):
        arr = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int8)
        arr.setflags(write=False)
        for src, dtype in ((arr, np.int16), (arr.T, np.int8)):
            out = read_only(src, dtype)
            assert out.dtype == dtype and out.flags.c_contiguous and not out.flags.writeable
            assert np.array_equal(out, src)


def _random_forest(rng, n):
    adj = np.zeros((n, n), dtype=bool)
    for v in range(1, n):
        if rng.random() < 0.8:
            u = int(rng.integers(v))
            adj[u, v] = adj[v, u] = True
    return adj


def _random_graph(rng, n):
    upper = np.triu(rng.random((n, n)) < 2.0 / n, 1)
    return upper | upper.T


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_squaring_on_forests_and_graphs(self, seed):
        rng = np.random.default_rng(seed)
        for make in (_random_forest, _random_graph):
            adj = make(rng, int(rng.integers(1, 60)))
            perm = rng.permutation(len(adj))
            for support in (adj, adj[np.ix_(perm, perm)]):
                assert connected_components(support) == squaring_components(support)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_cycles_and_their_disjoint_union(self, n):
        ring = cycle(n) == 3
        union = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
        union[1::2, 1::2] = ring  # odd vertices form the cycle, even ones are isolated
        union[:n, :n] |= ring  # a second cycle on 0..n-1, joined to the first
        for support in (ring, union):
            assert connected_components(support) == squaring_components(support)
        assert connected_components(ring) == [list(range(n))]

    def test_empty_and_edgeless(self):
        assert connected_components(np.zeros((0, 0), dtype=bool)) == []
        assert connected_components(np.eye(3, dtype=bool)) == [[0], [1], [2]]


class TestPositiveDefinite:
    def test_relative_to_the_largest_eigenvalue(self):
        # smallest eigenvalue 1e-12 passes beside 1 and fails beside 1e4 (cut 10 * 2 * eps * top)
        assert positive_definite(np.diag([1e-12, 1.0]))
        assert not positive_definite(np.diag([1e-12, 1e4]))

    def test_semidefinite_and_indefinite_rejected(self):
        assert not positive_definite(np.diag([0.0, 1.0]))
        assert not positive_definite(np.diag([-1.0, 1.0]))


class TestSubspaceProjector:
    def test_no_vectors_give_the_zero_matrix(self):
        proj = subspace_projector(np.zeros((0, 4)))
        assert proj.shape == (4, 4)
        assert not proj.any()

    def test_no_ambient_dimension_rejected(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            subspace_projector([])


class TestMatrixOrder:
    def test_infinite_order_stops_at_the_cap(self):
        # the shear's k-th power is [[1, k], [0, 1]], never the identity
        with pytest.raises(ConvergenceError, match="exceeds cap 50"):
            matrix_order([[1, 1], [0, 1]], cap=50)
