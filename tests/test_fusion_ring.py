"""Fusion ring construction, exact axioms and FP dimensions."""

import itertools
import math

import numpy as np
import pytest

import helpers
from chebyshev import delta, evaluate, product_support
from coxfusion import fusion_ring, linalg
from coxfusion.fusion_ring import FusionRingError, associators, even_subring, verlinde_ring
from coxfusion.hypergroup import from_fusion_ring, verify_hypergroup_axioms
from coxfusion.report import all_passed
from helpers import WRITABLE_SOURCES, TableRing, caller_writable, fib_ring, traced_peak


def product(ring, x, y):
    """Coefficients of (sum_i x_i b_i)(sum_j y_j b_j); b_i b_j is ``ring.constants[i, j]``."""
    return np.einsum("i,j,ijk->k", x, y, ring.constants)


class TestVerlindeRing:
    def test_rank_two(self):
        ring = verlinde_ring(2)
        assert ring.rank == 2
        assert ring.constants[1, 1].tolist() == [1, 0]

    def test_rank_four_product(self):
        assert verlinde_ring(4).constants[1, 2].tolist() == [0, 1, 0, 1]

    def test_rank_three_top_square(self):
        assert verlinde_ring(3).constants[2, 2].tolist() == [1, 0, 0]

    def test_rejects_zero(self):
        with pytest.raises(FusionRingError):
            verlinde_ring(0)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_axioms_exact(self, n):
        assert all_passed(verlinde_ring(n).verify_axioms())

    @pytest.mark.parametrize("n", [*range(1, 65), 97, 197])
    def test_mask_matches_product_support(self, n):
        reference = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                reference[i, j, product_support(i, j, n)] = 1
        ring = verlinde_ring(n)
        for constants, expected in (
            (ring.constants, reference),
            (even_subring(ring).constants, reference[::2, ::2, ::2]),
        ):
            assert constants.dtype == np.int8 and not constants.flags.writeable
            assert np.array_equal(constants, expected)

    @pytest.mark.parametrize("n", [*range(1, 65), 197, 597])
    def test_fp_dims_match_dense_solve_and_closed_form(self, n):
        # Fresh rings, so that no rank**3 table stays cached past the test.
        ring = verlinde_ring.__wrapped__(n)
        even = even_subring.__wrapped__(ring)
        y = math.pi / (n + 1)
        k = np.arange(n)
        closed = np.sin(np.minimum(k + 1, n - k) * y) / np.sin(y)
        for runs, expected in ((ring, closed), (even, closed[::2])):
            dense = TableRing(runs.labels, runs.constants).fp_dims()
            for reference in (dense, expected):
                assert np.max(np.abs(runs.fp_dims() - reference) / reference) <= 1e-13

    def test_table_written_in_place(self):
        # R_197 (D100's ring) holds no table until it is read; then the int8
        # table is built beside at most six int64 rank**2 index arrays, no
        # rank**3 temporary (at most 1.244 times the table, as the build at
        # ring construction was pinned).  The same holds for its even part.
        assert traced_peak(verlinde_ring.__wrapped__, 197) < 197**2
        ring = verlinde_ring.__wrapped__(197)
        even = even_subring.__wrapped__(ring)
        for runs in (ring, even):
            bound = runs.rank**3 + 6 * 8 * runs.rank**2
            assert traced_peak(getattr, runs, "constants") <= bound

    def test_fp_dims_hold_no_rank2_index_array(self):
        # A float64 rank**2 array of R_597 takes 2.72 MiB.  The solve holds
        # the int32 run-length sum, the Perron loop's float copy of it, the
        # images and one residual buffer: about 3.5 of them.
        assert traced_peak(verlinde_ring.__wrapped__(597).fp_dims) <= 10 * 2**20

    @pytest.mark.parametrize("n", range(1, 16))
    def test_constants_multiplicity_free(self, n):
        constants = verlinde_ring(n).constants
        assert set(np.unique(constants)) <= {0, 1}

    @pytest.mark.parametrize("n", range(2, 16))
    def test_delta1_matrix_is_path_adjacency(self, n):
        ring = verlinde_ring(n)
        path = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            path[i, i + 1] = path[i + 1, i] = 1
        assert np.array_equal(ring.constants[1].T, path)


class TestFibRing:
    def test_constants(self):
        ring = fib_ring()
        assert ring.constants[1, 1, 0] == 1
        assert ring.constants[1, 1, 1] == 1

    def test_unit_law(self):
        assert fib_ring().constants[0, 1].tolist() == [0, 1]

    def test_axioms(self):
        assert all_passed(fib_ring().verify_axioms())

    def test_x_squared(self):
        assert fib_ring().constants[1, 1].tolist() == [1, 1]


class TestEvenSubring:
    def test_rank_three(self):
        ring = verlinde_ring(3)
        sub = even_subring(ring)
        assert sub.rank == 2
        assert sub.labels == ring.labels[::2]
        assert sub.constants[1, 1].tolist() == [1, 0]

    def test_rank_two_trivial(self):
        ring = verlinde_ring(2)
        sub = even_subring(ring)
        assert sub.rank == 1
        assert sub.labels == ring.labels[::2]

    def test_rank_five(self):
        ring = verlinde_ring(5)
        sub = even_subring(ring)
        assert sub.rank == 3
        assert sub.labels == ring.labels[::2]
        assert sub.constants[1, 1].tolist() == [1, 1, 1]

    def test_not_closed_raises(self):
        # The even part is taken of Verlinde rings only.  In the even part of
        # R_7 the even-indexed Delta_2 * Delta_2 reaches Delta_1, and a table
        # ring has no runs to halve.
        sub = even_subring(verlinde_ring(7))
        assert sub.constants[2, 2, 1] == 1
        ring = verlinde_ring(3)
        for other in (sub, TableRing(ring.labels, ring.constants)):
            with pytest.raises(FusionRingError, match="Verlinde rings only"):
                even_subring(other)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_axioms_exact(self, n):
        sub = even_subring(verlinde_ring(n))
        assert all_passed(sub.verify_axioms())


class TestMultiply:
    def test_unit(self):
        elem = np.array([1, 0, 2, 0, 1, 3])
        assert np.array_equal(product(verlinde_ring(6), np.eye(6, dtype=np.int64)[0], elem), elem)

    def test_linear_combination(self):
        lhs = product(verlinde_ring(4), [0, 1, 1, 0], [0, 1, 0, 0])
        assert lhs.tolist() == [1, 1, 1, 1]


class TestLeftMultMatrix:
    """Left multiplication by b_i has matrix ``constants[i].T``: entry (k, j) is c_{ij}^k."""

    def test_unit_is_identity(self):
        ring = verlinde_ring(5)
        assert np.array_equal(ring.constants[0].T, np.eye(5, dtype=np.int64))

    def test_fib(self):
        assert fib_ring().constants[1].T.tolist() == [[0, 1], [1, 1]]

    def test_verlinde_three(self):
        expected = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert verlinde_ring(3).constants[1].T.tolist() == expected


class TestFPDim:
    def test_unit(self):
        assert verlinde_ring(7).fp_dim(0) == pytest.approx(1.0, abs=1e-12)

    def test_fib_golden_ratio(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert fib_ring().fp_dim(1) == pytest.approx(phi, abs=1e-11)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_closed_form(self, n):
        ring = verlinde_ring(n)
        y = math.pi / (n + 1)
        for k in range(n):
            assert ring.fp_dim(k) == pytest.approx(
                math.sin((k + 1) * y) / math.sin(y), abs=1e-10
            )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_polynomial_evaluation(self, n):
        # Direct Horner evaluation only for small degrees, where the large
        # alternating integer coefficients do not yet dominate the rounding.
        ring = verlinde_ring(n)
        arg = 2.0 * math.cos(math.pi / (n + 1))
        for k in range(n):
            assert ring.fp_dim(k) == pytest.approx(evaluate(delta(k), arg), abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_multiplicative_on_basis_products(self, n):
        ring = verlinde_ring(n)
        fp = ring.fp_dims()
        outer = fp[:, None] * fp[None, :]
        via_constants = np.einsum("ijk,k->ij", ring.constants.astype(float), fp)
        assert np.max(np.abs(outer - via_constants)) < 1e-9

    def test_multiplicative_fib(self):
        fp = fib_ring().fp_dims()
        assert fp[1] * fp[1] == pytest.approx(fp[0] + fp[1], abs=1e-10)

    def test_even_subring_of_r127(self):
        # The even ring of the D65 module.  With an absolute Rayleigh
        # quotient tolerance, power iteration for basis element 35 never
        # settled; the stopping rule is relative to the quotient.  R_99
        # and R_197 are the rings of D50 and D100.
        for n in (99, 127, 197):
            ring = verlinde_ring(n)
            sub = even_subring(ring)
            y = math.pi / (n + 1)
            expected = np.array([math.sin((k + 1) * y) / math.sin(y) for k in range(n)])
            assert np.max(np.abs(ring.fp_dims() - expected)) < 1e-9
            assert np.max(np.abs(sub.fp_dims() - expected[::2])) < 1e-9

    def test_even_part_reads_the_full_rings_solve(self, monkeypatch):
        # The even part's dimensions are R_n's at the even indices, bit for
        # bit, with no solve of its own; its own solve, kept as the
        # reference, agrees to rounding (1.03e-15 relative at worst, R_196).
        rings = [verlinde_ring(n) for n in range(1, 201)]
        owns = [even_subring.__wrapped__(ring)._perron_pair()[0] for ring in rings]
        for ring in rings:
            ring.fp_dims()
        monkeypatch.setattr(fusion_ring, "perron_eigenpair", None)
        for ring, own in zip(rings, owns):
            dims = even_subring.__wrapped__(ring).fp_dims()
            assert np.array_equal(dims, ring.fp_dims()[::2])
            assert np.max(np.abs(dims - own) / own) <= 2e-15

    def test_fp_dims_independent_of_memory_layout(self):
        # Constants are stored C-ordered, so the Perron solve sees the same
        # memory whatever the layout of the integers it was given.
        for n in range(2, 60):
            for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))):
                c = np.array(ring.constants)
                dims = [TableRing(ring.labels, x).fp_dims() for x in (c, np.asfortranarray(c))]
                assert np.array_equal(dims[0], dims[1]), ring

    def test_non_associative_ring_has_no_common_perron_vector(self, monkeypatch):
        # The left multiplication matrices no longer commute, so no single
        # vector satisfies every eigen-relation: the sum settles, every
        # check of the images refuses it, and the solve runs out of steps.
        ring = verlinde_ring(3)
        bad = np.array(ring.constants)
        bad[2, 2, 2] = 1
        monkeypatch.setattr(linalg, "_PERRON_MAX_ITER", 1000)
        checked = []

        def counted(total, images):
            def counting(vec):
                checked.append(vec)
                return images(vec)

            return linalg.perron_eigenpair(total, counting)

        monkeypatch.setattr(helpers, "perron_eigenpair", counted)
        with pytest.raises(FusionRingError, match="did not converge"):
            TableRing(ring.labels, bad).fp_dims()
        assert checked


DEFECT_ORBITS = {
    "generic": lambda i, j, k: {(i, j, k)},
    "commutative": lambda i, j, k: {(i, j, k), (j, i, k)},
    "symmetric": lambda i, j, k: set(itertools.permutations((i, j, k))),
}


class TestVerifyAxiomsReporting:
    def test_injected_based_defect(self):
        ring = verlinde_ring(3)
        bad = np.array(ring.constants)
        bad[1, 1, 0] = 2
        report = TableRing(ring.labels, bad).verify_axioms()
        names = [check.name for check in report if not check.passed]
        assert "based condition" in names

    def test_unit_law_witness_from_right_unit(self):
        ring = verlinde_ring(3)
        bad = np.array(ring.constants)
        bad[1, 0, 1] = 2  # b_1 * 1 = 2 b_1: only the right unit law fails
        report = {check.name: check for check in TableRing(ring.labels, bad).verify_axioms()}
        assert report["unit law"].witness == (1, 1)

    # Witnesses of the rank**4 einsum check these replaced, pinned from it.
    @pytest.mark.parametrize(
        "even,defect,witness",
        [
            (False, (17, 23, 8), (1, 16, 23, 8)),
            (False, (40, 45, 13), (1, 39, 45, 13)),
            (True, (5, 9, 7), (1, 4, 9, 7)),
            (True, (20, 25, 11), (1, 19, 25, 11)),
        ],
    )
    def test_associativity_witness_in_r60(self, even, defect, witness):
        ring = verlinde_ring(60)
        if even:
            ring = even_subring(ring)
        bad = np.array(ring.constants)
        bad[defect] += 1
        report = {c.name: c for c in TableRing(ring.labels, bad).verify_axioms()}
        assert report["associativity"].witness == witness

    @pytest.mark.parametrize(
        "symmetry,seed",
        [
            pytest.param(symmetry, seed, id=f"{symmetry}-{seed}".removeprefix("generic-"))
            for symmetry in DEFECT_ORBITS
            for seed in range(20)
        ],
    )
    def test_associativity_witness_matches_full_tensor(self, symmetry, seed):
        # Defects added on their orbit keep the table commutative, or
        # symmetric in all three indices, so that the witness of the k >= i
        # and the one-product paths of ``associators`` is checked too.
        rng = np.random.default_rng(seed)
        ring = verlinde_ring(int(rng.integers(2, 12)))
        bad = np.array(ring.constants)
        for _ in range(int(rng.integers(1, 4))):
            index = tuple(int(x) for x in rng.integers(0, ring.rank, 3))
            step = int(rng.integers(1, 3))
            for entry in DEFECT_ORBITS[symmetry](*index):
                bad[entry] += step
        left = np.einsum("ijm,mkl->ijkl", bad, bad)
        right = np.einsum("jkm,iml->ijkl", bad, bad)
        hits = np.argwhere(left != right)
        expected = tuple(int(x) for x in hits[0]) if len(hits) else None
        report = {c.name: c for c in TableRing(ring.labels, bad).verify_axioms()}
        assert report["associativity"].witness == expected

    def test_associativity_at_the_int8_limit(self):
        # x*x = N x + y, x*y = x, y*x = 0: (x*x)*x and x*(x*x) differ by 1
        # in the coefficient N**2 of x, which int8 products would wrap.
        c = np.zeros((3, 3, 3), dtype=np.int64)
        c[0] = c[:, 0] = np.eye(3, dtype=np.int64)
        c[1, 1, 1], c[1, 1, 2], c[1, 2, 1] = 127, 1, 1
        report = {check.name: check for check in TableRing("1xy", c).verify_axioms()}
        assert report["associativity"].witness == (1, 1, 1, 1)

    @pytest.mark.parametrize("entry", [128, 2**27])
    def test_rejects_constants_past_the_int8_range(self, entry):
        c = np.zeros((2, 2, 2), dtype=np.int64)
        c[0] = c[:, 0] = np.eye(2, dtype=np.int64)
        c[1, 1, 1] = entry
        with pytest.raises(FusionRingError, match="int8 range"):
            TableRing("1x", c)

    def test_witness_on_failure(self):
        ring = verlinde_ring(3)
        bad = np.array(ring.constants)
        bad[2, 2, 2] = 1  # breaks associativity and the anti-automorphism symmetry
        report = TableRing(ring.labels, bad).verify_axioms()
        bad_checks = [check for check in report if not check.passed]
        assert bad_checks and all(check.witness is not None for check in bad_checks)


def einsum_hits(table):
    """Indices (i, j, k, l) of the rank**4 einsum associator that are nonzero, in order."""
    left = np.einsum("ijm,mkl->ijkl", table, table)
    right = np.einsum("jkm,iml->ijkl", table, table)
    return np.argwhere(left != right)


def einsum_witness(table):
    """First index of the rank**4 einsum associator that is nonzero, or None."""
    hits = einsum_hits(table)
    return tuple(int(x) for x in hits[0]) if len(hits) else None


def unit_table(rank):
    """An int64 table whose b_0 is a two-sided unit and all else is 0."""
    c = np.zeros((rank,) * 3, dtype=np.int64)
    c[0] = c[:, 0] = np.eye(rank, dtype=np.int64)
    return c


class TestNucleusCertificate:
    """``verify_axioms`` certifies associativity when b_1 lies in the middle
    nucleus and generates the ring, and scans every associator otherwise."""

    @staticmethod
    def no_full_scan(monkeypatch):
        def refuse(c):
            raise AssertionError("the full associator scan ran")

        monkeypatch.setattr(fusion_ring, "associators", refuse)

    def test_verlinde_rings_and_even_parts_take_the_certificate(self, monkeypatch):
        self.no_full_scan(monkeypatch)
        for n in range(1, 61):
            for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))):
                assert all_passed(ring.verify_axioms()), ring

    def test_nucleus_element_that_does_not_generate(self):
        # b_1**2 = b_1 and b_1 b_k = b_k b_1 = 0 for k >= 2 put b_1 in the
        # middle nucleus, but it generates only {b_0, b_1}; b_2**2 = b_3 and
        # b_3 b_2 = b_2 make (b_2 b_2) b_2 = b_2 and b_2 (b_2 b_2) = 0.
        c = unit_table(4)
        c[1, 1, 1] = c[2, 2, 3] = c[3, 2, 2] = 1
        assert not fusion_ring.nucleus_certificate(c.astype(float))
        report = {check.name: check for check in TableRing("1xyz", c).verify_axioms()}
        assert report["associativity"].witness == einsum_witness(c) == (2, 2, 2, 2)

    def test_klein_four_group_ring_passes_the_full_scan(self):
        # b_i b_j = b_{i xor j}: associative, and b_1 generates only {b_0, b_1}.
        c = np.zeros((4, 4, 4), dtype=np.int64)
        for i, j in itertools.product(range(4), repeat=2):
            c[i, j, i ^ j] = 1
        assert not fusion_ring.nucleus_certificate(c.astype(float))
        assert all_passed(TableRing("1abc", c).verify_axioms())

    @pytest.mark.parametrize("defect", [(1, 0, 1), (0, 2, 2), (1, 0, 2)])
    def test_unit_law_defect_takes_the_full_scan(self, defect):
        ring = verlinde_ring(5)
        bad = np.array(ring.constants)
        bad[defect] += 1
        report = {check.name: check for check in TableRing(ring.labels, bad).verify_axioms()}
        assert not report["unit law"].passed
        assert report["associativity"].witness == einsum_witness(bad) is not None

    def test_r120_holds_no_second_float_table(self):
        # Past the int8 table the checks hold the certificate's column blocks
        # within ``_BLOCK_BYTES`` and the involution check's masks of one
        # block of i: 0.74 MiB at the peak, where the full rank**3 mask made
        # it 1.77 MiB.  A float64 copy of the table alone is 13.2 MiB.
        ring = verlinde_ring.__wrapped__(120)
        ring.constants
        assert traced_peak(ring.verify_axioms) <= 0.8 * 2**20

    @pytest.mark.parametrize("defect", [(0, 1, 2), (3, 2, 2), (11, 2, 30), (38, 21, 5)])
    def test_involution_witness_across_blocks_of_r40(self, defect):
        # R_40 compares i in blocks of 10; a defect off the diagonal i = j
        # breaks commutativity at (i, j, k) and (j, i, k), and the blocked
        # witness is the first index of the whole mask.
        ring = verlinde_ring(40)
        assert fusion_ring._block_rows(ring.rank) == 10
        bad = np.array(ring.constants)
        bad[defect] += 1
        report = {c.name: c for c in TableRing(ring.labels, bad).verify_axioms()}
        expected = tuple(int(x) for x in np.argwhere(bad != bad.transpose(1, 0, 2))[0])
        assert expected == min(defect, (defect[1], defect[0], defect[2]))
        assert report["involution anti-automorphism"].witness == expected

    @pytest.mark.parametrize("defect", [(24, 10, 36), (0, 33, 25), (38, 33, 18)])
    def test_witness_across_k_blocks_of_r40(self, defect):
        # R_40 takes k in blocks of 10.  On these defects, added on their
        # orbit so that the one-product path runs, the first step with a
        # mismatch has a hit of larger j in an earlier block than the witness.
        ring = verlinde_ring(40)
        rows = fusion_ring._block_rows(ring.rank)
        assert rows < ring.rank
        bad = np.array(ring.constants)
        for entry in DEFECT_ORBITS["symmetric"](*defect):
            bad[entry] += 1
        hits = einsum_hits(bad)
        first = hits[0]
        step = hits[hits[:, 0] == first[0]]
        assert any(j > first[1] and k // rows < first[2] // rows for _, j, k, _ in step)
        report = {c.name: c for c in TableRing(ring.labels, bad).verify_axioms()}
        assert report["associativity"].witness == einsum_witness(bad)


class TestAssociatorProducts:
    """How many blocks each matmul of ``associators`` takes, one entry per
    call, and how many multiply-adds the hypergroup check takes: a fallback
    to a fuller path fails here."""

    @staticmethod
    def blocks_per_matmul(monkeypatch, check, *args):
        counts, matmul = [], np.matmul

        def counted(a, b, out):
            counts.append(len(out))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        check(*args)
        return counts

    def test_verlinde_table_takes_one_product_per_step(self, monkeypatch):
        c = verlinde_ring(12).constants.astype(float)
        counts = self.blocks_per_matmul(monkeypatch, lambda: list(associators(c)))
        assert counts == [12 - i for i in range(12)]

    @pytest.mark.parametrize("n", [12, 60])
    def test_its_hypergroup_takes_a_quarter_of_the_multiply_adds(self, monkeypatch, n):
        # Two dense products over k >= i take n**3 multiply-adds per (i, k)
        # and product, n**4 (n + 1) in all; the graded scan drops the three
        # quarters of them that multiply a structural zero.
        hg = from_fusion_ring(verlinde_ring(n))
        macs, matmul = [], np.matmul

        def counted(a, b, out):
            macs.append(out.size * a.shape[-1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        verify_hypergroup_axioms(hg)
        assert sum(macs) <= 0.3 * n**4 * (n + 1)

    @pytest.mark.parametrize("products", [1, 2], ids=["ring", "hypergroup"])
    def test_r60_takes_its_blocks_within_the_budget(self, monkeypatch, products):
        # The int8 Verlinde table and its float hypergroup: each step i
        # multiplies n - i blocks per product, in calls of at most the
        # budget's rows.
        ring = verlinde_ring(60)
        c = ring.constants if products == 1 else from_fusion_ring(ring).constants
        counts, matmul = [], np.matmul
        per_step = [0] * ring.rank

        def counted(a, b, out):
            counts.append(len(out))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        for i, _, _ in associators(c):
            per_step[i] += sum(counts)
            assert max(counts) <= fusion_ring._block_rows(ring.rank) < ring.rank
            counts.clear()
        assert per_step == [products * (ring.rank - i) for i in range(ring.rank)]

    def test_non_commutative_table_takes_two_over_every_k(self, monkeypatch):
        ring = verlinde_ring(12)
        bad = np.array(ring.constants)
        bad[3, 5, 4] += 1
        c = TableRing(ring.labels, bad).constants.astype(float)
        counts = self.blocks_per_matmul(monkeypatch, lambda: list(associators(c)))
        assert counts == [12] * 24


def test_even_part_generated_by_first_nontrivial_element():
    # Exact rational span check: every left multiplication matrix of the
    # even ring is an integer polynomial in the Delta_2 one.
    sympy = pytest.importorskip("sympy")
    for n in range(3, 16):
        sub = even_subring(verlinde_ring(n))
        gen = sympy.Matrix(sub.constants[1].T.tolist())
        powers = [sympy.eye(sub.rank)]
        for _ in range(sub.rank - 1):
            powers.append(powers[-1] * gen)
        basis_vecs = sympy.Matrix([[p[r, c] for p in powers]
                                   for r in range(sub.rank) for c in range(sub.rank)])
        for k in range(sub.rank):
            target = sympy.Matrix(sub.constants[k].T.tolist())
            flat = sympy.Matrix([target[r, c] for r in range(sub.rank) for c in range(sub.rank)])
            solution = basis_vecs.solve_least_squares(sympy.Matrix(flat))
            assert sympy.simplify(basis_vecs * solution - flat).norm() == 0


def test_json_round_trip():
    ring = verlinde_ring(4)
    data = ring.to_dict()
    clone = TableRing(data["labels"], data["constants"])
    assert clone.labels == ring.labels
    assert np.array_equal(clone.constants, ring.constants)
    assert data["unit"] == 0
    assert data["involution"] == list(range(ring.rank))


def test_rejects_negative_constants():
    with pytest.raises(FusionRingError):
        TableRing(("1",), [[[-1]]])


@pytest.mark.parametrize("entry", [1.5, -0.5, float("nan"), float("inf"), 2.0**63, "x"])
def test_rejects_non_integral_constants(entry):
    with pytest.raises(FusionRingError, match="integers"):
        TableRing(("1",), [[[entry]]])


def test_integral_floats_are_stored_as_integers():
    ring = TableRing(("1",), [[[1.0]]])
    assert ring.constants.dtype == np.int8 and ring.constants.tolist() == [[[1]]]


@pytest.mark.parametrize("which", WRITABLE_SOURCES)
def test_caller_cannot_change_the_ring(which):
    table = np.array(verlinde_ring(3).constants)
    ring = TableRing(("a", "b", "c"), caller_writable(table)[which])
    table[1, 1, 1] = 5
    assert ring.constants[1, 1, 1] == 0
    assert not ring.constants.flags.writeable


def test_handed_over_table_is_not_copied():
    table = np.array(verlinde_ring(3).constants)
    table.setflags(write=False)
    assert TableRing(("a", "b", "c"), table).constants is table
