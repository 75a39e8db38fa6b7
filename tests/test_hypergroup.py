"""Hypergroups from fusion rings, induced actions and fixed subspaces."""

import math

import numpy as np
import pytest

from coxfusion import fusion_ring, hypergroup, linalg
from coxfusion.coxeter import diagram, parse_diagram
from coxfusion.fusion_ring import even_subring, graded_associators, parity_graded, verlinde_ring
from coxfusion.hypergroup import (
    Hypergroup,
    HypergroupAction,
    action_from_module,
    fixed_space,
    from_fusion_ring,
    verify_hypergroup_axioms,
)
from coxfusion.linalg import subspace_projector
from coxfusion.report import all_passed
from coxfusion.verify import default_roster
from coxfusion.zplus_module import ade_module, decompose, regular_element, restrict
from helpers import (
    WRITABLE_SOURCES,
    TableRing,
    caller_writable,
    dense_associator_max,
    dense_constants,
    eigh_fixed_space,
    fib_ring,
    plain_hypergroup,
    reference_module,
    stack_perron,
    stacked_fixed_space,
    traced_peak,
)


def z2_group_ring():
    constants = np.zeros((2, 2, 2), dtype=np.int64)
    constants[0] = np.eye(2, dtype=np.int64)
    constants[1, 0, 1] = 1
    constants[1, 1, 0] = 1
    return TableRing(("e", "g"), constants)


class TestFromFusionRing:
    def test_group_ring_keeps_integer_constants(self):
        constants = dense_constants(from_fusion_ring(z2_group_ring()))
        rounded = np.round(constants)
        assert np.max(np.abs(constants - rounded)) < 1e-12
        assert set(np.unique(rounded)) <= {0.0, 1.0}

    def test_fib(self):
        constants = dense_constants(from_fusion_ring(fib_ring()))
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert constants[1, 1, 0] == pytest.approx(1.0 / phi**2, abs=1e-10)
        assert constants[1, 1, 1] == pytest.approx(1.0 / phi, abs=1e-10)

    def test_verlinde_row_sums(self):
        constants = dense_constants(from_fusion_ring(verlinde_ring(3)))
        assert np.max(np.abs(constants.sum(axis=2) - 1.0)) < 1e-12

    def test_even_subring_hypergroup_is_restriction(self):
        for n in (5, 8, 13):
            ring = verlinde_ring(n)
            full = dense_constants(from_fusion_ring(ring))
            small = dense_constants(from_fusion_ring(even_subring(ring)))
            restricted = full[::2, ::2, ::2]
            assert np.max(np.abs(small - restricted)) < 1e-12

    def test_hypergroup_takes_the_table_and_the_dimensions(self):
        ring = verlinde_ring(5)
        hg = from_fusion_ring(ring)
        assert hg.table is ring.constants and hg.table.dtype == np.int8
        assert hg.dims is ring.fp_dims()

    def test_from_fusion_ring_allocates_no_float_tensor(self):
        # The (n, n) products of the dimensions and numpy's buffers for them
        # (88 kB at R_60), below even an int8 copy of the table; a rank**3
        # float64 tensor would take 1.65 MiB.
        ring = verlinde_ring(60)
        ring.fp_dims()
        ring.constants  # the int8 table is built on first read; its build is pinned apart
        assert traced_peak(from_fusion_ring, ring) < ring.rank**3

    @pytest.mark.parametrize(
        "ring",
        [
            verlinde_ring(1),
            verlinde_ring(12),
            verlinde_ring(61),
            even_subring(verlinde_ring(40)),
            fib_ring(),
            TableRing(verlinde_ring(9).labels, 3 * verlinde_ring(9).constants),
        ],
        ids=["R_1", "R_12", "R_61", "R_40 even", "fib", "3 R_9"],
    )
    def test_entries_are_the_dense_tensor_bit_for_bit(self, ring):
        hg = from_fusion_ring(ring)
        dense, every = dense_constants(hg), slice(None)
        assert np.array_equal(hg.entries(every, every, every).view(np.uint64), dense.view(np.uint64))
        part, odd = slice(1, None, 3), slice(1, None, 2)
        out = np.empty_like(dense[odd, part, part]).transpose(1, 0, 2)
        read = hg.entries(part, odd, part, out=out)
        assert read is out
        assert np.array_equal(read.view(np.uint64), dense[part, odd, part].view(np.uint64))

    def test_unit_dims_give_the_table_itself(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((7, 7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7, 7))
        table[1, 2, 3], table[3, 2, 1], table[4, 4, 4], table[0, 5, 6] = np.nan, np.inf, -np.inf, -0.0
        every = slice(None)
        read = plain_hypergroup(table).entries(every, every, every)
        assert np.array_equal(read.view(np.uint64), table.view(np.uint64))

    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_caller_cannot_change_the_hypergroup(self, which):
        constants = dense_constants(from_fusion_ring(verlinde_ring(4)))
        dims = np.ones(4)
        hg = Hypergroup(caller_writable(constants)[which], caller_writable(dims)[which])
        constants[1, 1, 1], dims[1] = 7.0, 7.0
        assert hg.table[1, 1, 1] == 0.0 and hg.dims[1] == 1.0
        assert not hg.table.flags.writeable and not hg.dims.flags.writeable

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="expected \\(n, n, n\\)"):
            Hypergroup(np.zeros((2, 3, 3)), np.ones(2))
        with pytest.raises(ValueError, match="dims have shape"):
            Hypergroup(np.zeros((3, 3, 3)), np.ones(2))


@pytest.fixture
def scans(monkeypatch):
    """Names of the associator scans ``verify_hypergroup_axioms`` runs, in order."""
    taken = []
    for name in ("graded_associators", "associators"):

        def spy(*args, _scan=getattr(hypergroup, name), _name=name):
            taken.append(_name)
            return _scan(*args)

        monkeypatch.setattr(hypergroup, name, spy)
    return taken


class TestVerifyAxioms:
    def test_large_verlinde(self):
        assert all_passed(verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(30))))

    def test_large_even_part(self):
        sub = even_subring(verlinde_ring(29))
        assert all_passed(verify_hypergroup_axioms(from_fusion_ring(sub)))

    def test_associativity_residual_of_r30(self):
        # the sliced check gives exactly the residual of the rank**4 einsum it replaced
        hg = from_fusion_ring(verlinde_ring(30))
        c = dense_constants(hg)
        left = np.einsum("ijm,mkl->ijkl", c, c)
        right = np.einsum("jkm,iml->ijkl", c, c)
        report = verify_hypergroup_axioms(hg)
        assert report[-1].name == "associativity"
        assert report[-1].witness == float(np.max(np.abs(left - right)))

    @pytest.mark.parametrize("even", [False, True])
    def test_associativity_residual_matches_dense_slices_in_r60(self, even, scans):
        # The graded scan of R_60 and the full scan of its even part, which
        # is not graded, read the same largest |entry| as the dense products.
        ring = verlinde_ring(60)
        hg = from_fusion_ring(even_subring(ring) if even else ring)
        assert verify_hypergroup_axioms(hg)[-1].witness == dense_associator_max(dense_constants(hg))
        assert scans == ["associators" if even else "graded_associators"]

    @pytest.mark.parametrize("n", [*range(2, 14), 30, 31, 60, 61])
    def test_graded_scan_keeps_the_dense_witness(self, n, scans):
        hg = from_fusion_ring(verlinde_ring(n))
        assert verify_hypergroup_axioms(hg)[-1].witness == dense_associator_max(dense_constants(hg))
        assert scans == ["graded_associators"]

    def test_graded_non_commutative_table_takes_the_full_scan(self, scans):
        # Weight moved between b_1 and b_3 in b_1 b_2 keeps every entry on
        # an even slot, but b_1 b_2 is no longer b_2 b_1.
        constants = dense_constants(from_fusion_ring(verlinde_ring(12)))
        constants[1, 2, 1] -= 1e-3
        constants[1, 2, 3] += 1e-3
        assert parity_graded(constants)
        report = verify_hypergroup_axioms(plain_hypergroup(constants))
        assert report[-1].witness == dense_associator_max(constants) > 1e-4
        assert scans == ["associators"]

    def test_entry_at_an_odd_slot_takes_the_full_scan(self, scans):
        # c_11^1 sits where i + j + k is odd; the table stays commutative.
        constants = dense_constants(from_fusion_ring(verlinde_ring(12)))
        constants[1, 1, 1] = 1e-3
        assert not parity_graded(constants)
        report = verify_hypergroup_axioms(plain_hypergroup(constants))
        assert report[-1].witness == dense_associator_max(constants) > 1e-4
        assert scans == ["associators"]

    @pytest.mark.parametrize("n, seed", [(13, 0), (30, 1), (31, 2), (61, 3)])
    def test_random_graded_table_keeps_the_dense_witness(self, n, seed, scans):
        # Random commutative weights on the even slots leave every
        # associator entry of order 1, so a pair of steps the tiles left
        # out would show; 30 and up take several tiles per parity.
        rng = np.random.default_rng(seed)
        i, j, k = np.indices((n, n, n))
        constants = rng.random((n, n, n)) * ((i + j + k) % 2 == 0)
        constants += constants.transpose(1, 0, 2)
        report = verify_hypergroup_axioms(plain_hypergroup(constants))
        assert report[-1].witness == pytest.approx(dense_associator_max(constants), rel=1e-14)
        assert scans == ["graded_associators"]

    # R_30 and R_60 are the rings of the ``axioms`` benchmark, whose
    # accuracy_digits read these witnesses: any change to the arithmetic of
    # ``FusionRing.fp_dims`` that moves their bits shows here.
    @pytest.mark.parametrize(
        "n, witness", [(30, 1.1102230246251565e-16), (60, 1.1102230246251565e-16), (120, 2.220446049250313e-16)]
    )
    def test_r120_witness(self, n, witness):
        hg = from_fusion_ring(verlinde_ring.__wrapped__(n))
        assert verify_hypergroup_axioms(hg)[-1].witness == witness

    @pytest.mark.parametrize("n", [12, 60])
    @pytest.mark.parametrize(
        "value, scan", [(math.nan, "associators"), (math.inf, "graded_associators")]
    )
    def test_non_finite_entry_fails_associativity(self, n, value, scan, scans):
        # b_{n/2} b_{n/2+1} has the term b_1, so both entries are on the
        # support.  NaN != NaN, so a NaN table is not commutative and takes
        # the full scan; an infinity keeps it commutative and graded.
        constants = dense_constants(from_fusion_ring(verlinde_ring(n)))
        constants[n // 2, n // 2 + 1, 1] = constants[n // 2 + 1, n // 2, 1] = value
        associativity = verify_hypergroup_axioms(plain_hypergroup(constants))[-1]
        assert not associativity.passed
        assert not math.isfinite(associativity.witness)
        assert scans == [scan]

    def test_r120_holds_block_buffers_only(self):
        # Past its int8 table (1.65 MiB) the check holds the graded scan's
        # buffers within 2 * ``_BLOCK_BYTES``, one row block of float entries
        # and rank**2 arrays; two rank**3 float buffers would take 26.4 MiB.
        # The comparison with the transpose and the sign check read the table
        # in blocks, so the peak (1.11 MiB measured) stays below one rank**3
        # boolean mask (1.65 MiB).
        hg = from_fusion_ring(verlinde_ring.__wrapped__(120))
        verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(12)))  # first-call allocations
        peak = traced_peak(verify_hypergroup_axioms, hg)
        assert peak <= 4 * 2**20
        assert peak < hg.rank**3

    def test_r60_graded_scan_stays_within_its_stated_bound(self):
        # ``Hypergroup.entries`` takes numpy's iterator buffers for its cast
        # and broadcast operands, 64 KiB each at most: 128.8 KiB past a
        # 4-row ``out`` (112.5 KiB) at R_60.  So the graded scan holds its
        # buffers within 2 * ``_BLOCK_BYTES`` and those of one ``entries``
        # call: 322 KiB measured.
        hg = from_fusion_ring(verlinde_ring(60))
        rows, every = fusion_ring._block_rows(60), slice(None)
        out = np.empty((rows, 60, 60))
        hg.entries(slice(0, rows), every, every, out=out)  # first-call allocations
        buffers = traced_peak(hg.entries, slice(0, rows), every, every, out)
        assert buffers <= 130 * 2**10

        def scan():
            for _ in graded_associators(hg.entries, 60):
                pass

        scan()
        assert traced_peak(scan) <= 2 * linalg._BLOCK_BYTES + 130 * 2**10

    def test_r120_check_from_the_ring_stays_within_4_mib(self):
        # From the ring's cached int8 table and FP dimensions to the report,
        # no float copy of the table: 1.22 MiB measured, where a float64
        # hypergroup tensor alone takes 13.2 MiB.
        ring = verlinde_ring.__wrapped__(120)
        ring.constants, ring.fp_dims()
        verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(12)))  # first-call allocations
        peak = traced_peak(lambda: verify_hypergroup_axioms(from_fusion_ring(ring)))
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_blocked_nonnegativity_witness_is_the_first_index(self, n):
        # blocks of _block_rows(n) values of i: 113 at R_12, 18 at R_30, 4 at R_60
        constants = dense_constants(from_fusion_ring(verlinde_ring(n)))
        for entry in [(n - 1, 1, 2), (n - 5, 2, 1), (n - 5, 0, 3)]:
            constants[entry] = -1.0
        report = verify_hypergroup_axioms(plain_hypergroup(constants))
        assert report[0].name == "nonnegativity" and not report[0].passed
        assert report[0].witness == tuple(int(x) for x in np.argwhere(constants < 0)[0])
        assert report[0].witness == (n - 5, 0, 3)

    def test_asymmetric_pair_fails_involution_conditions(self):
        # In R_4, b_1 b_2 has the terms b_1 and b_3.  Moving weight between
        # them keeps every row sum and unit coefficient, but b_1 b_2 is no
        # longer b_2 b_1, so the involution is no anti-automorphism.
        constants = dense_constants(from_fusion_ring(verlinde_ring(4)))
        constants[1, 2, 1] -= 1e-3
        constants[1, 2, 3] += 1e-3
        report = {check.name: check for check in verify_hypergroup_axioms(plain_hypergroup(constants))}
        assert report["row sums equal 1"].passed and report["unit law"].passed
        assert not report["involution conditions"].passed

    def test_asymmetry_below_tolerance_passes_involution_conditions(self):
        # Not bitwise commutative, so the 1e-12 comparison decides.
        constants = dense_constants(from_fusion_ring(verlinde_ring(4)))
        constants[1, 2, 1] -= 1e-14
        constants[1, 2, 3] += 1e-14
        report = {check.name: check for check in verify_hypergroup_axioms(plain_hypergroup(constants))}
        assert report["involution conditions"].passed

    def test_perturbed_row_sum_fails(self):
        hg = from_fusion_ring(verlinde_ring(4))
        constants = dense_constants(hg)
        constants[1, 2, 0] += 1e-3
        broken = plain_hypergroup(constants)
        names = [check.name for check in verify_hypergroup_axioms(broken) if not check.passed]
        assert "row sums equal 1" in names

    @pytest.mark.parametrize("n", range(1, 31))
    def test_row_sums_and_involution_condition(self, n):
        for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))):
            constants = dense_constants(from_fusion_ring(ring))
            assert np.max(np.abs(constants.sum(axis=2) - 1.0)) < 1e-10
            col0 = constants[:, :, 0]
            assert np.max(np.abs(col0 - col0.T)) < 1e-12
            for i in range(ring.rank):
                for j in range(ring.rank):
                    assert (col0[i, j] > 0) == (j == i)


def thetas(module):
    """The (rank, dim, dim) float stack of Theta_i = M_i / FP_i of a module
    held as its stack of actions M_i."""
    return module.actions / module.ring.fp_dims()[:, None, None]


def even_thetas(tag):
    """``thetas`` of the even part of a diagram's ADE module, from the
    stored reference stack."""
    module = reference_module(parse_diagram(tag))
    ring = even_subring(module.ring)
    return module.actions[::2] / ring.fp_dims()[:, None, None]


class TestActionFromModule:
    def test_a3(self):
        theta = thetas(reference_module(diagram("A", 3)))
        assert np.allclose(theta[0], np.eye(3))
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(theta[1], adj / math.sqrt(2.0), atol=1e-10)
        # FP(Delta_2) = 1 in R_3, so the matrix is the integer action itself
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(theta[2], swap, atol=1e-10)

    def test_even_restriction(self):
        theta = even_thetas("A3")
        assert np.allclose(theta[0], np.eye(3))
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(theta[1], swap, atol=1e-10)

    def test_keeps_the_integer_sum(self):
        module = restrict(ade_module(diagram("D", 6)))
        action = action_from_module(module)
        assert action.matrices is module.total
        assert action.fp_dims is module.ring.fp_dims()

    @pytest.mark.parametrize("tag", ["A4", "D5", "E6"])
    def test_homomorphism_property(self, tag):
        module = reference_module(parse_diagram(tag))
        theta = thetas(module)
        constants = dense_constants(from_fusion_ring(module.ring))
        for i in range(module.ring.rank):
            for j in range(module.ring.rank):
                lhs = theta[i] @ theta[j]
                rhs = np.einsum("k,kab->ab", constants[i, j], theta)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestFixedSpace:
    def test_trivial_action(self):
        action = HypergroupAction(np.eye(4), np.ones(1))
        assert len(fixed_space(action, np.ones(4))) == 4

    def test_a3_even(self):
        module = ade_module(diagram("A", 3))
        fixed = fixed_space(action_from_module(restrict(module)), regular_element(module))
        assert len(fixed) == 2
        expected = subspace_projector([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        actual = subspace_projector(fixed)
        assert np.max(np.abs(actual - expected)) < 1e-8

    def test_e8_even(self):
        module = ade_module(diagram("E", 8))
        fixed = fixed_space(action_from_module(restrict(module)), regular_element(module))
        assert len(fixed) == 2

    @pytest.mark.parametrize(
        "tag", ["A2", "A5", "A12", "D4", "D7", "D12", "E6", "E7", "E8"]
    )
    def test_dimension_two_and_regular_span(self, tag):
        d = parse_diagram(tag)
        module = ade_module(d)
        restricted = restrict(module)
        fixed = fixed_space(action_from_module(restricted), regular_element(module))
        assert len(fixed) == 2

        components = decompose(restricted)
        assert len(components) == 2
        even = reference_module(d).actions[::2]
        regulars = []
        for comp in components:
            padded = np.zeros(d.rank)
            padded[comp] = stack_perron(even[:, comp][:, :, comp])[1]
            regulars.append(padded)
        proj_fixed = subspace_projector(fixed)
        proj_regulars = subspace_projector(regulars)
        assert np.max(np.abs(proj_fixed - proj_regulars)) < 1e-8

    def test_invariant_basis_vectors(self):
        module = ade_module(diagram("D", 6))
        action = action_from_module(restrict(module))
        fixed = fixed_space(action, regular_element(module))
        for vec in fixed:
            for mat in even_thetas("D6"):
                assert np.max(np.abs(mat @ vec - vec)) < 1e-8


def even_action(tag):
    """The even action of a diagram's ADE module and its certificate, the
    module's regular element."""
    module = ade_module(parse_diagram(tag))
    return action_from_module(restrict(module)), regular_element(module)


def plain_action(*matrices):
    return HypergroupAction(np.sum(matrices, axis=0), np.ones(len(matrices)))


# The ``scale`` benchmark's members at seeds 0 and 23: its fixed diagrams
# and the A ranks each seed draws.
SCALE_MEMBERS = ["A25", "A50", "A100", "D25", "D50", "D100", "E8", "A28", "D47"] + [
    f"A{n}" for n in (33, 46, 63, 76, 81, 98, 30, 49, 67, 72, 82, 97)
]


class TestFixedSpaceInsideKernelOfSum:
    # One row per component, against the kernel of the stacked SVD up to
    # rank 100 and of the eigh of W at every rank.
    @pytest.mark.parametrize(
        "tag",
        dict.fromkeys(
            [d.name for d in default_roster()] + SCALE_MEMBERS + ["D300", "D500", "A1000"]
        ),
    )
    def test_matches_stacked_svd(self, tag):
        action, regular = even_action(tag)
        basis, n = fixed_space(action, regular), len(regular)
        references = [eigh_fixed_space(action)]
        if n <= 100:
            references.append(stacked_fixed_space(even_thetas(tag)))
        for reference in references:
            assert basis.shape == reference.shape == (2, n)
            assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) <= 1e-13

    # A failed certificate raises, so |W r| must stay far within the cut:
    # the worst ratio on the roster, the fixed members of the ``scale``
    # benchmark, A300 and D300 is 1.6e-3, at D300.
    @pytest.mark.parametrize(
        "tag",
        dict.fromkeys(
            [d.name for d in default_roster()]
            + ["A25", "A50", "A100", "D25", "D50", "D100", "E8", "A28", "D47", "A300", "D300"]
        ),
    )
    def test_certificate_margin(self, tag):
        action, regular = even_action(tag)
        w = action.fp_dims.sum() * np.eye(len(regular)) - action.matrices
        bound = np.linalg.norm(action.fp_dims) * 1e-8 * np.linalg.norm(regular)
        assert np.linalg.norm(w @ regular) / bound < 1e-2

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30", "A100", "D100"])
    def test_regular_element_reads_the_fixed_space_off_ker_t(self, monkeypatch, tag):
        module = ade_module(parse_diagram(tag))
        action = action_from_module(restrict(module))
        reference = stacked_fixed_space(even_thetas(tag))

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        basis = fixed_space(action, regular=regular_element(module))
        assert basis.shape == reference.shape == (2, module.rank)
        assert not basis.flags.writeable
        assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) <= 1e-13

    @pytest.mark.parametrize(
        "shift,condition",
        [("negated", "regular vector is not positive"), ("off ker T", "exceeds the cut")],
    )
    def test_uncertified_vector_raises(self, shift, condition):
        module = ade_module(parse_diagram("E8"))
        action = action_from_module(restrict(module))
        reg = regular_element(module)
        vec = -reg if shift == "negated" else reg + 1e-3 * np.arange(module.rank)
        with pytest.raises(ValueError, match=condition):
            fixed_space(action, vec)

    def test_nonpositive_fp_dimension_raises(self):
        action = HypergroupAction(2 * np.eye(3), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="FP dimension is not positive"):
            fixed_space(action, np.ones(3))

    # Scaling each M_i and FP_i by c leaves every Theta_i as it is and scales
    # W and its cut |FP|_2 * 1e-8 alike, so the certified kernel is the same.
    @pytest.mark.parametrize("scale", [3.0, 1000.0])
    @pytest.mark.parametrize("tag", ["E8", "D12", "A30"])
    def test_basis_independent_of_fp_scale(self, tag, scale):
        action, regular = even_action(tag)
        basis = fixed_space(action, regular)
        scaled = HypergroupAction(scale * action.matrices, scale * action.fp_dims)
        other = fixed_space(scaled, regular)
        assert other.shape == basis.shape == (2, len(regular))
        assert np.max(np.abs(other.T @ other - basis.T @ basis)) < 1e-13

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30", "D100"])
    def test_first_stage_is_the_integer_sum(self, monkeypatch, tag):
        # The power steps read the exact int32 sum of the actions, whose
        # float copy is the float sum of the stored stack bit for bit, and
        # the fusion side runs from the diagram to the fixed space with no
        # eigh.
        mats = reference_module(parse_diagram(tag)).actions[::2]

        def refuse(*args, **kwargs):
            raise AssertionError("an eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        module = ade_module(parse_diagram(tag))
        action = action_from_module(restrict(module))
        assert action.matrices.dtype == np.int32
        assert np.array_equal(action.matrices.astype(float), mats.sum(axis=0, dtype=float))
        assert len(fixed_space(action, regular=regular_element(module))) == 2

    def test_component_off_the_perron_root_raises(self):
        # r = (1, 1e-12) passes |W r| <= cut * |r|, but on the second
        # component S = 3 is not sum FP = 2: its row leaves |W b| = 1
        action = HypergroupAction(np.diag([2.0, 3.0]), np.array([2.0]))
        with pytest.raises(ValueError, match="exceeds the cut for a basis row"):
            fixed_space(action, np.array([1.0, 1e-12]))

    def test_no_fixed_vector_raises(self):
        # r = (1, 1, 1) is fixed by neither -I nor I / 2: W = 5 I / 2
        with pytest.raises(ValueError, match="exceeds the cut"):
            fixed_space(plain_action(-np.eye(3), 0.5 * np.eye(3)), np.ones(3))

    def test_memory_stays_quadratic(self):
        # One float64 copy of the int32 sum and the bool support the
        # components are read off: no stack of Theta_i (7.9 MB in float64
        # on D100's restriction), no W and no eigh of it
        module = ade_module(parse_diagram("D100"))
        restricted, reg = restrict(module), regular_element(module)
        action = action_from_module(restricted)
        fixed_space(*even_action("D5"))
        peak = traced_peak(lambda: fixed_space(action, regular=reg))
        assert peak < 2 * 8 * module.rank**2
