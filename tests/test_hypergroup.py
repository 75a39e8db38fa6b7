"""Hypergroups from fusion rings, induced actions and fixed subspaces."""

import math

import numpy as np
import pytest

from coxfusion import hypergroup
from coxfusion.coxeter import diagram, parse_diagram
from coxfusion.fusion_ring import even_subring, parity_graded, verlinde_ring
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
from coxfusion.zplus_module import ZPlusModule, ade_module, decompose, regular_element, restrict
from helpers import (
    WRITABLE_SOURCES,
    TableRing,
    caller_writable,
    dense_associator_max,
    fib_ring,
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
        hg = from_fusion_ring(z2_group_ring())
        rounded = np.round(hg.constants)
        assert np.max(np.abs(hg.constants - rounded)) < 1e-12
        assert set(np.unique(rounded)) <= {0.0, 1.0}

    def test_fib(self):
        hg = from_fusion_ring(fib_ring())
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert hg.constants[1, 1, 0] == pytest.approx(1.0 / phi**2, abs=1e-10)
        assert hg.constants[1, 1, 1] == pytest.approx(1.0 / phi, abs=1e-10)

    def test_verlinde_row_sums(self):
        hg = from_fusion_ring(verlinde_ring(3))
        assert np.max(np.abs(hg.constants.sum(axis=2) - 1.0)) < 1e-12

    def test_even_subring_hypergroup_is_restriction(self):
        for n in (5, 8, 13):
            ring = verlinde_ring(n)
            full = from_fusion_ring(ring)
            small = from_fusion_ring(even_subring(ring))
            restricted = full.constants[::2, ::2, ::2]
            assert np.max(np.abs(small.constants - restricted)) < 1e-12


    def test_one_float_tensor(self):
        ring = verlinde_ring(60)
        ring.fp_dims()
        ring.constants  # the int8 table is built on first read; its build is pinned apart
        assert traced_peak(from_fusion_ring, ring) < 1.1 * 8 * ring.constants.size

    def test_hypergroup_takes_the_tensor(self):
        hg = from_fusion_ring(verlinde_ring(5))
        assert Hypergroup(hg.constants).constants is hg.constants

    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_caller_cannot_change_the_hypergroup(self, which):
        constants = np.array(from_fusion_ring(verlinde_ring(4)).constants)
        hg = Hypergroup(caller_writable(constants)[which])
        constants[1, 1, 1] = 7.0
        assert hg.constants[1, 1, 1] == 0.0
        assert not hg.constants.flags.writeable


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
        c = hg.constants
        left = np.einsum("ijm,mkl->ijkl", c, c)
        right = np.einsum("jkm,iml->ijkl", c, c)
        report = verify_hypergroup_axioms(hg)
        assert report[-1].name == "associativity"
        assert report[-1].witness == float(np.max(np.abs(left - right)))

    @pytest.mark.parametrize("even", [False, True])
    def test_associativity_residual_matches_dense_slices_in_r60(self, even, scans):
        # The graded scan of R_60 and the k >= i half of its even part, which
        # is not graded, read the same largest |entry| as both products over
        # every k.
        ring = verlinde_ring(60)
        hg = from_fusion_ring(even_subring(ring) if even else ring)
        assert verify_hypergroup_axioms(hg)[-1].witness == dense_associator_max(hg.constants)
        assert scans == ["associators" if even else "graded_associators"]

    @pytest.mark.parametrize("n", [*range(2, 14), 30, 31, 60, 61])
    def test_graded_scan_keeps_the_dense_witness(self, n, scans):
        hg = from_fusion_ring(verlinde_ring(n))
        assert verify_hypergroup_axioms(hg)[-1].witness == dense_associator_max(hg.constants)
        assert scans == ["graded_associators"]

    def test_graded_non_commutative_table_takes_the_full_scan(self, scans):
        # Weight moved between b_1 and b_3 in b_1 b_2 keeps every entry on
        # an even slot, but b_1 b_2 is no longer b_2 b_1.
        constants = np.array(from_fusion_ring(verlinde_ring(12)).constants)
        constants[1, 2, 1] -= 1e-3
        constants[1, 2, 3] += 1e-3
        assert parity_graded(constants)
        report = verify_hypergroup_axioms(Hypergroup(constants))
        assert report[-1].witness == dense_associator_max(constants) > 1e-4
        assert scans == ["associators"]

    def test_entry_at_an_odd_slot_takes_the_full_scan(self, scans):
        # c_11^1 sits where i + j + k is odd; the table stays commutative.
        constants = np.array(from_fusion_ring(verlinde_ring(12)).constants)
        constants[1, 1, 1] = 1e-3
        assert not parity_graded(constants)
        report = verify_hypergroup_axioms(Hypergroup(constants))
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
        report = verify_hypergroup_axioms(Hypergroup(constants))
        assert report[-1].witness == pytest.approx(dense_associator_max(constants), rel=1e-14)
        assert scans == ["graded_associators"]

    def test_r120_witness(self):
        hg = from_fusion_ring(verlinde_ring.__wrapped__(120))
        assert verify_hypergroup_axioms(hg)[-1].witness == 2.220446049250313e-16

    @pytest.mark.parametrize("n", [12, 60])
    @pytest.mark.parametrize(
        "value, scan", [(math.nan, "associators"), (math.inf, "graded_associators")]
    )
    def test_non_finite_entry_fails_associativity(self, n, value, scan, scans):
        # b_{n/2} b_{n/2+1} has the term b_1, so both entries are on the
        # support.  NaN != NaN, so a NaN table is not commutative and takes
        # the full scan; an infinity keeps it commutative and graded.
        constants = np.array(from_fusion_ring(verlinde_ring(n)).constants)
        constants[n // 2, n // 2 + 1, 1] = constants[n // 2 + 1, n // 2, 1] = value
        associativity = verify_hypergroup_axioms(Hypergroup(constants))[-1]
        assert not associativity.passed
        assert not math.isfinite(associativity.witness)
        assert scans == [scan]

    def test_r120_holds_block_buffers_only(self):
        # Past its table (13.2 MiB) the check holds the graded scan's buffers
        # within 2 * ``_BLOCK_BYTES`` and rank**2 arrays; two rank**3 float
        # buffers would take 26.4 MiB.  The comparison with the transpose and
        # the sign check read the table in blocks, so the peak (0.88 MiB
        # measured) stays below one rank**3 boolean mask (1.65 MiB).
        hg = from_fusion_ring(verlinde_ring.__wrapped__(120))
        verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(12)))  # first-call allocations
        peak = traced_peak(verify_hypergroup_axioms, hg)
        assert peak <= 4 * 2**20
        assert peak < hg.rank**3

    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_blocked_nonnegativity_witness_is_the_first_index(self, n):
        # blocks of _block_rows(n) values of i: 113 at R_12, 18 at R_30, 4 at R_60
        constants = np.array(from_fusion_ring(verlinde_ring(n)).constants)
        for entry in [(n - 1, 1, 2), (n - 5, 2, 1), (n - 5, 0, 3)]:
            constants[entry] = -1.0
        report = verify_hypergroup_axioms(Hypergroup(constants))
        assert report[0].name == "nonnegativity" and not report[0].passed
        assert report[0].witness == tuple(int(x) for x in np.argwhere(constants < 0)[0])
        assert report[0].witness == (n - 5, 0, 3)

    def test_asymmetric_pair_fails_involution_conditions(self):
        # In R_4, b_1 b_2 has the terms b_1 and b_3.  Moving weight between
        # them keeps every row sum and unit coefficient, but b_1 b_2 is no
        # longer b_2 b_1, so the involution is no anti-automorphism.
        constants = np.array(from_fusion_ring(verlinde_ring(4)).constants)
        constants[1, 2, 1] -= 1e-3
        constants[1, 2, 3] += 1e-3
        report = {check.name: check for check in verify_hypergroup_axioms(Hypergroup(constants))}
        assert report["row sums equal 1"].passed and report["unit law"].passed
        assert not report["involution conditions"].passed

    def test_asymmetry_below_tolerance_passes_involution_conditions(self):
        # Not bitwise commutative, so the 1e-12 comparison decides.
        constants = np.array(from_fusion_ring(verlinde_ring(4)).constants)
        constants[1, 2, 1] -= 1e-14
        constants[1, 2, 3] += 1e-14
        report = {check.name: check for check in verify_hypergroup_axioms(Hypergroup(constants))}
        assert report["involution conditions"].passed

    def test_perturbed_row_sum_fails(self):
        hg = from_fusion_ring(verlinde_ring(4))
        constants = np.array(hg.constants)
        constants[1, 2, 0] += 1e-3
        broken = Hypergroup(constants)
        names = [check.name for check in verify_hypergroup_axioms(broken) if not check.passed]
        assert "row sums equal 1" in names

    @pytest.mark.parametrize("n", range(1, 31))
    def test_row_sums_and_involution_condition(self, n):
        for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))):
            hg = from_fusion_ring(ring)
            assert np.max(np.abs(hg.constants.sum(axis=2) - 1.0)) < 1e-10
            col0 = hg.constants[:, :, 0]
            assert np.max(np.abs(col0 - col0.T)) < 1e-12
            for i in range(hg.rank):
                for j in range(hg.rank):
                    assert (col0[i, j] > 0) == (j == i)


def thetas(action):
    """The (rank, dim, dim) float stack of Theta_i = matrices[i] / fp_dims[i]."""
    return action.matrices / action.fp_dims[:, None, None]


class TestActionFromModule:
    def test_a3(self):
        action = action_from_module(ade_module(diagram("A", 3)))
        theta = thetas(action)
        assert np.allclose(theta[0], np.eye(3))
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(theta[1], adj / math.sqrt(2.0), atol=1e-10)
        # FP(Delta_2) = 1 in R_3, so the matrix is the integer action itself
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(theta[2], swap, atol=1e-10)

    def test_even_restriction(self):
        module = ade_module(diagram("A", 3))
        theta = thetas(action_from_module(restrict(module)))
        assert np.allclose(theta[0], np.eye(3))
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(theta[1], swap, atol=1e-10)

    def test_keeps_the_integer_stack(self):
        module = restrict(ade_module(diagram("D", 6)))
        action = action_from_module(module)
        assert action.matrices is module.actions
        assert action.fp_dims is module.ring.fp_dims()

    @pytest.mark.parametrize("tag", ["A4", "D5", "E6"])
    def test_homomorphism_property(self, tag):
        from coxfusion.coxeter import parse_diagram

        module = ade_module(parse_diagram(tag))
        theta = thetas(action_from_module(module))
        hg = from_fusion_ring(module.ring)
        for i in range(hg.rank):
            for j in range(hg.rank):
                lhs = theta[i] @ theta[j]
                rhs = np.einsum("k,kab->ab", hg.constants[i, j], theta)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestFixedSpace:
    def test_trivial_action(self):
        from coxfusion.hypergroup import HypergroupAction

        action = HypergroupAction(np.eye(4)[None, :, :], np.ones(1))
        assert len(fixed_space(action)) == 4

    def test_a3_even(self):
        module = ade_module(diagram("A", 3))
        fixed = fixed_space(action_from_module(restrict(module)))
        assert len(fixed) == 2
        expected = subspace_projector([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        actual = subspace_projector(fixed)
        assert np.max(np.abs(actual - expected)) < 1e-8

    def test_e8_even(self):
        module = ade_module(diagram("E", 8))
        fixed = fixed_space(action_from_module(restrict(module)))
        assert len(fixed) == 2

    @pytest.mark.parametrize(
        "tag", ["A2", "A5", "A12", "D4", "D7", "D12", "E6", "E7", "E8"]
    )
    def test_dimension_two_and_regular_span(self, tag):
        from coxfusion.coxeter import parse_diagram

        d = parse_diagram(tag)
        module = ade_module(d)
        restricted = restrict(module)
        fixed = fixed_space(action_from_module(restricted))
        assert len(fixed) == 2

        components = decompose(restricted)
        assert len(components) == 2
        regulars = []
        for comp in components:
            submodule = ZPlusModule(restricted.ring, restricted.actions[:, comp][:, :, comp])
            padded = np.zeros(d.rank)
            padded[comp] = regular_element(submodule)
            regulars.append(padded)
        proj_fixed = subspace_projector(fixed)
        proj_regulars = subspace_projector(regulars)
        assert np.max(np.abs(proj_fixed - proj_regulars)) < 1e-8

    def test_invariant_basis_vectors(self):
        module = ade_module(diagram("D", 6))
        action = action_from_module(restrict(module))
        fixed = fixed_space(action)
        for vec in fixed:
            for mat in thetas(action):
                assert np.max(np.abs(mat @ vec - vec)) < 1e-8


def stacked_fixed_space(action):
    """Reference: thin SVD of the (k n) x n stack of Theta_i - I at the cut 1e-8."""
    eye = np.eye(action.matrices.shape[1])
    stacked = np.concatenate([mat - eye for mat in thetas(action)])
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    return vt[int(np.sum(svals >= 1e-8)) :]


def even_action(tag):
    module = ade_module(parse_diagram(tag))
    return action_from_module(restrict(module))


def plain_action(*matrices):
    return HypergroupAction(np.stack(matrices), np.ones(len(matrices)))


class TestFixedSpaceInsideKernelOfSum:
    @pytest.mark.parametrize(
        "tag", [d.name for d in default_roster()] + ["A25", "A50", "A100", "D50", "D100"]
    )
    def test_matches_stacked_svd(self, tag):
        action = even_action(tag)
        basis, reference = fixed_space(action), stacked_fixed_space(action)
        assert basis.shape == reference.shape == (2, action.matrices.shape[1])
        assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) <= 1e-13

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30", "A100", "D100"])
    def test_regular_element_reads_the_fixed_space_off_ker_t(self, monkeypatch, tag):
        module = ade_module(parse_diagram(tag))
        action = action_from_module(restrict(module))
        reference = stacked_fixed_space(action)

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        basis = fixed_space(action, regular=regular_element(module))
        assert basis.shape == reference.shape == (2, module.rank)
        assert not basis.flags.writeable
        assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) <= 1e-13

    @pytest.mark.parametrize("shift", ["negated", "off ker T"])
    def test_uncertified_vector_keeps_the_second_stage(self, monkeypatch, shift):
        module = ade_module(parse_diagram("E8"))
        action = action_from_module(restrict(module))
        reg = regular_element(module)
        vec = -reg if shift == "negated" else reg + 1e-3 * np.arange(module.rank)
        svds, svd = [], np.linalg.svd

        def counted(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        basis = fixed_space(action, regular=vec)
        assert svds == [(module.rank * len(action.matrices), 2)]  # the second stage's only
        assert np.array_equal(basis, fixed_space(action))

    def test_negative_entries_keep_the_second_stage(self):
        # Theta = I, I + S, I - S with S symmetric and S r = 0 for r = (1, 1, 1):
        # T = 0, yet only ker S is fixed.  S has negative entries, so r certifies
        # nothing and the second stage cuts ker T down to ker S.
        eye = np.eye(3)
        sym = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        basis = fixed_space(plain_action(eye, eye + sym, eye - sym), regular=np.ones(3))
        assert basis.shape == (2, 3)
        kernel = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]) / np.array([[2.0**0.5], [2.0]])
        assert np.max(np.abs(basis.T @ basis - kernel.T @ kernel)) < 1e-15

    def test_cancellation_in_the_sum(self):
        # T = 3I - (I + (I + N) + (I - N)) = 0, yet only ker N = span(e_0, e_2) is fixed.
        eye = np.eye(3)
        nil = np.outer(eye[0], eye[1])
        basis = fixed_space(plain_action(eye, eye + nil, eye - nil))
        assert basis.shape == (2, 3)
        assert np.max(np.abs(basis.T @ basis - np.diag([1.0, 0.0, 1.0]))) < 1e-15

    # T's cut is sqrt(2) * 1e-8 here: 1.2e-8 passes it and is then cut by S V's 1e-8.
    # Theta V - V carries rounding of order eps, so u is resolved to about eps / shift.
    @pytest.mark.parametrize(
        "shift,dimension", [(1e-6, 2), (1.2e-8, 2), (0.9e-8, 3), (1e-10, 3)]
    )
    def test_direction_moved_by_shift(self, shift, dimension):
        eye = np.eye(3)
        u = np.array([1.0, 2.0, 2.0]) / 3
        action = plain_action(eye, eye - shift * np.outer(u, u))
        basis, reference = fixed_space(action), stacked_fixed_space(action)
        assert basis.shape == reference.shape == (dimension, 3)
        assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) < 1e-15 / shift
        if dimension == 2:
            assert np.max(np.abs(basis @ u)) < 1e-15 / shift

    # Scaling each M_i and FP_i by c leaves every Theta_i as it is and scales
    # W and its cut |FP|_2 * 1e-8 alike; c = 1 is the FP = 1 case above.
    @pytest.mark.parametrize("scale", [1.0, 3.0, 1000.0])
    @pytest.mark.parametrize(
        "shift,dimension", [(1e-6, 2), (1.2e-8, 2), (0.9e-8, 3), (1e-10, 3)]
    )
    def test_dimension_independent_of_fp_scale(self, scale, shift, dimension):
        eye = np.eye(3)
        u = np.array([1.0, 2.0, 2.0]) / 3
        mats = scale * np.stack([eye, eye - shift * np.outer(u, u)])
        action = HypergroupAction(mats, np.full(2, scale))
        assert fixed_space(action).shape == (dimension, 3)

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30", "D100"])
    def test_first_stage_is_the_integer_sum(self, monkeypatch, tag):
        # W = (sum FP) I - sum M_i: off the diagonal it is minus the exact
        # sum of the int8 stack, an integer, and it equals the float sum bit
        # for bit, with no division by the dimensions.
        module = ade_module(parse_diagram(tag))
        action = action_from_module(restrict(module))
        mats, fp = action.matrices, action.fp_dims
        assert mats.dtype == np.int8
        seen, eigh = [], np.linalg.eigh

        def kept(t):
            seen.append(t)
            return eigh(t)

        monkeypatch.setattr(np.linalg, "eigh", kept)
        assert len(fixed_space(action, regular=regular_element(module))) == 2
        (w,) = seen
        off = ~np.eye(len(w), dtype=bool)
        assert np.array_equal(w[off], np.round(w[off]))
        assert np.array_equal(w, fp.sum() * np.eye(len(w)) - mats.sum(axis=0, dtype=float))

    def test_no_fixed_vector_gives_empty_basis(self):
        fixed = fixed_space(plain_action(-np.eye(3), 0.5 * np.eye(3)))
        assert fixed.shape == (0, 3)
        assert len(fixed) == 0

    def test_never_builds_the_stack(self):
        # neither stage forms the float64 stack of Theta_i (7.9 MB on D100's restriction)
        restricted = restrict(ade_module(parse_diagram("D100")))
        restricted.ring.fp_dims()
        peak = traced_peak(lambda: fixed_space(action_from_module(restricted)))
        assert peak < 8 * restricted.actions.size / 4

    def test_symmetry_check_makes_no_mask_of_the_stack(self):
        # The comparison with the transpose runs on blocks of matrices: at
        # D100 the whole call peaks at 0.29 MiB, under the bool mask of the
        # 0.94 MiB int8 stack that one array_equal over all of it would make.
        module = ade_module(parse_diagram("D100"))
        restricted = restrict(module)
        action = action_from_module(restricted)
        reg = regular_element(module)
        fixed_space(even_action("D5"), regular=regular_element(ade_module(parse_diagram("D5"))))
        peak = traced_peak(lambda: fixed_space(action, regular=reg))
        assert peak < restricted.actions.nbytes / 2
