"""Hypergroups from fusion rings, induced actions and fixed subspaces."""

import math

import numpy as np
import pytest

from coxfusion.coxeter import diagram
from coxfusion.fusion_ring import FusionRing, even_subring, fib_ring, verlinde_ring
from coxfusion.hypergroup import (
    Hypergroup,
    action_from_module,
    fixed_space,
    from_fusion_ring,
    verify_hypergroup_axioms,
)
from coxfusion.linalg import subspace_projector
from coxfusion.report import all_passed, failures
from coxfusion.zplus_module import ZPlusModule, ade_module, decompose, regular_element, restrict


def z2_group_ring():
    constants = np.zeros((2, 2, 2), dtype=np.int64)
    constants[0] = np.eye(2, dtype=np.int64)
    constants[1, 0, 1] = 1
    constants[1, 1, 0] = 1
    return FusionRing(("e", "g"), constants)


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
            sub, embedding = even_subring(ring)
            full = from_fusion_ring(ring)
            small = from_fusion_ring(sub)
            idx = list(embedding)
            restricted = full.constants[np.ix_(idx, idx, idx)]
            assert np.max(np.abs(small.constants - restricted)) < 1e-12


class TestVerifyAxioms:
    def test_large_verlinde(self):
        assert all_passed(verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(30))))

    def test_large_even_part(self):
        sub, _ = even_subring(verlinde_ring(29))
        assert all_passed(verify_hypergroup_axioms(from_fusion_ring(sub)))

    def test_associativity_residual_of_r30(self):
        # the rank**4 einsum check this replaced gave exactly this value
        report = verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(30)))
        assert report[-1].name == "associativity"
        assert report[-1].witness == 2.220446049250313e-16

    def test_perturbed_row_sum_fails(self):
        hg = from_fusion_ring(verlinde_ring(4))
        constants = np.array(hg.constants)
        constants[1, 2, 0] += 1e-3
        broken = Hypergroup(hg.labels, constants, hg.unit, hg.involution)
        names = [check.name for check in failures(verify_hypergroup_axioms(broken))]
        assert "row sums equal 1" in names

    @pytest.mark.parametrize("n", range(1, 31))
    def test_row_sums_and_involution_condition(self, n):
        for ring in (verlinde_ring(n), even_subring(verlinde_ring(n))[0]):
            hg = from_fusion_ring(ring)
            assert np.max(np.abs(hg.constants.sum(axis=2) - 1.0)) < 1e-10
            col0 = hg.constants[:, :, hg.unit]
            assert np.max(np.abs(col0 - col0.T)) < 1e-12
            for i in range(hg.rank):
                for j in range(hg.rank):
                    assert (col0[i, j] > 0) == (j == hg.involution[i])


class TestActionFromModule:
    def test_a3(self):
        action = action_from_module(ade_module(diagram("A", 3)))
        assert np.allclose(action.matrices[0], np.eye(3))
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(action.matrices[1], adj / math.sqrt(2.0), atol=1e-10)
        # FP(Delta_2) = 1 in R_3, so the matrix is the integer action itself
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(action.matrices[2], swap, atol=1e-10)

    def test_even_restriction(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        action = action_from_module(restrict(module, sub, embedding))
        assert np.allclose(action.matrices[0], np.eye(3))
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(action.matrices[1], swap, atol=1e-10)

    @pytest.mark.parametrize("tag", ["A4", "D5", "E6"])
    def test_homomorphism_property(self, tag):
        from coxfusion.coxeter import parse_diagram

        module = ade_module(parse_diagram(tag))
        action = action_from_module(module)
        hg = action.hypergroup
        for i in range(hg.rank):
            for j in range(hg.rank):
                lhs = action.matrices[i] @ action.matrices[j]
                rhs = np.einsum("k,kab->ab", hg.constants[i, j], action.matrices)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


    def test_hypergroup_built_on_demand(self, monkeypatch):
        import coxfusion.hypergroup

        module = ade_module(diagram("E", 6))

        def forbidden(ring):
            raise AssertionError("action_from_module built the hypergroup")

        with monkeypatch.context() as patch:
            patch.setattr(coxfusion.hypergroup, "from_fusion_ring", forbidden)
            action = action_from_module(module)
        assert action.ring is module.ring
        assert np.array_equal(action.hypergroup.constants, from_fusion_ring(module.ring).constants)


class TestFixedSpace:
    def test_trivial_action(self):
        from coxfusion.hypergroup import HypergroupAction

        action = HypergroupAction(verlinde_ring(1), np.eye(4)[None, :, :])
        assert fixed_space(action).dimension == 4

    def test_a3_even(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        fixed = fixed_space(action_from_module(restrict(module, sub, embedding)))
        assert fixed.dimension == 2
        expected = subspace_projector([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        actual = subspace_projector(fixed.basis)
        assert np.max(np.abs(actual - expected)) < 1e-8

    def test_e8_even(self):
        module = ade_module(diagram("E", 8))
        sub, embedding = even_subring(module.ring)
        fixed = fixed_space(action_from_module(restrict(module, sub, embedding)))
        assert fixed.dimension == 2

    @pytest.mark.parametrize(
        "tag", ["A2", "A5", "A12", "D4", "D7", "D12", "E6", "E7", "E8"]
    )
    def test_dimension_two_and_regular_span(self, tag):
        from coxfusion.coxeter import parse_diagram

        d = parse_diagram(tag)
        module = ade_module(d)
        sub, embedding = even_subring(module.ring)
        restricted = restrict(module, sub, embedding)
        fixed = fixed_space(action_from_module(restricted))
        assert fixed.dimension == 2

        components = decompose(restricted)
        assert len(components) == 2
        regulars = []
        for comp in components:
            labels = [restricted.labels[v] for v in comp]
            submodule = ZPlusModule(sub, labels, restricted.actions[:, comp][:, :, comp])
            padded = np.zeros(d.rank)
            padded[comp] = regular_element(submodule).coordinates
            regulars.append(padded)
        proj_fixed = subspace_projector(fixed.basis)
        proj_regulars = subspace_projector(regulars)
        assert np.max(np.abs(proj_fixed - proj_regulars)) < 1e-8

    def test_invariant_basis_vectors(self):
        module = ade_module(diagram("D", 6))
        sub, embedding = even_subring(module.ring)
        action = action_from_module(restrict(module, sub, embedding))
        fixed = fixed_space(action)
        for vec in fixed.basis:
            for mat in action.matrices:
                assert np.max(np.abs(mat @ vec - vec)) < 1e-8
