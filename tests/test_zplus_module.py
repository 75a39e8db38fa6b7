"""ADE modules, restriction, decomposition and regular elements."""

import math
import time

import numpy as np
import pytest

from coxfusion import linalg, zplus_module
from coxfusion.coxeter import (
    CoxeterDiagram,
    CoxeterError,
    bipartition,
    diagram,
    parse_diagram,
)
from coxfusion.fusion_ring import even_subring, verlinde_ring
from coxfusion.report import all_passed
from coxfusion.verify import default_roster
from coxfusion.zplus_module import (
    ZPlusModule,
    ZPlusModuleError,
    ade_module,
    decompose,
    regular_element,
    restrict,
)
from helpers import (
    WRITABLE_SOURCES,
    affine_d,
    caller_writable,
    cycle,
    e10,
    fib_ring,
    regular_module,
    stack_perron,
    traced_peak,
    verify_module_axioms,
)

ADE_ROSTER = (
    [diagram("A", n) for n in range(1, 13)]
    + [diagram("D", n) for n in range(4, 13)]
    + [diagram("E", n) for n in (6, 7, 8)]
)


class TestAdeModule:
    def test_a3_actions(self):
        module = ade_module(diagram("A", 3))
        assert module.actions[1].tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert module.actions[2].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        # oracle: the recursion gives [Delta_2] = [Delta_1]^2 - I
        adj = module.actions[1]
        assert np.array_equal(module.actions[2], adj @ adj - np.eye(3, dtype=np.int64))

    def test_a1_trivial(self):
        module = ade_module(diagram("A", 1))
        assert module.ring.rank == 1
        assert module.actions.tolist() == [[[1]]]

    def test_d4_star(self):
        module = ade_module(diagram("D", 4))
        assert module.ring.rank == 5  # h = 6
        star = module.actions[1]
        assert star.sum() == 6
        assert star[1].sum() == 3  # vertex 2 is the centre

    @pytest.mark.parametrize("tag", ["A100", "D100", "E6", "E7", "E8"])
    def test_matches_integer_recursion(self, tag):
        adjacency = parse_diagram(tag).adjacency_matrix()
        acts = [np.eye(len(adjacency), dtype=np.int64), adjacency]
        while np.any(acts[-1] != 0):
            acts.append(adjacency @ acts[-1] - acts[-2])
        actions = ade_module(parse_diagram(tag)).actions
        assert actions.dtype == np.int8
        assert np.array_equal(actions, np.stack(acts[:-1]))

    @pytest.mark.parametrize("d", default_roster(), ids=lambda d: d.name)
    def test_last_step_cannot_wrap_in_the_stored_dtype(self, d):
        # Acceptance criterion 2 forms actions[1] @ actions[-1] - actions[-2]
        # in the stored dtype.  Every product entry is at most the largest
        # row sum of actions[1] times max |actions[-1]|, and the difference
        # of two nonnegative entries in range stays in range.
        actions = ade_module(d).actions
        row_sum = int(actions[1].sum(axis=1, dtype=np.int64).max())
        assert row_sum * int(np.abs(actions[-1]).max()) <= np.iinfo(actions.dtype).max
        assert actions.min() >= 0

    @pytest.mark.parametrize("entry", [0.5, float("nan"), "x"])
    def test_rejects_non_integral_actions(self, entry):
        with pytest.raises(ZPlusModuleError, match="integers"):
            ZPlusModule(verlinde_ring(1), [[[entry]]])

    @pytest.mark.parametrize("entry", [128, -129, 2**40])
    def test_rejects_actions_past_the_int8_range(self, entry):
        with pytest.raises(ZPlusModuleError, match="int8 range"):
            ZPlusModule(verlinde_ring(1), [[[entry]]])

    def test_rejects_non_ade(self):
        with pytest.raises(CoxeterError):
            ade_module(diagram("B", 3))

    @pytest.mark.parametrize(
        "d",
        [
            CoxeterDiagram(affine_d(8), "affine D7"),
            CoxeterDiagram(cycle(6), "affine A5"),
            CoxeterDiagram(e10(), "E10"),
        ],
        ids=lambda d: d.name,
    )
    def test_int8_range_stops_a_diagram_past_the_gate(self, monkeypatch, d):
        # the actions of these diagrams never vanish and grow without bound
        # (linearly on the affine ones), so only the range check ends the loop
        monkeypatch.setattr(CoxeterDiagram, "is_ade", lambda self: True)
        with pytest.raises(ZPlusModuleError, match="int8 range"):
            ade_module(d)

    @pytest.mark.parametrize(
        "tag,perm", [("D5", [3, 0, 4, 2, 1]), ("E6", [4, 0, 3, 5, 1, 2])], ids=["D5", "E6"]
    )
    def test_relabelled_diagram(self, tag, perm):
        # vertex i of the relabelled diagram is vertex perm[i]: the branch
        # vertex moves to the last index, which no classification order gives it
        d = parse_diagram(tag)
        matrix = d.coxeter_matrix[np.ix_(perm, perm)].tolist()  # as verify --matrix reads it
        actions = ade_module(d).actions
        relabelled = ade_module(CoxeterDiagram(matrix)).actions
        assert relabelled.dtype == np.int8
        assert np.array_equal(relabelled, actions[:, perm][:, :, perm])

    @pytest.mark.parametrize("d", ADE_ROSTER, ids=lambda d: d.name)
    def test_generated_actions_nonnegative_and_terminating(self, d):
        module = ade_module(d)
        assert np.all(module.actions >= 0)
        # the next recursion step must vanish identically
        adjacency = module.actions[1] if module.ring.rank > 1 else module.actions[0] * 0
        if module.ring.rank == 1:
            assert np.array_equal(d.adjacency_matrix(), np.zeros((1, 1), dtype=np.int64))
        else:
            prev = module.actions[-2] if module.ring.rank >= 2 else None
            nxt = adjacency @ module.actions[-1] - (
                prev if prev is not None else np.zeros_like(adjacency)
            )
            assert np.array_equal(nxt, np.zeros_like(adjacency))


class TestVerifyModuleAxioms:
    def test_e6_passes(self):
        assert all_passed(verify_module_axioms(ade_module(diagram("E", 6))))

    def test_regular_module_passes(self):
        for ring in (verlinde_ring(6), fib_ring()):
            assert all_passed(verify_module_axioms(regular_module(ring)))

    def test_injected_defect(self):
        module = ade_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[1, 0, 1] = 0
        broken = ZPlusModule(module.ring, actions)
        bad = [check for check in verify_module_axioms(broken) if not check.passed]
        assert any(check.name == "module compatibility" for check in bad)
        assert all(check.witness is not None for check in bad)

    def test_compatibility_witness_in_a4(self):
        # witness of the rank**4 einsum check this replaced, pinned from it
        module = ade_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[2, 1, 3] += 1
        report = {c.name: c for c in verify_module_axioms(ZPlusModule(module.ring, actions))}
        assert report["module compatibility"].witness == (1, 1, 1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_compatibility_witness_matches_full_tensor(self, seed):
        rng = np.random.default_rng(seed)
        module = ade_module(ADE_ROSTER[int(rng.integers(len(ADE_ROSTER)))])
        actions = np.array(module.actions)
        for _ in range(int(rng.integers(1, 3))):
            actions[tuple(rng.integers(0, actions.shape, 3))] += int(rng.choice([-1, 1, 2]))
        left = np.einsum("iab,jbc->ijac", actions, actions)
        right = np.einsum("ijk,kac->ijac", module.ring.constants, actions)
        hits = np.argwhere(left != right)
        expected = tuple(int(x) for x in hits[0]) if len(hits) else None
        broken = ZPlusModule(module.ring, actions)
        report = {c.name: c for c in verify_module_axioms(broken)}
        assert report["module compatibility"].witness == expected

    @pytest.mark.parametrize(
        "d", [x for x in ADE_ROSTER if x.rank >= 2], ids=lambda d: d.name
    )
    def test_any_memory_layout_passes(self, d):
        # decompose's submodules, actions[:, comp][:, :, comp], keep axis 2 outermost
        module = ade_module(d)
        restricted = restrict(module)
        for comp in decompose(restricted):
            actions = restricted.actions[:, comp][:, :, comp]
            assert all_passed(verify_module_axioms(ZPlusModule(restricted.ring, actions)))
        fortran = np.asfortranarray(module.actions)
        assert all_passed(verify_module_axioms(ZPlusModule(module.ring, fortran)))

    @pytest.mark.parametrize("seed", range(5))
    def test_compatibility_witness_independent_of_layout(self, seed):
        rng = np.random.default_rng(seed)
        module = ade_module(ADE_ROSTER[int(rng.integers(len(ADE_ROSTER)))])
        actions = np.array(module.actions)
        actions[tuple(rng.integers(0, actions.shape, 3))] += 1
        every = np.arange(actions.shape[1])
        witnesses = {
            check.witness
            for layout in (actions, np.asfortranarray(actions), actions[:, every][:, :, every])
            for check in verify_module_axioms(ZPlusModule(module.ring, layout))
            if check.name == "module compatibility"
        }
        assert len(witnesses) == 1

    def test_d50_within_seconds(self):
        # the rank**4 check held about 380 MB of temporaries here
        module = ade_module(diagram("D", 50))
        start = time.perf_counter()
        assert all_passed(verify_module_axioms(module))
        assert time.perf_counter() - start < 5.0


class TestRestrict:
    def test_a3_even(self):
        module = ade_module(diagram("A", 3))
        restricted = restrict(module)
        assert restricted.actions[0].tolist() == np.eye(3, dtype=int).tolist()
        assert restricted.actions[1].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_a2_even_is_trivial_ring(self):
        module = ade_module(diagram("A", 2))
        restricted = restrict(module)
        assert restricted.ring.rank == 1
        assert restricted.actions.tolist() == [np.eye(2, dtype=int).tolist()]

    @pytest.mark.parametrize("tag", ["A2", "A3", "D5", "E8"])
    def test_over_the_cached_even_subring(self, tag):
        module = ade_module(parse_diagram(tag))
        restricted = restrict(module)
        assert restricted.ring is even_subring(module.ring)
        assert np.array_equal(restricted.actions, module.actions[::2])


class TestOwnership:
    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_caller_cannot_change_the_module(self, which):
        actions = np.array(ade_module(diagram("A", 3)).actions)
        module = ZPlusModule(verlinde_ring(3), caller_writable(actions)[which])
        actions[1, 0, 0] = 5
        assert module.actions[1, 0, 0] == 0
        assert not module.actions.flags.writeable

    def test_handed_over_actions_are_not_copied(self):
        actions = np.array(ade_module(diagram("A", 3)).actions)
        actions.setflags(write=False)
        assert ZPlusModule(verlinde_ring(3), actions).actions is actions

    @pytest.mark.parametrize("tag", ["A3", "D5", "E8"])
    def test_stages_hand_over_their_stacks(self, tag):
        # ade_module hands over its stack, and restrict a strided view of it
        module = ade_module(parse_diagram(tag))
        restricted = restrict(module).actions
        assert module.actions.base is None and not module.actions.flags.writeable
        assert restricted.base is module.actions and not restricted.flags.writeable


class TestDecompose:
    def test_no_mask_of_the_stack(self):
        module = ade_module(parse_diagram("D100"))
        assert traced_peak(decompose, module) < module.actions.nbytes / 4

    def test_full_module_connected(self):
        components = decompose(ade_module(diagram("A", 3)))
        assert components == [[0, 1, 2]]

    def test_a3_even_split(self):
        module = ade_module(diagram("A", 3))
        components = decompose(restrict(module))
        assert components == [[0, 2], [1]]

    def test_d4_even_split(self):
        module = ade_module(diagram("D", 4))
        components = decompose(restrict(module))
        assert sorted(len(c) for c in components) == [1, 3]
        assert components[0] == [0, 2, 3]  # leaves around the centre vertex

    @pytest.mark.parametrize(
        "d", [x for x in ADE_ROSTER if x.rank >= 2], ids=lambda d: d.name
    )
    def test_even_restriction_matches_bipartition(self, d):
        module = ade_module(d)
        components = decompose(restrict(module))
        parts = bipartition(d)
        assert len(components) == 2
        assert components == [sorted(parts.plus), sorted(parts.minus)]

    @pytest.mark.parametrize(
        "d", [x for x in ADE_ROSTER if x.rank >= 2], ids=lambda d: d.name
    )
    def test_parity_block_structure(self, d):
        module = ade_module(d)
        parts = bipartition(d)
        plus, minus = list(parts.plus), list(parts.minus)
        for k in range(module.ring.rank):
            action = module.actions[k]
            diag_blocks = [action[np.ix_(plus, plus)], action[np.ix_(minus, minus)]]
            cross_blocks = [action[np.ix_(plus, minus)], action[np.ix_(minus, plus)]]
            if k % 2 == 0:
                assert all(np.all(b == 0) for b in cross_blocks)
            else:
                assert all(np.all(b == 0) for b in diag_blocks)


class TestRegularElement:
    def test_a3(self):
        reg = regular_element(ade_module(diagram("A", 3)))
        scale = 2.0 + math.sqrt(2.0)
        expected = np.array([1.0, math.sqrt(2.0), 1.0]) / scale
        assert np.max(np.abs(reg - expected)) < 1e-10
        # oracle: Perron vector of the path adjacency by dense eigensolve
        adj = ade_module(diagram("A", 3)).actions[1].astype(float)
        _, vecs = np.linalg.eigh(adj)
        perron = np.abs(vecs[:, -1])
        perron /= perron.sum()
        assert np.max(np.abs(reg - perron)) < 1e-10

    def test_trivial_ring_module(self):
        module = ZPlusModule(verlinde_ring(1), [[[1]]])
        reg = regular_element(module)
        assert reg.tolist() == [1.0]

    def test_plus_component_of_a3(self):
        module = ade_module(diagram("A", 3))
        restricted = restrict(module)
        plus = decompose(restricted)[0]
        assert plus == [0, 2]
        actions = restricted.actions[:, plus][:, :, plus]
        reg = regular_element(ZPlusModule(restricted.ring, actions))
        assert np.max(np.abs(reg - np.array([0.5, 0.5]))) < 1e-10

    def test_reducible_rejected(self):
        module = ade_module(diagram("A", 3))
        with pytest.raises(ZPlusModuleError):
            regular_element(restrict(module))

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30"])
    def test_connected_generator_skips_the_stack_support(self, monkeypatch, tag):
        # Delta_1 is the tree's adjacency: connected, so no decompose
        def refuse(module):
            raise AssertionError("decompose read the whole stack")

        monkeypatch.setattr(zplus_module, "decompose", refuse)
        assert np.all(regular_element(ade_module(parse_diagram(tag))) > 0)

    def test_disconnected_generator_falls_back_to_the_stack_support(self):
        # b_1 acts by 0, so its support joins nothing, but b_2's swap joins
        # the two basis vectors: the module is irreducible, and the solve
        # then fails at b_1's eigenvalue 0 against FP dimension sqrt 2.
        swap = np.array([[0, 1], [1, 0]])
        zero = np.zeros((2, 2), dtype=int)
        module = ZPlusModule(verlinde_ring(3), [np.eye(2, dtype=int), zero, swap])
        assert decompose(module) == [[0, 1]]
        with pytest.raises(ZPlusModuleError, match=r"basis element 1 fails \(residual 7.071e-01\)"):
            regular_element(module)

    @pytest.mark.parametrize("d", ADE_ROSTER, ids=lambda d: d.name)
    def test_eigen_relations_full_roster(self, d):
        module = ade_module(d)
        reg = regular_element(module)  # raises beyond 1e-9 residual
        assert reg.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reg > 0)

    @pytest.mark.parametrize("tag", ["E8", "A100", "D100"])
    def test_integer_sum_matches_float_sum_reference(self, tag):
        # the int32 sum widens to the float sum's bits, so Perron runs the same steps
        module = ade_module(parse_diagram(tag))
        _, vec = stack_perron(module.actions)
        assert np.array_equal(regular_element(module), vec / vec.sum())

    @pytest.mark.parametrize("tag", ["E8", "A100", "D100"])
    def test_check_reuses_the_converged_images(self, monkeypatch, tag):
        # the eigen-relation check reads the images of the solve's last step:
        # one einsum over the stack per images call, and none after the solve
        module = ade_module(parse_diagram(tag))
        einsums, calls, einsum = [], [], np.einsum

        def counted_einsum(subscripts, *operands, **kwargs):
            einsums.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        def counted_perron(total, images):
            def counting(vec):
                calls.append(vec)
                return images(vec)

            return linalg.perron_eigenpair(total, counting)

        monkeypatch.setattr(np, "einsum", counted_einsum)
        monkeypatch.setattr(zplus_module, "perron_eigenpair", counted_perron)
        regular_element(module)
        assert calls and einsums.count("kij,j->ki") == len(calls)

    def test_eigen_relation_fails_off_the_fp_dimensions(self):
        # Over R_3 (FP dimensions 1, sqrt 2, 1), b_1 and b_2 both act by the
        # swap: the common Perron vector (1/2, 1/2) has eigenvalue 1, not
        # sqrt 2, for b_1, a residual of (sqrt 2 - 1) / 2.
        swap = np.array([[0, 1], [1, 0]])
        module = ZPlusModule(verlinde_ring(3), [np.eye(2, dtype=int), swap, swap])
        with pytest.raises(ZPlusModuleError, match=r"basis element 1 fails \(residual 2.071e-01\)"):
            regular_element(module)

    # Ranks whose summed action has a Rayleigh quotient well above 64: an
    # absolute stopping rule sits below its float spacing there, and
    # power iteration never settled.
    @pytest.mark.parametrize("tag", ["A28", "A35", "A43", "A60", "A62", "A65", "A86", "D47"])
    def test_large_rayleigh_quotient(self, tag):
        reg = regular_element(ade_module(parse_diagram(tag)))
        assert reg.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reg > 0)
