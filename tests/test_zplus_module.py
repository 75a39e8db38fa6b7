"""ADE modules, restriction, decomposition and regular elements."""

import math
import time

import numpy as np
import pytest

from coxfusion.coxeter import CoxeterError, bipartition, diagram, parse_diagram
from coxfusion.fusion_ring import (
    FusionRing,
    FusionRingError,
    even_subring,
    fib_ring,
    verlinde_ring,
)
from coxfusion.report import all_passed, failures
from coxfusion.zplus_module import (
    ZPlusModule,
    ZPlusModuleError,
    ade_module,
    decompose,
    regular_element,
    regular_module,
    restrict,
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
        assert actions.dtype == np.int64
        assert np.array_equal(actions, np.stack(acts[:-1]))

    def test_rejects_non_ade(self):
        with pytest.raises(CoxeterError):
            ade_module(diagram("B", 3))

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
        assert all_passed(ade_module(diagram("E", 6)).verify_axioms())

    def test_regular_module_passes(self):
        for ring in (verlinde_ring(6), fib_ring()):
            assert all_passed(regular_module(ring).verify_axioms())

    def test_injected_defect(self):
        module = ade_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[1, 0, 1] = 0
        broken = ZPlusModule(module.ring, module.labels, actions)
        bad = failures(broken.verify_axioms())
        assert any(check.name == "module compatibility" for check in bad)
        assert all(check.witness is not None for check in bad)

    def test_compatibility_witness_in_a4(self):
        # witness of the rank**4 einsum check this replaced, pinned from it
        module = ade_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[2, 1, 3] += 1
        report = {c.name: c for c in ZPlusModule(module.ring, module.labels, actions).verify_axioms()}
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
        broken = ZPlusModule(module.ring, module.labels, actions)
        report = {c.name: c for c in broken.verify_axioms()}
        assert report["module compatibility"].witness == expected

    def test_d50_within_seconds(self):
        # the rank**4 check held about 380 MB of temporaries here
        module = ade_module(diagram("D", 50))
        start = time.perf_counter()
        assert all_passed(module.verify_axioms())
        assert time.perf_counter() - start < 5.0


class TestRestrict:
    def test_a3_even(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        restricted = restrict(module, sub, embedding)
        assert restricted.actions[0].tolist() == np.eye(3, dtype=int).tolist()
        assert restricted.actions[1].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_identity_restriction(self):
        module = ade_module(diagram("D", 5))
        same = restrict(module, module.ring, range(module.ring.rank))
        assert np.array_equal(same.actions, module.actions)

    def test_a2_even_is_trivial_ring(self):
        module = ade_module(diagram("A", 2))
        sub, embedding = even_subring(module.ring)
        restricted = restrict(module, sub, embedding)
        assert restricted.ring.rank == 1
        assert restricted.actions.tolist() == [np.eye(2, dtype=int).tolist()]

    def test_bad_embedding(self):
        module = ade_module(diagram("A", 4))
        sub, _ = even_subring(module.ring)
        with pytest.raises(Exception):
            restrict(module, sub, (0, 1))  # odd index: not the even embedding

    def test_embedding_not_closed(self):
        # Delta_1 * Delta_1 = Delta_0 + Delta_2 leaves the span of (0, 1).
        with pytest.raises(FusionRingError, match="not closed"):
            restrict(ade_module(diagram("A", 5)), verlinde_ring(2), (0, 1))

    def test_subring_constants_disagree(self):
        module = ade_module(diagram("A", 5))
        sub, embedding = even_subring(module.ring)
        bad = np.array(sub.constants)
        bad[1, 1, 1] += 1
        wrong = FusionRing(sub.labels, bad, sub.unit, sub.involution)
        with pytest.raises(FusionRingError, match="disagree"):
            restrict(module, wrong, embedding)


class TestDecompose:
    def test_full_module_connected(self):
        components = decompose(ade_module(diagram("A", 3)))
        assert components == [[0, 1, 2]]

    def test_a3_even_split(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        components = decompose(restrict(module, sub, embedding))
        assert components == [[0, 2], [1]]

    def test_d4_even_split(self):
        module = ade_module(diagram("D", 4))
        sub, embedding = even_subring(module.ring)
        components = decompose(restrict(module, sub, embedding))
        assert sorted(len(c) for c in components) == [1, 3]
        assert components[0] == [0, 2, 3]  # leaves around the centre vertex

    @pytest.mark.parametrize(
        "d", [x for x in ADE_ROSTER if x.rank >= 2], ids=lambda d: d.name
    )
    def test_even_restriction_matches_bipartition(self, d):
        module = ade_module(d)
        sub, embedding = even_subring(module.ring)
        components = decompose(restrict(module, sub, embedding))
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
        assert np.max(np.abs(reg.coordinates - expected)) < 1e-10
        # oracle: Perron vector of the path adjacency by dense eigensolve
        adj = ade_module(diagram("A", 3)).actions[1].astype(float)
        _, vecs = np.linalg.eigh(adj)
        perron = np.abs(vecs[:, -1])
        perron /= perron.sum()
        assert np.max(np.abs(reg.coordinates - perron)) < 1e-10

    def test_trivial_ring_module(self):
        module = ZPlusModule(verlinde_ring(1), ("m",), [[[1]]])
        reg = regular_element(module)
        assert reg.coordinates.tolist() == [1.0]

    def test_plus_component_of_a3(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        restricted = restrict(module, sub, embedding)
        plus = decompose(restricted)[0]
        assert plus == [0, 2]
        actions = restricted.actions[:, plus][:, :, plus]
        reg = regular_element(ZPlusModule(sub, ("α_1", "α_3"), actions))
        assert np.max(np.abs(reg.coordinates - np.array([0.5, 0.5]))) < 1e-10

    def test_reducible_rejected(self):
        module = ade_module(diagram("A", 3))
        sub, embedding = even_subring(module.ring)
        with pytest.raises(ZPlusModuleError):
            regular_element(restrict(module, sub, embedding))

    @pytest.mark.parametrize("d", ADE_ROSTER, ids=lambda d: d.name)
    def test_eigen_relations_full_roster(self, d):
        module = ade_module(d)
        reg = regular_element(module)  # raises beyond 1e-9 residual
        assert reg.coordinates.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reg.coordinates > 0)

    # Ranks whose summed action has a Rayleigh quotient well above 64: an
    # absolute stopping rule sits below its float spacing there, and
    # power iteration never settled.
    @pytest.mark.parametrize("tag", ["A28", "A35", "A43", "A60", "A62", "A65", "A86", "D47"])
    def test_large_rayleigh_quotient(self, tag):
        reg = regular_element(ade_module(parse_diagram(tag)))
        assert reg.coordinates.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reg.coordinates > 0)
