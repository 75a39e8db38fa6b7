"""ADE modules, restriction, decomposition and regular elements."""

import dataclasses
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
    ZPlusModuleError,
    ade_module,
    decompose,
    regular_element,
    restrict,
)
from helpers import (
    WRITABLE_SOURCES,
    ZPlusModule,
    affine_d,
    caller_writable,
    cycle,
    e10,
    fib_ring,
    reference_module,
    reference_perron,
    reference_stack,
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

# The roster, the fixed members of the ``scale`` benchmark and D300.
IMAGE_TAGS = list(
    dict.fromkeys(
        [d.name for d in default_roster()]
        + ["A25", "A50", "A100", "D25", "D50", "D100", "E8", "A28", "D47", "D300"]
    )
)


class TestAdeModule:
    def test_a3_actions(self):
        module = ade_module(diagram("A", 3))
        actions = reference_stack(diagram("A", 3))
        assert actions[1].tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert actions[2].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        # oracle: the recursion gives [Delta_2] = [Delta_1]^2 - I
        adj = actions[1]
        assert np.array_equal(actions[2], adj @ adj - np.eye(3, dtype=np.int64))
        assert module.adjacency.tolist() == actions[1].tolist()
        assert module.even.tolist() == [[1, 0, 1], [0, 2, 0], [1, 0, 1]]
        assert (module.total - module.even).tolist() == actions[1].tolist()

    def test_a1_trivial(self):
        module = ade_module(diagram("A", 1))
        assert module.ring.rank == 1
        assert module.total.tolist() == module.even.tolist() == [[1]]

    def test_d4_star(self):
        module = ade_module(diagram("D", 4))
        assert module.ring.rank == 5  # h = 6
        star = module.adjacency
        assert star.sum() == 6
        assert star[1].sum() == 3  # vertex 2 is the centre

    @pytest.mark.parametrize("tag", ["A100", "D100", "E6", "E7", "E8"])
    def test_reference_matches_integer_recursion(self, tag):
        adjacency = parse_diagram(tag).adjacency_matrix()
        acts = [np.eye(len(adjacency), dtype=np.int64), adjacency]
        while np.any(acts[-1] != 0):
            acts.append(adjacency @ acts[-1] - acts[-2])
        actions = reference_stack(parse_diagram(tag))
        assert actions.dtype == np.int8
        assert np.array_equal(actions, np.stack(acts[:-1]))

    @pytest.mark.parametrize(
        "tag", dict.fromkeys(["E8", "A100", "D100"] + [d.name for d in ADE_ROSTER])
    )
    def test_sums_match_the_reference_stack(self, tag):
        # one streamed pass sums what the stored stack holds, bit for bit
        module = ade_module(parse_diagram(tag))
        actions = reference_stack(parse_diagram(tag))
        odd = module.total - module.even
        assert module.ring.rank == len(actions)
        assert module.total.dtype == module.even.dtype == odd.dtype == np.int32
        assert np.array_equal(module.even, actions[::2].sum(axis=0, dtype=np.int32))
        assert np.array_equal(odd, actions[1::2].sum(axis=0, dtype=np.int32))
        assert np.array_equal(module.adjacency, actions[1] if len(actions) > 1 else 0 * odd)

    @pytest.mark.parametrize("d", default_roster(), ids=lambda d: d.name)
    def test_last_step_cannot_wrap_in_the_stored_dtype(self, d):
        # Acceptance criterion 2 forms actions[1] @ actions[-1] - actions[-2]
        # in the stored dtype.  Every product entry is at most the largest
        # row sum of actions[1] times max |actions[-1]|, and the difference
        # of two nonnegative entries in range stays in range.
        actions = reference_stack(d)
        row_sum = int(actions[1].sum(axis=1, dtype=np.int64).max())
        assert row_sum * int(np.abs(actions[-1]).max()) <= np.iinfo(actions.dtype).max
        assert actions.min() >= 0

    @pytest.mark.parametrize("entry", [0.5, float("nan"), "x"])
    def test_reference_rejects_non_integral_actions(self, entry):
        with pytest.raises(ZPlusModuleError, match="integers"):
            ZPlusModule(verlinde_ring(1), [[[entry]]])

    @pytest.mark.parametrize("entry", [128, -129, 2**40])
    def test_reference_rejects_actions_past_the_int8_range(self, entry):
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
        "entry,message", [(-1, "negative entries"), (100, "leave the int8 range")]
    )
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_a_patched_step_raises(self, monkeypatch, entry, message, k):
        # step k of E8's recursion (h = 30) gets one bad entry as it is made
        class Patched:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def subtract(self, a, b, out):
                Patched.calls += 1
                np.subtract(a, b, out=out)
                if Patched.calls == k:
                    out[3, 4] = entry
                return out

        monkeypatch.setattr(zplus_module, "np", Patched())
        with pytest.raises(ZPlusModuleError, match=message):
            ade_module(diagram("E", 8))
        assert Patched.calls == k

    @pytest.mark.parametrize("tag", IMAGE_TAGS)
    def test_mirror_is_the_last_step(self, tag):
        # Delta_{h-2}(A) is the permutation matrix of ``mirror``, an
        # involution commuting with A, and row i of Delta_{h-2-k}(A) is row
        # mirror[i] of Delta_k(A)
        module = ade_module(parse_diagram(tag))
        stack, mirror, adjacency = reference_stack(parse_diagram(tag)), module.mirror, module.adjacency
        n = module.rank
        assert np.array_equal(stack[-1], np.eye(n, dtype=np.int8)[mirror])
        assert np.array_equal(mirror[mirror], np.arange(n))
        assert np.array_equal(adjacency[mirror], adjacency[:, mirror])
        assert all(np.array_equal(stack[-1 - k], stack[k][mirror]) for k in range(len(stack)))

    def test_a_last_step_off_a_permutation_raises(self, monkeypatch):
        # E8 (h = 30): step 28 gets a second 1 in row 3 and step 29 is
        # zeroed, so the loop ends on a last step that is no permutation
        class Patched:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def subtract(self, a, b, out):
                Patched.calls += 1
                np.subtract(a, b, out=out)
                if Patched.calls == 28:
                    out[3, 4] = 1
                if Patched.calls == 29:
                    out[...] = 0
                return out

        monkeypatch.setattr(zplus_module, "np", Patched())
        with pytest.raises(ZPlusModuleError, match="not a permutation matrix"):
            ade_module(diagram("E", 8))

    def test_an_odd_numerator_raises(self, monkeypatch):
        # the gather of A S_odd gets one entry raised by 1, so
        # A S_odd + I + [h even] Delta_{h-2} is odd there
        class Patched:
            def __getattr__(self, name):
                return getattr(np, name)

            def take(self, a, indices, axis):
                taken = np.take(a, indices, axis=axis)
                if a.dtype == np.int32:
                    taken[0, 2, 3] += 1
                return taken

        monkeypatch.setattr(zplus_module, "np", Patched())
        with pytest.raises(ZPlusModuleError, match="do not match"):
            ade_module(diagram("D", 6))

    def test_asymmetric_adjacency_raises(self, monkeypatch):
        skewed = diagram("A", 4).adjacency_matrix()
        skewed[0, 1] = 0
        monkeypatch.setattr(CoxeterDiagram, "adjacency_matrix", lambda self: skewed)
        with pytest.raises(ZPlusModuleError, match="not symmetric"):
            ade_module(diagram("A", 4))

    @pytest.mark.parametrize(
        "tag,perm", [("D5", [3, 0, 4, 2, 1]), ("E6", [4, 0, 3, 5, 1, 2])], ids=["D5", "E6"]
    )
    def test_relabelled_diagram(self, tag, perm):
        # vertex i of the relabelled diagram is vertex perm[i]: the branch
        # vertex moves to the last index, which no classification order gives it
        d = parse_diagram(tag)
        matrix = d.coxeter_matrix[np.ix_(perm, perm)].tolist()  # as verify --matrix reads it
        module = ade_module(d)
        relabelled = ade_module(CoxeterDiagram(matrix))
        assert relabelled.ring.rank == module.ring.rank
        for got, want in ((relabelled.total, module.total), (relabelled.even, module.even)):
            assert got.dtype == np.int32
            assert np.array_equal(got, want[np.ix_(perm, perm)])

    @pytest.mark.parametrize("d", ADE_ROSTER, ids=lambda d: d.name)
    def test_reference_actions_nonnegative_and_terminating(self, d):
        actions = reference_stack(d)
        assert np.all(actions >= 0)
        # the next recursion step must vanish identically
        if len(actions) == 1:
            assert np.array_equal(d.adjacency_matrix(), np.zeros((1, 1), dtype=np.int64))
        else:
            nxt = actions[1] @ actions[-1] - actions[-2]
            assert np.array_equal(nxt, np.zeros_like(nxt))


class TestVerifyModuleAxioms:
    def test_e6_passes(self):
        assert all_passed(verify_module_axioms(reference_module(diagram("E", 6))))

    def test_regular_module_passes(self):
        for ring in (verlinde_ring(6), fib_ring()):
            assert all_passed(verify_module_axioms(regular_module(ring)))

    def test_injected_defect(self):
        module = reference_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[1, 0, 1] = 0
        broken = ZPlusModule(module.ring, actions)
        bad = [check for check in verify_module_axioms(broken) if not check.passed]
        assert any(check.name == "module compatibility" for check in bad)
        assert all(check.witness is not None for check in bad)

    def test_compatibility_witness_in_a4(self):
        # witness of the rank**4 einsum check this replaced, pinned from it
        module = reference_module(diagram("A", 4))
        actions = np.array(module.actions)
        actions[2, 1, 3] += 1
        report = {c.name: c for c in verify_module_axioms(ZPlusModule(module.ring, actions))}
        assert report["module compatibility"].witness == (1, 1, 1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_compatibility_witness_matches_full_tensor(self, seed):
        rng = np.random.default_rng(seed)
        module = reference_module(ADE_ROSTER[int(rng.integers(len(ADE_ROSTER)))])
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
        # submodules along decompose's components, actions[:, comp][:, :, comp],
        # keep axis 2 outermost
        module = reference_module(d)
        ring, even = even_subring(module.ring), module.actions[::2]
        for comp in decompose(restrict(ade_module(d))):
            actions = even[:, comp][:, :, comp]
            assert all_passed(verify_module_axioms(ZPlusModule(ring, actions)))
        fortran = np.asfortranarray(module.actions)
        assert all_passed(verify_module_axioms(ZPlusModule(module.ring, fortran)))

    @pytest.mark.parametrize("seed", range(5))
    def test_compatibility_witness_independent_of_layout(self, seed):
        rng = np.random.default_rng(seed)
        module = reference_module(ADE_ROSTER[int(rng.integers(len(ADE_ROSTER)))])
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
        module = reference_module(diagram("D", 50))
        start = time.perf_counter()
        assert all_passed(verify_module_axioms(module))
        assert time.perf_counter() - start < 5.0


class TestRestrict:
    def test_a3_even(self):
        restricted = restrict(ade_module(diagram("A", 3)))
        # Delta_0 + Delta_2: the identity plus the swap of the ends
        assert restricted.total.tolist() == [[1, 0, 1], [0, 2, 0], [1, 0, 1]]

    def test_a2_even_is_trivial_ring(self):
        restricted = restrict(ade_module(diagram("A", 2)))
        assert restricted.ring.rank == 1
        assert restricted.total.tolist() == np.eye(2, dtype=int).tolist()

    @pytest.mark.parametrize("tag", ["A2", "A3", "D5", "E8"])
    def test_over_the_cached_even_subring(self, tag):
        module = ade_module(parse_diagram(tag))
        restricted = restrict(module)
        assert restricted.ring is even_subring(module.ring)
        assert restricted.total is restricted.even is module.even
        assert restricted.adjacency is module.adjacency


class TestOwnership:
    @pytest.mark.parametrize("which", WRITABLE_SOURCES)
    def test_caller_cannot_change_the_reference_module(self, which):
        actions = np.array(reference_stack(diagram("A", 3)))
        module = ZPlusModule(verlinde_ring(3), caller_writable(actions)[which])
        actions[1, 0, 0] = 5
        assert module.actions[1, 0, 0] == 0
        assert not module.actions.flags.writeable

    def test_handed_over_actions_are_not_copied(self):
        actions = reference_stack(diagram("A", 3))
        assert ZPlusModule(verlinde_ring(3), actions).actions is actions

    @pytest.mark.parametrize("tag", ["A3", "D5", "E8"])
    def test_stages_hand_over_read_only_sums(self, tag):
        # ade_module freezes its arrays, and restrict hands over its even sum
        module = ade_module(parse_diagram(tag))
        for arr in (module.adjacency, module.neighbours, module.total, module.even):
            assert not arr.flags.writeable
        assert restrict(module).total is module.even


class TestDecompose:
    def test_reads_only_the_sum(self):
        # a boolean mask of the sum and the walk: less than the int32 sum itself
        module = ade_module(parse_diagram("D100"))
        assert traced_peak(decompose, module) < module.total.nbytes

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
        actions = reference_stack(d)
        parts = bipartition(d)
        plus, minus = list(parts.plus), list(parts.minus)
        for k, action in enumerate(actions):
            diag_blocks = [action[np.ix_(plus, plus)], action[np.ix_(minus, minus)]]
            cross_blocks = [action[np.ix_(plus, minus)], action[np.ix_(minus, plus)]]
            if k % 2 == 0:
                assert all(np.all(b == 0) for b in cross_blocks)
            else:
                assert all(np.all(b == 0) for b in diag_blocks)


def solved_images(monkeypatch, module):
    """The regular element of ``module``, and the images function and the
    unit vector of its Perron solve."""
    seen = {}

    def kept(total, images):
        seen["images"] = images
        seen["values"], seen["vec"] = linalg.perron_eigenpair(total, images)
        return seen["values"], seen["vec"]

    monkeypatch.setattr(zplus_module, "perron_eigenpair", kept)
    return regular_element(module), seen["images"], seen["vec"]


class TestRegularElement:
    def test_a3(self):
        reg = regular_element(ade_module(diagram("A", 3)))
        scale = 2.0 + math.sqrt(2.0)
        expected = np.array([1.0, math.sqrt(2.0), 1.0]) / scale
        assert np.max(np.abs(reg - expected)) < 1e-10
        # oracle: Perron vector of the path adjacency by dense eigensolve
        adj = ade_module(diagram("A", 3)).adjacency.astype(float)
        _, vecs = np.linalg.eigh(adj)
        perron = np.abs(vecs[:, -1])
        perron /= perron.sum()
        assert np.max(np.abs(reg - perron)) < 1e-10

    def test_trivial_ring_module(self):
        assert regular_element(ade_module(diagram("A", 1))).tolist() == [1.0]

    def test_reducible_rejected(self):
        module = ade_module(diagram("A", 3))
        with pytest.raises(ZPlusModuleError, match="reducible"):
            regular_element(restrict(module))

    @pytest.mark.parametrize("tag", ["E8", "D12", "A30"])
    def test_irreducibility_read_without_decompose(self, monkeypatch, tag):
        # decompose runs once per theorem, for the decomposition lemma
        def refuse(module):
            raise AssertionError("regular_element called decompose")

        monkeypatch.setattr(zplus_module, "decompose", refuse)
        assert np.all(regular_element(ade_module(parse_diagram(tag))) > 0)

    @pytest.mark.parametrize("d", ADE_ROSTER, ids=lambda d: d.name)
    def test_eigen_relations_full_roster(self, d):
        module = ade_module(d)
        reg = regular_element(module)  # raises beyond 1e-9 residual
        assert reg.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(reg > 0)

    @pytest.mark.parametrize("tag", ["E8", "A100", "D100"])
    def test_integer_sum_matches_float_sum_reference(self, tag):
        # the int32 sum widens to the float sum's bits, so Perron runs the
        # same steps, and the exact images pass the same checks as the einsum
        _, vec = stack_perron(reference_stack(parse_diagram(tag)))
        assert np.array_equal(regular_element(ade_module(parse_diagram(tag))), vec / vec.sum())

    @pytest.mark.parametrize("tag", IMAGE_TAGS)
    def test_exact_images_match_the_reference_einsum(self, monkeypatch, tag):
        # Delta_k(A) v from the int64 recursion on R = rint(v 2**E) differs
        # from the einsum over the stored stack by the rounding of R, at most
        # (Delta_k 1) 2**-(E + 1), and the einsum's own: n eps (Delta_k v)
        module = ade_module(parse_diagram(tag))
        _, images, vec = solved_images(monkeypatch, module)
        stack = reference_stack(parse_diagram(tag))
        n = module.rank
        exponent = 61 - math.frexp(127 * n * vec.max())[1]
        reference = np.einsum("kij,j->ki", stack, vec)
        rows = stack.sum(axis=2, dtype=np.int64)
        bound = np.ldexp(rows, -exponent - 1) + 2 * n * np.finfo(float).eps * reference
        assert np.all(np.abs(images(vec) - reference) <= bound)

    @pytest.mark.parametrize("tag", IMAGE_TAGS)
    def test_mirrored_images_are_the_exact_recursion(self, monkeypatch, tag):
        # the images read off the first half by ``mirror`` are, bit for bit,
        # Delta_k(A) R 2**-E for every k, from the stored stack in int64
        module = ade_module(parse_diagram(tag))
        _, images, vec = solved_images(monkeypatch, module)
        stack = reference_stack(parse_diagram(tag))
        exponent = 61 - math.frexp(127 * module.rank * float(np.max(np.abs(vec))))[1]
        exact = np.rint(np.ldexp(vec, exponent)).astype(np.int64)
        reference = np.ldexp(np.array([action @ exact for action in stack]), -exponent)
        assert np.array_equal(images(vec), reference)

    @pytest.mark.parametrize("tag", ["E8", "A100", "D100"])
    def test_check_reuses_the_converged_images(self, monkeypatch, tag):
        # the eigen-relation check reads the images of the solve's last step:
        # one run of the recursion per images call, and none after the solve
        module = ade_module(parse_diagram(tag))
        runs, calls, rint = [], [], np.rint

        def counted_rint(*args, **kwargs):
            runs.append(1)
            return rint(*args, **kwargs)

        def counted_perron(total, images):
            def counting(vec):
                calls.append(vec)
                return images(vec)

            return linalg.perron_eigenpair(total, counting)

        monkeypatch.setattr(np, "rint", counted_rint)
        monkeypatch.setattr(zplus_module, "perron_eigenpair", counted_perron)
        regular_element(module)
        assert calls and len(runs) == len(calls)

    @pytest.mark.parametrize("tag", IMAGE_TAGS[:-1])  # the roster and the scale members
    def test_regular_element_is_the_reference_solve_bit_for_bit(self, tag):
        # the reference solve on the exact images of the stored stack, with
        # no mirroring, no image buffer and no blocks, gives the same bits
        module = ade_module(parse_diagram(tag))
        stack = reference_stack(parse_diagram(tag))

        def images(vec):
            exponent = 61 - math.frexp(127 * module.rank * float(np.max(np.abs(vec))))[1]
            exact = np.rint(np.ldexp(vec, exponent)).astype(np.int64)
            return np.ldexp(np.array([action @ exact for action in stack]), -exponent)

        _, vec = reference_perron(module.total, images)
        assert np.array_equal(regular_element(module), vec / vec.sum())

    @pytest.mark.parametrize("tag,calls", [("E8", 2), ("A5", 2), ("A12", 2), ("D12", 2), ("D7", 1)])
    def test_image_calls_per_solve(self, monkeypatch, tag, calls):
        # The first check fails on E8, A5, A12 and D12, and the solve takes
        # the images again one check later; moving that check would move the
        # FP dimensions' bits.  Every call rewrites the one image array.
        returned = []

        def counted(total, images):
            def counting(vec):
                returned.append(images(vec))
                return returned[-1]

            return linalg.perron_eigenpair(total, counting)

        monkeypatch.setattr(zplus_module, "perron_eigenpair", counted)
        regular_element(ade_module(parse_diagram(tag)))
        assert len(returned) == calls
        assert all(moved is returned[0] for moved in returned)

    def test_a500_holds_one_image_array(self):
        # Cold: the R_500 solve for the FP dimensions, then the module's
        # solve, which holds the int64 columns of half the steps (2 MB), one
        # (h - 1, n) float image array (2 MB) and the Perron loop's float
        # copy of the sum (2 MB).  All the steps' columns, a second image
        # array and a (k, n) residual temporary took 9.70 MiB.
        verlinde_ring.cache_clear()
        even_subring.cache_clear()
        module = ade_module(parse_diagram("A500"))
        assert traced_peak(regular_element, module) < 7.5 * 2**20

    def test_eigen_relation_fails_off_the_fp_dimensions(self):
        # A2's module handed R_3 (FP dimensions 1, sqrt 2, 1) for its own
        # R_2: b_1 acts by the swap, whose Perron vector (1/2, 1/2) has
        # eigenvalue 1, not sqrt 2, a residual of (sqrt 2 - 1) / 2.
        module = dataclasses.replace(ade_module(diagram("A", 2)), ring=verlinde_ring(3))
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
