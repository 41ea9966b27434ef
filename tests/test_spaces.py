import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import permute_bits, relabel

from graphgp import gp, spaces
from graphgp.invariance import (
    PermSubgroup,
    ProjectedKernel,
    build_quotient,
    invariant_gram_exact,
    invariant_gram_sampled,
    invariant_kernel_exact,
    orbit_representative,
    pair_histogram,
)
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec, LinearKernel
from graphgp.spaces import (
    GraphCode,
    GraphSpace,
    GraphSpaceKind,
    NodePermutation,
    bit_matrix,
    dimension,
    edge_permutation,
    graph_from_json,
    graph_to_json,
    hamming,
    pairwise_hamming,
)

ALL_KINDS = list(GraphSpaceKind)


class TestDimension:
    def test_directed_loops_3(self):
        assert dimension(GraphSpaceKind.DIRECTED_LOOPS, 3) == 9

    def test_undirected_3(self):
        assert dimension(GraphSpaceKind.UNDIRECTED, 3) == 3

    def test_single_node_undirected(self):
        assert dimension(GraphSpaceKind.UNDIRECTED, 1) == 0

    def test_formulas(self):
        for n in range(1, 9):
            assert dimension(GraphSpaceKind.UNDIRECTED, n) == n * (n - 1) // 2
            assert dimension(GraphSpaceKind.UNDIRECTED_LOOPS, n) == n * (n + 1) // 2
            assert dimension(GraphSpaceKind.DIRECTED, n) == n * (n - 1)
            assert dimension(GraphSpaceKind.DIRECTED_LOOPS, n) == n * n

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            dimension(GraphSpaceKind.UNDIRECTED, 0)
        with pytest.raises(ValueError):
            GraphSpace(GraphSpaceKind.UNDIRECTED, 0)


class TestSlotTable:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_and_count(self, kind, n):
        space = GraphSpace(kind, n)
        assert len(space.slots) == space.d == dimension(kind, n)
        for s in range(space.d):
            i, j = space.pair_of(s)
            assert space.slot_of(i, j) == s

    def test_lexicographic_order(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        assert space.slots == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        loops = GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 2)
        assert loops.slots == ((0, 0), (0, 1), (1, 1))
        directed = GraphSpace(GraphSpaceKind.DIRECTED, 3)
        assert directed.slots == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))

    def test_one_table_per_kind_and_size(self):
        a = graph_from_json({"kind": "U", "n": 5, "edges": [[0, 1]]}).space
        b = graph_from_json({"kind": "U", "n": 5, "edges": [[1, 2]]}).space
        assert a is not b
        assert a.slots is b.slots and a._slot_index is b._slot_index
        assert GraphSpace(GraphSpaceKind.DIRECTED, 5).slots is not a.slots

    def test_undirected_pair_canonicalized(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        assert space.slot_of(3, 1) == space.slot_of(1, 3)

    def test_loop_rejected_without_loops(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        with pytest.raises(ValueError, match="loop"):
            space.slot_of(2, 2)
        GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 4).slot_of(2, 2)

    def test_max_nodes_guard(self):
        with pytest.raises(ValueError, match="maximum"):
            GraphSpace(GraphSpaceKind.UNDIRECTED, 17)
        assert GraphSpace(GraphSpaceKind.UNDIRECTED, 17, max_nodes=20).d == 136


class TestGraphCode:
    def test_xor_identity(self):
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 2)
        x = space.code_from_bits([1, 0, 1, 1])
        assert (x ^ x).bits == 0
        assert x.weight == 3

    def test_from_edges_duplicate_rejected(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        with pytest.raises(ValueError, match="duplicate"):
            space.code_from_edges([[0, 1], [1, 0]])

    def test_edges_round_trip(self, rng):
        for kind in ALL_KINDS:
            space = GraphSpace(kind, 5)
            for _ in range(20):
                x = space.random_code(rng)
                assert space.code_from_edges(x.edges()) == x

    def test_hash_agrees_with_equality(self):
        a = GraphSpace(GraphSpaceKind.UNDIRECTED, 4).code_from_int(5)
        b = GraphSpace(GraphSpaceKind.UNDIRECTED, 4).code_from_int(5)
        other = GraphSpace(GraphSpaceKind.DIRECTED, 4).code_from_int(5)
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2

    def test_slotted_codes_keep_their_hash_and_cache_entries(self):
        # slotted value types carry no per-instance __dict__
        U12 = GraphSpace(GraphSpaceKind.UNDIRECTED, 12)
        a, b = U12.code_from_int((1 << 65) | 7), U12.code_from_int((1 << 65) | 7)
        perm = NodePermutation.identity(12)
        assert not hasattr(a, "__dict__") and not hasattr(perm, "__dict__")
        assert a is not b and a == b and hash(a) == hash(b)
        H = PermSubgroup.full(12)
        orbit_representative.cache_clear()
        assert orbit_representative(H, a) is orbit_representative(H, b)
        assert orbit_representative.cache_info().hits == 1

    @pytest.mark.parametrize(
        "value",
        [GraphSpace(GraphSpaceKind.UNDIRECTED, 4).code_from_int(5), NodePermutation((2, 0, 1))],
        ids=["GraphCode", "NodePermutation"],
    )
    def test_frozen_slotted_values_refuse_assignment_and_survive_copies(self, value):
        for name in ("bits" if isinstance(value, GraphCode) else "mapping", "not_a_field"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
            assert not hasattr(clone, "__dict__")

    def test_bits_length_checked(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        with pytest.raises(ValueError):
            space.code_from_bits([1, 0])
        with pytest.raises(ValueError):
            space.code_from_int(1 << 3)


class TestHamming:
    def test_identical(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_bits([0, 0, 0])
        assert hamming(x, x) == 0

    def test_two_bits(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_bits([1, 0, 1])
        y = space.code_from_bits([0, 1, 1])
        assert hamming(x, y) == 2

    def test_symmetry_random(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3)
        for _ in range(1000):
            x, y = space.random_code(rng), space.random_code(rng)
            assert hamming(x, y) == hamming(y, x)
            assert (hamming(x, y) == 0) == (x == y)

    def test_space_mismatch_rejected(self):
        a = GraphSpace(GraphSpaceKind.UNDIRECTED, 3).empty_code()
        b = GraphSpace(GraphSpaceKind.UNDIRECTED, 4).empty_code()
        with pytest.raises(ValueError, match="different spaces"):
            hamming(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_xor_translation_preserves_distance(self, xb, yb, zb):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        x, y, z = (GraphCode(space, b) for b in (xb, yb, zb))
        assert hamming(x ^ z, y ^ z) == hamming(x, y)


def relabelled(x: GraphCode, *sigmas: NodePermutation) -> list[GraphCode]:
    """x relabelled by each of sigmas, through the package's one relabelling path: one gather of
    x's bits by the gather index :func:`spaces.image_sources` makes of the node maps."""
    sources = spaces.image_sources([sigma.mapping for sigma in sigmas], x.space)
    return [GraphCode(x.space, bits) for bits in spaces.decode_words(spaces.permuted_words(x, sources))]


class TestNodePermutation:
    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            NodePermutation((0, 0, 1))

    def test_identity_action(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED, 4)
        ident = NodePermutation.identity(4)
        for _ in range(10):
            x = space.random_code(rng)
            assert relabelled(x, ident) == [x]

    def test_hand_worked_swap_on_three_nodes(self):
        # swapping nodes 0 and 1 sends the lone edge {0,2} to {1,2}
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_edges([[0, 2]])
        [swapped] = relabelled(x, NodePermutation((1, 0, 2)))
        assert swapped.edges() == ((1, 2),)

    def test_group_action_law(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        for _ in range(50):
            sigma = NodePermutation(tuple(rng.permutation(5)))
            tau = NodePermutation(tuple(rng.permutation(5)))
            x = space.random_code(rng)
            assert relabelled(x, sigma.compose(tau)) == relabelled(relabelled(x, tau)[0], sigma)

    def test_inverse(self, rng):
        for _ in range(20):
            sigma = NodePermutation(tuple(rng.permutation(6)))
            assert sigma.compose(sigma.inverse()) == NodePermutation.identity(6)

    def test_length_mismatch_rejected(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        with pytest.raises(ValueError):
            edge_permutation(NodePermutation((1, 0, 2)), space)

    def test_edge_permutation_identity(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 4)
        assert edge_permutation(NodePermutation.identity(4), space) == tuple(range(space.d))

    def test_edge_permutation_bijection_u4(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        perm = edge_permutation(NodePermutation((1, 2, 0, 3)), space)
        assert sorted(perm) == list(range(6))

    def test_edge_permutation_composition(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED, 4)
        for _ in range(20):
            sigma = NodePermutation(tuple(rng.permutation(4)))
            tau = NodePermutation(tuple(rng.permutation(4)))
            ps, pt = edge_permutation(sigma, space), edge_permutation(tau, space)
            pc = edge_permutation(sigma.compose(tau), space)
            # slot s -> pt[s] under tau, then -> ps[pt[s]] under sigma
            assert pc == tuple(ps[pt[s]] for s in range(space.d))

    def test_permutations_preserve_distance(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        for _ in range(200):
            sigma = NodePermutation(tuple(rng.permutation(5)))
            x, y = space.random_code(rng), space.random_code(rng)
            assert hamming(*relabelled(x, sigma), *relabelled(y, sigma)) == hamming(x, y)

    def test_arbitrary_slot_permutation_preserves_distance(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        d = space.d
        for _ in range(200):
            perm = tuple(rng.permutation(d))
            x, y = space.random_code(rng), space.random_code(rng)
            assert hamming(permute_bits(x, perm), permute_bits(y, perm)) == hamming(x, y)


#: Every kind at n = 1, 3, 6 and 9; D9 (d = 72) and DL9 (d = 81) span two words.
RELABEL_SPACES = [GraphSpace(kind, n) for kind in ALL_KINDS for n in (1, 3, 6, 9)]


@st.composite
def relabellings(draw):
    """A space, a code in it and two node permutations of it."""
    space = draw(st.sampled_from(RELABEL_SPACES))
    x = space.code_from_int(draw(st.integers(0, (1 << space.d) - 1)))
    sigma, tau = (NodePermutation(tuple(draw(st.permutations(range(space.n))))) for _ in range(2))
    return x, sigma, tau


class TestApplyPermutation:
    @settings(max_examples=200, deadline=None)
    @given(relabellings())
    def test_matches_the_oracle_relabelling(self, case):
        x, sigma, tau = case
        assert relabelled(x, sigma, tau) == [relabel(sigma, x), relabel(tau, x)]

    @settings(max_examples=200, deadline=None)
    @given(relabellings())
    def test_group_action_law(self, case):
        x, sigma, tau = case
        assert relabelled(x, sigma.compose(tau)) == relabelled(relabelled(x, tau)[0], sigma)

    def test_two_word_codes_keep_their_high_bits(self):
        wide = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 9)  # d = 81
        x = wide.code_from_int((1 << 80) | (1 << 70) | 1)
        sigma = NodePermutation((8, 0, 1, 2, 3, 4, 5, 6, 7))
        assert relabelled(x, NodePermutation.identity(9), sigma) == [x, relabel(sigma, x)]
        assert relabel(sigma, x) != x

    def test_wrong_node_count_refused(self):
        U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        with pytest.raises(ValueError, match="^permutation of 3 nodes does not act on n=4$"):
            spaces.image_sources([(1, 0, 2)], U4)
        with pytest.raises(ValueError, match="^permutation of 5 nodes does not act on n=4$"):
            spaces.image_sources([range(5)], U4)


def test_oracles_share_no_relabelling_code():
    """The oracles relabel with their own bit loop over ``space.slots``: they import none of the
    package's relabelling functions and reach none of them as an attribute."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    shared = {"edge_permutation", "image_sources", "permuted_words", "slot_permutations"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphgp"
        for alias in node.names
    }
    reached = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not shared & (imported | reached)


class TestBulkBitOps:
    def test_popcount_u64_matches_int_bit_count(self, rng):
        vals = rng.integers(0, 2**63, size=500, dtype=np.uint64)
        counts = spaces._popcount(vals)
        assert all(int(c) == int(v).bit_count() for c, v in zip(counts, vals))

    def test_popcount_u64_swar_fallback(self, rng, monkeypatch):
        # the only path on numpy < 2.0, which lacks np.bitwise_count
        monkeypatch.setattr(spaces, "_bitwise_count", None)
        vals = np.concatenate(
            [rng.integers(0, 2**64, size=500, dtype=np.uint64), np.array([0, 2**64 - 1], dtype=np.uint64)]
        )
        counts = spaces._popcount(vals)
        assert counts.dtype == np.uint8
        assert all(int(c) == int(v).bit_count() for c, v in zip(counts, vals))

    def test_pairwise_hamming_matches_scalar(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3)
        xs = [space.random_code(rng) for _ in range(15)]
        ys = [space.random_code(rng) for _ in range(12)]
        D = pairwise_hamming(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert D[i, j] == hamming(x, y)

    def test_pairwise_hamming_wide_codes(self, rng):
        # d = 256: four words per code
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 16)
        assert space.d == 256
        xs = [space.random_code(rng) for _ in range(6)]
        D = pairwise_hamming(xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys := xs):
                assert D[i, j] == hamming(x, y)

    @pytest.mark.parametrize("bitwise_count", [True, False], ids=["bitwise_count", "swar"])
    def test_full_distance_of_four_words_does_not_wrap(self, bitwise_count, monkeypatch):
        # 256 differing bits: one more than a uint8 distance holds
        if not bitwise_count:
            monkeypatch.setattr(spaces, "_bitwise_count", None)
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 16)
        codes = [space.empty_code(), space.code_from_int((1 << space.d) - 1)]
        words = spaces.code_words(codes)
        assert words.shape == (2, 4)
        assert spaces.word_distances(words, words).tolist() == [[0, 256], [256, 0]]
        D = pairwise_hamming(codes)
        assert D.dtype == np.int64
        assert D.tolist() == [[0, 256], [256, 0]]

    def test_bit_matrix(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_bits([1, 0, 1])
        assert bit_matrix([x]).tolist() == [[1.0, 0.0, 1.0]]
        wide = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 9)  # d = 81: two words, the second partial
        xs = [wide.random_code(rng) for _ in range(5)]
        assert bit_matrix(xs).tolist() == [[float(x.bit(s)) for s in range(wide.d)] for x in xs]


class TestJsonFormat:
    def test_round_trip(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        x = space.code_from_edges([[0, 1], [2, 3]])
        assert graph_from_json(graph_to_json(x)) == x

    def test_either_order_canonicalized(self):
        a = graph_from_json({"kind": "U", "n": 3, "edges": [[2, 0]]})
        b = graph_from_json({"kind": "U", "n": 3, "edges": [[0, 2]]})
        assert a == b

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_json({"kind": "U", "n": 3, "edges": [[0, 1], [1, 0]]})

    def test_self_loop_rejected_for_no_loop_kinds(self):
        with pytest.raises(ValueError, match="loop"):
            graph_from_json({"kind": "D", "n": 3, "edges": [[1, 1]]})
        loop = graph_from_json({"kind": "DL", "n": 3, "edges": [[1, 1]]})
        assert loop.weight == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            graph_from_json({"kind": "X", "n": 3, "edges": []})



HOME = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
#: Spaces with U4's d (D3) or U4's n (D4): codes a missing check would read as U4 codes.
FOREIGN = {"D3": GraphSpace(GraphSpaceKind.DIRECTED, 3), "D4": GraphSpace(GraphSpaceKind.DIRECTED, 4)}
SPEC, S4 = KernelSpec(Heat(1.0)), PermSubgroup.full(4)
BOUND_KERNELS = {
    "isotropic": lambda: IsotropicKernel(SPEC, HOME),
    "projected_exact": lambda: ProjectedKernel(SPEC, S4, HOME),
    "projected_mc": lambda: ProjectedKernel.monte_carlo(SPEC, S4, HOME, 4, seed=0),
}


def linear_model():
    return gp.fit(LinearKernel(), [HOME.code_from_int(1), HOME.code_from_int(6)], [0.0, 1.0], 0.1)


#: Every public entry that takes codes, as a call on (home codes, mixed codes, foreign codes): unbound
#: entries get U4 codes with one foreign code in second place, entries bound to U4 foreign codes only.
CODE_ENTRIES = {
    "hamming": lambda h, m, f: hamming(m[0], m[1]),
    "xor": lambda h, m, f: m[0] ^ m[1],
    "pairwise_hamming_square": lambda h, m, f: pairwise_hamming(m),
    "pairwise_hamming_cross": lambda h, m, f: pairwise_hamming(h, m),
    "bit_matrix": lambda h, m, f: bit_matrix(m),
    "linear_gram_square": lambda h, m, f: LinearKernel().gram(m),
    "linear_gram_cross": lambda h, m, f: LinearKernel().gram(h, m),
    "linear_tuning_counts": lambda h, m, f: LinearKernel().tuning_counts(m),
    "fit": lambda h, m, f: gp.fit(LinearKernel(), m, np.arange(len(m)), 0.1),
    "predict": lambda h, m, f: gp.predict(linear_model(), m),
    "optimize_hyperparameters": lambda h, m, f: gp.optimize_hyperparameters(
        LinearKernel(), m, np.arange(len(m)), budget=3
    ),
    "sample_prior_exact": lambda h, m, f: gp.sample_prior_exact(LinearKernel(), m, 1, 0),
    "posterior_sample": lambda h, m, f: gp.posterior_sample(linear_model(), m, 1, 0),
    "walsh_feature_matrix": lambda h, m, f: gp.TruncatedWalshSampler(SPEC, HOME).feature_matrix(f),
    "phase_feature_matrix": lambda h, m, f: gp.RandomPhaseSampler(SPEC, HOME, 4, 0).feature_matrix(f),
    "pair_histogram": lambda h, m, f: pair_histogram(S4, m[0], m[1]),
    "invariant_kernel_exact": lambda h, m, f: invariant_kernel_exact(SPEC, S4, m[0], m[1]),
    "invariant_gram_exact_square": lambda h, m, f: invariant_gram_exact(SPEC, S4, m),
    "invariant_gram_exact_cross": lambda h, m, f: invariant_gram_exact(SPEC, S4, h, m),
    "invariant_gram_sampled_square": lambda h, m, f: invariant_gram_sampled(SPEC, tuple(S4.elements()), m),
    "invariant_gram_sampled_cross": lambda h, m, f: invariant_gram_sampled(SPEC, tuple(S4.elements()), h, m),
    "class_index": lambda h, m, f: build_quotient(S4, HOME).class_index(f[0]),
    "isotropic_diag": lambda h, m, f: IsotropicKernel(SPEC, HOME).diag(f),
    "linear_diag": lambda h, m, f: LinearKernel().diag(m),
    "project_sample": lambda h, m, f: gp.project_sample(
        np.arange(64.0)[None], list(HOME.all_codes()), m, list(S4.elements())
    ),
}
for _name, _make in BOUND_KERNELS.items():
    CODE_ENTRIES[f"{_name}_gram_square"] = lambda h, m, f, make=_make: make().gram(f)
    CODE_ENTRIES[f"{_name}_gram_cross"] = lambda h, m, f, make=_make: make().gram(f, f[::-1])
    CODE_ENTRIES[f"{_name}_tuning_counts"] = lambda h, m, f, make=_make: make().tuning_counts(f)


class TestOneSpaceCheck:
    @pytest.mark.parametrize("foreign", sorted(FOREIGN))
    @pytest.mark.parametrize("entry", sorted(CODE_ENTRIES))
    def test_foreign_codes_refused(self, entry, foreign):
        home = [HOME.code_from_int(v) for v in (3, 12, 33)]
        alien = [FOREIGN[foreign].code_from_int(v) for v in (3, 12, 33)]
        mixed = [home[0], alien[0], *home[1:]]
        with pytest.raises(ValueError, match="codes live in different spaces"):
            CODE_ENTRIES[entry](home, mixed, alien)

    def test_message_names_the_expected_space_first(self):
        U5 = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        with pytest.raises(ValueError, match="^codes live in different spaces: U_4 vs U_5$"):
            spaces.common_space([U5.empty_code()], HOME)
        assert spaces.common_space([]) is None
        assert spaces.common_space([], HOME) == HOME
