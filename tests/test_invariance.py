import importlib
import itertools
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

from oracles import (
    count_triples,
    dense_counts,
    exact_gram_by_pairs,
    group_counts_by_enumeration,
    orbit_by_closure,
    orbit_labels_by_enumeration,
    projection_by_enumeration,
    sample_counts_by_enumeration,
    sampled_gram_by_pairs,
)
from synthetic import molecules_like_demo05

import graphgp
from graphgp import datasets, gp, invariance, spaces
from graphgp.invariance import (
    GroupTooLargeError,
    PermSubgroup,
    ProjectedKernel,
    QuotientGraph,
    build_quotient,
    draw_sample,
    enumerate_orbit,
    _group_counts,
    invariant_gram_exact,
    invariant_gram_sampled,
    invariant_kernel_exact,
    invariant_kernel_sampled,
    orbit_equivalence_test,
    orbit_representative,
    pair_histogram,
    project_function,
    quotient_kernel_matrix,
)
from graphgp.kernels import (
    CustomPhi,
    Heat,
    IsotropicKernel,
    KernelSpec,
    LaplacianVariant,
    kernel_profile,
    matern_spec,
)
from graphgp.spaces import GraphSpace, GraphSpaceKind, NodePermutation, apply_permutation, hamming

U3 = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)


def matern_u4(variance=1.0):
    return matern_spec(U4.d, nu_base=2.5, kappa=1.0, variance=variance)


class TestPermSubgroup:
    def test_partition_validated(self):
        with pytest.raises(ValueError):
            PermSubgroup(4, ((0, 1), (1, 2, 3)))
        with pytest.raises(ValueError):
            PermSubgroup(4, ((0, 1),))

    def test_order_and_element_count(self):
        H = PermSubgroup(4, ((0, 1, 2), (3,)))
        assert H.order() == 6
        elements = list(H.elements())
        assert len(elements) == 6
        assert len({e.mapping for e in elements}) == 6
        for e in elements:
            assert e.mapping[3] == 3  # block {3} is fixed

    def test_full_and_trivial(self):
        assert PermSubgroup.full(4).order() == 24
        assert PermSubgroup.trivial(4).order() == 1

    def test_from_string(self):
        H = PermSubgroup.from_string("0,1,2|3", 4)
        assert H.blocks == ((0, 1, 2), (3,))

    def test_random_element_stays_in_group(self, rng):
        H = PermSubgroup(6, ((0, 1, 2), (3, 4), (5,)))
        for _ in range(100):
            sigma = H.random_element(rng)
            assert sorted(sigma.mapping[i] for i in (0, 1, 2)) == [0, 1, 2]
            assert sorted(sigma.mapping[i] for i in (3, 4)) == [3, 4]
            assert sigma.mapping[5] == 5

    def test_draw_sample_deterministic(self):
        H = PermSubgroup.full(4)
        assert draw_sample(H, 5, 42) == draw_sample(H, 5, 42)
        assert draw_sample(H, 5, 42) != draw_sample(H, 5, 43)
        with pytest.raises(ValueError):
            draw_sample(H, 0, 1)


class TestOrbits:
    def test_trivial_group_fixes_everything(self, rng):
        H = PermSubgroup.trivial(4)
        x = U4.random_code(rng)
        orbit = enumerate_orbit(H, x)
        assert orbit.size == 1
        assert orbit.canonical == x
        assert orbit.members == (x,)

    def test_single_edge_orbit_on_three_nodes(self):
        orbit = enumerate_orbit(PermSubgroup.full(3), U3.code_from_edges([[0, 1]]))
        assert orbit.size == 3  # the three possible edges

    def test_empty_graph_is_fixed_point(self):
        orbit = enumerate_orbit(PermSubgroup.full(4), U4.empty_code())
        assert orbit.size == 1

    def test_orbit_stabilizer_identity(self, rng):
        H = PermSubgroup.full(4)
        for _ in range(10):
            x = U4.random_code(rng)
            orbit = enumerate_orbit(H, x)
            stabilizer = sum(1 for s in H.elements() if apply_permutation(s, x) == x)
            assert orbit.size * stabilizer == H.order()

    def test_members_close_under_group(self, rng):
        H = PermSubgroup(4, ((0, 1, 2), (3,)))
        x = U4.random_code(rng)
        members = set(enumerate_orbit(H, x).members)
        for s in H.elements():
            assert apply_permutation(s, x) in members

    def test_cap_refusal_mentions_monte_carlo(self):
        H, dense = PermSubgroup.full(11), sparse_codes(U11, np.random.default_rng(0), 1, density=0.5)[0]
        with pytest.raises(GroupTooLargeError, match="Monte Carlo"):
            enumerate_orbit(H, dense)  # 11! members: a chain step past the cap
        exact = ProjectedKernel(KernelSpec(Heat(1.0)), H, U11)
        with pytest.raises(GroupTooLargeError, match="Monte Carlo"):
            exact.gram([dense])
        assert ProjectedKernel.monte_carlo(KernelSpec(Heat(1.0)), H, U11, 4, 0).gram([dense]).shape == (1, 1)

    def test_small_orbits_under_a_large_group_match_closure(self):
        H = PermSubgroup.full(11)  # |H| = 39,916,800, above the old group-order cap
        xs = [U11.code_from_edges(edges) for edges in SPARSE_U11_EDGES]
        orbits = [orbit_by_closure(H, x) for x in xs]
        for x, members in zip(xs, orbits):
            assert set(enumerate_orbit(H, x).members) == members
        spec = KernelSpec(Heat(3.0), variance=1.3)
        profile = kernel_profile(spec, U11.d)
        want = np.array(
            [[profile[[(a.bits ^ y.bits).bit_count() for a in members]].mean() for y in xs] for members in orbits]
        )
        kernel = ProjectedKernel(spec, H, U11)
        np.testing.assert_allclose(kernel.gram(xs), want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(kernel.gram(xs[:3], xs[3:]), want[:3, 3:], rtol=1e-13, atol=0)
        np.testing.assert_allclose(kernel.diag(xs), np.diag(want), rtol=1e-13, atol=0)


class TestPairHistogram:
    def test_counts_sum_to_group_order(self, rng):
        H = PermSubgroup.full(4)
        x, y = U4.random_code(rng), U4.random_code(rng)
        hist = pair_histogram(H, x, y)
        assert hist.sum() == H.order()

    def test_symmetric_in_arguments(self, rng):
        H = PermSubgroup(4, ((0, 1), (2, 3)))
        for _ in range(20):
            x, y = U4.random_code(rng), U4.random_code(rng)
            assert np.array_equal(pair_histogram(H, x, y), pair_histogram(H, y, x))

    def test_matches_direct_enumeration(self, rng):
        H = PermSubgroup(4, ((0, 1, 2), (3,)))
        x, y = U4.random_code(rng), U4.random_code(rng)
        expect = np.zeros(U4.d + 1)
        for s in H.elements():
            expect[hamming(apply_permutation(s, x), y)] += 1
        assert np.array_equal(pair_histogram(H, x, y), expect)


class TestInvariantKernelExact:
    def test_trivial_group_is_base_kernel(self, rng):
        H = PermSubgroup.trivial(4)
        spec = matern_u4()
        profile = kernel_profile(spec, U4.d)
        for _ in range(10):
            x, y = U4.random_code(rng), U4.random_code(rng)
            assert invariant_kernel_exact(spec, H, x, y) == pytest.approx(
                profile[hamming(x, y)], rel=1e-14
            )

    def test_equivalent_inputs_share_diagonal_value(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        for _ in range(10):
            x = U4.random_code(rng)
            y = apply_permutation(H.random_element(rng), x)
            assert invariant_kernel_exact(spec, H, x, y) == pytest.approx(
                invariant_kernel_exact(spec, H, x, x), rel=1e-12
            )

    def test_invariant_under_group_on_either_argument(self, rng):
        H = PermSubgroup(4, ((0, 1, 2), (3,)))
        spec = matern_u4()
        for _ in range(20):
            x, y = U4.random_code(rng), U4.random_code(rng)
            base = invariant_kernel_exact(spec, H, x, y)
            s1, s2 = H.random_element(rng), H.random_element(rng)
            moved = invariant_kernel_exact(
                spec, H, apply_permutation(s1, x), apply_permutation(s2, y)
            )
            assert moved == pytest.approx(base, rel=1e-12)

    def test_gram_matches_entries(self, rng):
        H = PermSubgroup.full(3)
        spec = KernelSpec(Heat(1.0))
        xs = [U3.random_code(rng) for _ in range(6)]
        K = invariant_gram_exact(spec, H, xs)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(invariant_kernel_exact(spec, H, xs[i], xs[j]))


class TestEquitability:
    @pytest.mark.parametrize(
        "space,blocks",
        [
            (U3, ((0, 1, 2),)),
            (U4, ((0, 1, 2, 3),)),
            (U4, ((0, 1, 2), (3,))),
            (U4, ((0, 1), (2, 3))),
        ],
    )
    def test_orbit_partition_is_equitable(self, space, blocks):
        # every member of an orbit has the same number of one-flip neighbors
        # in every other orbit
        H = PermSubgroup(space.n, blocks)
        quotient = build_quotient(H, space)
        class_of = quotient.class_of
        d = space.d
        for v in range(1 << d):
            degs = np.zeros(quotient.num_classes, dtype=int)
            for t in range(d):
                degs[class_of[v ^ (1 << t)]] += 1
            rep = quotient.classes[class_of[v]].canonical.bits
            rep_degs = np.zeros(quotient.num_classes, dtype=int)
            for t in range(d):
                rep_degs[class_of[rep ^ (1 << t)]] += 1
            assert np.array_equal(degs, rep_degs)


class TestMonteCarlo:
    def test_full_group_sample_equals_exact(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        full = tuple(H.elements())
        for _ in range(5):
            x, y = U4.random_code(rng), U4.random_code(rng)
            assert invariant_kernel_sampled(spec, full, x, y) == pytest.approx(
                invariant_kernel_exact(spec, H, x, y), abs=1e-12
            )

    def test_diagonal_nonnegative(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        for seed in range(10):
            sample = draw_sample(H, 6, seed)
            x = U4.random_code(rng)
            assert invariant_kernel_sampled(spec, sample, x, x) >= 0.0

    def test_gram_psd_for_any_seed(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        xs = [U4.random_code(rng) for _ in range(12)]
        for seed in range(10):
            K = invariant_gram_sampled(spec, draw_sample(H, 8, seed), xs)
            assert np.allclose(K, K.T)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)

    def test_error_decreases_with_sample_size(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        xs = [U4.random_code(rng) for _ in range(8)]
        exact = invariant_gram_exact(spec, H, xs)
        mean_err = []
        for size in (4, 24):
            errs = []
            for seed in range(20):
                K = invariant_gram_sampled(spec, draw_sample(H, size, seed), xs)
                errs.append(np.sqrt(np.mean((K - exact) ** 2)))
            mean_err.append(np.mean(errs))
        assert mean_err[1] < mean_err[0]

    def test_mc_kernel_deterministic_given_seed(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        x, y = U4.random_code(rng), U4.random_code(rng)
        a = invariant_kernel_sampled(spec, draw_sample(H, 8, 7), x, y)
        b = invariant_kernel_sampled(spec, draw_sample(H, 8, 7), x, y)
        assert a == b


class TestQuotient:
    def test_trivial_group_reproduces_hypercube(self):
        H = PermSubgroup.trivial(3)
        quotient = build_quotient(H, U3)
        assert quotient.num_classes == 1 << U3.d
        W = quotient.weights
        assert np.array_equal(np.diag(W), np.zeros(8))
        assert set(np.unique(W)) <= {0.0, 1.0}
        assert np.all(W.sum(axis=1) == U3.d)

    def test_u3_full_group_has_four_classes(self):
        quotient = build_quotient(PermSubgroup.full(3), U3)
        assert quotient.num_classes == 4  # 0, 1, 2, 3 edges
        assert sorted(c.size for c in quotient.classes) == [1, 1, 3, 3]

    def test_u4_full_group_has_eleven_classes(self):
        quotient = build_quotient(PermSubgroup.full(4), U4)
        assert quotient.num_classes == 11
        assert sum(c.size for c in quotient.classes) == 64

    def test_weights_symmetric_and_degree_identity(self):
        for blocks in (((0, 1, 2, 3),), ((0, 1, 2), (3,))):
            quotient = build_quotient(PermSubgroup(4, blocks), U4)
            W = quotient.weights
            assert np.allclose(W, W.T)
            assert np.allclose(W.sum(axis=1), quotient.sizes() * U4.d)

    def test_weights_match_brute_force_pair_count(self):
        H = PermSubgroup.full(3)
        quotient = build_quotient(H, U3)
        expect = np.zeros((4, 4))
        for v in range(8):
            for t in range(U3.d):
                expect[quotient.class_of[v], quotient.class_of[v ^ (1 << t)]] += 1
        assert np.array_equal(quotient.weights, expect)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            build_quotient(PermSubgroup.trivial(6), GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 6))

    def test_class_index(self, rng):
        quotient = build_quotient(PermSubgroup.full(4), U4)
        for _ in range(10):
            x = U4.random_code(rng)
            idx = quotient.class_index(x)
            assert quotient.classes[idx].canonical == enumerate_orbit(
                PermSubgroup.full(4), x
            ).canonical


class TestQuotientKernel:
    @pytest.mark.parametrize("blocks", [((0, 1, 2, 3),), ((0, 1, 2), (3,))])
    def test_equals_exact_double_average(self, blocks):
        H = PermSubgroup(4, blocks)
        quotient = build_quotient(H, U4)
        for spec in (matern_u4(), KernelSpec(Heat(1.3), 2.0)):
            qk = quotient_kernel_matrix(spec, quotient)
            reps = [c.canonical for c in quotient.classes]
            exact = invariant_gram_exact(spec, H, reps)
            assert np.abs(qk - exact).max() <= 1e-8

    def test_trivial_group_reproduces_base_kernel(self, rng):
        quotient = build_quotient(PermSubgroup.trivial(3), U3)
        spec = KernelSpec(Heat(0.8), 1.5)
        profile = kernel_profile(spec, U3.d)
        for _ in range(20):
            x, y = U3.random_code(rng), U3.random_code(rng)
            i, j = quotient.class_index(x), quotient.class_index(y)
            assert quotient_kernel_matrix(spec, quotient)[i, j] == pytest.approx(
                profile[hamming(x, y)], rel=1e-10
            )

    def test_non_symmetric_variant_rejected(self):
        quotient = build_quotient(PermSubgroup.full(3), U3)
        with pytest.raises(ValueError, match="symmetric normalized"):
            quotient_kernel_matrix(KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN), quotient)

    def test_truncated_spec_equals_truncated_average(self):
        H = PermSubgroup.full(4)
        quotient = build_quotient(H, U4)
        spec = KernelSpec(Heat(1.0), truncation=3)
        qk = quotient_kernel_matrix(spec, quotient)
        reps = [c.canonical for c in quotient.classes]
        exact = invariant_gram_exact(spec, H, reps)
        assert np.abs(qk - exact).max() <= 1e-8

    def test_eigenvalues_off_the_hypercube_levels_rejected(self):
        quotient = build_quotient(PermSubgroup.full(3), U3)
        weights = quotient.weights.copy()
        weights[0, 1] += 0.1
        weights[1, 0] += 0.1
        skewed = QuotientGraph(U3, quotient.subgroup, quotient.classes, weights, quotient.class_of)
        with pytest.raises(ValueError, match="hypercube levels 2j/d"):
            quotient_kernel_matrix(KernelSpec(Heat(1.0)), skewed)


class TestOrbitEquivalenceTest:
    def test_reflexive(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        x = U4.random_code(rng)
        assert orbit_equivalence_test(spec, H, x, x)

    def test_path_vs_star_not_equivalent(self):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        path = U4.code_from_edges([[0, 1], [1, 2], [2, 3]])
        star = U4.code_from_edges([[0, 1], [0, 2], [0, 3]])
        assert not orbit_equivalence_test(spec, H, path, star)

    def test_relabeled_path_equivalent(self):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        path = U4.code_from_edges([[0, 1], [1, 2], [2, 3]])
        relabeled = U4.code_from_edges([[2, 0], [0, 3], [3, 1]])
        assert orbit_equivalence_test(spec, H, path, relabeled)

    def test_truncation_rejected(self):
        spec = KernelSpec(Heat(1.0), truncation=3)
        with pytest.raises(ValueError, match="strictly positive"):
            orbit_equivalence_test(spec, PermSubgroup.full(4), U4.empty_code(), U4.empty_code())

    def test_vanishing_custom_density_rejected(self):
        spec = KernelSpec(CustomPhi(lambda lam: 1.0 if lam < 0.5 else 0.0))
        with pytest.raises(ValueError, match="strictly positive"):
            orbit_equivalence_test(spec, PermSubgroup.full(4), U4.empty_code(), U4.empty_code())


class TestProjectFunction:
    def test_result_constant_on_orbits_and_idempotent(self, rng):
        H = PermSubgroup.full(4)
        values = rng.standard_normal(1 << U4.d)
        projected = project_function(H, U4, values)
        quotient = build_quotient(H, U4)
        for cls in quotient.classes:
            member_vals = projected[
                [v for v in range(1 << U4.d) if quotient.class_of[v] == quotient.class_of[cls.canonical.bits]]
            ]
            assert np.ptp(member_vals) <= 1e-12
        again = project_function(H, U4, projected)
        assert np.allclose(again, projected, atol=1e-12)

    def test_orbit_constant_fixed_point(self, rng):
        H = PermSubgroup.full(3)
        quotient = build_quotient(H, U3)
        class_values = rng.standard_normal(quotient.num_classes)
        values = class_values[quotient.class_of]
        assert np.allclose(project_function(H, U3, values), values, atol=1e-14)

    def test_indicator_spreads_over_orbit(self):
        H = PermSubgroup.full(3)
        x = U3.code_from_edges([[0, 1]])
        values = np.zeros(8)
        values[x.bits] = 1.0
        projected = project_function(H, U3, values)
        orbit = enumerate_orbit(H, x)
        for member in orbit.members:
            assert projected[member.bits] == pytest.approx(1.0 / orbit.size)
        assert projected.sum() == pytest.approx(values.sum())

    def test_zero_orbit_sums_project_to_zero(self):
        H = PermSubgroup.full(3)
        orbit = enumerate_orbit(H, U3.code_from_edges([[0, 1]]))
        values = np.zeros(8)
        values[orbit.members[0].bits] = 1.0
        values[orbit.members[1].bits] = -1.0
        assert np.allclose(project_function(H, U3, values), 0.0, atol=1e-14)

    def test_sampled_variant_needs_seed_and_is_deterministic(self, rng):
        H = PermSubgroup.full(4)
        values = rng.standard_normal(1 << U4.d)
        with pytest.raises(ValueError, match="seed"):
            project_function(H, U4, values, sample_size=4)
        a = project_function(H, U4, values, sample_size=4, seed=3)
        b = project_function(H, U4, values, sample_size=4, seed=3)
        assert np.array_equal(a, b)

    def test_sampled_memory_does_not_grow_with_the_sample(self):
        # a sample is one step of sample_size rows: combined as they are gathered, not held all at once
        U6 = GraphSpace(GraphSpaceKind.UNDIRECTED, 6)  # d = 15: each gathered array is 256 KB
        values = np.random.default_rng(0).standard_normal(1 << U6.d)
        tracemalloc.start()
        try:
            project_function(PermSubgroup.full(6), U6, values, sample_size=400, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # 400 arrays held at once peaked at 214 MB

    def test_cap_refusal(self, rng):
        H = PermSubgroup.full(8)
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 8)  # d = 28 > cap as well
        with pytest.raises(ValueError):
            project_function(H, space, np.zeros(4))


#: The exact projection sums |H| values per code in another order than one element at a time.
PROJECTION_RTOL = 1e-13

CHAIN_CASES = [
    (U4, PermSubgroup.full(4)),
    (U4, PermSubgroup(4, ((0, 1), (2, 3)))),
    (GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 3), PermSubgroup.full(3)),
    (GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 4), PermSubgroup(4, ((0, 3), (1, 2)))),
    (GraphSpace(GraphSpaceKind.DIRECTED, 3), PermSubgroup.full(3)),
    (GraphSpace(GraphSpaceKind.DIRECTED, 3), PermSubgroup(3, ((0, 2), (1,)))),
    (GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3), PermSubgroup(3, ((0, 1, 2),))),
    (GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3), PermSubgroup.trivial(3)),
]


class TestChainAgainstEnumeration:
    """Quotients, projections and orbits walk H's stabilizer chain; these check them against all of H."""

    @pytest.mark.parametrize("space,H", CHAIN_CASES)
    def test_quotient_canonicals_are_least_images(self, space, H):
        quotient = build_quotient(H, space)
        canonical = np.array([c.canonical.bits for c in quotient.classes])[quotient.class_of]
        assert np.array_equal(canonical, orbit_labels_by_enumeration(H, space))

    @pytest.mark.parametrize("space,H", CHAIN_CASES)
    def test_projection_is_the_mean_over_the_group(self, rng, space, H):
        values = rng.standard_normal(1 << space.d)
        want = projection_by_enumeration(H, space, values)
        assert np.abs(project_function(H, space, values) - want).max() <= PROJECTION_RTOL * np.abs(values).max()

    def test_orbit_tools_never_enumerate_the_group(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("orbit tools and Grams walk the stabilizer chain, not H's elements")

        H, U5 = PermSubgroup.full(5), GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        monkeypatch.setattr(PermSubgroup, "elements", refuse)
        for cached in (invariance._distinct_images, _group_counts, pair_histogram, orbit_representative):
            cached.cache_clear()  # so nothing below is served from an earlier test's build
        quotient = build_quotient(H, U5)
        assert quotient.num_classes == 34  # graphs on 5 unlabelled nodes
        values = rng.standard_normal(1 << U5.d)
        class_means = np.bincount(quotient.class_of, weights=values) / quotient.sizes()
        np.testing.assert_allclose(project_function(H, U5, values), class_means[quotient.class_of], atol=1e-13)
        x = U5.code_from_edges([[0, 1], [1, 2], [3, 4]])
        orbit = enumerate_orbit(H, x)
        members = np.flatnonzero(quotient.class_of == quotient.class_index(x))
        assert [m.bits for m in orbit.members] == members.tolist()
        assert orbit.canonical == quotient.classes[quotient.class_index(x)].canonical
        spec = KernelSpec(Heat(2.0))
        xs, ys = sparse_codes(U5, rng, 4, density=0.4), sparse_codes(U5, rng, 3, density=0.4)
        exact = ProjectedKernel(spec, H, U5)
        square = exact.gram(xs)
        np.testing.assert_allclose(exact.diag(xs), np.diag(square), rtol=1e-12)
        assert np.array_equal(exact.tuning_counts(xs)(kernel_profile(spec, U5.d))[0], square)
        cross = exact.gram(xs, ys)
        np.testing.assert_allclose(cross[0, 0], invariant_kernel_exact(spec, H, xs[0], ys[0]), rtol=1e-12)
        assert pair_histogram(H, xs[1], ys[1]).sum() == H.order()
        sampled = ProjectedKernel.monte_carlo(spec, H, U5, sample_size=4, seed=0)
        assert sampled.gram(xs, ys).shape == (4, 3)  # through orbit_representative


class TestProjectedKernelObject:
    def test_exact_gram(self, rng):
        H = PermSubgroup.full(4)
        spec = matern_u4()
        kernel = ProjectedKernel(spec, H, U4)
        xs = [U4.random_code(rng) for _ in range(5)]
        assert np.allclose(kernel.gram(xs), invariant_gram_exact(spec, H, xs))

    def test_monte_carlo_keeps_sample_across_with_spec(self, rng):
        H = PermSubgroup.full(4)
        kernel = ProjectedKernel.monte_carlo(matern_u4(), H, U4, sample_size=6, seed=1)
        xs = [U4.random_code(rng) for _ in range(4)]
        K1 = kernel.gram(xs)
        kernel2 = kernel.with_spec(matern_u4(variance=2.0))
        assert kernel2.sample == kernel.sample
        assert np.allclose(kernel2.gram(xs), 2.0 * K1)

    def test_equal_samples_are_one_object(self):
        # so that cache keys holding the sample match by identity, not permutation by permutation
        H = PermSubgroup.full(4)
        first, again = (ProjectedKernel.monte_carlo(matern_u4(), H, U4, sample_size=6, seed=3) for _ in range(2))
        assert first.sample is again.sample
        assert ProjectedKernel(matern_u4(), H, U4, sample=list(first.sample)).sample is first.sample
        assert first.sample is not ProjectedKernel.monte_carlo(matern_u4(), H, U4, sample_size=6, seed=4).sample


U11 = GraphSpace(GraphSpaceKind.UNDIRECTED, 11)  # |S_11| is above 2^21; its sparse codes' orbits are not
#: Graphs of at most three edges on U11, with orbits of 1 to 6,930 members under S_11.
SPARSE_U11_EDGES = (
    [],
    [[0, 1]],
    [[0, 1], [2, 3]],
    [[0, 1], [1, 2]],
    [[0, 1], [1, 2], [0, 2]],
    [[0, 1], [1, 2], [2, 3]],
    [[0, 1], [0, 2], [0, 3]],
    [[0, 1], [2, 3], [4, 5]],
)
U12 = GraphSpace(GraphSpaceKind.UNDIRECTED, 12)
BLOCKS_12 = PermSubgroup(12, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)))  # d = 66 > 64, |H| = 1296
DL8 = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 8)
BLOCKS_8 = PermSubgroup(8, ((0, 1, 2), (3, 4, 5), (6, 7)))  # d = 64, exactly one full word; |H| = 72


def sparse_codes(space, rng, count, density=0.2):
    """Random graphs with about ``density`` of the edge slots set, like molecules."""
    out = []
    for _ in range(count):
        bits = sum(1 << s for s in range(space.d) if rng.random() < density)
        out.append(space.code_from_int(bits))
    return out


class TestTuningGram:
    """The tuning Gram's pullback g of a symmetric W (from the function ``tuning_counts`` returns)
    satisfies g @ q == <W, Gram at q> for any profile q."""

    @pytest.mark.parametrize("flavour", ["isotropic", "exact", "monte_carlo"])
    def test_pullback_contracts_like_the_gram(self, rng, flavour):
        spec = KernelSpec(Heat(4.0), variance=1.3)
        xs = sparse_codes(U12, rng, 10, density=0.3)
        q = rng.standard_normal(U12.d + 1)
        if flavour == "isotropic":
            kernel = IsotropicKernel(spec, U12)
            gram_q = q[spaces.pairwise_hamming(xs)]
        else:
            if flavour == "exact":
                kernel = ProjectedKernel(spec, BLOCKS_12, U12)
                stored = _group_counts(BLOCKS_12, (tuple(xs), None))
            else:
                kernel = ProjectedKernel.monte_carlo(spec, BLOCKS_12, U12, sample_size=5, seed=2)
                reps = tuple(orbit_representative(BLOCKS_12, x) for x in xs)
                stored = invariance._counts(kernel.sample, reps, None)
            rows, cols = np.divmod(stored.pair, len(xs))
            assert stored.square and (rows <= cols).all()  # square counts hold each unordered pair once
            counts = dense_counts(stored, U12.d + 1)
            gram_q = counts @ q[: counts.shape[2]]
        W = rng.standard_normal((len(xs), len(xs)))
        W += W.T
        K, pullback = kernel.tuning_counts(xs)(kernel_profile(spec, U12.d))
        assert np.array_equal(K, kernel.gram(xs))
        g = pullback(W)
        assert g.shape == (U12.d + 1,)
        assert abs(q @ g - np.vdot(W, gram_q)) <= 1e-12 * abs(np.vdot(W, gram_q))


class TestSquareCounts:
    """Square counts hold each unordered pair once, so a square Gram is one contraction of them
    plus its transpose."""

    @pytest.mark.parametrize("flavour", ["exact", "monte_carlo"])
    def test_square_gram_is_symmetric_and_equals_the_cross_build(self, rng, flavour):
        # the cross build bins every ordered pair; the square one bins each unordered pair once
        spec = KernelSpec(Heat(4.0), variance=1.3)
        if flavour == "exact":
            kernel = ProjectedKernel(spec, BLOCKS_12, U12)
        else:
            kernel = ProjectedKernel.monte_carlo(spec, BLOCKS_12, U12, sample_size=16, seed=2)
        codes = sparse_codes(U12, rng, 97)
        for xs in (codes[:96], codes):  # 97: a BLAS matrix-vector product rounds its tail rows apart
            K = kernel.gram(xs)
            assert np.array_equal(K, K.T)
            assert np.array_equal(K, kernel.gram(xs, xs))
            assert np.array_equal(K.diagonal(), kernel.diag(xs))

    def test_tuning_builds_no_triangle(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a square Gram adds its transpose; nothing takes a triangle")

        monkeypatch.setattr(np, "triu", refuse)
        xs = sparse_codes(U12, rng, 12, density=0.3)
        ys = rng.standard_normal(len(xs))
        spec = KernelSpec(Heat(4.0))
        for kernel in (
            ProjectedKernel(spec, BLOCKS_12, U12),
            ProjectedKernel.monte_carlo(spec, BLOCKS_12, U12, sample_size=4, seed=1),
        ):
            assert gp.optimize_hyperparameters(kernel, xs, ys, budget=10).evaluations > 1


DEMO05_LAYOUT = datasets.TypeAlignedLayout(tuple((e, 3) for e in ("C", "N", "O", "Cl")))  # U12, |H| = 1296


def traced_build(build):
    """(bytes the result holds, tracemalloc peak) of one call of ``build``."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held, peak


class TestCountMemory:
    """Counts keep only their nonzeros (3-6% of the dense (n, m, top) tensor on molecules), and no
    build allocates that tensor."""

    def test_exact_counts_hold_at_most_30_percent_of_the_dense_tensor(self):
        H = datasets.subgroup_from_layout(DEMO05_LAYOUT)
        xs = tuple(datasets.encode(m, DEMO05_LAYOUT) for m in molecules_like_demo05(200))
        assert H.order() == 1296
        invariance._sides(H, xs, xs, spaces.code_words(xs))  # half-orbits cached first, as in a tuning run
        held, _ = traced_build(lambda: invariance._counts(H, xs, None))
        assert held <= 0.3 * len(xs) ** 2 * invariance._distance_top(xs, xs) * 8

    def test_monte_carlo_square_build_peaks_below_the_dense_tensor(self):
        H = datasets.subgroup_from_layout(DEMO05_LAYOUT)
        sample = draw_sample(H, 16, 0)
        xs = tuple(orbit_representative(H, datasets.encode(m, DEMO05_LAYOUT)) for m in molecules_like_demo05(96))
        invariance._counts(sample, xs, None)  # images cached, as at every tuning evaluation after the first
        _, peak = traced_build(lambda: invariance._counts(sample, xs, None))
        assert peak < len(xs) ** 2 * invariance._distance_top(xs, xs) * 8


class TestCountTensorGram:
    """Exact projected Grams from the cached count tensor vs one pair histogram per entry."""

    @pytest.mark.parametrize("space,H", [(U4, PermSubgroup.full(4)), (U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_square_and_cross_match_pair_loop(self, rng, space, H):
        spec = KernelSpec(Heat(float(np.sqrt(space.d))), variance=1.7)
        xs = sparse_codes(space, rng, 7)
        ys = sparse_codes(space, rng, 5)
        np.testing.assert_allclose(
            invariant_gram_exact(spec, H, xs), exact_gram_by_pairs(spec, H, xs), rtol=1e-12
        )
        np.testing.assert_allclose(
            invariant_gram_exact(spec, H, xs, ys), exact_gram_by_pairs(spec, H, xs, ys), rtol=1e-12
        )
        np.testing.assert_allclose(
            invariant_gram_exact(spec, H, xs, xs), invariant_gram_exact(spec, H, xs), rtol=1e-12
        )

    def test_square_is_exactly_symmetric(self, rng):
        xs = sparse_codes(U12, rng, 9, density=0.3)
        for spec in (KernelSpec(Heat(3.0)), matern_spec(U12.d, kappa=2.0, variance=0.6)):
            K = invariant_gram_exact(spec, BLOCKS_12, xs)
            assert np.array_equal(K, K.T)

    def test_empty_code_lists(self, rng):
        spec = KernelSpec(Heat(1.0))
        xs = sparse_codes(U4, rng, 3)
        H = PermSubgroup.full(4)
        assert invariant_gram_exact(spec, H, []).shape == (0, 0)
        assert invariant_gram_exact(spec, H, [], xs).shape == (0, 3)
        assert invariant_gram_exact(spec, H, xs, []).shape == (3, 0)

    def test_mixed_spaces_rejected(self):
        U5 = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        spec, H = KernelSpec(Heat(1.0)), PermSubgroup.full(4)
        with pytest.raises(ValueError, match="spaces"):
            invariant_gram_exact(spec, H, [U4.code_from_int(3)], [U5.code_from_int(3)])

    def test_diag_matches_gram_diagonal(self, rng):
        spec = KernelSpec(Heat(2.0), variance=1.3)
        xs = sparse_codes(U12, rng, 10, density=0.3)
        exact = ProjectedKernel(spec, BLOCKS_12, U12)
        mc = ProjectedKernel.monte_carlo(spec, BLOCKS_12, U12, sample_size=6, seed=3)
        for kernel in (exact, mc):
            assert np.array_equal(kernel.diag(xs), np.diag(kernel.gram(xs)))
            assert kernel.diag([]).shape == (0,)

    def test_diag_leaves_the_count_cache_alone(self, rng):
        # a per-point diagonal through the cache would evict the training tensors
        spec = KernelSpec(Heat(2.0))
        xs = sparse_codes(U12, rng, 10, density=0.3)
        exact = ProjectedKernel(spec, BLOCKS_12, U12)
        mc = ProjectedKernel.monte_carlo(spec, BLOCKS_12, U12, sample_size=6, seed=3)
        before = _group_counts.cache_info()
        for kernel in (exact, mc):
            kernel.diag(xs)
        assert _group_counts.cache_info() == before

    def test_one_tuning_run_builds_the_counts_once(self, rng):
        # the octave-spaced restarts of run_experiment, all on one split
        xs = sparse_codes(U12, rng, 12, density=0.3)
        ys = rng.standard_normal(len(xs))
        _group_counts.cache_clear()  # an earlier test may have built these very counts
        evaluations = 0
        for kappa in (2.0, 4.0, 8.0):
            kernel = ProjectedKernel(KernelSpec(Heat(kappa)), BLOCKS_12, U12)
            evaluations += gp.optimize_hyperparameters(kernel, xs, ys, budget=30, normalize_y=True).evaluations
        assert evaluations > 10
        assert _group_counts.cache_info().misses == 1

    def test_monte_carlo_tuning_builds_counts_once_per_evaluation(self, rng, monkeypatch):
        builds = []
        original = invariance._distance_counts

        def counted(images, targets, top, square):
            builds.append(len(images))
            return original(images, targets, top, square)

        monkeypatch.setattr(invariance, "_distance_counts", counted)
        xs = sparse_codes(U12, rng, 12, density=0.3)
        kernel = ProjectedKernel.monte_carlo(KernelSpec(Heat(4.0)), BLOCKS_12, U12, sample_size=4, seed=1)
        result = gp.optimize_hyperparameters(kernel, xs, rng.standard_normal(len(xs)), budget=15)
        assert len(builds) == result.evaluations > 1

    def test_monte_carlo_evaluations_fetch_no_per_run_inputs(self, rng, monkeypatch):
        # images, target words and the distance axis are fetched when the run is set up
        xs = sparse_codes(U12, rng, 12, density=0.3)
        kernel = ProjectedKernel.monte_carlo(KernelSpec(Heat(4.0)), BLOCKS_12, U12, sample_size=4, seed=1)
        expected = kernel.gram(xs)
        gram_at = kernel.tuning_counts(xs)
        calls = []
        for name in ("_distinct_images", "code_words", "_distance_top"):
            real = getattr(invariance, name)
            monkeypatch.setattr(invariance, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        profile = kernel_profile(kernel.spec, U12.d)
        for _ in range(3):
            K, pullback = gram_at(profile)
            pullback(np.eye(len(xs)))
        assert calls == []
        assert np.array_equal(K, expected)

    def test_cache_stays_within_its_size(self, rng, monkeypatch):
        spec = KernelSpec(Heat(1.0))
        H = PermSubgroup.full(4)
        assert _group_counts.cache_info().maxbytes == invariance.CACHE_BYTES
        monkeypatch.setattr(_group_counts, "maxbytes", 4 * invariance.ENTRY_BYTES)
        _group_counts.cache_clear()
        for k in range(13):
            invariant_gram_exact(spec, H, sparse_codes(U4, rng, 3 + k % 4))
            assert _group_counts.cache_info().bytes <= 4 * invariance.ENTRY_BYTES
        assert 0 < _group_counts.cache_info().currsize < 4


def stabilized_codes(space, H):
    """The empty and complete graphs and a graph fixed by all of H's first block (big stabilizers)."""
    block = H.blocks[0]
    fixed = {space.slot_of(i, j) for i in block for j in (*block, 3) if i != j}
    complete = space.code_from_int((1 << space.d) - 1)
    return [space.empty_code(), complete, space.code_from_int(sum(1 << s for s in fixed))]


class TestDistinctImages:
    """Counts over each code's distinct orbit images equal the counts over all of H, bit for bit."""

    @pytest.mark.parametrize("space,H", [(U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_grams_and_diagonal_equal_counts_over_the_whole_group(self, rng, space, H):
        xs = stabilized_codes(space, H) + sparse_codes(space, rng, 3)
        ys = sparse_codes(space, rng, 2) + stabilized_codes(space, H)[::-1]
        spec = KernelSpec(Heat(2.0), variance=1.3)
        profile = kernel_profile(spec, space.d)
        top = space.d + 1  # the complete graph lies at distance d from the empty one
        square = group_counts_by_enumeration(H, xs, xs, top)
        cross = group_counts_by_enumeration(H, xs, ys, top)
        assert np.array_equal(dense_counts(_group_counts(H, (tuple(xs), None)), top), square)
        assert np.array_equal(dense_counts(_group_counts(H, (tuple(xs), tuple(ys))), top), cross)

        for ys_, counts in ((None, square), (ys, cross)):
            expect = invariance._contract_counts(count_triples(counts), profile)
            assert np.array_equal(invariant_gram_exact(spec, H, xs, ys_), expect)
        own = count_triples(np.stack([square[i, i] for i in range(len(xs))]))
        assert np.array_equal(ProjectedKernel(spec, H, space).diag(xs), invariance._contract_counts(own, profile))

    @pytest.mark.parametrize("space,H", [(U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_counts_over_sample_pairs_equal_those_over_s_times_s(self, rng, space, H):
        draws = draw_sample(H, 5, 7)
        sample = (*draws, draws[0], NodePermutation.identity(space.n))  # a repeat and the identity
        xs = [orbit_representative(H, x) for x in stabilized_codes(space, H) + sparse_codes(space, rng, 3)]
        ys = sparse_codes(space, rng, 2) + stabilized_codes(space, H)[::-1]
        assert any((invariance._distinct_images(sample, x)[1] > 1).any() for x in xs)
        top = space.d + 1
        square = sample_counts_by_enumeration(sample, xs, xs, top)
        assert np.array_equal(dense_counts(invariance._counts(sample, tuple(xs), None), top), square)
        cross = sample_counts_by_enumeration(sample, xs, ys, top)
        assert np.array_equal(dense_counts(invariance._counts(sample, tuple(xs), tuple(ys)), top), cross)
        spec = KernelSpec(Heat(2.0), variance=1.3)
        own = count_triples(np.stack([square[i, i] for i in range(len(xs))]))
        kernel = ProjectedKernel(spec, H, space, sample=sample)
        assert np.array_equal(kernel.diag(xs), invariance._contract_counts(own, kernel_profile(spec, space.d)))

    @pytest.mark.parametrize("space,H", [(U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_pair_histogram_counts_over_the_whole_group(self, space, H):
        codes = stabilized_codes(space, H)
        for x in codes:
            images, _ = invariance._distinct_images(H, x)
            assert len(images) == enumerate_orbit(H, x, keep_members=False).size
            assert np.array_equal(spaces.code_words(enumerate_orbit(H, x).members), images)
            for y in codes:
                hist = pair_histogram(H, x, y)
                assert hist.sum() == H.order()
                assert np.array_equal(hist / H.order(), group_counts_by_enumeration(H, [x], [y], space.d + 1)[0, 0])


def on_blocks(n, blocks):
    """The product of symmetric groups on ``blocks``, every other node fixed."""
    fixed = set(range(n)).difference(*blocks)
    return PermSubgroup(n, (*blocks, *((v,) for v in fixed)))


class TestSquareBinning:
    """A square build bins each pair {i, j} once, from its cheaper side, and keeps that one run of
    triples, at i <= j."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sample"])
    def test_each_pair_is_binned_from_its_smaller_side(self, rng, monkeypatch, sampled):
        source = (*draw_sample(BLOCKS_12, 5, 7), NodePermutation.identity(12)) if sampled else BLOCKS_12
        xs = tuple(sparse_codes(U12, rng, 5) + stabilized_codes(U12, BLOCKS_12))  # large orbits first
        if sampled:  # rows: the distinct S^-1 S images; columns: the codes themselves
            rows, cols = [len(invariance._distinct_images(source, x)[0]) for x in xs], [1] * len(xs)
        else:  # rows: the H_B half-orbits, columns: the H_A half-orbits, by closure
            A, B = on_blocks(12, BLOCKS_12.blocks[:2]), on_blocks(12, BLOCKS_12.blocks[2:])
            rows, cols = [len(orbit_by_closure(B, x)) for x in xs], [len(orbit_by_closure(A, x)) for x in xs]
        assert min(rows) == 1 and max(r * c for r, c in zip(rows, cols)) > 20
        work = []
        real = invariance.word_distances

        def recorded(words, targets):
            work.append(len(words) * len(targets))
            return real(words, targets)

        monkeypatch.setattr(invariance, "word_distances", recorded)
        counts = invariance._counts(source, xs, None)
        n, top = len(xs), U12.d + 1
        assert sum(work) == sum(min(rows[i] * cols[j], rows[j] * cols[i]) for i in range(n) for j in range(i, n))
        if not sampled:
            assert invariance._halves(BLOCKS_12) == (A, B)

        enumerate_counts = sample_counts_by_enumeration if sampled else group_counts_by_enumeration
        assert np.array_equal(dense_counts(counts, top), enumerate_counts(source, xs, xs, top))

        # each unordered pair once (dense_counts refuses a repeated (pair, dist)), at i <= j, in one
        # run by distance; the diagonal's shares halved
        assert counts.square
        rows, cols = np.divmod(counts.pair, n)
        assert (rows <= cols).all()
        keys = counts.pair * top + counts.dist
        same = np.diff(counts.pair) == 0
        assert len(same) - same.sum() + 1 == len(np.unique(counts.pair))
        assert (np.diff(counts.dist)[same] > 0).all()
        own = invariance._own_counts(*invariance._sides(source, xs, xs, spaces.code_words(xs)), top)
        diagonal = np.flatnonzero(rows == cols)
        diagonal = diagonal[np.argsort(keys[diagonal], kind="stable")]
        assert np.array_equal(counts.pair[diagonal], own.pair * (n + 1))
        assert np.array_equal(counts.dist[diagonal], own.dist)
        assert np.array_equal(counts.share[diagonal], own.share / 2)

    @pytest.mark.parametrize("bitwise_count", [True, False], ids=["bitwise_count", "swar"])
    def test_gram_on_four_word_codes_matches_enumeration(self, rng, monkeypatch, bitwise_count):
        # d = 256: the empty and complete graphs lie at distance 256, beyond a uint8
        if not bitwise_count:
            monkeypatch.setattr(spaces, "_bitwise_count", None)
        DL16 = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 16)
        H = PermSubgroup(16, ((0, 1, 2), (3, 4), *((v,) for v in range(5, 16))))
        xs = [DL16.empty_code(), DL16.code_from_int((1 << DL16.d) - 1), *sparse_codes(DL16, rng, 3, density=0.05)]
        top = DL16.d + 1
        oracle = group_counts_by_enumeration(H, xs, xs, top)
        assert oracle[0, 1, 256] == 1.0
        assert np.array_equal(dense_counts(invariance._counts(H, tuple(xs), None), top), oracle)
        spec = KernelSpec(Heat(8.0))
        np.testing.assert_allclose(
            ProjectedKernel(spec, H, DL16).gram(xs), exact_gram_by_pairs(spec, H, xs), rtol=1e-12
        )


#: Product groups whose halves H_A x H_B split unevenly, with singleton blocks, over every kind
#: of space, each with a code that couples a block of H_A to a block of H_B by a matching, so
#: that its stabilizer holds (a b)(c e) but neither (a b) nor (c e): not Stab_A x Stab_B.
HALF_CASES = [
    (GraphSpace(GraphSpaceKind.UNDIRECTED, 7), ((0, 1, 2), (3, 4), (5, 6)), [[0, 3], [1, 4]]),
    (GraphSpace(GraphSpaceKind.UNDIRECTED_LOOPS, 7), ((0, 1, 2, 3), (4, 5, 6)), [[0, 4], [1, 5], [2, 2], [3, 3]]),
    (GraphSpace(GraphSpaceKind.DIRECTED, 9), ((0, 1, 2), (3, 4, 5), (6, 7, 8)), [[0, 6], [1, 7]]),
    (
        GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 12),  # d = 144, three words
        ((0, 1), (2, 3), (4, 5), (6, 7, 8), (9, 10), (11,)),
        [[6, 0], [7, 1], [11, 11]],
    ),
]


class TestHalfOrbits:
    """Exact counts from x's H_B half-orbit against y's H_A half-orbit equal those over all of H."""

    @pytest.mark.parametrize("space,blocks,coupling", HALF_CASES, ids=["U7", "UL7", "D9", "DL12"])
    def test_halves_are_as_even_as_the_blocks_allow(self, space, blocks, coupling):
        H = PermSubgroup(space.n, blocks)
        A, B = invariance._halves(H)
        assert A.order() * B.order() == H.order() and A.order() >= B.order()
        moving = [b for b in H.blocks if len(b) > 1]
        assert sorted(b for G in (A, B) for b in G.blocks if len(b) > 1) == sorted(moving)
        orders = {math.prod(math.factorial(len(b)) for b in chosen) for k in range(len(moving) + 1)
                  for chosen in itertools.combinations(moving, k)}
        assert A.order() == min(max(o, H.order() // o) for o in orders)

    @pytest.mark.parametrize("batch_rows", [None, 4], ids=["one_batch", "split_batches"])
    @pytest.mark.parametrize("space,blocks,coupling", HALF_CASES, ids=["U7", "UL7", "D9", "DL12"])
    def test_counts_and_diagonal_equal_enumeration(self, rng, monkeypatch, space, blocks, coupling, batch_rows):
        if batch_rows:  # every step of a batched walk split between its codes, each gathered in chunks
            monkeypatch.setattr(invariance, "ORBIT_BATCH_ROWS", batch_rows)
        H = PermSubgroup(space.n, blocks)
        A, B = invariance._halves(H)
        coupled = space.code_from_edges(coupling)
        assert len(orbit_by_closure(H, coupled)) < len(orbit_by_closure(A, coupled)) * len(orbit_by_closure(B, coupled))
        xs = [coupled, space.empty_code(), *sparse_codes(space, rng, 5, density=0.3), coupled]
        xs.append(space.code_from_int((1 << space.d) - 1))
        ys = sparse_codes(space, rng, 3, density=0.3) + [coupled]
        codes = list(dict.fromkeys(xs + ys))
        invariance._distinct_images.cache_clear()
        for G in (A, B):  # each side's images are x's half-orbit, |Stab| node maps each, grown in one walk
            for x, (words, mult) in zip(codes, invariance._distinct_images.many(G, codes)):
                assert np.array_equal(words, invariance._orbit_words(G, spaces.code_words([x]), space)[0])
                assert set(spaces.decode_words(words)) == {c.bits for c in orbit_by_closure(G, x)}
                assert mult * len(words) == G.order()
        top = space.d + 1
        square = group_counts_by_enumeration(H, xs, xs, top)
        assert np.array_equal(dense_counts(invariance._counts(H, tuple(xs), None), top), square)
        cross = group_counts_by_enumeration(H, xs, ys, top)
        assert np.array_equal(dense_counts(invariance._counts(H, tuple(xs), tuple(ys)), top), cross)
        spec = KernelSpec(Heat(2.0), variance=1.3)
        own = count_triples(np.stack([square[i, i] for i in range(len(xs))]))
        expect = invariance._contract_counts(own, kernel_profile(spec, space.d))
        assert np.array_equal(ProjectedKernel(spec, H, space).diag(xs), expect)

    @pytest.mark.parametrize(
        "space,H",
        [(U4, PermSubgroup.full(4)), (GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 5), PermSubgroup(5, ((1, 2, 4), (0,), (3,))))],
    )
    def test_one_block_gives_whole_orbits_against_the_codes(self, rng, space, H):
        A, B = invariance._halves(H)
        assert (A, B) == (H, PermSubgroup.trivial(space.n))
        for x in sparse_codes(space, rng, 6, density=0.4):
            words, mult = invariance._distinct_images(A, x)
            orbit = enumerate_orbit(H, x)
            assert np.array_equal(words, spaces.code_words(orbit.members)) and mult == H.order() // orbit.size
            words, mult = invariance._distinct_images(B, x)
            assert np.array_equal(words, spaces.code_words([x])) and mult == 1.0

    def test_pairs_above_the_cap_bin_whole_orbits_against_the_codes(self, monkeypatch):
        space, H = HALF_CASES[0][0], PermSubgroup(7, HALF_CASES[0][1])  # U7, H_A = S3, H_B = S2 x S2
        A, B = invariance._halves(H)
        assert (A.order(), B.order()) == (6, 4)
        only_b, only_a = space.code_from_edges([[3, 5], [5, 6]]), space.code_from_edges([[0, 1]])
        xs = [only_b, only_a, space.empty_code(), only_b]
        sizes = {x: (len(orbit_by_closure(B, x)), len(orbit_by_closure(A, x)), len(orbit_by_closure(H, x))) for x in xs}
        assert sizes[only_b][0] * sizes[only_a][1] == 12 and max(whole for *_, whole in sizes.values()) == 4
        # the halves' image pairs (4 x 3) above the cap; every whole-orbit chain step (4 rows) under it
        monkeypatch.setattr(invariance, "ENUMERATION_CAP", 8)
        monkeypatch.setattr(invariance, "ORBIT_BATCH_ROWS", 1)
        invariance._distinct_images.cache_clear()
        rows, columns = invariance._sides(H, xs, xs, spaces.code_words(xs))
        assert [len(words) for words, _ in rows] == [sizes[x][2] for x in xs] and {len(w) for w, _ in columns} == {1}
        top = space.d + 1
        for ys in (None, xs[1:]):
            oracle = group_counts_by_enumeration(H, xs, xs if ys is None else ys, top)
            assert np.array_equal(dense_counts(invariance._counts(H, tuple(xs), ys and tuple(ys)), top), oracle)
        spec = KernelSpec(Heat(2.0))
        np.testing.assert_array_equal(ProjectedKernel(spec, H, space).diag(xs), np.diag(ProjectedKernel(spec, H, space).gram(xs)))

    def test_coupled_and_one_sided_codes_on_u16_are_accepted(self):
        # S8 x S8 on U16: a perfect matching i - 8+i has half-orbits of 8! each (40,320^2 image
        # pairs, above the cap) but a whole orbit of 8!, the matchings i - 8+p(i); a code on H_B's
        # nodes alone against one on H_A's nodes alone likewise
        U16 = GraphSpace(GraphSpaceKind.UNDIRECTED, 16)
        H = PermSubgroup(16, (tuple(range(8)), tuple(range(8, 16))))
        spec = KernelSpec(Heat(1.0))
        kernel, profile = ProjectedKernel(spec, H, U16), kernel_profile(spec, U16.d)
        matching = U16.code_from_edges([[i, 8 + i] for i in range(8)])
        A, B = invariance._halves(H)
        assert [len(invariance._distinct_images(G, matching)[0]) for G in (A, B)] == [40_320, 40_320]
        # the matching of a permutation p with f fixed points lies at distance 2 (8 - f) from this one
        derangements = [1, 0]
        for n in range(2, 9):
            derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
        fixed = np.array([math.comb(8, f) * derangements[8 - f] for f in range(9)])  # permutations by f
        assert fixed.sum() == math.factorial(8)
        own = fixed @ profile[2 * (8 - np.arange(9))] / math.factorial(8)
        gram = kernel.gram([matching, U16.empty_code()])
        np.testing.assert_allclose(gram, [[own, profile[8]], [profile[8], profile[0]]], rtol=1e-12)
        assert kernel.diag([matching])[0] == gram[0, 0]
        rng = np.random.default_rng(3)
        only_b = U16.code_from_edges([[i, j] for i in range(8, 16) for j in range(i + 1, 16) if rng.random() < 0.5])
        only_a = U16.code_from_edges([[i, j] for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.5])
        assert len(invariance._distinct_images(B, only_b)[0]) * len(invariance._distinct_images(A, only_a)[0]) > invariance.ENUMERATION_CAP
        assert kernel.gram([only_b], [only_a])[0, 0] == profile[only_b.weight + only_a.weight]  # disjoint edges

    def test_codes_dense_in_both_halves_refused_before_any_distance(self, monkeypatch):
        U16 = GraphSpace(GraphSpaceKind.UNDIRECTED, 16)  # d = 120
        H = PermSubgroup(16, (tuple(range(8)), tuple(range(8, 16))))  # S8 x S8: halves of 40,320
        xs = sparse_codes(U16, np.random.default_rng(0), 2, density=0.5)

        def refuse(words, targets):
            raise AssertionError("took the distances of a pair above the cap")

        monkeypatch.setattr(invariance, "word_distances", refuse)
        invariance._distinct_images.cache_clear()
        kernel = ProjectedKernel(KernelSpec(Heat(1.0)), H, U16)
        tracemalloc.start()
        try:
            for call in (lambda: kernel.gram(xs), lambda: kernel.gram(xs[:1], xs[1:]), lambda: kernel.diag(xs)):
                with pytest.raises(GroupTooLargeError, match="enumeration cap"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for G in invariance._halves(H):  # each half-orbit grew under the cap: 40,320 rows
            assert [len(invariance._distinct_images(G, x)[0]) for x in xs] == [40_320, 40_320]
        # the halves' image pairs above the cap, each whole orbit (8!^2) refused as it grows: about
        # 87 MB, the last step under the cap held as words; unpacked to bits at once, 268 MB
        assert peak < 128e6


def charge(value) -> int:
    """The bytes a byte-bounded cache counts for one entry: its arrays and the charge per entry."""
    return invariance.ENTRY_BYTES + sum(part.nbytes for part in value if isinstance(part, np.ndarray))


def newest_that_fit(sizes: list[int], budget: int) -> int:
    """How many of the last entries, in insertion order, fit the budget together."""
    kept = 0
    while kept < len(sizes) and sum(sizes[len(sizes) - kept - 1 :]) <= budget:
        kept += 1
    return kept


class TestImageCache:
    """The byte-bounded cache, least recently used out first, on distinct images per (source, code);
    :class:`TestCountCache` runs the same cases on exact counts per (H, (xs, ys))."""

    cache = invariance._distinct_images
    #: two sources, each on U12
    sources = (BLOCKS_12, draw_sample(BLOCKS_12, 6, 2))

    def keys(self, rng, count: int) -> list:
        """``count`` distinct keys, most of them several kB as entries."""
        return sparse_codes(U12, rng, count, density=0.3)

    def small_keys(self, rng) -> list:
        """Keys whose entries are a few hundred bytes of arrays, so the charge per entry dominates."""
        return sparse_codes(U12, rng, 300, density=0.05)

    def test_budget_is_stated(self):
        info = self.cache.cache_info()
        assert info.maxbytes == invariance.CACHE_BYTES > 0 and info.maxsize is None

    def test_filled_past_its_budget_it_holds_the_newest_entries_that_fit(self, rng, monkeypatch):
        cache, budget = self.cache, 100_000
        monkeypatch.setattr(cache, "maxbytes", budget)
        cache.cache_clear()
        keys = self.keys(rng, 40)
        assert len(set(keys)) == len(keys)
        sizes = []
        for k, key in enumerate(keys):
            sizes.append(charge(cache(self.sources[k % 2], key)))
            assert cache.cache_info().bytes <= budget
        assert sum(sizes) > 2 * budget
        kept = newest_that_fit(sizes, budget)
        info = cache.cache_info()
        assert (info.currsize, info.bytes) == (kept, sum(sizes[len(sizes) - kept :]))
        assert (info.hits, info.misses) == (0, len(keys))
        cache.many(self.sources[1], [keys[-1], keys[-1], keys[0]])  # the newest held, the oldest long gone
        assert cache.cache_info()[:2] == (2, len(keys) + 1)

    def test_a_refused_growth_stores_nothing_and_the_budget_still_holds(self, rng, monkeypatch):
        cache, budget = self.cache, 8_000
        monkeypatch.setattr(cache, "maxbytes", budget)
        invariance._distinct_images.cache_clear()  # so that a count build grows images too
        cache.cache_clear()
        keys = self.keys(rng, 20)
        with monkeypatch.context() as capped:  # a refusal on a source the cache has not seen
            capped.setattr(invariance, "ENUMERATION_CAP", 2)
            with pytest.raises(GroupTooLargeError, match="enumeration cap"):
                cache.many(self.sources[0], keys[:3])
        assert cache.cache_info()[1:] == (3, None, 0, 0, budget)
        sizes = []
        for key in keys:  # another source past the budget, evicting as it goes
            sizes.append(charge(cache(self.sources[1], key)))
            assert cache.cache_info().bytes <= budget
        assert sum(sizes) > 2 * budget
        kept = newest_that_fit(sizes, budget)
        assert cache.cache_info()[3:5] == (kept, sum(sizes[len(sizes) - kept :]))

    def test_bytes_counted_cover_the_memory_held(self, rng):
        cache, keys = self.cache, self.small_keys(rng)
        cache.many(BLOCKS_12, keys)  # the chain, and any images a count build needs, built first
        cache.cache_clear()
        tracemalloc.start()
        try:
            cache.many(BLOCKS_12, keys)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held <= cache.cache_info().bytes

    def test_an_entry_above_the_budget_is_returned_uncached(self, rng, monkeypatch):
        cache = self.cache
        monkeypatch.setattr(cache, "maxbytes", 1_000)
        cache.cache_clear()
        key = self.keys(rng, 1)[0]
        value = cache(BLOCKS_12, key)
        assert charge(value) > 1_000 + invariance.ENTRY_BYTES
        assert all(np.array_equal(a, b) for a, b in zip(value, cache.grow(BLOCKS_12, [key])[0], strict=True))
        assert cache.cache_info()[:4] == (0, 1, None, 0)


class TestCountCache(TestImageCache):
    cache = invariance._group_counts
    sources = (BLOCKS_12, PermSubgroup(12, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))))

    def keys(self, rng, count: int) -> list:
        """``count`` keys (xs, ys) of five codes each over a pool of codes, square (ys None) and
        cross by turns."""
        codes = sparse_codes(U12, rng, count + 10, density=0.3)
        return [(tuple(codes[k : k + 5]), None if k % 2 else tuple(codes[k + 5 : k + 10])) for k in range(count)]

    def small_keys(self, rng) -> list:
        codes = sparse_codes(U12, rng, 300, density=0.05)
        return [(tuple(codes[k : k + 2]), None) for k in range(0, 300, 2)]


class TestSampledCountGram:
    """Monte Carlo Grams from the shared count builder vs one S x S block per entry."""

    @pytest.mark.parametrize("space,H", [(U4, PermSubgroup.full(4)), (U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_square_and_cross_match_pair_loop(self, rng, space, H):
        spec = KernelSpec(Heat(float(np.sqrt(space.d))), variance=1.7)
        sample = draw_sample(H, 5, 11)
        xs = sparse_codes(space, rng, 7)
        ys = sparse_codes(space, rng, 5)
        np.testing.assert_allclose(
            invariant_gram_sampled(spec, sample, xs), sampled_gram_by_pairs(spec, sample, xs), rtol=1e-12
        )
        np.testing.assert_allclose(
            invariant_gram_sampled(spec, sample, xs, ys), sampled_gram_by_pairs(spec, sample, xs, ys), rtol=1e-12
        )
        np.testing.assert_allclose(
            invariant_gram_sampled(spec, sample, xs, xs), invariant_gram_sampled(spec, sample, xs), rtol=1e-12
        )

    def test_square_is_exactly_symmetric(self, rng):
        xs = sparse_codes(U12, rng, 9, density=0.3)
        sample = draw_sample(BLOCKS_12, 7, 2)
        for spec in (KernelSpec(Heat(3.0)), matern_spec(U12.d, kappa=2.0, variance=0.6)):
            K = invariant_gram_sampled(spec, sample, xs)
            assert np.array_equal(K, K.T)

    def test_empty_code_lists(self, rng):
        spec = KernelSpec(Heat(1.0))
        xs = sparse_codes(U4, rng, 3)
        sample = draw_sample(PermSubgroup.full(4), 3, 0)
        assert invariant_gram_sampled(spec, sample, []).shape == (0, 0)
        assert invariant_gram_sampled(spec, sample, [], xs).shape == (0, 3)
        assert invariant_gram_sampled(spec, sample, xs, []).shape == (3, 0)

    def test_single_value_is_the_one_by_one_gram(self, rng):
        spec = matern_spec(U12.d, kappa=2.0, variance=0.6)
        sample = draw_sample(BLOCKS_12, 6, 4)
        x, y = sparse_codes(U12, rng, 2, density=0.3)
        assert invariant_kernel_sampled(spec, sample, x, y) == invariant_gram_sampled(spec, sample, [x], [y])[0, 0]

    def test_empty_sample_rejected(self, rng):
        spec = KernelSpec(Heat(1.0))
        xs = sparse_codes(U4, rng, 3)
        with pytest.raises(ValueError, match="at least one"):
            invariant_gram_sampled(spec, (), xs)
        with pytest.raises(ValueError, match="at least one"):
            invariant_gram_sampled(spec, (), xs, xs[:2])
        with pytest.raises(ValueError, match="at least one"):
            ProjectedKernel(spec, PermSubgroup.full(4), U4, sample=()).diag(xs)
        with pytest.raises(ValueError, match="at least one"):
            invariant_kernel_sampled(spec, (), xs[0], xs[1])

    def test_sample_above_the_cap_refused_before_any_build(self):
        # |S|^2 node maps s_b^-1 s_a get a gather index row each
        spec, H = KernelSpec(Heat(1.0)), PermSubgroup.full(4)
        sample = draw_sample(H, math.isqrt(invariance.ENUMERATION_CAP) + 1, 0)
        before = invariance._slot_perms.cache_info().misses
        with pytest.raises(GroupTooLargeError, match="enumeration cap"):
            ProjectedKernel(spec, H, U4, sample=sample)
        with pytest.raises(GroupTooLargeError, match="enumeration cap"):
            invariant_gram_sampled(spec, sample, [U4.empty_code()])
        with pytest.raises(GroupTooLargeError, match="enumeration cap"):
            invariant_kernel_sampled(spec, sample, U4.empty_code(), U4.empty_code())
        assert invariance._slot_perms.cache_info().misses == before
        assert ProjectedKernel(spec, H, U4, sample=sample[:-1]).sample == sample[:-1]


def relabelled(H, xs, rng):
    """Each code relabelled by its own uniform element of H."""
    return [apply_permutation(H.random_element(rng), x) for x in xs]


def in_orbit(H, x, y):
    """Whether y is one of the |H| orbit images of x."""
    return bool(np.all(invariance._distinct_images(H, x)[0] == spaces.code_words([y]), axis=1).any())


class TestOrbitRepresentative:
    """One code per orbit, and Monte Carlo kernels that read only it."""

    @pytest.mark.parametrize("space,H", [(U4, PermSubgroup.full(4)), (U12, BLOCKS_12), (DL8, BLOCKS_8)])
    def test_shared_by_the_orbit_and_in_it(self, rng, space, H):
        for x in sparse_codes(space, rng, 20, density=0.3):
            rep = orbit_representative(H, x)
            assert in_orbit(H, x, rep)
            for y in relabelled(H, [x] * 5, rng):
                assert orbit_representative(H, y) == rep

    @pytest.mark.parametrize(
        "space,H",
        [
            (U4, PermSubgroup.full(4)),
            (GraphSpace(GraphSpaceKind.UNDIRECTED, 5), PermSubgroup(5, ((0, 1, 2), (3, 4)))),
            (GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3), PermSubgroup.full(3)),
        ],
    )
    def test_one_code_per_orbit_over_a_whole_space(self, space, H):
        reps = {x: orbit_representative(H, x) for x in space.all_codes()}
        assert len(set(reps.values())) == build_quotient(H, space).num_classes
        assert all(in_orbit(H, x, rep) for x, rep in reps.items())

    def test_shared_when_refinement_leaves_a_large_residual(self, rng):
        # colour refinement splits {0, 1, 2, 3} from the rest, leaving |S_4 x S_7| = 120,960
        H, x = PermSubgroup.full(11), U11.code_from_edges([[0, 1], [2, 3]])
        reps = {orbit_representative(H, y) for y in relabelled(H, [x] * 20, rng)}
        assert reps == {orbit_representative(H, x)}
        assert reps <= orbit_by_closure(H, x)

    def test_rejects_a_group_on_other_nodes(self):
        with pytest.raises(ValueError, match="does not act"):
            orbit_representative(PermSubgroup.full(5), U4.code_from_int(3))

    @pytest.mark.parametrize("space,H", [(U12, BLOCKS_12), (U11, PermSubgroup.full(11))])
    def test_monte_carlo_kernel_ignores_relabelling(self, rng, space, H):
        kernel = ProjectedKernel.monte_carlo(KernelSpec(Heat(4.0), variance=1.3), H, space, sample_size=5, seed=2)
        # two-edge codes leave a residual S_4 x S_7 or S_2 x S_8 under S_11; each copy is relabelled apart
        two_edges = [space.code_from_edges(edges) for edges in SPARSE_U11_EDGES[2:4]] * 3
        xs, ys = sparse_codes(space, rng, 8, density=0.3) + two_edges, sparse_codes(space, rng, 4, density=0.3)
        gxs, gys = relabelled(H, xs, rng), relabelled(H, ys, rng)
        assert np.array_equal(kernel.gram(gxs), kernel.gram(xs))
        assert np.array_equal(kernel.gram(gxs, gys), kernel.gram(xs, ys))
        assert np.array_equal(kernel.diag(gxs), kernel.diag(xs))
        profile = kernel_profile(kernel.spec, space.d)
        (K_g, pullback_g), (K, pullback) = kernel.tuning_counts(gxs)(profile), kernel.tuning_counts(xs)(profile)
        W = rng.standard_normal((len(xs), len(xs)))
        W += W.T
        assert np.array_equal(K_g, K)
        assert np.array_equal(pullback_g(W), pullback(W))

    def test_monte_carlo_tuning_ignores_relabelling(self, rng):
        kernel = ProjectedKernel.monte_carlo(KernelSpec(Heat(4.0)), BLOCKS_12, U12, sample_size=4, seed=1)
        xs = sparse_codes(U12, rng, 12, density=0.3)
        ys = rng.standard_normal(len(xs))
        a = gp.optimize_hyperparameters(kernel, xs, ys, budget=15)
        b = gp.optimize_hyperparameters(kernel, relabelled(BLOCKS_12, xs, rng), ys, budget=15)
        assert (a.objective, a.kernel.spec, a.noise) == (b.objective, b.kernel.spec, b.noise)


@pytest.mark.parametrize(
    "call",
    [
        lambda H: ProjectedKernel(KernelSpec(Heat(1.0)), H, U4),
        lambda H: build_quotient(H, U4),
        lambda H: enumerate_orbit(H, U4.code_from_int(3)),
        lambda H: project_function(H, U4, np.zeros(64)),
        lambda H: project_function(H, U4, np.zeros(64), sample_size=3, seed=0),
    ],
    ids=["projected_kernel", "build_quotient", "enumerate_orbit", "project_function", "project_function_sampled"],
)
def test_a_group_on_other_nodes_is_refused(call):
    with pytest.raises(ValueError, match="^subgroup on 5 nodes does not act on n=4$"):
        call(PermSubgroup.full(5))


def _package_caches() -> list:
    """Every cache among the attributes of graphgp's modules, once each, named by its attribute
    (and, for an ``lru_cache``, its maxsize)."""
    found = {}
    for module in pkgutil.iter_modules(graphgp.__path__):
        for name, value in vars(importlib.import_module(f"graphgp.{module.name}")).items():
            if isinstance(value, invariance.ByteCache):
                found.setdefault(id(value), pytest.param(value, id=name))
            elif hasattr(value, "cache_parameters"):  # a functools.lru_cache wrapper
                found.setdefault(id(value), pytest.param(value, id=f"{name}-{value.cache_parameters()['maxsize']}"))
    return list(found.values())


@pytest.mark.parametrize("cached", _package_caches())
def test_image_caches_are_bounded(cached):
    """Every cache in the package is bounded: an lru_cache by entries, a ByteCache by bytes."""
    if isinstance(cached, invariance.ByteCache):
        info = cached.cache_info()
        assert 0 < info.maxbytes and info.bytes <= info.maxbytes
    else:
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0
