import itertools
import math

import numpy as np
import pytest

from oracles import project_sample_by_mean, relabel

from graphgp import gp
from graphgp.invariance import (
    PermSubgroup,
    ProjectedKernel,
    draw_sample,
    invariant_gram_exact,
    invariant_gram_sampled,
)
from graphgp.kernels import Heat, IsotropicKernel, KernelSpec, LinearKernel
from graphgp.spaces import GraphSpace, GraphSpaceKind, NodePermutation

U3 = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)


def empirical_cov(F):
    """Covariance of zero-mean draws with a per-entry standard error."""
    N = F.shape[0]
    C = F.T @ F / N
    second = (F**2).T @ (F**2) / N
    se = np.sqrt(np.clip(second - C**2, 0.0, None) / N)
    return C, se


def assert_within_4se(got, want, se, floor=1e-9):
    assert np.all(np.abs(got - want) <= 4.0 * se + floor)


def distinct_codes(space, count, rng):
    seen = {}
    while len(seen) < count:
        c = space.random_code(rng)
        seen[c.bits] = c
    return list(seen.values())


class TestExactPriorSampling:
    def test_zero_samples(self):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        assert gp.sample_prior_exact(kernel, [U4.empty_code()], 0, 0).shape == (0, 1)

    def test_single_point_variance(self):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0), 2.0), U4)
        F = gp.sample_prior_exact(kernel, [U4.empty_code()], 100_000, 1)
        C, se = empirical_cov(F)
        assert_within_4se(C[0, 0], 2.0, se[0, 0])

    def test_pair_correlation_matches_heat_closed_form(self):
        from graphgp.kernels import LaplacianVariant, heat_closed_form

        kernel = IsotropicKernel(KernelSpec(Heat(1.0), laplacian=LaplacianVariant.PLAIN), U4)
        x = U4.empty_code()
        y = U4.code_from_int(0b111)  # distance 3
        F = gp.sample_prior_exact(kernel, [x, y], 100_000, 2)
        C, se = empirical_cov(F)
        assert_within_4se(C[0, 1], heat_closed_form(1.0, 1.0, 3), se[0, 1])

    def test_covariance_matches_gram(self, rng):
        kernel = IsotropicKernel(KernelSpec(Heat(0.8)), U4)
        xs = distinct_codes(U4, 6, rng)
        F = gp.sample_prior_exact(kernel, xs, 100_000, 3)
        C, se = empirical_cov(F)
        assert_within_4se(C, kernel.gram(xs), se)


class TestTruncatedWalshSampler:
    def test_level_zero_is_constant(self):
        spec = KernelSpec(Heat(1.0), 2.0)
        sampler = gp.TruncatedWalshSampler(spec, U4, level_cap=0)
        assert sampler.n_features == 1
        xs = [U4.empty_code(), U4.code_from_int(5), U4.code_from_int(63)]
        F = sampler.draw(xs, 50_000, 4)
        assert np.ptp(F, axis=1).max() == 0.0  # constant across inputs per draw
        C, se = empirical_cov(F)
        # renormalized truncation puts the whole variance on level 0
        assert_within_4se(C[0, 0], 2.0, se[0, 0])

    def test_full_level_cap_reproduces_exact_law(self, rng):
        spec = KernelSpec(Heat(1.0))
        sampler = gp.TruncatedWalshSampler(spec, U4)  # J = d = 6, 64 features
        assert sampler.n_features == 64
        xs = distinct_codes(U4, 8, rng)
        F = sampler.draw(xs, 100_000, 5)
        C, se = empirical_cov(F)
        K = IsotropicKernel(spec, U4).gram(xs)
        assert_within_4se(C, K, se)

    def test_partial_cap_matches_truncated_kernel(self, rng):
        from dataclasses import replace

        spec = KernelSpec(Heat(1.0))
        sampler = gp.TruncatedWalshSampler(spec, U4, level_cap=2)
        xs = distinct_codes(U4, 6, rng)
        F = sampler.draw(xs, 100_000, 6)
        C, se = empirical_cov(F)
        K = IsotropicKernel(replace(spec, truncation=2), U4).gram(xs)
        assert_within_4se(C, K, se)

    def test_feature_budget_refusal_reports_count(self):
        # all 2^21 index subsets of U7 (d = 21) are twice the budget; refused before any is built
        spec, U7 = KernelSpec(Heat(1.0)), GraphSpace(GraphSpaceKind.UNDIRECTED, 7)
        assert gp.FEATURE_BUDGET == 1 << 20
        with pytest.raises(ValueError, match="feature count 2097152 .* exceeds the budget 1048576"):
            gp.TruncatedWalshSampler(spec, U7)

    @pytest.mark.parametrize("cap", range(U4.d + 1))
    def test_subset_rows_in_combinations_order(self, cap):
        sampler = gp.TruncatedWalshSampler(KernelSpec(Heat(1.0)), U4, level_cap=cap)
        want = [combo for j in range(cap + 1) for combo in itertools.combinations(range(U4.d), j)]
        assert [tuple(np.flatnonzero(row)) for row in sampler._subsets] == want

    def test_draws_deterministic_by_seed(self):
        sampler = gp.TruncatedWalshSampler(KernelSpec(Heat(1.0)), U4)
        xs = [U4.empty_code()]
        assert np.array_equal(sampler.draw(xs, 5, 9), sampler.draw(xs, 5, 9))


@pytest.mark.parametrize(
    "make",
    [
        lambda cap: gp.TruncatedWalshSampler(KernelSpec(Heat(1.0)), U4, level_cap=cap),
        lambda cap: gp.RandomPhaseSampler(KernelSpec(Heat(1.0)), U4, num_anchors=4, seed=0, level_cap=cap),
    ],
    ids=["walsh", "phase"],
)
@pytest.mark.parametrize("cap", [-1, U4.d + 1])
def test_level_cap_outside_the_levels_rejected(make, cap):
    with pytest.raises(ValueError, match=f"level cap {cap} out of range for d={U4.d}"):
        make(cap)


#: The four kernel flavours, built on U4.
EMPTY_INPUT_KERNELS = {
    "isotropic": lambda: IsotropicKernel(KernelSpec(Heat(1.0)), U4),
    "exact": lambda: ProjectedKernel(KernelSpec(Heat(1.0)), PermSubgroup.full(4), U4),
    "monte_carlo": lambda: ProjectedKernel.monte_carlo(KernelSpec(Heat(1.0)), PermSubgroup.full(4), U4, 4, 0),
    "linear": LinearKernel,
}

#: A call of (kernel, model fitted on three codes xs, xs) on an empty code list, and its shape.
EMPTY_INPUT_CALLS = {
    "gram_square": (lambda kernel, model, xs: kernel.gram([]), (0, 0)),
    "gram_cross_rows": (lambda kernel, model, xs: kernel.gram([], xs), (0, 3)),
    "gram_cross_columns": (lambda kernel, model, xs: kernel.gram(xs, []), (3, 0)),
    "diag": (lambda kernel, model, xs: kernel.diag([]), (0,)),
    "predict_mean": (lambda kernel, model, xs: gp.predict(model, [])[0], (0,)),
    "predict_var": (lambda kernel, model, xs: gp.predict(model, [])[1], (0,)),
    "predict_cov": (lambda kernel, model, xs: gp.predict(model, [], full_cov=True)[1], (0, 0)),
    "posterior_sample": (lambda kernel, model, xs: gp.posterior_sample(model, [], 3, 0), (3, 0)),
    "sample_prior_exact": (lambda kernel, model, xs: gp.sample_prior_exact(kernel, [], 3, 0), (3, 0)),
}


@pytest.mark.parametrize("call", EMPTY_INPUT_CALLS)
@pytest.mark.parametrize("flavour", EMPTY_INPUT_KERNELS)
def test_empty_code_list_gives_empty_arrays(flavour, call):
    kernel = EMPTY_INPUT_KERNELS[flavour]()
    xs = [U4.empty_code(), U4.code_from_int(5), U4.code_from_int(63)]
    model = gp.fit(kernel, xs, [0.0, 1.0, -1.0], 0.1)
    make, shape = EMPTY_INPUT_CALLS[call]
    out = make(kernel, model, xs)
    assert out.shape == shape
    assert out.dtype == np.float64


@pytest.mark.parametrize(
    "sampler",
    [
        gp.TruncatedWalshSampler(KernelSpec(Heat(1.0)), U4),
        gp.RandomPhaseSampler(KernelSpec(Heat(1.0)), U4, num_anchors=4, seed=0),
    ],
    ids=["walsh", "phase"],
)
def test_feature_samplers_draw_nothing_for_no_codes(sampler):
    assert sampler.feature_matrix([]).shape == (sampler.n_features, 0)
    assert sampler.draw([], 3, 0).shape == (3, 0)


class TestRandomPhaseSampler:
    def test_zero_mean(self, rng):
        spec = KernelSpec(Heat(1.0))
        sampler = gp.RandomPhaseSampler(spec, U4, num_anchors=8, seed=0)
        xs = distinct_codes(U4, 5, rng)
        F = sampler.draw(xs, 100_000, 7)
        mean = F.mean(axis=0)
        se = F.std(axis=0) / math.sqrt(F.shape[0])
        assert np.all(np.abs(mean) <= 4.0 * se + 1e-9)

    def test_empirical_covariance_matches_analytic(self, rng):
        spec = KernelSpec(Heat(1.0))
        sampler = gp.RandomPhaseSampler(spec, U4, num_anchors=8, seed=1)
        xs = distinct_codes(U4, 5, rng)
        F = sampler.draw(xs, 100_000, 8)
        C, se = empirical_cov(F)
        assert_within_4se(C, sampler.analytic_gram(xs), se)

    def test_anchor_count_drives_convergence(self, rng):
        spec = KernelSpec(Heat(1.0))
        xs = distinct_codes(U4, 6, rng)
        K = IsotropicKernel(spec, U4).gram(xs)
        drift = []
        for L in (8, 16, 32):
            errs = []
            for seed in range(12):
                sampler = gp.RandomPhaseSampler(spec, U4, num_anchors=L, seed=seed)
                errs.append(np.abs(sampler.analytic_gram(xs) - K).max())
            drift.append(np.mean(errs))
        assert drift[0] > drift[1] > drift[2]

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            gp.RandomPhaseSampler(KernelSpec(Heat(1.0)), U4, num_anchors=0, seed=0)


class TestPosteriorSampling:
    def test_moments_match_posterior(self, rng):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        xs = distinct_codes(U4, 10, rng)
        ys = rng.standard_normal(10)
        stars = distinct_codes(U4, 5, rng)
        model = gp.fit(kernel, xs, ys, noise=0.1)
        F = gp.posterior_sample(model, stars, 100_000, 11)
        mean_want, cov_want = gp.predict(model, stars, full_cov=True)
        se_mean = F.std(axis=0) / math.sqrt(F.shape[0])
        assert np.all(np.abs(F.mean(axis=0) - mean_want) <= 4 * se_mean + 1e-9)
        centered = F - F.mean(axis=0)
        C, se = empirical_cov(centered)
        assert_within_4se(C, cov_want, se)

    def test_large_noise_reverts_to_prior(self, rng):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        xs = distinct_codes(U4, 5, rng)
        model = gp.fit(kernel, xs, 10.0 * np.ones(5), noise=1e6)
        stars = distinct_codes(U4, 4, rng)
        F = gp.posterior_sample(model, stars, 100_000, 12)
        se_mean = F.std(axis=0) / math.sqrt(F.shape[0])
        assert np.all(np.abs(F.mean(axis=0)) <= 4 * se_mean + 1e-3)
        centered = F - F.mean(axis=0)
        C, se = empirical_cov(centered)
        assert_within_4se(np.diag(C), np.ones(4), np.diag(se), floor=1e-3)

    def test_tiny_noise_concentrates_at_targets(self, rng):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        xs = distinct_codes(U4, 4, rng)
        ys = rng.standard_normal(4)
        model = gp.fit(kernel, xs, ys, noise=1e-8)
        F = gp.posterior_sample(model, xs, 2000, 13)
        assert np.abs(F - ys[None, :]).max() < 1e-2

    def test_zero_draws(self, rng):
        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        model = gp.fit(kernel, [U4.empty_code()], [0.0], 0.1)
        assert gp.posterior_sample(model, [U4.code_from_int(1)], 0, 0).shape == (0, 1)


class TestProjectSample:
    def test_identity_permutation_is_noop(self, rng):
        from graphgp.spaces import NodePermutation

        codes = list(U3.all_codes())
        draws = rng.standard_normal((50, len(codes)))
        out = gp.project_sample(draws, codes, codes, [NodePermutation.identity(3)])
        assert np.allclose(out, draws)

    def test_constant_function_unchanged(self):
        H = PermSubgroup.full(3)
        codes = list(U3.all_codes())
        draws = np.ones((10, len(codes))) * 3.25
        out = gp.project_sample(draws, codes, codes, list(H.elements()))
        assert np.allclose(out, 3.25)

    def test_exact_projection_covariance_matches_invariant_kernel(self):
        H = PermSubgroup.full(3)
        spec = KernelSpec(Heat(1.0))
        kernel = IsotropicKernel(spec, U3)
        codes = list(U3.all_codes())
        F = gp.sample_prior_exact(kernel, codes, 200_000, 14)
        proj = gp.project_sample(F, codes, codes, list(H.elements()))
        C, se = empirical_cov(proj)
        K = invariant_gram_exact(spec, H, codes)
        assert_within_4se(C, K, se)

    def test_sampled_projection_covariance_matches_shared_sample_estimator(self):
        H = PermSubgroup.full(3)
        spec = KernelSpec(Heat(1.0))
        kernel = IsotropicKernel(spec, U3)
        codes = list(U3.all_codes())
        sample = draw_sample(H, 3, 21)
        F = gp.sample_prior_exact(kernel, codes, 200_000, 15)
        proj = gp.project_sample(F, codes, codes, list(sample))
        C, se = empirical_cov(proj)
        K = invariant_gram_sampled(spec, sample, codes)
        assert_within_4se(C, K, se)

    def test_missing_inputs_reported(self, rng):
        H = PermSubgroup.full(3)
        some = [U3.code_from_edges([[0, 1]])]
        draws = rng.standard_normal((5, 1))
        with pytest.raises(ValueError, match="missing"):
            gp.project_sample(draws, some, some, list(H.elements()))

    def test_empty_permutation_list_rejected(self):
        with pytest.raises(ValueError):
            gp.project_sample(np.zeros((1, 1)), [U3.empty_code()], [U3.empty_code()], [])

    def test_no_targets_give_one_empty_row_per_draw(self, rng):
        codes = list(U3.all_codes())
        out = gp.project_sample(rng.standard_normal((5, len(codes))), codes, [], list(PermSubgroup.full(3).elements()))
        assert out.shape == (5, 0)

    def test_sample_with_repeated_elements_matches_the_oracle_mean(self, rng):
        codes = list(U4.all_codes())
        sample = list(draw_sample(PermSubgroup.full(4), 40, 2))  # 40 draws from 24 elements
        assert len(set(sample)) < len(sample)
        draws = rng.standard_normal((30, len(codes)))
        out = gp.project_sample(draws, codes, codes, sample)
        np.testing.assert_array_equal(out, project_sample_by_mean(draws, codes, codes, sample))

    def test_reordered_subset_of_targets_matches_the_oracle_mean(self, rng):
        codes = list(U4.all_codes())
        targets = [codes[i] for i in rng.permutation(len(codes))[:20]]
        perms = list(draw_sample(PermSubgroup.full(4), 9, 3))
        draws = rng.standard_normal((30, len(codes)))
        out = gp.project_sample(draws, codes, targets, perms)
        np.testing.assert_array_equal(out, project_sample_by_mean(draws, codes, targets, perms))

    def test_duplicate_eval_codes_read_their_last_column(self, rng):
        codes = list(U4.all_codes())
        evals = codes + codes[::3]
        perms = list(draw_sample(PermSubgroup.full(4), 5, 4))
        draws = rng.standard_normal((30, len(evals)))
        out = gp.project_sample(draws, evals, codes, perms)
        np.testing.assert_array_equal(out, project_sample_by_mean(draws, evals, codes, perms))
        assert not np.allclose(out, gp.project_sample(draws[:, : len(codes)], codes, codes, perms))

    def test_missing_inputs_message_lists_the_first_five_in_target_order(self, rng):
        codes = list(U4.all_codes())
        evals = codes[::2]
        perms = list(draw_sample(PermSubgroup.full(4), 6, 5))
        images = [relabel(s, x) for x in codes for s in perms]
        missing = [y for y in images if y.bits % 2]
        assert len(missing) > 5
        shown = ", ".join(str(sorted(y.edges())) for y in missing[:5])
        want = f"{len(missing)} permuted inputs are not covered by the sample; first missing edge lists: {shown}"
        with pytest.raises(ValueError) as err:
            gp.project_sample(rng.standard_normal((3, len(evals))), evals, codes, perms)
        assert str(err.value) == want

    @pytest.mark.parametrize("columns", [7, 9])
    def test_draws_need_one_column_per_eval_code(self, columns):
        codes = list(U3.all_codes())
        with pytest.raises(ValueError, match=rf"^draws of shape \(4, {columns}\) need one column per eval code \(8\)$"):
            gp.project_sample(np.zeros((4, columns)), codes, codes, [NodePermutation.identity(3)])

    def test_one_dimensional_draws_refused(self):
        codes = list(U3.all_codes())
        with pytest.raises(ValueError, match=r"^draws of shape \(8,\) need one column per eval code \(8\)$"):
            gp.project_sample(np.zeros(8), codes, codes, [NodePermutation.identity(3)])

    def test_permutations_of_other_node_counts_refused(self):
        codes = list(U3.all_codes())
        with pytest.raises(ValueError, match="^permutation of 4 nodes does not act on n=3$"):
            gp.project_sample(np.zeros((2, 8)), codes, codes, [NodePermutation.identity(4)])
