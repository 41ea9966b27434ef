import math

import numpy as np
import pytest

from oracles import (
    dense_gp_posterior,
    dense_lml_and_gradient,
    dense_log_marginal_likelihood,
    dense_posterior_sample,
    lml_gradient,
    permute_bits,
    scipy_box_minimize,
    scipy_lbfgsb,
)

from graphgp import gp, invariance, kernels
from graphgp.invariance import PermSubgroup, ProjectedKernel
from graphgp.kernels import (
    CustomPhi,
    Heat,
    IsotropicKernel,
    KernelSpec,
    LaplacianVariant,
    LinearKernel,
    matern_spec,
    profile_derivatives,
)
from graphgp.spaces import GraphSpace, GraphSpaceKind, pairwise_hamming

U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
DL3 = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3)


def heat_kernel(space, kappa=1.0, variance=1.0):
    return IsotropicKernel(KernelSpec(Heat(kappa), variance), space)


def distinct_codes(space, count, rng):
    seen = {}
    while len(seen) < count:
        c = space.random_code(rng)
        seen[c.bits] = c
    return list(seen.values())


class TestFitPredict:
    def test_single_point_interpolates(self):
        kernel = heat_kernel(U4)
        x = U4.code_from_edges([[0, 1]])
        model = gp.fit(kernel, [x], [2.5], noise=1e-8)
        mean, var = gp.predict(model, [x])
        assert mean[0] == pytest.approx(2.5, abs=1e-6)
        assert var[0] <= 1e-6

    def test_far_point_reverts_to_prior_mean(self):
        kernel = heat_kernel(U4, kappa=0.3)  # tanh(0.045) ~ 0.045, distance 6 kills it
        x = U4.empty_code()
        far = U4.code_from_int((1 << U4.d) - 1)
        model = gp.fit(kernel, [x], [3.0], noise=1e-4)
        mean, var = gp.predict(model, [far])
        assert abs(mean[0]) < 1e-6
        assert var[0] == pytest.approx(1.0, abs=1e-6)

    def test_prior_moments_without_data(self, rng):
        kernel = heat_kernel(U4, variance=1.7)
        xs = [U4.random_code(rng) for _ in range(4)]
        mean, var = gp.prior_moments(kernel, xs)
        assert np.array_equal(mean, np.zeros(4))
        assert np.allclose(var, 1.7)

    def test_matches_dense_solve_oracle(self, rng):
        for trial in range(10):
            kernel = heat_kernel(DL3, kappa=float(rng.uniform(0.5, 1.5)))
            xs = distinct_codes(DL3, 5, rng)
            ys = rng.standard_normal(5)
            noise = float(rng.uniform(0.01, 0.3))
            stars = distinct_codes(DL3, 4, rng)
            model = gp.fit(kernel, xs, ys, noise)
            mean, var = gp.predict(model, stars)
            K = kernel.gram(xs)
            Ks = kernel.gram(stars, xs)
            mean_o, var_o = dense_gp_posterior(K, Ks, np.full(4, 1.0), ys, noise)
            assert np.abs(mean - mean_o).max() < 1e-8
            assert np.abs(var - var_o).max() < 1e-8

    def test_interpolation_invariant(self, rng):
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 8, rng)
        ys = rng.standard_normal(8) * 2.0
        model = gp.fit(kernel, xs, ys, noise=1e-8)
        mean, _ = gp.predict(model, xs)
        assert np.abs(mean - ys).max() <= 1e-5 * np.abs(ys).max()

    def test_variance_dominance(self, rng):
        kernel = heat_kernel(U4, variance=2.0)
        xs = distinct_codes(U4, 10, rng)
        model = gp.fit(kernel, xs, rng.standard_normal(10), noise=0.05)
        test = [U4.random_code(rng) for _ in range(30)]
        _, var = gp.predict(model, test)
        assert np.all(var >= 0.0)
        assert np.all(var <= 2.0 + 1e-9)

    def test_training_variance_shrinks_to_noise(self, rng):
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 6, rng)
        noise = 1e-6
        model = gp.fit(kernel, xs, rng.standard_normal(6), noise)
        _, var = gp.predict(model, xs)
        assert np.all(var <= noise + 1e-6)

    def test_toy_three_node_regression(self, rng):
        # three labeled training graphs on the 8-vertex space, moderate noise
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        kernel = IsotropicKernel(matern_spec(space.d, nu_base=2.0, kappa=1.0), space)
        train = [space.empty_code(), space.code_from_edges([[0, 1]]), space.code_from_int(0b111)]
        targets = [1.0, -0.5, 0.8]
        noise = 0.05
        model = gp.fit(kernel, train, targets, noise)
        mean, _ = gp.predict(model, train)
        assert np.abs(mean - targets).max() <= 3.0 * math.sqrt(noise)

    def test_size_mismatch_and_empty_rejected(self):
        kernel = heat_kernel(U4)
        with pytest.raises(ValueError):
            gp.fit(kernel, [U4.empty_code()], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            gp.fit(kernel, [], [], 0.1)

    def test_space_mismatch_rejected(self, rng):
        kernel = heat_kernel(U4)
        model = gp.fit(kernel, [U4.random_code(rng)], [0.0], 0.1)
        with pytest.raises(ValueError, match="space"):
            gp.predict(model, [DL3.random_code(rng)])

    def test_normalize_y_round_trip(self, rng):
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 10, rng)
        ys = rng.standard_normal(10) * 7.0 + 40.0
        model = gp.fit(kernel, xs, ys, noise=1e-8, normalize_y=True)
        mean, _ = gp.predict(model, xs)
        assert np.abs(mean - ys).max() < 1e-4

    def test_equivariance_under_hypercube_automorphisms(self, rng):
        # translating or slot-permuting all inputs consistently leaves
        # predictions unchanged
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 8, rng)
        ys = rng.standard_normal(8)
        stars = [U4.random_code(rng) for _ in range(5)]
        model = gp.fit(kernel, xs, ys, 0.1)
        mean, var = gp.predict(model, stars)

        z = U4.random_code(rng)
        model_t = gp.fit(kernel, [x ^ z for x in xs], ys, 0.1)
        mean_t, var_t = gp.predict(model_t, [s ^ z for s in stars])
        assert np.allclose(mean, mean_t)
        assert np.allclose(var, var_t)

        perm = tuple(rng.permutation(U4.d))
        model_p = gp.fit(kernel, [permute_bits(x, perm) for x in xs], ys, 0.1)
        mean_p, var_p = gp.predict(model_p, [permute_bits(s, perm) for s in stars])
        assert np.allclose(mean, mean_p)
        assert np.allclose(var, var_p)

    def test_noise_floor_enforced(self, rng):
        kernel = heat_kernel(U4)
        model = gp.fit(kernel, [U4.random_code(rng)], [1.0], noise=0.0)
        assert model.noise == gp.NOISE_FLOOR

    def test_model_owns_its_targets(self, rng):
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 8, rng)
        ys = rng.standard_normal(8)
        model = gp.fit(kernel, xs, ys, 0.1)
        before = gp.log_marginal_likelihood(model)
        ys[:] = 0.0
        assert gp.log_marginal_likelihood(model) == before

    @pytest.mark.parametrize("name", ["train_y", "chol", "chol_inv", "alpha"])
    def test_model_arrays_are_read_only(self, name, rng):
        xs = distinct_codes(U4, 5, rng)
        model = gp.fit(heat_kernel(U4), xs, rng.standard_normal(5), 0.1)
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 1.0


#: Agreement with dense solves at the noise floor, relative to the largest
#: oracle value: about cond(K + noise I) times double-precision epsilon
#: (1e10 * 1.1e-16). Over 20 draws of this problem the products with L^-1
#: sat within 1.3e-7 of the oracle, scipy's triangular solves within 1e-7.
NOISE_FLOOR_RTOL = 1e-6


class TestNoiseFloorAgreement:
    """Fit, prediction, posterior sampling and the tuner's objective on a Gram of condition number ~1e10."""

    KERNEL = IsotropicKernel(KernelSpec(Heat(6.5), 1.3), U4)

    def problem(self, rng):
        codes = [U4.code_from_int(b) for b in rng.permutation(1 << U4.d)]
        train, test = codes[:32], codes[32:40]
        K = self.KERNEL.gram(train)
        assert 1e9 < np.linalg.cond(K) < 1e11
        return train, test, K, 2.0 * rng.standard_normal(32) + 1.0

    @staticmethod
    def assert_close(actual, expected):
        assert np.abs(actual - expected).max() <= NOISE_FLOOR_RTOL * np.abs(expected).max()

    @pytest.mark.parametrize("normalize_y", [False, True])
    def test_predict(self, normalize_y, rng):
        train, test, K, ys = self.problem(rng)
        model = gp.fit(self.KERNEL, train, ys, gp.NOISE_FLOOR, normalize_y=normalize_y)
        mean, var = gp.predict(model, test)
        z_mean, z_var = dense_gp_posterior(
            K, self.KERNEL.gram(test, train), self.KERNEL.diag(test), model.normalized_targets(),
            model.noise + model.jitter,
        )
        self.assert_close(mean, z_mean * model.y_std + model.y_mean)
        assert np.abs(var - np.clip(z_var, 0.0, None) * model.y_std**2).max() <= (
            NOISE_FLOOR_RTOL * self.KERNEL.diag(test).max() * model.y_std**2
        )

    @pytest.mark.parametrize("normalize_y", [False, True])
    def test_posterior_sample_update(self, normalize_y, rng):
        train, test, K, ys = self.problem(rng)
        model = gp.fit(self.KERNEL, train, ys, gp.NOISE_FLOOR, normalize_y=normalize_y)
        draws = gp.posterior_sample(model, test, 5, seed=3)
        prior, update = dense_posterior_sample(
            self.KERNEL.gram(train + test), self.KERNEL.gram(test, train), model.normalized_targets(),
            model.noise + model.jitter, 5, seed=3,
        )
        assert np.abs((draws - model.y_mean) / model.y_std - prior - update).max() <= (
            NOISE_FLOOR_RTOL * np.abs(update).max()
        )

    @pytest.mark.parametrize("normalize_y", [False, True])
    def test_tuner_objective(self, normalize_y, rng):
        train, _, K, ys = self.problem(rng)
        names = gp._theta_layout(self.KERNEL, gp.NOISE_FLOOR, U4.d)[0]
        objective = gp._tuning_objective(self.KERNEL, names, tuple(train), ys, normalize_y)
        lml, grad = objective(self.KERNEL.spec, gp.NOISE_FLOOR)
        model = gp.fit(self.KERNEL, train, ys, gp.NOISE_FLOOR, normalize_y=normalize_y)
        derivs = profile_derivatives(self.KERNEL.spec, U4.d)
        dKs = [derivs[name][pairwise_hamming(train)] for name in names[:-1]]
        lml_o, grad_o = dense_lml_and_gradient(K, dKs, model.normalized_targets(), model.noise + model.jitter)
        self.assert_close(lml, lml_o)
        self.assert_close(grad, grad_o)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        kernel = heat_kernel(U4, variance=2.0)
        model = gp.fit(kernel, [U4.empty_code()], [0.0], noise=0.5)
        expect = -0.5 * math.log(2.0 * math.pi * (2.0 + 0.5))
        assert gp.log_marginal_likelihood(model) == pytest.approx(expect, rel=1e-12)

    def test_invariant_under_reordering(self, rng):
        kernel = heat_kernel(U4)
        xs = distinct_codes(U4, 7, rng)
        ys = rng.standard_normal(7)
        model = gp.fit(kernel, xs, ys, 0.1)
        order = rng.permutation(7)
        model_r = gp.fit(kernel, [xs[i] for i in order], ys[order], 0.1)
        assert gp.log_marginal_likelihood(model) == pytest.approx(
            gp.log_marginal_likelihood(model_r), rel=1e-10
        )

    def test_matches_dense_determinant_oracle(self, rng):
        for _ in range(10):
            kernel = heat_kernel(DL3, kappa=float(rng.uniform(0.5, 2.0)))
            xs = distinct_codes(DL3, 8, rng)
            ys = rng.standard_normal(8)
            noise = float(rng.uniform(0.05, 0.5))
            model = gp.fit(kernel, xs, ys, noise)
            expect = dense_log_marginal_likelihood(kernel.gram(xs), ys, noise)
            assert gp.log_marginal_likelihood(model) == pytest.approx(expect, abs=1e-8)


#: Tuning problems on the recovery data for the comparison with scipy's
#: L-BFGS-B: (kernel, initial noise). The heat start's first step reaches the
#: box in two parameters, ``first_step_hits_the_box`` in all three.
SCIPY_PROBLEMS = {
    "heat": lambda: (heat_kernel(U4, kappa=2.0, variance=0.5), 0.1),
    "matern_to_the_nu_base_bound": lambda: (IsotropicKernel(matern_spec(U4.d, nu_base=1.5), U4), 0.1),
    "linear": lambda: (LinearKernel(), 0.5),
    "projected_exact": lambda: (ProjectedKernel(KernelSpec(Heat(1.0)), PermSubgroup.full(4), U4), 0.2),
    "projected_monte_carlo": lambda: (
        ProjectedKernel.monte_carlo(KernelSpec(Heat(2.0)), PermSubgroup.full(4), U4, 5, seed=4),
        0.2,
    ),
    "first_step_hits_the_box": lambda: (heat_kernel(U4, kappa=8.0, variance=3.0), 0.01),
    "start_outside_the_box": lambda: (heat_kernel(U4, kappa=2.0, variance=0.5), 1e-6),
}

#: Agreement of the tuner with scipy's L-BFGS-B on SCIPY_PROBLEMS, with the
#: largest gap measured over all of them in brackets: equal evaluation counts
#: [equal]; final log marginal likelihood within LBFGSB_LML_RTOL [1.2e-11
#: relative]; final log parameters within LBFGSB_THETA_ATOL [7.2e-12], or
#: within LBFGSB_FLAT_THETA_ATOL for the Matern problem, whose likelihood is
#: nearly flat near the nu_base bound [2.3e-5].
LBFGSB_LML_RTOL = 1e-9
LBFGSB_THETA_ATOL = 1e-8
LBFGSB_FLAT_THETA_ATOL = 1e-3


def box_quadratic(A, c):
    """0.5 (x - c)^T A (x - c) and its gradient."""
    A, c = np.array(A), np.array(c)

    def quadratic(x):
        r = np.asarray(x) - c
        return 0.5 * r @ A @ r, A @ r

    return quadratic


def scaled_rosenbrock(x, scale=3.75):
    """The Rosenbrock function of x / scale and its gradient."""
    z = np.asarray(x) / scale
    value = float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2))
    grad = np.zeros_like(z)
    grad[:-1] = -400.0 * z[:-1] * (z[1:] - z[:-1] ** 2) - 2.0 * (1.0 - z[:-1])
    grad[1:] += 200.0 * (z[1:] - z[:-1] ** 2)
    return value, grad / scale


#: Objectives in the box, with starts, whose searches take branches of
#: L-BFGS-B that the likelihood problems above do not, or on which a change
#: of those branches shows: a subspace step that the box clips into an uphill
#: direction and that is cut back to the box edge, a line search in the stage
#: of the modified function, a breakpoint passed with curvature memory, a
#: line search extrapolating up to the box, and a long curved valley. Scipy
#: reaches the same minimum with as many evaluations (measured: equal counts,
#: values within 6.1e-18).
BRANCH_PROBLEMS = {
    "clipped_uphill_subspace_step": (box_quadratic([[9.26, -4.475], [-4.475, 2.234]], [-10.98, -14.23]), [2.49, -8.99]),
    "clipped_subspace_step": (box_quadratic([[0.2254, 0.3673], [0.3673, 0.6409]], [-9.52, 14.15]), [7.16, 8.29]),
    "breakpoint_with_memory": (box_quadratic([[0.265, -0.195], [-0.195, 0.595]], [14.82, 13.62]), [8.7, -4.74]),
    "extrapolation_to_the_box": (box_quadratic([[0.255, 0.369], [0.369, 0.767]], [13.11, 9.65]), [4.52, 7.96]),
    "rosenbrock": (scaled_rosenbrock, [3.83, 0.23, -6.44]),
}


class TestOptimize:
    def _recovery_problem(self, seed=5):
        rng = np.random.default_rng(seed)
        space = U4  # d = 6
        kernel_true = heat_kernel(space, kappa=1.0, variance=1.0)
        xs = distinct_codes(space, 40, rng)
        K = kernel_true.gram(xs)
        L = np.linalg.cholesky(K + 1e-10 * np.eye(40))
        ys = L @ rng.standard_normal(40) + 0.05 * rng.standard_normal(40)
        return xs, ys

    def test_recovers_kappa_within_factor_two(self):
        xs, ys = self._recovery_problem()
        kernel0 = heat_kernel(U4, kappa=2.0, variance=0.5)
        result = gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.1, budget=150)
        assert 0.5 <= result.kernel.spec.family.kappa <= 2.0
        assert result.objective >= gp.log_marginal_likelihood(
            gp.fit(kernel0, xs, ys, 0.1)
        )

    def test_initializations_converge_to_same_objective(self):
        xs, ys = self._recovery_problem()
        objectives = []
        for kappa0 in (1.0, 2.0):
            result = gp.optimize_hyperparameters(
                heat_kernel(U4, kappa=kappa0), xs, ys, noise=0.1, budget=200
            )
            objectives.append(result.objective)
        assert abs(objectives[0] - objectives[1]) < 1e-3

    def test_zero_budget_returns_init(self):
        xs, ys = self._recovery_problem()
        kernel0 = heat_kernel(U4, kappa=1.3, variance=0.9)
        result = gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.2, budget=0)
        assert result.kernel.spec.family.kappa == pytest.approx(1.3)
        assert result.kernel.spec.variance == pytest.approx(0.9)
        assert result.noise == pytest.approx(0.2)

    def test_matern_nu_base_parameterization(self):
        xs, ys = self._recovery_problem()
        kernel0 = IsotropicKernel(matern_spec(U4.d, nu_base=1.5), U4)
        result = gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.1, budget=40)
        assert result.kernel.spec.family.nu > U4.d / 2

    def test_parameters_stopped_at_the_box_bound_are_named(self):
        # heat-kernel data: the Matern fit runs nu_base up to the search box, towards the heat limit
        xs, ys = self._recovery_problem()
        kernel0 = IsotropicKernel(matern_spec(U4.d, nu_base=1.5), U4)
        result = gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.1, budget=40)
        assert "nu_base" in result.at_bound
        assert "kappa" not in result.at_bound
        assert math.log(result.kernel.spec.family.nu - U4.d / 2) == pytest.approx(gp._LOG_BOUND, abs=1e-6)
        assert gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.1, budget=0).at_bound == ()

    @pytest.mark.parametrize("budget", [1, 3, 20, 10_000])
    @pytest.mark.parametrize("normalize_y", [False, True])
    @pytest.mark.parametrize("problem", sorted(SCIPY_PROBLEMS))
    def test_matches_scipy_lbfgsb(self, problem, normalize_y, budget):
        xs, ys = self._recovery_problem()
        kernel, noise = SCIPY_PROBLEMS[problem]()
        result = gp.optimize_hyperparameters(kernel, xs, ys, noise=noise, budget=budget, normalize_y=normalize_y)
        theta, lml, evaluations = scipy_lbfgsb(kernel, xs, ys, noise=noise, budget=budget, normalize_y=normalize_y)
        assert result.evaluations == evaluations
        assert result.objective == pytest.approx(lml, rel=LBFGSB_LML_RTOL)
        result_theta = gp._theta_layout(result.kernel, result.noise, U4.d)[1]
        atol = LBFGSB_FLAT_THETA_ATOL if problem.startswith("matern") else LBFGSB_THETA_ATOL
        np.testing.assert_allclose(result_theta, theta, rtol=0, atol=atol)

    def test_each_stop_reason_is_reported(self, monkeypatch):
        xs, ys = self._recovery_problem()
        heat = heat_kernel(U4, kappa=2.0, variance=0.5)
        assert gp.optimize_hyperparameters(LinearKernel(), xs, ys, noise=0.5, budget=200).stopped == "gradient"
        assert gp.optimize_hyperparameters(heat, xs, ys, noise=0.1, budget=200).stopped == "reduction"
        assert gp.optimize_hyperparameters(heat, xs, ys, noise=0.1, budget=3).stopped == "budget"
        assert gp.optimize_hyperparameters(heat, xs, ys, noise=0.1, budget=0).stopped == "budget"

        # a gradient that promises descent along every search direction while the
        # likelihood only falls: each line search runs out of trials, and the
        # first one has no curvature memory to drop
        theta0 = gp._theta_layout(heat, 0.1, U4.d)[1]

        def misleading(kernel, names, xs_, ys_, normalize_y):
            def lml_and_gradient(spec, noise):
                theta = gp._theta_layout(kernel.with_spec(spec), noise, U4.d)[1]
                return -1.0 - float(np.abs(theta - theta0).sum()), np.full(len(theta), -1.0)

            return lml_and_gradient

        monkeypatch.setattr(gp, "_tuning_objective", misleading)
        result = gp.optimize_hyperparameters(heat, xs, ys, noise=0.1, budget=200)
        assert result.stopped == "line_search"
        assert result.evaluations == scipy_lbfgsb(heat, xs, ys, noise=0.1, budget=200)[2] > 1
        assert result.kernel.spec == heat.spec

    @pytest.mark.parametrize("problem", sorted(BRANCH_PROBLEMS))
    def test_box_searches_match_scipy_lbfgsb(self, problem):
        objective, x0 = BRANCH_PROBLEMS[problem]
        values = []

        def listed(x):
            f, g = objective(x)
            values.append(f)
            return f, g.tolist()

        f0, g0 = listed(x0)
        gp._lbfgsb(listed, list(x0), f0, g0, 199)
        _, f, evaluations = scipy_box_minimize(objective, x0, 200)
        assert len(values) == evaluations
        assert abs(min(values) - f) <= LBFGSB_LML_RTOL * max(1.0, abs(f))

    def test_a_failed_line_search_drops_the_memory_once(self, monkeypatch):
        xs, ys = self._recovery_problem()
        searches = []
        real = gp._line_search

        def failing_from_the_fourth(objective, x, f, d, z, gd0, stpmax, budget):
            searches.append(d)
            if len(searches) < 4:
                return real(objective, x, f, d, z, gd0, stpmax, budget)
            return "failed", 0, 1.0, None, None, None

        monkeypatch.setattr(gp, "_line_search", failing_from_the_fourth)
        heat = heat_kernel(U4, kappa=2.0, variance=0.5)
        result = gp.optimize_hyperparameters(heat, xs, ys, noise=0.1, budget=200)
        # three searches, a failed one with the curvature memory, then one more
        # from the same point along the steepest-descent path, and no third
        assert result.stopped == "line_search"
        assert len(searches) == 5
        assert searches[4] != searches[3]

    def test_matern_below_half_dimension_rejected(self):
        xs, ys = self._recovery_problem()
        from graphgp.kernels import Matern

        kernel0 = IsotropicKernel(KernelSpec(Matern(nu=1.0, kappa=1.0)), U4)
        with pytest.raises(ValueError, match="nu_base"):
            gp.optimize_hyperparameters(kernel0, xs, ys, budget=5)

    def test_custom_family_rejected(self):
        xs, ys = self._recovery_problem()
        spec = KernelSpec(CustomPhi(lambda lam: 1.0 / (1.0 + lam)))
        with pytest.raises(ValueError, match="^cannot tune hyperparameters of family CustomPhi$"):
            gp.optimize_hyperparameters(IsotropicKernel(spec, U4), xs, ys, budget=5)
        with pytest.raises(ValueError, match="^no parameter derivatives for family CustomPhi$"):
            profile_derivatives(spec, U4.d)

    def test_linear_kernel_tunable(self):
        xs, ys = self._recovery_problem()
        result = gp.optimize_hyperparameters(LinearKernel(), xs, ys, noise=0.5, budget=30)
        assert result.kernel.variance > 0

    def test_projected_kernel_tunable(self):
        rng = np.random.default_rng(2)
        H = PermSubgroup.full(4)
        kernel0 = ProjectedKernel(KernelSpec(Heat(1.0)), H, U4)
        xs = distinct_codes(U4, 12, rng)
        ys = rng.standard_normal(12)
        result = gp.optimize_hyperparameters(kernel0, xs, ys, noise=0.2, budget=30)
        assert isinstance(result.kernel, ProjectedKernel)
        assert result.objective >= gp.log_marginal_likelihood(gp.fit(kernel0, xs, ys, 0.2)) - 1e-12

    def test_gradient_matches_central_differences(self, rng):
        for _ in range(5):
            kernel = heat_kernel(U4, kappa=float(rng.uniform(0.7, 1.5)))
            xs = distinct_codes(U4, 10, rng)
            ys = rng.standard_normal(10)
            noise = 0.1
            names, grad = lml_gradient(kernel, xs, ys, noise)
            _, theta0, _, rebuild = gp._theta_layout(kernel, noise, U4.d)

            def value(theta):
                k2, n2 = rebuild(theta)
                return gp.log_marginal_likelihood(gp.fit(k2, xs, ys, n2))

            for i in range(len(theta0)):
                h = 1e-4 * max(1.0, abs(theta0[i]))
                up, dn = theta0.copy(), theta0.copy()
                up[i] += h
                dn[i] -= h
                fd = (value(up) - value(dn)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


#: Largest difference between the analytic LML gradient and central
#: differences, relative to the largest gradient entry.
GRADIENT_RTOL = 1e-6

FULL_U4 = PermSubgroup.full(4)

GRADIENT_KERNELS = {
    "heat": lambda: heat_kernel(U4, kappa=1.3, variance=0.8),
    "matern": lambda: IsotropicKernel(matern_spec(U4.d, nu_base=1.5, kappa=1.7, variance=1.2), U4),
    "heat_truncated": lambda: IsotropicKernel(KernelSpec(Heat(1.1), truncation=2), U4),
    "matern_truncated": lambda: IsotropicKernel(matern_spec(U4.d, nu_base=0.8, kappa=2.0, truncation=3), U4),
    "heat_plain_laplacian": lambda: IsotropicKernel(KernelSpec(Heat(0.6), laplacian=LaplacianVariant.PLAIN), U4),
    "projected_exact": lambda: ProjectedKernel(KernelSpec(Heat(2.0), 1.5), FULL_U4, U4),
    "projected_exact_matern": lambda: ProjectedKernel(matern_spec(U4.d, nu_base=2.0, kappa=2.5), FULL_U4, U4),
    "projected_monte_carlo": lambda: ProjectedKernel.monte_carlo(KernelSpec(Heat(2.0)), FULL_U4, U4, 5, seed=4),
    "linear": lambda: LinearKernel(0.7),
}


class TestAnalyticGradient:
    @pytest.mark.parametrize("normalize_y", [False, True])
    @pytest.mark.parametrize("flavour", sorted(GRADIENT_KERNELS))
    def test_matches_finite_difference_oracle(self, flavour, normalize_y, rng):
        kernel = GRADIENT_KERNELS[flavour]()
        xs = distinct_codes(U4, 12, rng)
        ys = 2.0 * rng.standard_normal(12) + 1.0
        names, fd = lml_gradient(kernel, xs, ys, 0.15, normalize_y=normalize_y)
        params = kernel.variance if isinstance(kernel, LinearKernel) else kernel.spec
        lml, grad = gp._tuning_objective(kernel, names, tuple(xs), ys, normalize_y)(params, 0.15)
        assert grad.shape == (len(names),)
        assert lml == gp.log_marginal_likelihood(gp.fit(kernel, xs, ys, 0.15, normalize_y=normalize_y))
        assert np.abs(grad - fd).max() <= GRADIENT_RTOL * np.abs(fd).max()


class TestBudget:
    @pytest.mark.parametrize("budget", [0, 1, 3, 20])
    @pytest.mark.parametrize("projected", [False, True])
    def test_evaluations_never_exceed_the_budget(self, budget, projected, rng):
        spec = KernelSpec(Heat(3.0))
        kernel = ProjectedKernel(spec, FULL_U4, U4) if projected else IsotropicKernel(spec, U4)
        xs = distinct_codes(U4, 12, rng)
        ys = rng.standard_normal(12)
        result = gp.optimize_hyperparameters(kernel, xs, ys, noise=0.5, budget=budget)
        assert 1 <= result.evaluations <= max(budget, 1)
        start = gp.log_marginal_likelihood(gp.fit(kernel, xs, ys, 0.5))
        assert result.objective >= start

    def test_search_stops_exactly_at_the_cap(self, rng):
        # L-BFGS-B checks its own maxfun only between iterations
        xs = distinct_codes(U4, 12, rng)
        ys = rng.standard_normal(12)
        unbounded = gp.optimize_hyperparameters(heat_kernel(U4, kappa=3.0), xs, ys, noise=0.5, budget=200)
        assert unbounded.evaluations > 10
        for budget in range(2, unbounded.evaluations):
            result = gp.optimize_hyperparameters(heat_kernel(U4, kappa=3.0), xs, ys, noise=0.5, budget=budget)
            assert result.evaluations == budget


#: Per flavour: the kernel, and the module and name of the function its tuning counts come from
#: (the Hamming build, or the exact count cache).
COUNT_FETCHES = {
    "isotropic": (lambda: heat_kernel(U4, kappa=3.0), kernels, "pairwise_hamming"),
    "projected_exact": (lambda: ProjectedKernel(KernelSpec(Heat(3.0)), FULL_U4, U4), invariance, "_group_counts"),
}


class TestCountsPerRun:
    @pytest.mark.parametrize("budget", [1, 30])
    @pytest.mark.parametrize("flavour", sorted(COUNT_FETCHES))
    def test_counts_are_fetched_once_per_run(self, flavour, budget, rng, monkeypatch):
        make, module, name = COUNT_FETCHES[flavour]
        xs = distinct_codes(U4, 12, rng)
        ys = rng.standard_normal(12)
        kernel, fetches, real = make(), [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: fetches.append(args) or real(*args))
        result = gp.optimize_hyperparameters(kernel, xs, ys, noise=0.5, budget=budget)
        assert len(fetches) == 1
        assert result.evaluations == 1 if budget == 1 else result.evaluations > 10

    def test_monte_carlo_counts_are_built_at_every_evaluation(self, rng, monkeypatch):
        """Monte Carlo counts stay uncached (ROADMAP.md item 1): until the benchmark worker stops
        keeping every round it completes, the faster runs a per-run cache gives raise its peak
        memory past the benchmark's bound. A run fetches the images once; each evaluation runs
        the builder."""
        builds = []
        real = invariance._distance_counts

        def counted(images, targets, top, square):
            builds.append(len(images))
            return real(images, targets, top, square)

        monkeypatch.setattr(invariance, "_distance_counts", counted)
        kernel = ProjectedKernel.monte_carlo(KernelSpec(Heat(3.0)), FULL_U4, U4, 5, seed=4)
        xs = distinct_codes(U4, 12, rng)
        result = gp.optimize_hyperparameters(kernel, xs, rng.standard_normal(12), noise=0.5, budget=30)
        assert len(builds) == result.evaluations > 10


class TestJitter:
    def test_duplicate_points_need_jitter_but_fit(self, rng):
        kernel = heat_kernel(U4)
        x = U4.random_code(rng)
        model = gp.fit(kernel, [x, x], [1.0, 1.0], noise=0.0)
        assert model.jitter >= 0.0
        mean, _ = gp.predict(model, [x])
        assert mean[0] == pytest.approx(1.0, abs=1e-3)

    def test_shift_goes_onto_a_copy(self, rng):
        # off the diagonal x + 0.0 == x, so the factor is the one of K + noise I, bit for bit
        A = rng.standard_normal((6, 6))
        K = A @ A.T
        K.setflags(write=False)
        L, jitter = gp._cholesky_with_jitter(K, 0.3)
        assert jitter == 0.0
        assert np.array_equal(L, np.linalg.cholesky(K + 0.3 * np.eye(6)))

    def test_hopeless_matrix_raises_after_escalation(self):
        class BrokenKernel:
            def gram(self, xs, ys=None):
                n = len(xs)
                m = n if ys is None else len(ys)
                return -np.ones((n, m))

        with pytest.raises(np.linalg.LinAlgError, match="jitter"):
            gp.fit(BrokenKernel(), [U4.empty_code(), U4.code_from_int(1)], [0.0, 1.0], 0.0)


class TestLowerInverse:
    """The factor's inverse by 2 x 2 blocks of lower-triangular halves."""

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65, 96, 200])
    def test_matches_the_general_inverse(self, rng, n):
        A = rng.standard_normal((n, n + 4))
        L = np.linalg.cholesky(A @ A.T / (n + 4) + 0.1 * np.eye(n))
        expected, got = np.linalg.inv(L), gp._lower_inverse(L)
        if n <= gp._INVERSE_LEAF:
            assert np.array_equal(got, expected)  # one leaf: the general inverse itself
        # a computed triangular inverse X is within n eps |L^-1| |L| |X| of L^-1 entry by entry, to
        # first order (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 14): two
        # such differ by at most twice that
        eps = np.finfo(float).eps
        bound = 2 * n * eps * (np.abs(expected) @ np.abs(L) @ np.abs(expected))
        assert (np.abs(got - expected) <= bound).all()


class FailingKernel(IsotropicKernel):
    """Kernel whose tuning Grams raise ``error`` away from its starting profile, logging each raise.

    The tuner's objective builds the Gram and the pullback of its gradient
    through the function ``tuning_counts`` returns, so that is where the
    failure is injected.
    """

    def __init__(self, spec, space, error, raised):
        super().__init__(spec, space)
        self.error, self.raised = error, raised

    def tuning_counts(self, xs):
        gram_at, start = super().tuning_counts(xs), self.profile()

        def failing(profile):
            if not np.array_equal(profile, start):
                self.raised.append(profile)
                raise self.error("injected failure")
            return gram_at(profile)

        return failing


class TestTunerFailures:
    def data(self, rng):
        xs = [U4.random_code(rng) for _ in range(8)]
        return xs, rng.standard_normal(len(xs))

    def test_clean_run_counts_no_failure(self, rng):
        xs, ys = self.data(rng)
        result = gp.optimize_hyperparameters(heat_kernel(U4), xs, ys, budget=20)
        assert result.evaluations > 1 and result.failed == 0

    def test_factorization_failures_are_counted(self, rng):
        xs, ys = self.data(rng)
        spec = KernelSpec(Heat(1.0))
        raised = []
        kernel = FailingKernel(spec, U4, np.linalg.LinAlgError, raised)
        result = gp.optimize_hyperparameters(kernel, xs, ys, budget=20)
        assert result.failed == len(raised) > 0
        assert result.kernel.spec == spec

    def test_non_finite_likelihoods_are_counted(self, rng, monkeypatch):
        xs, ys = self.data(rng)
        calls = []
        original = gp._log_evidence

        def first_finite(z, alpha, L, const):
            calls.append(L)
            return original(z, alpha, L, const) if len(calls) == 1 else math.nan

        monkeypatch.setattr(gp, "_log_evidence", first_finite)
        result = gp.optimize_hyperparameters(heat_kernel(U4), xs, ys, budget=20)
        assert result.failed == result.evaluations - 1 > 0

    def test_non_finite_gradients_are_counted(self, rng, monkeypatch):
        xs, ys = self.data(rng)
        calls = []
        original = gp.profile_derivatives

        def first_finite(spec, d):
            calls.append(spec)
            derivs = original(spec, d)
            if len(calls) == 1:
                return derivs
            # the profile stays finite, so K factors and only the gradient is not finite
            return {k: v if k == "variance" else np.full_like(v, np.nan) for k, v in derivs.items()}

        monkeypatch.setattr(gp, "profile_derivatives", first_finite)
        result = gp.optimize_hyperparameters(heat_kernel(U4), xs, ys, budget=20)
        assert result.failed == result.evaluations - 1 > 0
        assert result.kernel.spec == KernelSpec(Heat(1.0))

    def test_other_errors_propagate(self, rng):
        xs, ys = self.data(rng)
        spec = KernelSpec(Heat(1.0))
        kernel = FailingKernel(spec, U4, ValueError, [])
        with pytest.raises(ValueError, match="injected"):
            gp.optimize_hyperparameters(kernel, xs, ys, budget=20)
