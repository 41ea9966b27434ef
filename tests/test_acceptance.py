"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (bypassing capture) so the run
leaves an auditable one-line-per-criterion record.
"""

import contextlib
import math
import time

import numpy as np

from oracles import (
    brute_force_level_sum_at,
    dense_gp_posterior,
    dense_spectral_profile,
    kravchuk_closed_form,
    permute_bits,
)
from synthetic import molecules_from_prior, molecules_mixed_elements

from graphgp import datasets, gp
from graphgp.cli import EXPERIMENT_METHODS, run_experiment
from graphgp.invariance import (
    PermSubgroup,
    build_quotient,
    draw_sample,
    invariant_gram_exact,
    invariant_gram_sampled,
    invariant_kernel_exact,
    invariant_kernel_sampled,
    quotient_kernel_matrix,
)
from graphgp.kernels import (
    Heat,
    IsotropicKernel,
    KernelSpec,
    LaplacianVariant,
    Matern,
    evaluate,
    heat_closed_form,
    kernel_profile,
    matern_spec,
)
from graphgp.kravchuk import build_table
from graphgp.spaces import GraphSpace, GraphSpaceKind, hamming

U4 = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)


@contextlib.contextmanager
def criterion(capsys, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS ({time.monotonic() - start:.1f}s)")


def random_plain_spec(rng, d):
    if rng.random() < 0.5:
        family = Heat(kappa=float(rng.uniform(0.3, 2.5)))
    else:
        family = Matern(nu=d / 2 + float(rng.uniform(0.5, 3.0)), kappa=float(rng.uniform(0.3, 2.5)))
    return KernelSpec(family, float(rng.uniform(0.25, 4.0)), LaplacianVariant.PLAIN)


def distinct_codes(space, count, rng):
    seen = {}
    while len(seen) < count:
        c = space.random_code(rng)
        seen[c.bits] = c
    return list(seen.values())


def empirical_cov(F):
    N = F.shape[0]
    C = F.T @ F / N
    second = (F**2).T @ (F**2) / N
    se = np.sqrt(np.clip(second - C**2, 0.0, None) / N)
    return C, se


def test_criterion_01_kravchuk_triple_agreement(capsys):
    with criterion(capsys, "1 Kravchuk triple agreement (d <= 12, exact + 1e-12 rel)"):
        start = time.monotonic()
        for d in range(1, 13):
            table = build_table(d)
            for j in range(d + 1):
                scale = math.comb(d, j)
                for m in range(d + 1):
                    closed = kravchuk_closed_form(d, j, m)
                    assert brute_force_level_sum_at(d, j, m) == closed
                    dp = table.value(j, m) * scale
                    assert abs(dp - closed) <= 1e-12 * max(1.0, abs(closed))
        assert time.monotonic() - start < 30.0


def test_criterion_02_spectral_oracle(capsys):
    with criterion(capsys, "2 spectral oracle (explicit eigendecomposition, 1e-9)"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for d in range(2, 11):
            for _ in range(20):
                spec = random_plain_spec(rng, d)
                got = kernel_profile(spec, d)
                want = dense_spectral_profile(spec, d)
                assert np.abs(got - want).max() <= 1e-9 * spec.variance
        assert time.monotonic() - start < 120.0


def test_criterion_03_heat_closed_form(capsys):
    with criterion(capsys, "3 heat closed form (tanh identity, 1e-10)"):
        rng = np.random.default_rng(102)
        for _ in range(50):
            d = int(rng.integers(1, 13))
            kappa = float(rng.uniform(0.1, 3.0))
            sigma2 = float(rng.uniform(0.25, 4.0))
            m = int(rng.integers(0, d + 1))
            spec = KernelSpec(Heat(kappa), sigma2, LaplacianVariant.PLAIN)
            got = evaluate(spec, build_table(d), m)
            assert abs(got - heat_closed_form(kappa, sigma2, m)) <= 1e-10 * max(1.0, sigma2)


def test_criterion_04_psd_grams(capsys):
    with criterion(capsys, "4 PSD Grams (100 points, DL_4 and U_6)"):
        rng = np.random.default_rng(103)
        for space in (
            GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 4),
            GraphSpace(GraphSpaceKind.UNDIRECTED, 6),
        ):
            xs = [space.random_code(rng) for _ in range(100)]
            for _ in range(10):
                spec = random_plain_spec(rng, space.d)
                K = IsotropicKernel(spec, space).gram(xs)
                assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)


def test_criterion_05_isotropy(capsys):
    with criterion(capsys, "5 isotropy under translations and slot permutations (exact)"):
        rng = np.random.default_rng(104)
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        d = space.d
        spec = matern_spec(d, nu_base=1.5, kappa=1.0, variance=2.0)
        table = build_table(d)
        for _ in range(1000):
            x, y, z = (space.random_code(rng) for _ in range(3))
            perm = tuple(rng.permutation(d))
            base = evaluate(spec, table, hamming(x, y))
            assert evaluate(spec, table, hamming(x ^ z, y ^ z)) == base
            assert evaluate(spec, table, hamming(permute_bits(x, perm), permute_bits(y, perm))) == base


def test_criterion_06_quotient_theorem(capsys):
    with criterion(capsys, "6 quotient kernel = exact group average (1e-8), 11 classes"):
        specs = (
            KernelSpec(Matern(nu=8.5, kappa=1.0), 1.0),
            KernelSpec(Heat(1.2), 2.0),
        )
        for blocks in (((0, 1, 2), (3,)), ((0, 1, 2, 3),)):
            H = PermSubgroup(4, blocks)
            quotient = build_quotient(H, U4)
            if blocks == ((0, 1, 2, 3),):
                assert quotient.num_classes == 11
            reps = [c.canonical for c in quotient.classes]
            for spec in specs:
                qk = quotient_kernel_matrix(spec, quotient)
                exact = invariant_gram_exact(spec, H, reps)
                assert np.abs(qk - exact).max() <= 1e-8


def test_criterion_07_orbit_equivalence_identity(capsys):
    with criterion(capsys, "7 kernel equality iff shared orbit (64x64 pairs, 1e-9)"):
        spec = KernelSpec(Matern(nu=8.5, kappa=1.0), 1.5)
        H = PermSubgroup.full(4)
        quotient = build_quotient(H, U4)
        codes = list(U4.all_codes())
        K = invariant_gram_exact(spec, H, codes)
        diag = np.diag(K)
        for i in range(64):
            for j in range(64):
                same_orbit = quotient.class_of[i] == quotient.class_of[j]
                identity_holds = abs(K[i, j] - 0.5 * (diag[i] + diag[j])) <= 1e-9 * spec.variance
                assert identity_holds == same_orbit


def test_criterion_08_monte_carlo_projection(capsys):
    with criterion(capsys, "8 MC estimator: PSD, convergent, exact at S = H"):
        rng = np.random.default_rng(105)
        H = PermSubgroup.full(4)
        spec = KernelSpec(Matern(nu=8.5, kappa=1.0), 1.0)
        xs = distinct_codes(U4, 10, rng)

        for seed in range(20):
            K = invariant_gram_sampled(spec, draw_sample(H, 8, seed), xs)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)

        exact = invariant_gram_exact(spec, H, xs)
        mean_errors = []
        for size in (4, 8, 16, 24):
            errs = []
            for seed in range(50):
                K = invariant_gram_sampled(spec, draw_sample(H, size, seed), xs)
                errs.append(np.sqrt(np.mean((K - exact) ** 2)))
            mean_errors.append(float(np.mean(errs)))
        assert all(a > b for a, b in zip(mean_errors, mean_errors[1:]))

        full = tuple(H.elements())
        for _ in range(10):
            x, y = U4.random_code(rng), U4.random_code(rng)
            assert abs(
                invariant_kernel_sampled(spec, full, x, y) - invariant_kernel_exact(spec, H, x, y)
            ) <= 1e-12


def test_criterion_09_gp_correctness(capsys):
    with criterion(capsys, "9 GP inference vs dense solve, invariants, pathwise moments"):
        rng = np.random.default_rng(106)
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 3)
        for _ in range(10):
            kernel = IsotropicKernel(
                KernelSpec(Heat(float(rng.uniform(0.5, 1.5)))), space
            )
            xs = distinct_codes(space, 6, rng)
            ys = rng.standard_normal(6)
            noise = float(rng.uniform(0.01, 0.3))
            stars = distinct_codes(space, 4, rng)
            model = gp.fit(kernel, xs, ys, noise)
            mean, var = gp.predict(model, stars)
            mean_o, var_o = dense_gp_posterior(
                kernel.gram(xs), kernel.gram(stars, xs), np.ones(4), ys, noise
            )
            assert np.abs(mean - mean_o).max() <= 1e-8
            assert np.abs(var - var_o).max() <= 1e-8
            assert np.all(var >= 0.0) and np.all(var <= 1.0 + 1e-9)

        kernel = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        xs = distinct_codes(U4, 8, rng)
        ys = rng.standard_normal(8)
        model = gp.fit(kernel, xs, ys, noise=1e-8)
        mean, _ = gp.predict(model, xs)
        assert np.abs(mean - ys).max() <= 1e-5 * np.abs(ys).max()

        model = gp.fit(kernel, xs, ys, noise=0.1)
        stars = distinct_codes(U4, 5, rng)
        draws = gp.posterior_sample(model, stars, 100_000, 107)
        mean_want, cov_want = gp.predict(model, stars, full_cov=True)
        se_mean = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean_want) <= 4 * se_mean + 1e-9)
        centered = draws - draws.mean(axis=0)
        C, se = empirical_cov(centered)
        assert np.all(np.abs(C - cov_want) <= 4 * se + 1e-9)


def test_criterion_10_feature_sampling(capsys):
    with criterion(capsys, "10 feature samplers: exact law at full level cap, zero mean"):
        rng = np.random.default_rng(108)
        spec = KernelSpec(Heat(1.0))
        xs = distinct_codes(U4, 12, rng)

        sampler = gp.TruncatedWalshSampler(spec, U4)  # level cap d = 6
        draws = sampler.draw(xs, 200_000, 109)
        C, se = empirical_cov(draws)
        K = IsotropicKernel(spec, U4).gram(xs)
        assert np.all(np.abs(C - K) <= 4 * se + 1e-9)

        phase = gp.RandomPhaseSampler(spec, U4, num_anchors=8, seed=110)
        draws = phase.draw(xs, 200_000, 111)
        mean = draws.mean(axis=0)
        se_mean = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean) <= 4 * se_mean + 1e-9)


def test_criterion_11a_hyperparameter_recovery(capsys):
    with criterion(capsys, "11a hyperparameter recovery within factor 2"):
        rng = np.random.default_rng(112)
        kernel_true = IsotropicKernel(KernelSpec(Heat(1.0)), U4)
        xs = distinct_codes(U4, 40, rng)
        K = kernel_true.gram(xs)
        ys = np.linalg.cholesky(K + 1e-10 * np.eye(40)) @ rng.standard_normal(40)
        ys += 0.05 * rng.standard_normal(40)
        objectives = []
        for kappa0 in (1.0, 2.0):
            result = gp.optimize_hyperparameters(
                IsotropicKernel(KernelSpec(Heat(kappa0)), U4), xs, ys, noise=0.1, budget=200
            )
            kappa_hat = result.kernel.spec.family.kappa
            assert 0.5 <= kappa_hat <= 2.0
            objectives.append(result.objective)
        assert abs(objectives[0] - objectives[1]) < 1e-3


def test_criterion_11b_synthetic_experiment_beats_baseline(capsys, tmp_path):
    with criterion(capsys, "11b prior-drawn dataset: GP beats constant baseline >= 8/10"):
        path = tmp_path / "prior.jsonl"
        datasets.save_molecules(path, molecules_from_prior(50, 5, seed=11, kappa=2.0))
        report = run_experiment(
            {
                "dataset": str(path),
                "methods": ["naive", "heat_arbitrary"],
                "n_splits": 10,
                "budget": 40,
                "seed": 3,
            }
        )
        wins = sum(
            1
            for s in report["splits"]
            if s["methods"]["heat_arbitrary"]["rmse"] < s["methods"]["naive"]["rmse"]
        )
        assert wins >= 8


def test_criterion_11c_full_pipeline_on_molecule_files(capsys, tmp_path):
    with criterion(capsys, "11c molecule-file pipeline end to end, all report rows"):
        mols = datasets.filter_small(
            molecules_mixed_elements(45, seed=7), {"C", "N", "O", "Cl"}, 3
        )
        assert len(mols) >= 25
        path = tmp_path / "mols.jsonl"
        datasets.save_molecules(path, mols)
        report = run_experiment(
            {
                "dataset": str(path),
                "aligned_layout": {"type_slots": {"C": 3, "N": 3, "O": 3, "Cl": 3}},
                "methods": list(EXPERIMENT_METHODS),
                "n_splits": 2,
                "budget": 8,
                "seed": 1,
            }
        )
        for method in EXPERIMENT_METHODS:
            entry = report["summary"][method]
            assert set(entry) == {"rmse_mean", "rmse_std", "log_lik_mean", "log_lik_std"}
            assert np.isfinite(entry["rmse_mean"])
            if method == "naive":
                assert entry["log_lik_mean"] is None
            else:
                assert np.isfinite(entry["log_lik_mean"])
        projected = report["summary"]["heat_projected"]["rmse_mean"]
        assert np.isfinite(projected)
