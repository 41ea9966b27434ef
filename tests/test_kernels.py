import math

import numpy as np
import pytest

from oracles import brute_force_level_sum, dense_spectral_profile, log_sign_profile, permute_bits

from graphgp.kernels import (
    HAMMING_CACHE_SIZE,
    CustomPhi,
    Heat,
    IsotropicKernel,
    KernelSpec,
    LaplacianVariant,
    LinearKernel,
    Matern,
    _hamming_matrix,
    evaluate,
    gram,
    heat_closed_form,
    kernel_profile,
    level_amplitudes,
    level_log_weights,
    matern_spec,
    spec_from_json,
    spec_to_json,
)
from graphgp.kravchuk import build_table
from graphgp.spaces import GraphSpace, GraphSpaceKind, hamming

PLAIN = LaplacianVariant.PLAIN
SYM = LaplacianVariant.SYMMETRIC


def random_spec(rng, variant=SYM, d=8):
    if rng.random() < 0.5:
        family = Heat(kappa=float(rng.uniform(0.3, 3.0)))
    else:
        family = Matern(nu=d / 2 + float(rng.uniform(0.5, 3.0)), kappa=float(rng.uniform(0.3, 3.0)))
    return KernelSpec(family, variance=float(rng.uniform(0.25, 4.0)), laplacian=variant)


# frozen after validating against the explicit-eigendecomposition oracle
MATERN_D6_WEIGHTS = [
    0.024695470407841077,
    0.12573644556514368,
    0.2680161643672387,
    0.306062565242595,
    0.19743572970065598,
    0.06820016753133705,
    0.009853457185188328,
]


class TestSpectralCoefficients:
    def test_convex_combination(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            w = np.exp(level_log_weights(spec, 8))
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_truncated_levels_excluded(self):
        spec = KernelSpec(Heat(1.0), truncation=3)
        log_w = level_log_weights(spec, 8)
        assert np.all(np.isneginf(log_w[4:]))
        assert np.exp(log_w[:4]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_matern_snapshot(self):
        spec = matern_spec(6, nu_base=2.5, kappa=1.0)
        assert spec.family.nu == 5.5
        w = np.exp(level_log_weights(spec, 6))
        assert w == pytest.approx(MATERN_D6_WEIGHTS, rel=1e-12)

    def test_heat_small_kappa_flattens(self):
        # kappa -> 0 puts mass C(d,j)/2^d on level j and kills off-diagonal values
        d = 8
        spec = KernelSpec(Heat(1e-4), laplacian=PLAIN)
        w = np.exp(level_log_weights(spec, d))
        expect = np.array([math.comb(d, j) for j in range(d + 1)]) / 2**d
        assert w == pytest.approx(expect, rel=1e-6)
        profile = kernel_profile(spec, d)
        assert abs(profile[1:]).max() < 1e-6
        for m in range(d + 1):
            assert profile[m] == pytest.approx(heat_closed_form(1e-4, 1.0, m), abs=1e-12)

    def test_heat_large_kappa_is_constant_kernel(self):
        spec = KernelSpec(Heat(25.0), laplacian=PLAIN)
        w = np.exp(level_log_weights(spec, 6))
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        profile = kernel_profile(spec, 6)
        assert profile == pytest.approx(np.ones(7), abs=1e-10)

    def test_degenerate_density_rejected(self):
        spec = KernelSpec(CustomPhi(lambda lam: 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            level_log_weights(spec, 4)

    def test_negative_density_rejected(self):
        spec = KernelSpec(CustomPhi(lambda lam: -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            level_log_weights(spec, 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Matern(nu=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            Heat(kappa=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(Heat(1.0), variance=0.0)


class TestEvaluate:
    def test_distance_zero_is_variance_exactly(self, rng):
        table = build_table(9)
        for _ in range(10):
            spec = random_spec(rng, d=9)
            assert evaluate(spec, table, 0) == spec.variance

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            evaluate(KernelSpec(Heat(1.0)), build_table(4), 5)

    def test_heat_matches_closed_form(self, rng):
        for d in (2, 5, 8, 12):
            table = build_table(d)
            for _ in range(15):
                kappa = float(rng.uniform(0.2, 2.5))
                sigma2 = float(rng.uniform(0.5, 2.0))
                spec = KernelSpec(Heat(kappa), sigma2, PLAIN)
                m = int(rng.integers(0, d + 1))
                assert evaluate(spec, table, m) == pytest.approx(
                    heat_closed_form(kappa, sigma2, m), abs=1e-10 * sigma2
                )

    def test_top_level_only_alternates(self):
        # keeping only the highest level gives sigma^2 * (-1)^m
        d = 4
        table = build_table(d)
        top = 2.0 * d / d
        spec = KernelSpec(CustomPhi(lambda lam: 1.0 if lam > top - 1e-9 else 0.0), variance=1.5)
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 2)  # d = 4
        x = space.empty_code()
        for m in range(d + 1):
            got = evaluate(spec, table, m)
            assert got == pytest.approx(1.5 * (-1.0) ** m, abs=1e-12)
            # cross-check the level sum against enumeration
            y = space.code_from_int((1 << m) - 1)
            assert brute_force_level_sum(x, y, d) == (-1) ** m

    def test_matches_dense_eigendecomposition(self, rng):
        for d in (2, 4, 6):
            for variant in (PLAIN, SYM, LaplacianVariant.RANDOM_WALK):
                spec = random_spec(rng, variant=variant, d=d)
                got = kernel_profile(spec, d)
                want = dense_spectral_profile(spec, d)
                assert np.abs(got - want).max() <= 1e-9 * spec.variance


class TestHeatClosedForm:
    def test_distance_zero(self):
        assert heat_closed_form(1.3, 2.5, 0) == 2.5

    def test_quarter_at_two_steps(self):
        kappa = math.sqrt(2.0 * math.atanh(0.5))
        assert heat_closed_form(kappa, 2.0, 2) == pytest.approx(0.5, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            heat_closed_form(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            heat_closed_form(1.0, 1.0, -1)


class TestGram:
    def test_single_code(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        spec = random_spec(rng, d=space.d)
        K = gram(spec, [space.random_code(rng)])
        assert K.shape == (1, 1)
        assert K[0, 0] == spec.variance

    def test_antipodal_heat_value(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        spec = KernelSpec(Heat(1.0), 2.0, PLAIN)
        x = space.empty_code()
        y = space.code_from_int((1 << space.d) - 1)
        K = gram(spec, [x, y])
        assert K[0, 1] == pytest.approx(2.0 * math.tanh(0.5) ** space.d, rel=1e-12)
        assert K[0, 1] == K[1, 0]

    def test_psd_on_random_codes(self, rng):
        space = GraphSpace(GraphSpaceKind.DIRECTED_LOOPS, 4)
        xs = [space.random_code(rng) for _ in range(100)]
        for _ in range(5):
            spec = random_spec(rng, d=space.d)
            K = gram(spec, xs)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() >= -1e-8 * np.trace(K)

    def test_mixed_spaces_rejected(self, rng):
        a = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        b = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        with pytest.raises(ValueError, match="different spaces"):
            gram(KernelSpec(Heat(1.0)), [a.empty_code(), b.empty_code()])


class TestIsotropy:
    def test_exact_invariance_under_translations_and_slot_permutations(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        d = space.d
        spec = random_spec(rng, d=d)
        table = build_table(d)
        for _ in range(1000):
            x, y, z = (space.random_code(rng) for _ in range(3))
            perm = tuple(rng.permutation(d))
            base = evaluate(spec, table, hamming(x, y))
            assert evaluate(spec, table, hamming(x ^ z, y ^ z)) == base
            assert (
                evaluate(spec, table, hamming(permute_bits(x, perm), permute_bits(y, perm))) == base
            )


class TestRestrictionProperty:
    def test_heat_is_restricted_squared_exponential(self):
        # g(t) = exp(-t / (2 l^2)) with l^2 = -1 / (2 log tanh(kappa^2/2))
        # agrees with the heat profile at every integer distance, since the
        # Hamming distance of 0/1 vectors equals their squared Euclidean one.
        d, kappa = 9, 1.1
        ell2 = -1.0 / (2.0 * math.log(math.tanh(kappa**2 / 2.0)))
        assert ell2 > 0
        profile = kernel_profile(KernelSpec(Heat(kappa), laplacian=PLAIN), d)
        for m in range(d + 1):
            assert profile[m] == pytest.approx(math.exp(-m / (2.0 * ell2)), rel=1e-10)


class TestTruncation:
    def test_captured_mass_monotone(self):
        d = 10
        full = np.exp(level_log_weights(KernelSpec(Heat(1.0)), d))
        masses = []
        for J in range(d + 1):
            live = np.isfinite(level_log_weights(KernelSpec(Heat(1.0), truncation=J), d))
            masses.append(full[live].sum())
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "space",
        [GraphSpace(GraphSpaceKind.UNDIRECTED, 5), GraphSpace(GraphSpaceKind.DIRECTED, 4)],
        ids=["d10", "d12"],
    )
    def test_full_truncation_matches_walsh_enumeration(self, space, rng):
        d = space.d
        spec = KernelSpec(Heat(0.9), 1.7, PLAIN, truncation=d)
        amps = level_amplitudes(spec, d)
        x, y = space.random_code(rng), space.random_code(rng)
        by_enumeration = sum(amps[j] * brute_force_level_sum(x, y, j) for j in range(d + 1))
        assert evaluate(spec, build_table(d), hamming(x, y)) == pytest.approx(
            by_enumeration, rel=1e-12
        )


class TestLinearKernel:
    def test_gram_values(self):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 3)
        x = space.code_from_bits([1, 1, 0])
        y = space.code_from_bits([1, 0, 1])
        K = LinearKernel(2.0).gram([x, y])
        assert K.tolist() == [[2.0 * 3.0, 2.0 * 2.0], [2.0 * 2.0, 2.0 * 3.0]]


class TestSpecJson:
    def test_round_trip(self):
        spec = KernelSpec(Matern(5.5, 1.2), 2.0, SYM, truncation=4)
        assert spec_from_json(spec_to_json(spec)) == spec
        heat = KernelSpec(Heat(0.7), 1.0, PLAIN)
        assert spec_from_json(spec_to_json(heat)) == heat

    def test_nu_base_resolution(self):
        spec = spec_from_json({"family": "matern", "nu_base": 2.5, "kappa": 1.0}, d=6)
        assert spec.family.nu == 5.5
        with pytest.raises(ValueError, match="nu_base"):
            spec_from_json({"family": "matern", "nu_base": 2.5})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            spec_from_json({"family": "bogus"})

    def test_custom_not_serializable(self):
        with pytest.raises(ValueError, match="custom"):
            spec_to_json(KernelSpec(CustomPhi(lambda lam: 1.0)))


class TestIsotropicKernelObject:
    def test_gram_and_with_spec(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 4)
        spec = KernelSpec(Heat(1.0), 1.0)
        kernel = IsotropicKernel(spec, space)
        xs = [space.random_code(rng) for _ in range(5)]
        assert np.array_equal(kernel.gram(xs), gram(spec, xs))
        spec2 = KernelSpec(Heat(2.0), 3.0)
        assert kernel.with_spec(spec2).spec == spec2


class TestProfileAgainstLogSignSum:
    """The one-product profile against the sign + log-magnitude level sum.

    Tolerance: (d + 1) rounding units of sigma^2 per value. Every |G'| <= 1
    and the level weights sum to one, so each summation order is within
    that of the exact sum however the signed terms cancel.
    """

    @pytest.mark.parametrize("d", [1, 2, 6, 15, 66, 256])
    def test_every_family_variant_and_truncation(self, d):
        families = [
            Heat(0.3),
            Heat(3.0),
            Heat(math.sqrt(d)),
            Matern(nu=d / 2 + 0.5, kappa=1.0),
            Matern(nu=d / 2 + 2.5, kappa=4.0),
            CustomPhi(lambda lam: 1.0 / (1.0 + lam)),
        ]
        for family in families:
            for variant in LaplacianVariant:
                for truncation in (None, 0, d // 2):
                    spec = KernelSpec(family, 1.7, variant, truncation)
                    tol = (d + 1) * np.finfo(float).eps * spec.variance
                    got = kernel_profile(spec, d)
                    assert got[0] == spec.variance
                    assert np.abs(got - log_sign_profile(spec, d)).max() <= tol

    def test_evaluate_indexes_the_profile(self, rng):
        table = build_table(10)
        spec = random_spec(rng, d=10)
        profile = kernel_profile(spec, 10)
        assert [evaluate(spec, table, m) for m in range(11)] == list(profile)


class TestDiag:
    def test_isotropic_and_linear_match_gram_diagonal(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 6)
        xs = [space.random_code(rng) for _ in range(12)]
        for kernel in (IsotropicKernel(random_spec(rng, d=space.d), space), LinearKernel(2.5)):
            assert np.array_equal(kernel.diag(xs), np.diag(kernel.gram(xs)))
            assert kernel.diag([]).shape == (0,)
            assert kernel.gram([], xs).shape == (0, 12)
            assert kernel.gram(xs, []).shape == (12, 0)


class TestHammingCache:
    def test_reused_and_bounded(self, rng):
        space = GraphSpace(GraphSpaceKind.UNDIRECTED, 5)
        xs = tuple(space.random_code(rng) for _ in range(6))
        spec = KernelSpec(Heat(1.0))
        gram(spec, xs)
        before = _hamming_matrix.cache_info()
        gram(KernelSpec(Heat(2.0)), xs)
        assert _hamming_matrix.cache_info().hits == before.hits + 1
        for k in range(HAMMING_CACHE_SIZE + 5):
            gram(spec, [space.random_code(rng) for _ in range(2 + k % 3)])
            assert _hamming_matrix.cache_info().currsize <= HAMMING_CACHE_SIZE
