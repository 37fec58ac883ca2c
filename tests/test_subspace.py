"""Spectral subspace fitting and noise estimation."""

import numpy as np
import pytest

from hsidenoise.subspace import (
    RIDGE_SCALE,
    NoiseModel,
    estimate_band_noise,
    estimate_subspace_dim,
    reestimate_noise,
    spectral_decompose,
)
from hsidenoise.synthetic import rank_cube
from hsidenoise.tensor import frob_norm_sq, unfold3
from hsidenoise.io import add_gaussian_noise


def rel_frob(a, b):
    return np.sqrt(frob_norm_sq(a - b) / frob_norm_sq(b))


def band_noise_by_loop(cube):
    """Reference estimate: regress each band on the others, one at a time.

    Band i is removed from the ridge-regularized inverse by a rank-one
    downdate, then its coefficients come from the downdated inverse.
    """
    z = unfold3(cube)
    b = z.shape[0]
    r = z @ z.T
    q = np.linalg.inv(r + RIDGE_SCALE * np.trace(r) / b * np.eye(b))
    sigmas = np.empty(b)
    for i in range(b):
        xx = q - np.outer(q[:, i], q[i, :]) / q[i, i]
        ra = r[:, i].copy()
        ra[i] = 0.0
        beta = xx @ ra
        beta[i] = 0.0
        w = z[i] - beta @ z
        sigmas[i] = np.sqrt(np.mean(w * w) / (1.0 + beta @ beta))
    return sigmas


class TestSpectralDecompose:
    def test_basis_orthonormal(self):
        cube = rank_cube(16, 16, 8, 4, seed=0)
        model = spectral_decompose(cube, 4)
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_shapes(self):
        cube = rank_cube(10, 12, 6, 2, seed=1)
        model = spectral_decompose(cube, 3)
        assert model.basis.shape == (6, 3)
        assert model.reduced.shape == (10, 12, 3)
        assert model.k == 3

    def test_rank1_exact_recovery(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((8, 8))
        spec = rng.standard_normal(5)
        cube = w[:, :, None] * spec[None, None, :]
        model = spectral_decompose(cube, 1)
        assert rel_frob(model.reconstruct(), cube) < 1e-8

    def test_full_k_identity(self):
        rng = np.random.default_rng(3)
        cube = rng.standard_normal((6, 6, 4))
        model = spectral_decompose(cube, 4)
        assert rel_frob(model.reconstruct(), cube) < 1e-8

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(4)
        cube = rng.standard_normal((8, 8, 6))
        errs = [
            frob_norm_sq(cube - spectral_decompose(cube, k).reconstruct())
            for k in range(1, 7)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(5)
        cube = rng.standard_normal((5, 5, 4))
        model = spectral_decompose(cube, 2)
        resid = frob_norm_sq(cube - model.reconstruct())
        s = np.linalg.svd(unfold3(cube), compute_uv=False)
        assert resid == pytest.approx(np.sum(s[2:] ** 2), rel=1e-10)

    def test_gram_and_svd_paths_agree(self):
        # MN > B takes the Gram path, MN < B the direct SVD; the
        # projector they produce must match.
        rng = np.random.default_rng(6)
        wide = rng.standard_normal((12, 12, 6))
        for cube, k in ((wide, 3), (rng.standard_normal((3, 3, 16)), 4)):
            model = spectral_decompose(cube, k)
            a = model.basis
            z = unfold3(cube)
            u_full, _, _ = np.linalg.svd(z, full_matrices=False)
            proj_ref = u_full[:, :k] @ u_full[:, :k].T
            assert np.abs(a @ a.T - proj_ref).max() < 1e-8

    def test_sign_convention_deterministic(self):
        cube = rank_cube(16, 16, 8, 3, seed=7)
        a1 = spectral_decompose(cube, 3).basis
        a2 = spectral_decompose(np.ascontiguousarray(cube.copy()), 3).basis
        np.testing.assert_array_equal(a1, a2)
        # largest-magnitude entry of each column is positive
        idx = np.argmax(np.abs(a1), axis=0)
        assert (a1[idx, np.arange(3)] > 0).all()

    def test_k_out_of_range(self):
        cube = rank_cube(8, 8, 4, 2)
        with pytest.raises(ValueError):
            spectral_decompose(cube, 0)
        with pytest.raises(ValueError):
            spectral_decompose(cube, 5)


class TestEstimateBandNoise:
    def test_noiseless_low_rank_near_zero(self):
        # exact linear dependence among bands; only the ridge bias is left
        for rank in (1, 3):
            cube = rank_cube(64, 64, 32, rank, seed=3, peak=1.0)
            assert estimate_band_noise(cube).max() <= 1e-6

    def test_gaussian_sigma20_recovered(self):
        cube = rank_cube(64, 64, 16, 3, seed=0)
        noisy = add_gaussian_noise(cube, 20.0, seed=50)
        sigmas = estimate_band_noise(noisy)
        assert sigmas.shape == (16,)
        assert 18.0 <= sigmas.mean() <= 22.0

    @pytest.mark.parametrize("sigma", [0.0, 5.0, 40.0])
    def test_matches_per_band_regression(self, sigma):
        cube = add_gaussian_noise(rank_cube(24, 20, 12, 3, seed=21), sigma, seed=21)
        # noiseless residuals are rounding error; atol is 4e-9 of the peak
        np.testing.assert_allclose(
            estimate_band_noise(cube), band_noise_by_loop(cube), rtol=1e-9, atol=1e-6
        )

    def test_matches_per_band_regression_unequal_noise(self):
        # band-dependent noise levels, so the per-band coefficients differ
        rng = np.random.default_rng(22)
        cube = rank_cube(32, 32, 10, 4, seed=22) + rng.standard_normal(
            (32, 32, 10)
        ) * np.linspace(2.0, 30.0, 10)
        np.testing.assert_allclose(
            estimate_band_noise(cube), band_noise_by_loop(cube), rtol=1e-9
        )

    def test_constant_cube_near_zero(self):
        sigmas = estimate_band_noise(np.full((32, 32, 8), 87.0))
        assert sigmas.max() <= 1e-3

    def test_zero_cube(self):
        np.testing.assert_array_equal(
            estimate_band_noise(np.zeros((16, 16, 4))), np.zeros(4)
        )

    def test_single_band_rejected(self):
        with pytest.raises(ValueError):
            estimate_band_noise(np.zeros((8, 8, 1)))

    def test_too_few_pixels_rejected(self):
        with pytest.raises(ValueError, match="insufficient pixels"):
            estimate_band_noise(np.zeros((2, 2, 8)))


class TestEstimateSubspaceDim:
    def test_exact_rank_noiseless(self):
        for rank in (1, 3, 5):
            cube = rank_cube(32, 32, 16, rank, seed=rank)
            assert estimate_subspace_dim(cube, estimate_band_noise(cube)) == rank

    def test_pure_noise_collapses(self):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((64, 64, 32)) * 30.0
        k = estimate_subspace_dim(noise, estimate_band_noise(noise))
        assert k <= 3

    def test_scale_covariant(self):
        cube = add_gaussian_noise(rank_cube(32, 32, 16, 4, seed=9), 15.0, seed=9)
        sig = estimate_band_noise(cube)
        k1 = estimate_subspace_dim(cube, sig)
        k2 = estimate_subspace_dim(cube * 1000.0, sig * 1000.0)
        assert k1 == k2

    def test_degenerate_returns_one_with_warning(self):
        with pytest.warns(UserWarning):
            k = estimate_subspace_dim(np.zeros((8, 8, 4)), np.zeros(4))
        assert k == 1


class TestNoiseModel:
    def test_sigma0_property(self):
        assert NoiseModel(sigma0_sq=400.0).sigma0 == 20.0

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma0_sq=-1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma0_sq=1.0, gamma=-0.5)


class TestReestimateNoise:
    def test_first_iteration_is_gamma_sigma0(self):
        """With y_i = y the radicand is exactly sigma0^2."""
        y = rank_cube(16, 16, 4, 2, seed=10)
        noise = NoiseModel(sigma0_sq=400.0, gamma=0.5)
        assert reestimate_noise(y, y, noise) == 0.5 * 20.0

    def test_msd_equal_to_variance_gives_zero(self):
        y = np.zeros((4, 4, 2))
        y_i = np.full((4, 4, 2), 3.0)
        noise = NoiseModel(sigma0_sq=9.0, gamma=0.5)
        assert reestimate_noise(y_i, y, noise) == 0.0

    def test_hand_value(self):
        y = np.zeros((2, 2, 1))
        y_i = np.array([[[2.0], [0.0]], [[0.0], [0.0]]])  # msd = 1
        noise = NoiseModel(sigma0_sq=5.0, gamma=0.5)
        assert reestimate_noise(y_i, y, noise) == pytest.approx(0.5 * 2.0)

    def test_denoised_input_drives_sigma_down(self):
        # when y_i is the clean cube, msd approaches sigma0^2 and the
        # re-estimate collapses; Monte-Carlo within 5%
        clean = rank_cube(64, 64, 8, 3, seed=11)
        noisy = add_gaussian_noise(clean, 25.0, seed=11)
        noise = NoiseModel(sigma0_sq=625.0, gamma=0.5)
        sig = reestimate_noise(clean, noisy, noise)
        msd = np.mean((clean - noisy) ** 2)
        assert abs(msd - 625.0) / 625.0 < 0.05
        assert sig < 0.5 * 25.0 * 0.25
