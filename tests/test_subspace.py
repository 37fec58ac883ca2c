"""Spectral subspace fitting and noise estimation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hsidenoise.experiment import load_input
from hsidenoise.subspace import (
    RIDGE_SCALE,
    estimate_band_noise,
    estimate_subspace_dim,
    reestimate_noise,
    spectral_decompose,
)
from hsidenoise.synthetic import rank_cube
from hsidenoise.tensor import frob_norm_sq, mode3_product
from hsidenoise.io import add_gaussian_noise, write_cube


def rel_frob(a, b):
    return np.sqrt(frob_norm_sq(a - b) / frob_norm_sq(b))


def band_noise_by_loop(cube):
    """Reference estimate: regress each band on the others, one at a time.

    Each regression is a least-squares solve of the band on the other
    bands with ridge rows appended.  Its residual's mean square over the
    M*N - B + 1 degrees of freedom is v; the predictors' noise carried
    through the coefficients, ||beta||^2 less its sampling part v times
    the sum of 1/sv^2 over the solve's singular values, is taken off.
    """
    z = cube.reshape(-1, cube.shape[2]).T
    b, mn = z.shape
    ridge = math.sqrt(RIDGE_SCALE * np.trace(z @ z.T) / b) * np.eye(b - 1)
    sigmas = np.empty(b)
    for i in range(b):
        others = np.delete(z, i, axis=0)
        beta, _, _, sv = np.linalg.lstsq(
            np.vstack([others.T, ridge]), np.concatenate([z[i], np.zeros(b - 1)]), rcond=None
        )
        w = z[i] - beta @ others
        v = (w @ w) / (mn - b + 1)
        carried = max(beta @ beta - v * np.sum(sv**-2.0), 0.0)
        sigmas[i] = math.sqrt(v / (1.0 + carried))
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
        assert model.basis.shape[1] == 3

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
        s = np.linalg.svd(cube.reshape(-1, cube.shape[2]).T, compute_uv=False)
        assert resid == pytest.approx(np.sum(s[2:] ** 2), rel=1e-10)

    def test_gram_and_svd_paths_agree(self):
        # MN > B takes the Gram path, MN < B the direct SVD; the
        # projector they produce must match.
        rng = np.random.default_rng(6)
        wide = rng.standard_normal((12, 12, 6))
        for cube, k in ((wide, 3), (rng.standard_normal((3, 3, 16)), 4)):
            model = spectral_decompose(cube, k)
            a = model.basis
            z = cube.reshape(-1, cube.shape[2]).T
            u_full, _, _ = np.linalg.svd(z, full_matrices=False)
            proj_ref = u_full[:, :k] @ u_full[:, :k].T
            assert np.abs(a @ a.T - proj_ref).max() < 1e-8

    @pytest.mark.parametrize("shape", [(3, 3, 16), (2, 5, 12), (1, 1, 4)])
    def test_every_k_when_bands_exceed_pixels(self, shape):
        # B > M*N: the band Gram has rank M*N, and k above it still gets k
        # orthonormal columns and an exact reconstruction
        cube = np.random.default_rng(8).standard_normal(shape)
        m, n, b = shape
        for k in range(1, b + 1):
            model = spectral_decompose(cube, k)
            assert model.basis.shape == (b, k)
            assert model.reduced.shape == (m, n, k)
            assert np.abs(model.basis.T @ model.basis - np.eye(k)).max() < 1e-12
            if k >= m * n:
                assert rel_frob(model.reconstruct(), cube) < 1e-12

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        cube = rank_cube(8, 8, 4, 2)
        cube[2, 5, 3] = bad
        with pytest.raises(ValueError, match="cube has non-finite entries"):
            spectral_decompose(cube, 2)

    @pytest.mark.parametrize(
        "cube",
        [np.full((4, 4, 2), 4.31569717e-203), rank_cube(16, 16, 8, 3, seed=0) * 1e-170],
        ids=["tiny-constant", "tiny-rank3"],
    )
    def test_underflowing_gram_still_fits(self, cube):
        # every entry of this cube's unscaled band Gram underflows to zero
        z = cube.reshape(-1, cube.shape[2]).T
        assert not (z @ z.T).any()
        model = spectral_decompose(cube, 2)
        assert np.abs(model.basis.T @ model.basis - np.eye(2)).max() < 1e-12
        assert np.isfinite(model.reduced).all()


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

    @pytest.mark.parametrize(
        "shape", [(24, 24, 191), (48, 48, 191), (96, 96, 64)], ids=lambda s: "x".join(map(str, s))
    )
    def test_pure_noise_median_unbiased(self, shape):
        # 576 pixels for 191 bands at 24x24: the residual is divided by its
        # 386 degrees of freedom, not by the 576 pixels
        noise = np.random.default_rng(0).standard_normal(shape) * 30.0
        assert np.median(estimate_band_noise(noise)) == pytest.approx(30.0, rel=0.02)

    @pytest.mark.parametrize(
        "shape", [(48, 48, 191), (128, 128, 191), (96, 96, 64), (32, 32, 32)]
    )
    def test_enough_pixels_do_not_warn(self, shape):
        cube = add_gaussian_noise(rank_cube(*shape, 3, seed=0), 30.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_band_noise(cube)

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

    @pytest.mark.parametrize("m", [128, 256])
    def test_peak_memory_independent_of_pixels(self, m):
        # the cube is read only to form the B x B Gram; nothing after it
        # grows with the pixel count
        cube = add_gaussian_noise(rank_cube(m, m, 32, 6, seed=14), 10.0, seed=14)
        assert cube.flags.c_contiguous
        b = cube.shape[2]
        estimate_band_noise(cube)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            estimate_band_noise(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * b * b * 8, f"peak {peak} bytes"

    @pytest.mark.parametrize("e", [-150, -100, 0, 100, 150])
    def test_scale_covariant(self, e):
        # values near 1, so neither the Gram of the 1e150 cube overflows nor
        # that of the 1e-150 cube underflows; what follows the Gram must not
        # either
        x = add_gaussian_noise(rank_cube(32, 32, 8, 3, seed=15, peak=1.0), 0.05, seed=15)
        scale = 10.0**e
        np.testing.assert_allclose(
            estimate_band_noise(x * scale) / scale, estimate_band_noise(x), rtol=1e-12
        )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_raises(self, bad):
        x = add_gaussian_noise(rank_cube(32, 32, 8, 3, seed=0), 10.0, seed=0)
        x[3, 4, 5] = bad
        with pytest.raises(ValueError, match="cube has non-finite entries"):
            estimate_band_noise(x)

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

    @pytest.mark.parametrize(
        "shape",
        [(24, 24, 191), (48, 48, 191), (64, 64, 32), (96, 96, 64)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_pure_noise_is_one(self, shape):
        # the Marchenko-Pastur edge holds the count to the least K, 1, even
        # with M*N about 3B
        noise = np.random.default_rng(1).standard_normal(shape) * 30.0
        assert estimate_subspace_dim(noise, estimate_band_noise(noise)) == 1

    @pytest.mark.parametrize("m", [24, 48])
    @pytest.mark.parametrize("sigma", [10.0, 30.0, 50.0])
    def test_rank_found_with_few_pixels_per_band(self, m, sigma):
        cube = add_gaussian_noise(rank_cube(m, m, 191, 3, seed=0), sigma, seed=0)
        assert estimate_subspace_dim(cube, estimate_band_noise(cube)) == 3

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_band_sigma_rejected(self, bad):
        cube = add_gaussian_noise(rank_cube(16, 16, 6, 2, seed=4), 5.0, seed=4)
        for sig in (np.full(6, bad), np.where(np.arange(6) == 2, bad, 5.0)):
            with pytest.raises(ValueError, match="band sigmas"):
                estimate_subspace_dim(cube, sig)

    def test_wrong_band_sigma_count_rejected(self):
        cube = add_gaussian_noise(rank_cube(16, 16, 6, 2, seed=4), 5.0, seed=4)
        with pytest.raises(ValueError, match="expected 6 band sigmas"):
            estimate_subspace_dim(cube, np.full(5, 5.0))


@pytest.mark.parametrize("e", [-600, -560, -520, 510, 520])
def test_out_of_range_gram_scaled_exactly(e):
    """Scaled by 2^e, the squares of the cube's entries underflow (to zero
    at -600 and -560, to subnormals that lose bits at -520, where the trace
    is still a normal float) or overflow (e > 0); the estimators and the
    fit scale the cube by a power of two first, so each gives the in-range
    cube's result, scaled alike."""
    x = add_gaussian_noise(rank_cube(32, 32, 16, 3, seed=0), 10.0, seed=0)
    sig = estimate_band_noise(x)
    model = spectral_decompose(x, 3)
    y = np.ldexp(x, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(estimate_band_noise(y), np.ldexp(sig, e))
        assert estimate_subspace_dim(y, np.ldexp(sig, e)) == estimate_subspace_dim(x, sig)
        scaled = spectral_decompose(y, 3)
    np.testing.assert_array_equal(scaled.basis, model.basis)
    np.testing.assert_array_equal(scaled.reduced, np.ldexp(model.reduced, e))


@pytest.mark.parametrize(
    "call",
    [lambda c: spectral_decompose(c, 3), lambda c: estimate_subspace_dim(c, np.full(8, 5.0))],
    ids=["spectral_decompose", "estimate_subspace_dim"],
)
def test_eigh_failure_has_one_message(call, monkeypatch):
    """A LAPACK failure in the band Gram's eigendecomposition reaches the
    fit and the K estimate as one LinAlgError, with one message."""

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    cube = add_gaussian_noise(rank_cube(16, 16, 8, 3, seed=0), 5.0, seed=0)
    with pytest.raises(
        np.linalg.LinAlgError,
        match="^eigendecomposition of the 8x8 band Gram matrix failed: Eigenvalues did not converge$",
    ):
        call(cube)


class TestReestimateNoise:
    def test_first_iteration_is_gamma_sigma0(self):
        """With y_i = y, msd is 0 and the radicand exactly sigma0^2."""
        assert reestimate_noise(0.0, 20.0, 0.5) == 0.5 * 20.0

    def test_msd_equal_to_variance_gives_zero(self):
        assert reestimate_noise(9.0, 3.0, 0.5) == 0.0

    def test_hand_value(self):
        assert reestimate_noise(1.0, math.sqrt(5.0), 0.5) == pytest.approx(0.5 * 2.0)

    def test_denoised_input_drives_sigma_down(self):
        # when y_i is the clean cube, msd approaches sigma0^2 and the
        # re-estimate collapses; Monte-Carlo within 5%
        clean = rank_cube(64, 64, 8, 3, seed=11)
        noisy = add_gaussian_noise(clean, 25.0, seed=11)
        msd = frob_norm_sq(clean, noisy) / clean.size
        assert abs(msd - 625.0) / 625.0 < 0.05
        assert reestimate_noise(msd, 25.0, 0.5) < 0.5 * 25.0 * 0.25


class TestSpectralLayerOnViews:
    """The band-mode steps read the cube through a (B, M*N) view."""

    @staticmethod
    def steps(cube):
        b = cube.shape[2]
        sig = estimate_band_noise(cube)
        p = np.random.default_rng(12).standard_normal((b // 2, b))
        return {
            "estimate_band_noise": lambda: estimate_band_noise(cube),
            "estimate_subspace_dim": lambda: estimate_subspace_dim(cube, sig),
            "spectral_decompose": lambda: spectral_decompose(cube, b // 2),
            "mode3_product": lambda: mode3_product(cube, p),
        }

    def test_peak_memory_below_one_cube(self):
        cube = add_gaussian_noise(rank_cube(128, 128, 32, 6, seed=12), 10.0, seed=12)
        assert cube.flags.c_contiguous
        for name, step in self.steps(cube).items():
            step()  # first-call allocations (BLAS, caches) are not counted
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cube.nbytes, f"{name}: peak {peak / cube.nbytes:.2f} cubes"

    def test_file_input_peak_memory_below_one_cube(self, tmp_path):
        """A cube loaded from a file is read through the same view, which
        needs a C-ordered load: the band Gram's reshape of any other
        layout copies the whole cube."""
        noisy = add_gaussian_noise(rank_cube(64, 64, 32, 5, seed=12), 10.0, seed=12)
        cube = load_input(write_cube(tmp_path / "noisy", noisy))
        estimate_band_noise(cube)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            estimate_band_noise(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube.nbytes, f"peak {peak / cube.nbytes:.2f} cubes"

    @pytest.mark.parametrize("layout", ["fortran", "band-sliced"])
    def test_layout_independent(self, layout):
        wide = add_gaussian_noise(rank_cube(24, 20, 24, 4, seed=13), 10.0, seed=13)
        if layout == "fortran":
            cube = np.asfortranarray(wide)
        else:
            cube = wide[:, :, ::2]
        assert not cube.flags.c_contiguous
        got = {name: step() for name, step in self.steps(cube).items()}
        ref = {
            name: step() for name, step in self.steps(np.ascontiguousarray(cube)).items()
        }
        assert got["estimate_subspace_dim"] == ref["estimate_subspace_dim"]
        for a, b in [
            (got["estimate_band_noise"], ref["estimate_band_noise"]),
            (got["spectral_decompose"].basis, ref["spectral_decompose"].basis),
            (got["spectral_decompose"].reduced, ref["spectral_decompose"].reduced),
            (got["mode3_product"], ref["mode3_product"]),
        ]:
            assert rel_frob(a, b) <= 1e-12
