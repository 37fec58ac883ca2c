"""Outer iteration: subspace projection, reduced denoising, mixing."""

import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsidenoise import pipeline, spatial
from hsidenoise.pipeline import (
    DenoiseConfig,
    denoise,
    iterate_regularize,
    update_k,
)
from hsidenoise.spatial import PatchGeometry
from hsidenoise.synthetic import rank_cube
from hsidenoise.tensor import frob_norm_sq
from hsidenoise.io import add_gaussian_noise
from hsidenoise.metrics import mpsnr

SMALL_GEOM = PatchGeometry(patch=4, stride=2, window=10, group=16)


class TestUpdateK:
    def test_cumulative_sequence(self):
        """Growth step widens by delta each round: 6 then 8, 12, 18."""
        ks = [6] + [update_k(6, 2, i, 64) for i in range(1, 4)]
        assert ks == [6, 8, 12, 18]

    def test_affine_sequence(self):
        ks = [6] + [update_k(6, 2, i, 64, growth="affine") for i in range(1, 4)]
        assert ks == [6, 8, 10, 12]

    def test_clamped_to_band_count(self):
        assert update_k(6, 2, 10, 16) == 16

    def test_zero_delta_constant(self):
        assert all(update_k(5, 0, i, 64) == 5 for i in range(1, 8))

    def test_unknown_growth_rejected(self):
        with pytest.raises(ValueError):
            update_k(5, 2, 1, 64, growth="geometric")


class TestIterateRegularize:
    def test_mixing_formula(self):
        x = np.full((2, 2, 1), 10.0)
        y = np.zeros((2, 2, 1))
        np.testing.assert_allclose(iterate_regularize(x, y, 0.9), 9.0)

    def test_lambda_one_keeps_estimate(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3, 2))
        y = rng.standard_normal((3, 3, 2))
        np.testing.assert_array_equal(iterate_regularize(x, y, 1.0), x)

    def test_lambda_zero_keeps_observation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 3, 2))
        y = rng.standard_normal((3, 3, 2))
        np.testing.assert_array_equal(iterate_regularize(x, y, 0.0), y)


class TestDenoiseConfig:
    def test_defaults(self):
        cfg = DenoiseConfig()
        assert cfg.k0 is None
        assert cfg.delta == 2
        assert cfg.lam == 0.9
        assert cfg.gamma == 0.5
        assert cfg.iters == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(lam=1.5)
        with pytest.raises(ValueError):
            DenoiseConfig(iters=0)
        with pytest.raises(ValueError):
            DenoiseConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            DenoiseConfig(k_growth="bogus")

    @pytest.mark.parametrize(
        "bad",
        [
            {"wnnm_c": -1.0},
            {"wnnm_eps": 0.0},
            {"wnnm_eps": -1e-16},
            {"early_stop": 0.0},
            {"early_stop": -0.01},
        ],
    )
    def test_shrinkage_constants_out_of_range(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**bad)

    @pytest.mark.parametrize("name", ["wnnm_c", "wnnm_eps", "early_stop"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_shrinkage_constants_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**{name: value})


class TestDenoise:
    def test_noiseless_low_rank_is_identity(self):
        clean = rank_cube(32, 32, 8, 2, seed=1)
        out, trace = denoise(clean, 0.0, DenoiseConfig(k0=2, geom=SMALL_GEOM))
        rel = np.sqrt(frob_norm_sq(out - clean) / frob_norm_sq(clean))
        assert rel < 1e-6
        assert len(trace) == 5

    def test_trace_records(self):
        clean = rank_cube(32, 32, 8, 2, seed=2)
        noisy = add_gaussian_noise(clean, 20.0, seed=2)
        cfg = DenoiseConfig(k0=2, delta=1, iters=3, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 20.0, cfg, clean=clean)
        assert [r.iteration for r in trace] == [1, 2, 3]
        assert [r.k for r in trace] == [2, 3, 5]
        # first pass sees exactly gamma * sigma0
        assert trace[0].sigma == 0.5 * 20.0
        for rec in trace:
            assert rec.psnr is not None
            assert rec.residual >= 0.0
            assert rec.stage_a_seconds >= 0.0
            assert rec.stage_b_seconds >= 0.0

    def test_psnr_none_without_clean(self):
        clean = rank_cube(32, 32, 8, 2, seed=3)
        noisy = add_gaussian_noise(clean, 20.0, seed=3)
        _, trace = denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM))
        assert all(r.psnr is None for r in trace)

    def test_improves_noisy_input(self):
        clean = rank_cube(48, 48, 16, 3, seed=4)
        noisy = add_gaussian_noise(clean, 30.0, seed=4)
        cfg = DenoiseConfig(k0=3, delta=0, wnnm_c=0.1, lam=0.8, geom=SMALL_GEOM)
        out, _ = denoise(noisy, 30.0, cfg, clean=clean)
        assert mpsnr(clean, out) > mpsnr(clean, noisy) + 5.0

    def test_deterministic(self):
        clean = rank_cube(32, 32, 8, 2, seed=5)
        noisy = add_gaussian_noise(clean, 15.0, seed=5)
        cfg = DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM)
        a, _ = denoise(noisy, 15.0, cfg)
        b, _ = denoise(noisy, 15.0, cfg)
        np.testing.assert_array_equal(a, b)

    def test_estimates_noise_when_not_given(self):
        clean = rank_cube(48, 48, 16, 3, seed=6)
        noisy = add_gaussian_noise(clean, 20.0, seed=6)
        out, trace = denoise(noisy, config=DenoiseConfig(iters=1, geom=SMALL_GEOM))
        assert out.shape == noisy.shape
        # estimated sigma0 lands near the true 20, so the first-pass
        # working sigma is near gamma * 20
        assert 0.5 * 15.0 < trace[0].sigma < 0.5 * 25.0

    def test_early_stop_cuts_trace(self):
        clean = rank_cube(32, 32, 8, 2, seed=7)
        noisy = add_gaussian_noise(clean, 10.0, seed=7)
        cfg = DenoiseConfig(k0=2, iters=5, early_stop=10.0, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 10.0, cfg)
        assert 2 <= len(trace) < 5

    @pytest.mark.parametrize("wnnm_c", [None, 0.1])
    def test_shrink_threshold(self, wnnm_c, monkeypatch):
        """No wnnm_c gives WNNM's weight 32*sqrt(2) * sigma_i^2 each
        iteration; a wnnm_c gives the fixed threshold wnnm_c * PEAK^2."""
        seen = []

        def recorded(reduced, sigma, geom, c, eps, **kwargs):
            seen.append((sigma, c, eps))
            return stage(reduced, sigma, geom, c, eps, **kwargs)

        stage = pipeline.denoise_reduced
        monkeypatch.setattr(pipeline, "denoise_reduced", recorded)
        clean = rank_cube(24, 24, 8, 2, seed=10)
        noisy = add_gaussian_noise(clean, 20.0, seed=10)
        cfg = DenoiseConfig(k0=2, iters=3, wnnm_c=wnnm_c, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 20.0, cfg)
        assert [sigma for sigma, _, _ in seen] == [r.sigma for r in trace]
        for sigma, c, eps in seen:
            want = 0.1 * 255.0**2 if wnnm_c else 32.0 * math.sqrt(2.0) * sigma**2
            assert c == pytest.approx(want, rel=1e-15)
            assert eps == cfg.wnnm_eps

    @pytest.mark.parametrize("iters", [1, 2, 3, 5])
    def test_groups_matched_at_first_two_iterations(self, iters, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return match(*args, **kwargs)

        match = spatial._match
        monkeypatch.setattr(spatial, "_match", counted)
        clean = rank_cube(24, 24, 8, 2, seed=9)
        noisy = add_gaussian_noise(clean, 20.0, seed=9)
        cfg = DenoiseConfig(k0=2, iters=iters, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 20.0, cfg)
        assert len(trace) == iters
        assert len(calls) == min(iters, 2)
        # iteration 2 matches on its own K-band image
        assert [shape[2] for shape in calls] == [r.k for r in trace[:2]]

    def test_overflowing_band_gram_raises(self):
        """Entries near 3e152 overflow the band Gram's trace; the estimate
        raises instead of handing on a NaN sigma and K = 1."""
        clean = rank_cube(32, 32, 32, 5, seed=0)
        noisy = add_gaussian_noise(clean, 10.0, seed=0) * 1e150
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            denoise(noisy, config=DenoiseConfig(iters=1, geom=SMALL_GEOM))

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf])
    def test_non_finite_sigma0_rejected(self, sigma0):
        # NaN turned the shrink off and inf zeroed the estimate
        clean = rank_cube(16, 16, 4, 2, seed=8)
        with pytest.raises(ValueError, match="sigma0"):
            denoise(clean, sigma0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))

    def test_non_finite_input_rejected(self):
        bad = rank_cube(16, 16, 4, 2, seed=8)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            denoise(bad, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))


def blas_counts():
    return [get() for get, _ in spatial._openblas()]


# the names denoise calls BLAS through, as pipeline binds them
BLAS_CALLERS = [
    "estimate_band_noise",
    "estimate_subspace_dim",
    "spectral_decompose",
    "denoise_reduced",
    "mode3_product",
]


class TestBlasHold:
    """denoise holds every OpenBLAS to one thread for the whole call and
    restores the caller's counts however it ends."""

    def test_one_thread_in_every_blas_caller(self, blas_at_three, monkeypatch):
        seen = {}

        def recording(name, fn):
            def call(*args, **kwargs):
                seen.setdefault(name, []).append(blas_counts())
                return fn(*args, **kwargs)
            return call

        for name in BLAS_CALLERS:
            monkeypatch.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=10), 20.0, seed=10)
        denoise(noisy, config=DenoiseConfig(iters=2, geom=SMALL_GEOM))
        assert sorted(seen) == sorted(BLAS_CALLERS)
        one = [1] * len(blas_at_three)
        assert all(counts == one for calls in seen.values() for counts in calls)
        assert blas_counts() == blas_at_three

    def test_counts_restored_after_errors(self, blas_at_three):
        overflowing = add_gaussian_noise(rank_cube(32, 32, 32, 5, seed=0), 10.0, seed=0)
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            denoise(overflowing * 1e150, config=DenoiseConfig(iters=1, geom=SMALL_GEOM))
        assert blas_counts() == blas_at_three
        bad = rank_cube(16, 16, 4, 2, seed=8)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            denoise(bad, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))
        assert blas_counts() == blas_at_three

    def test_shrinkage_pool_keeps_its_workers(self, blas_at_three, monkeypatch):
        """The nested hold in denoise_reduced still finds OpenBLAS, so each
        call's pool gets one thread per core, not one."""
        pools = []

        def pool(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(spatial, "_workers", lambda: 3)
        monkeypatch.setattr(spatial, "ThreadPoolExecutor", pool)
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=11), 20.0, seed=11)
        denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM))
        assert pools == [3, 3, 3]


TINY_GEOM = PatchGeometry(patch=2, stride=2, window=4, group=4)
SIDES = st.integers(1, 10)
SEEDS = st.integers(0, 2**32 - 1)
SIGMA0 = st.sampled_from([None, 10.0])


# ValueErrors denoise documents for cubes too small to estimate or to patch
TOO_SMALL = "insufficient pixels|exceeds image dims"


def denoised_or_value_error(cube, sigma0, geom=TINY_GEOM):
    """denoise's estimate, checked finite and of the input's shape; None
    when denoise rejects a cube too small for it with a ValueError."""
    try:
        x, _ = denoise(cube, sigma0=sigma0, config=DenoiseConfig(iters=2, geom=geom))
    except ValueError as exc:
        assert re.search(TOO_SMALL, str(exc)), exc
        return None
    assert x.shape == cube.shape
    assert np.all(np.isfinite(x))
    return x


class TestDegenerateCubes:
    """Degenerate cubes give a finite estimate or a ValueError, never a
    NaN or another exception."""

    @settings(max_examples=8, deadline=None)
    @given(m=SIDES, n=SIDES, b=st.integers(2, 5), sigma0=SIGMA0,
           value=st.floats(-1e150, 1e150))
    def test_constant(self, m, n, b, sigma0, value):
        denoised_or_value_error(np.full((m, n, b), value), sigma0)

    @settings(max_examples=8, deadline=None)
    @given(m=SIDES, n=SIDES, b=st.integers(2, 5), sigma0=SIGMA0)
    def test_all_zero(self, m, n, b, sigma0):
        x = denoised_or_value_error(np.zeros((m, n, b)), sigma0)
        if x is not None:
            assert not x.any()

    @settings(max_examples=8, deadline=None)
    @given(m=SIDES, n=SIDES, seed=SEEDS, sigma0=SIGMA0)
    def test_two_bands(self, m, n, seed, sigma0):
        cube = np.random.default_rng(seed).uniform(0.0, 255.0, (m, n, 2))
        denoised_or_value_error(cube, sigma0)

    @settings(max_examples=8, deadline=None)
    @given(m=SIDES, n=SIDES, b=st.integers(2, 5), seed=SEEDS,
           exponent=st.integers(0, 150), sigma0=SIGMA0)
    def test_values_up_to_1e150(self, m, n, b, seed, exponent, sigma0):
        rng = np.random.default_rng(seed)
        cube = rng.standard_normal((m, n, b)) * 10.0**exponent
        denoised_or_value_error(cube, sigma0)

    @settings(max_examples=8, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(1, 12), seed=SEEDS)
    def test_image_smaller_than_patch(self, m, n, seed):
        cube = np.random.default_rng(seed).uniform(0.0, 255.0, (m, n, 3))
        with pytest.raises(ValueError, match="exceeds image dims"):
            denoise(cube, sigma0=10.0, config=DenoiseConfig(k0=1, iters=2))
