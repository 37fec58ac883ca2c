"""Outer iteration: subspace projection, reduced denoising, mixing."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hsidenoise import pipeline, spatial, subspace
from hsidenoise.pipeline import (
    DenoiseConfig,
    denoise,
    iterate_regularize,
)
from hsidenoise.spatial import PatchGeometry
from hsidenoise.subspace import (
    estimate_band_noise,
    estimate_subspace_dim,
    reestimate_noise,
    spectral_decompose,
)
from hsidenoise.synthetic import rank_cube
from hsidenoise.tensor import frob_norm_sq, mode3_product
from hsidenoise.io import add_gaussian_noise, write_cube
from hsidenoise.metrics import mpsnr

SMALL_GEOM = PatchGeometry(patch=4, window=10, group=16)


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            iterate_regularize(np.zeros((3, 3, 2)), np.zeros((3, 3, 3)), 0.5)


class TestDenoiseConfig:
    def test_defaults(self):
        cfg = DenoiseConfig()
        assert cfg.k0 is None
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

    @pytest.mark.parametrize(
        "bad",
        [
            {"k0": 0},
            {"iters": 0},
            {"gamma": 0.0},
            {"lam": -0.1},
            {"lam": 1.1},
        ],
    )
    def test_shrinkage_constants_out_of_range(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**bad)

    @pytest.mark.parametrize("name", ["lam", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_shrinkage_constants_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**{name: value})

    @pytest.mark.parametrize("gamma", [-0.5, 1.5])
    def test_rejects_bad_gamma(self, gamma):
        # gamma scales the noise re-estimate, which takes it as given
        with pytest.raises(ValueError, match="gamma"):
            DenoiseConfig(gamma=gamma)

    @pytest.mark.parametrize("name", ["k0", "iters"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0), "3"])
    def test_counts_must_be_integers(self, name, value):
        # a float k0 was truncated in the run, a float iters
        # failed inside denoise
        with pytest.raises(ValueError, match=name):
            DenoiseConfig(**{name: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_counts_accepted(self, value):
        cfg = DenoiseConfig(k0=value, iters=value)
        assert (cfg.k0, cfg.iters) == (3, 3)


def warm_traced_peak(noisy, clean=None):
    """The traced peak, in bytes, of a default denoise(noisy, 30.0), after
    a small denoise has made the allocations that only a process's first
    call makes, about 0.02 MB since it no longer imports numpy.ma."""
    warm = add_gaussian_noise(rank_cube(16, 16, 4, 2, seed=0), 10.0, seed=0)
    denoise(warm, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))
    tracemalloc.start()
    try:
        denoise(noisy, 30.0, clean=clean)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        cfg = DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 20.0, cfg, clean=clean)
        assert [r.iteration for r in trace] == [1, 2, 3]
        assert [r.k for r in trace] == [2, 2, 2]
        # first pass sees exactly gamma * sigma0
        assert trace[0].sigma == 0.5 * 20.0
        for rec in trace:
            assert rec.psnr is not None
            assert rec.residual >= 0.0
            assert rec.stage_a_seconds >= 0.0
            assert rec.stage_b_seconds >= 0.0

    def test_first_denoise_imports_no_numpy_ma(self, tmp_path):
        """A process's first denoise, sigma0 and K0 estimated, and its first
        estimate-k load no numpy.ma: np.unique and np.median import it on
        first use, about 1.1 MB of module objects.  Each runs in a fresh
        interpreter."""
        noisy = add_gaussian_noise(rank_cube(16, 16, 4, 2, seed=0), 10.0, seed=0)
        hdr = write_cube(tmp_path / "noisy", noisy)
        runs = {
            "denoise": "from hsidenoise import io, pipeline, spatial; "
            "geom = spatial.PatchGeometry(patch=4, window=10, group=16); "
            "pipeline.denoise(io.read_cube(sys.argv[1]), config=pipeline.DenoiseConfig(iters=2, geom=geom))",
            "estimate-k": "from hsidenoise import cli; assert cli.main(['estimate-k', sys.argv[1]]) == 0",
        }
        for name, run in runs.items():
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; {run}; print('numpy.ma' in sys.modules)", str(hdr)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            assert proc.stdout.splitlines()[-1] == "False", name

    def test_psnr_none_without_clean(self):
        clean = rank_cube(32, 32, 8, 2, seed=3)
        noisy = add_gaussian_noise(clean, 20.0, seed=3)
        _, trace = denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM))
        assert all(r.psnr is None for r in trace)

    def test_improves_noisy_input(self):
        clean = rank_cube(48, 48, 16, 3, seed=4)
        noisy = add_gaussian_noise(clean, 30.0, seed=4)
        cfg = DenoiseConfig(k0=3, lam=0.8, geom=SMALL_GEOM)
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

    def test_traced_peak(self, monkeypatch):
        """A default denoise holds one work buffer per chunk in flight and
        no cube it does not read again: 1.59-1.76 MB traced here after a
        warm-up in ten runs (0.24 MB under the bound), 1.55-1.76 MB as a
        process's first call.  Chunks that straddled two grid rows took
        2.27-2.41 MB (3.3 MB while the first call imported numpy.ma), a
        second buffer per chunk for the shrunk groups 7.5 MB, and three
        buffers per chunk and two stale cubes 18.3 MB at a reference
        spacing of 4, the last two as first calls."""
        monkeypatch.setattr(spatial, "_workers", lambda: 1)  # two chunks in flight
        clean = rank_cube(64, 64, 32, 5)
        noisy = add_gaussian_noise(clean, 30.0, seed=0)
        peak = warm_traced_peak(noisy)
        assert peak < 2.0e6, f"peak {peak / 1e6:.2f} MB"

    def test_traced_peak_many_bands(self, monkeypatch):
        """With 191 bands and K = 5 the loop's full-band work, the band Gram
        once and two row-block passes over the observation per iteration,
        holds B x B matrices and row blocks, not cubes: 1.04 cubes traced
        as a process's first call (0.06 cubes under the bound), 1.03 after
        a warm-up; the import of numpy.ma took 1.31, the stored iterate
        1.29 warm, and whole-cube temporaries 4.2 before that."""
        monkeypatch.setattr(spatial, "_workers", lambda: 1)
        clean = rank_cube(48, 48, 191, 5)
        noisy = add_gaussian_noise(clean, 30.0, seed=0)
        tracemalloc.start()
        try:
            denoise(noisy, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} cubes"

    def test_traced_peak_one_full_band_cube(self, monkeypatch):
        """The only full-band cube the loop allocates is the estimate, at
        the last iteration, after it drops the groups and the band Gram:
        1.03 cubes traced here after a warm-up (0.07 cubes under the
        bound), where the stored iterate took 1.29 and holding the input
        through the spatial stage 2.9."""
        monkeypatch.setattr(spatial, "_workers", lambda: 1)
        clean = rank_cube(48, 48, 191, 5)
        noisy = add_gaussian_noise(clean, 30.0, seed=0)
        peak = warm_traced_peak(noisy)
        assert peak < 1.1 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} cubes"

    def test_traced_peak_scene96(self, monkeypatch):
        """A 96x96x64 default denoise holds the estimate, the K-band
        filtered image and row blocks: 1.08 cubes traced here after a
        warm-up (0.07 cubes under the bound), where the stored iterate
        took 1.32."""
        monkeypatch.setattr(spatial, "_workers", lambda: 1)
        clean = rank_cube(96, 96, 64, 5)
        noisy = add_gaussian_noise(clean, 30.0, seed=0)
        peak = warm_traced_peak(noisy)
        assert peak < 1.15 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} cubes"

    def test_traced_peak_with_clean(self, monkeypatch):
        """With clean the estimate is written at every iteration for its
        PSNR, and dropped before the next iteration's spatial stage: 1.71
        cubes traced here after a warm-up (0.09 cubes under the bound),
        2.49 with the stored iterate, 3.2 more when denoise held the
        estimate through that stage."""
        monkeypatch.setattr(spatial, "_workers", lambda: 1)
        clean = rank_cube(64, 64, 64, 5)
        noisy = add_gaussian_noise(clean, 30.0, seed=0)
        peak = warm_traced_peak(noisy, clean=clean)
        assert peak < 1.8 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} cubes"

    @pytest.mark.parametrize("sigma0", [None, 20.0])
    def test_layouts_give_the_same_estimate(self, sigma0):
        """The loop reads the observation in place, so a Fortran-ordered
        cube, as scipy.io.loadmat returns, and a band-sliced view give the
        C-ordered cube's estimate and trace bit for bit."""
        clean = rank_cube(32, 32, 8, 2, seed=18)
        noisy = add_gaussian_noise(clean, 20.0, seed=18)
        wider = np.concatenate([noisy[:, :, :2], noisy, noisy[:, :, :3]], axis=2)
        cfg = DenoiseConfig(iters=3, geom=SMALL_GEOM)
        want, want_trace = denoise(noisy, sigma0, cfg)
        for cube in (np.asfortranarray(noisy), wider[:, :, 2:-3]):
            got, trace = denoise(cube, sigma0, cfg)
            np.testing.assert_array_equal(got, want)
            assert [(r.k, r.sigma, r.residual) for r in trace] == [
                (r.k, r.sigma, r.residual) for r in want_trace]

    def test_one_band_gram_per_denoise(self, monkeypatch):
        """The paper's claim that the cost follows K, not B, at B = 191:
        with sigma0 and K0 given, a five-iteration denoise forms one B x B
        band Gram of a cube, the observation's, and every later basis
        comes from K x B products."""
        calls = []

        def counted(cube):
            calls.append(cube.shape)
            return band_gram(cube)

        band_gram = subspace._band_gram
        monkeypatch.setattr(subspace, "_band_gram", counted)
        monkeypatch.setattr(pipeline, "_band_gram", counted)
        noisy = add_gaussian_noise(rank_cube(48, 48, 191, 5, seed=19), 30.0, seed=19)
        _, trace = denoise(noisy, 30.0, DenoiseConfig(k0=5))
        assert len(trace) == 5
        assert calls == [noisy.shape]

    def test_kept_estimate_does_not_change_it(self):
        """The branch that writes the full-band estimate at every
        iteration, for the PSNR against clean, returns what a run without
        it returns, bit for bit."""
        clean = rank_cube(32, 32, 8, 2, seed=12)
        noisy = add_gaussian_noise(clean, 20.0, seed=12)
        cfg = DenoiseConfig(iters=3, geom=SMALL_GEOM)
        plain, plain_trace = denoise(noisy, 20.0, cfg)
        with_clean, trace = denoise(noisy, 20.0, cfg, clean=clean)
        assert len(trace) == cfg.iters
        np.testing.assert_array_equal(with_clean, plain)
        assert [r.residual for r in trace] == [r.residual for r in plain_trace]

    @pytest.mark.parametrize("sigma0", [None, 20.0])
    def test_shrink_threshold(self, sigma0, monkeypatch):
        """Each iteration passes the spatial stage its sigma_i and no
        threshold, whether sigma0 is given or estimated: the stage's own
        rule, pinned by the spatial tests, sets it."""
        seen = []

        def recorded(reduced, sigma, geom, groups=None):
            seen.append(sigma)
            return stage(reduced, sigma, geom, groups=groups)

        stage = pipeline.denoise_reduced
        monkeypatch.setattr(pipeline, "denoise_reduced", recorded)
        clean = rank_cube(24, 24, 8, 2, seed=10)
        noisy = add_gaussian_noise(clean, 20.0, seed=10)
        cfg = DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM)
        _, trace = denoise(noisy, sigma0, cfg)
        assert seen == [r.sigma for r in trace]
        assert len(seen) == 3

    @pytest.mark.parametrize("iters", [1, 2, 3, 5])
    def test_groups_matched_once(self, iters, monkeypatch):
        calls = []
        matched = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return match(*args, **kwargs)

        def counted_groups(*args, **kwargs):
            matched.append(args[0].shape)
            return match_groups(*args, **kwargs)

        match = spatial._match
        match_groups = pipeline.match_groups
        monkeypatch.setattr(spatial, "_match", counted)
        monkeypatch.setattr(pipeline, "match_groups", counted_groups)
        clean = rank_cube(24, 24, 8, 2, seed=9)
        noisy = add_gaussian_noise(clean, 20.0, seed=9)
        cfg = DenoiseConfig(k0=2, iters=iters, geom=SMALL_GEOM)
        _, trace = denoise(noisy, 20.0, cfg)
        assert len(trace) == iters
        assert [r.k for r in trace] == [2] * iters
        assert len(matched) == 1
        assert calls == matched
        assert matched[0][2] == trace[0].k

    def test_overflowing_band_gram_scaled_away(self):
        """Entries near 3e152 overflow the band Gram's trace; denoise
        scales them by a power of two first and gives the unscaled cube's
        estimate, times 1e150."""
        clean = rank_cube(32, 32, 32, 5, seed=0)
        noisy = add_gaussian_noise(clean, 10.0, seed=0)
        cfg = DenoiseConfig(iters=1, geom=SMALL_GEOM)
        x, trace = denoise(noisy * 1e150, config=cfg)
        want, want_trace = denoise(noisy, config=cfg)
        assert np.all(np.isfinite(x))
        assert rel_diff(x, want * 1e150) <= 1e-10
        assert trace[0].sigma == pytest.approx(want_trace[0].sigma * 1e150, rel=1e-10)

    @pytest.mark.parametrize("j", [-600, 520])
    def test_psnr_trace_at_extreme_scales(self, j):
        """With clean at 2^520 the PSNR's squared differences overflow, at
        2^-600 they underflow; the trace's PSNRs are still the unscaled
        run's, less 20 j log10(2) dB, and the estimate is scaled alike."""
        clean = rank_cube(32, 32, 8, 2, seed=12)
        noisy = add_gaussian_noise(clean, 20.0, seed=12)
        cfg = DenoiseConfig(iters=2, geom=SMALL_GEOM)
        want, want_trace = denoise(noisy, 20.0, cfg, clean=clean)
        x, trace = denoise(np.ldexp(noisy, j), math.ldexp(20.0, j), cfg,
                           clean=np.ldexp(clean, j))
        np.testing.assert_array_equal(x, np.ldexp(want, j))
        shift = 20.0 * j * math.log10(2.0)
        assert [r.psnr for r in trace] == pytest.approx(
            [r.psnr - shift for r in want_trace], abs=1e-9)

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf, -1.0])
    def test_non_finite_sigma0_rejected(self, sigma0):
        # NaN turned the shrink off and inf zeroed the estimate; a negative
        # sigma0 is no noise level either
        clean = rank_cube(16, 16, 4, 2, seed=8)
        with pytest.raises(ValueError, match="sigma0"):
            denoise(clean, sigma0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf])
    def test_non_finite_sigma0_rejected_before_reestimate(self, monkeypatch, sigma0):
        # reestimate_noise takes sigma0 as given, so denoise must check it first
        def never(*args, **kwargs):
            raise AssertionError("reestimate_noise ran")

        monkeypatch.setattr(pipeline, "reestimate_noise", never)
        clean = rank_cube(16, 16, 4, 2, seed=8)
        with pytest.raises(ValueError, match="sigma0"):
            denoise(clean, sigma0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))

    def test_clean_of_another_shape_rejected_up_front(self, monkeypatch):
        # the band Gram is the loop's first call
        def never(*args, **kwargs):
            raise AssertionError("_band_gram ran")

        monkeypatch.setattr(pipeline, "_band_gram", never)
        clean = rank_cube(16, 16, 4, 2, seed=8)
        with pytest.raises(ValueError, match="shape"):
            denoise(clean, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM),
                    clean=clean[:, :, :3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_clean_rejected_up_front(self, monkeypatch, bad):
        # every trace psnr read NaN
        def never(*args, **kwargs):
            raise AssertionError("_band_gram ran")

        monkeypatch.setattr(pipeline, "_band_gram", never)
        noisy = rank_cube(16, 16, 4, 2, seed=8)
        clean = noisy.copy()
        clean[2, 3, 1] = bad
        with pytest.raises(ValueError, match="clean cube has non-finite entries"):
            denoise(noisy, 10.0, DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM), clean=clean)

    def test_non_finite_input_rejected(self):
        bad = rank_cube(16, 16, 4, 2, seed=8)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            denoise(bad, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))

    def test_non_finite_stage_output_raises(self, nan_stage):
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=12), 20.0, seed=12)
        with pytest.raises(
            pipeline.NumericalError,
            match="^non-finite values after spatial filtering at iteration 1$",
        ):
            denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM))

    def test_non_finite_projection_raises(self, nan_projection):
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=12), 20.0, seed=12)
        with pytest.raises(
            pipeline.NumericalError,
            match="^non-finite values after spectral projection at iteration 1$",
        ):
            denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=2, geom=SMALL_GEOM))


def blas_counts():
    return [get() for get, _ in spatial._openblas()]


def direct_residuals(noisy, sigma0, cfg):
    """||y_i - x_i||_F of each iteration, formed from whole cubes: x_i is
    the estimate of a run of i iterations, y_1 the observation and y_i the
    blend of x_(i-1) with it."""
    y_i = noisy
    out = []
    for i in range(1, cfg.iters + 1):
        x_i, _ = denoise(noisy, sigma0, dataclasses.replace(cfg, iters=i))
        out.append(math.sqrt(frob_norm_sq(y_i - x_i)))
        y_i = iterate_regularize(x_i, noisy, cfg.lam)
    return out


def reference_loop(noisy, sigma0, cfg):
    """The outer loop as it ran with a stored full-band iterate, on whole
    cubes: each iteration fits its basis to y_i's own band Gram, lifts the
    estimate x_i whole and writes y_(i+1) = lam x_i + (1 - lam) y.  Returns
    x and each iteration's (k, sigma, residual)."""
    y = np.asarray(noisy, dtype=np.float64)
    band_sigma = estimate_band_noise(y) if sigma0 is None or cfg.k0 is None else None
    sigma0 = float(np.median(band_sigma)) if sigma0 is None else sigma0
    k0 = cfg.k0 or estimate_subspace_dim(y, band_sigma)
    y_i, groups, steps = y, None, []
    for i in range(1, cfg.iters + 1):
        sigma_i = reestimate_noise(frob_norm_sq(y_i, y) / y.size, sigma0, cfg.gamma)
        model = spectral_decompose(y_i, k0)
        if groups is None:
            groups = spatial.match_groups(model.reduced, cfg.geom)
        m = spatial.denoise_reduced(model.reduced, sigma_i, cfg.geom, groups=groups)
        x = mode3_product(m, model.basis)
        steps.append((k0, sigma_i, math.sqrt(frob_norm_sq(y_i, x))))
        y_i = iterate_regularize(x, y, cfg.lam)
    return x, steps


@pytest.mark.parametrize("scene", [0, 2])
@pytest.mark.parametrize("sigma0", [None, 30.0])
@pytest.mark.parametrize("shape", [(64, 64, 32), (48, 48, 191)])
def test_matches_the_stored_iterate_loop(shape, sigma0, scene):
    """The loop in K-space forms each basis from a Gram summed in another
    order than y_i's own, so its estimate, sigmas and residuals agree with
    the stored-iterate loop to rounding: within 1e-10 relative, about 5e5
    float64 epsilons; 5.9e-13 at most was measured here, 1.7e-13 on
    scene96.  scene seeds the clean cube."""
    noisy = add_gaussian_noise(rank_cube(*shape, 5, seed=scene), 30.0, seed=1)
    cfg = DenoiseConfig(iters=3)
    x, trace = denoise(noisy, sigma0, cfg)
    want, steps = reference_loop(noisy, sigma0, cfg)
    assert rel_diff(x, want) <= 1e-10
    assert [r.k for r in trace] == [k for k, _, _ in steps]
    for rec, (_, sigma, residual) in zip(trace, steps, strict=True):
        assert rec.sigma == pytest.approx(sigma, rel=1e-10)
        assert rec.residual == pytest.approx(residual, rel=1e-10)


class TestResidualSplit:
    """The trace's residual, summed as the input's part off the subspace
    plus the reduced image's change, is ||y_i - x_i||_F."""

    def test_first_iteration(self):
        clean = rank_cube(32, 32, 8, 2, seed=13)
        noisy = add_gaussian_noise(clean, 20.0, seed=13)
        x, trace = denoise(noisy, 20.0, DenoiseConfig(iters=1, geom=SMALL_GEOM))
        direct = math.sqrt(frob_norm_sq(noisy - x))
        assert trace[0].residual == pytest.approx(direct, rel=1e-12)

    def test_second_iteration(self):
        clean = rank_cube(32, 32, 8, 2, seed=14)
        noisy = add_gaussian_noise(clean, 20.0, seed=14)
        cfg = DenoiseConfig(iters=2, geom=SMALL_GEOM)
        x1, _ = denoise(noisy, 20.0, dataclasses.replace(cfg, iters=1))
        x2, trace = denoise(noisy, 20.0, cfg)
        direct = math.sqrt(frob_norm_sq(iterate_regularize(x1, noisy, cfg.lam) - x2))
        assert trace[1].residual == pytest.approx(direct, rel=1e-10)

    def test_noiseless_low_rank(self):
        """On an exactly rank-K cube without noise both parts are rounding
        error, and their sum stays a finite, non-negative residual."""
        clean = rank_cube(32, 32, 8, 2, seed=15)
        cfg = DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM)
        _, trace = denoise(clean, 0.0, cfg)
        tol = 1e-9 * math.sqrt(frob_norm_sq(clean))
        for rec, direct in zip(trace, direct_residuals(clean, 0.0, cfg), strict=True):
            assert math.isfinite(rec.residual) and rec.residual >= 0.0
            assert abs(rec.residual - direct) <= tol


def direct_sigmas(noisy, sigma0, cfg):
    """gamma * sqrt(|sigma0^2 - ||y_i - y||^2 / N|) of each iteration,
    formed from whole cubes: y_1 the observation and y_i the blend of
    x_(i-1), the estimate of a run of i - 1 iterations, with it."""
    y_i = noisy
    out = []
    for i in range(1, cfg.iters + 1):
        msd = frob_norm_sq(y_i, noisy) / noisy.size
        out.append(cfg.gamma * math.sqrt(abs(sigma0 * sigma0 - msd)))
        x_i, _ = denoise(noisy, sigma0, dataclasses.replace(cfg, iters=i))
        y_i = iterate_regularize(x_i, noisy, cfg.lam)
    return out


def test_trace_sigma_from_whole_cubes():
    """The blend pass sums ||y_i - y||^2 over the row blocks that a
    whole-cube sum visits, so each trace sigma is the whole-cube one
    bit for bit."""
    clean = rank_cube(32, 32, 8, 2, seed=16)
    noisy = add_gaussian_noise(clean, 20.0, seed=16)
    cfg = DenoiseConfig(iters=3, geom=SMALL_GEOM)
    _, trace = denoise(noisy, 20.0, cfg)
    assert [rec.sigma for rec in trace] == direct_sigmas(noisy, 20.0, cfg)


def test_reestimate_counted_in_stage_a(monkeypatch):
    """The noise re-estimate runs inside stage A's clock."""
    reestimate = pipeline.reestimate_noise

    def slow(*args):
        time.sleep(0.02)
        return reestimate(*args)

    monkeypatch.setattr(pipeline, "reestimate_noise", slow)
    noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=17), 20.0, seed=17)
    _, trace = denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM))
    assert len(trace) == 3
    assert all(rec.stage_a_seconds >= 0.02 for rec in trace), trace


# the names denoise calls BLAS through, as pipeline binds them; the loop's
# lifts and its Gram's K-band products run between these calls
BLAS_CALLERS = [
    "estimate_band_noise",
    "estimate_subspace_dim",
    "_band_gram",
    "_gram_basis",
    "denoise_reduced",
    "mode3_product",
]

# the names denoise calls through pipeline's binding.  perfbench's tracer
# wraps all of them but _band_gram and _gram_basis, and wraps
# spectral_decompose too, which the loop no longer calls: that span reads 0
TRACED_CALLS = BLAS_CALLERS + ["reestimate_noise", "iterate_regularize"]


def test_every_traced_name_is_called(monkeypatch):
    """A two-iteration denoise that estimates sigma0 calls each of these
    names through pipeline's binding, so a span around it is not silently
    empty."""
    calls = dict.fromkeys(TRACED_CALLS, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in TRACED_CALLS:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=10), 20.0, seed=10)
    denoise(noisy, config=DenoiseConfig(iters=2, geom=SMALL_GEOM))
    assert all(calls.values()), calls


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

    def test_counts_restored_after_errors(self, blas_at_three, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Gram matrix overflowed")

        monkeypatch.setattr(pipeline, "denoise_reduced", failing)
        noisy = add_gaussian_noise(rank_cube(32, 32, 32, 5, seed=0), 10.0, seed=0)
        with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
            denoise(noisy, config=DenoiseConfig(iters=1, geom=SMALL_GEOM))
        assert blas_counts() == blas_at_three
        bad = rank_cube(16, 16, 4, 2, seed=8)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            denoise(bad, 10.0, DenoiseConfig(k0=2, iters=1, geom=SMALL_GEOM))
        assert blas_counts() == blas_at_three

    def test_shrinkage_pool_keeps_its_workers(self, blas_at_three, pool_log, monkeypatch):
        """denoise_reduced's hold, nested in denoise's, still finds
        OpenBLAS, so each call's stage gets one thread per core, not one,
        all from the one pool the first stage creates; match_groups makes
        no pool."""
        monkeypatch.setattr(spatial, "_workers", lambda: 3)
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=11), 20.0, seed=11)
        denoise(noisy, 20.0, DenoiseConfig(k0=2, iters=3, geom=SMALL_GEOM))
        # denoise_reduced at each of the three iterations
        assert pool_log.stages == [pool_log.created[0]] * 3
        assert [workers for workers, _ in pool_log.created] == [3]


TINY_GEOM = PatchGeometry(patch=2, window=4, group=4)
SIDES = st.integers(1, 10)
SEEDS = st.integers(0, 2**32 - 1)
SIGMA0 = st.sampled_from([None, 10.0])


# ValueErrors denoise documents for cubes too small to estimate or to patch;
# without sigma0, a one-band cube is too small to estimate
TOO_SMALL = "insufficient pixels|exceeds image dims"
TOO_SMALL_WITHOUT_SIGMA0 = TOO_SMALL + "|need at least 2 bands"


def denoised_or_value_error(cube, sigma0, geom=TINY_GEOM):
    """denoise's estimate, checked finite and of the input's shape; None
    when denoise rejects a cube too small for it with a ValueError."""
    try:
        x, _ = denoise(cube, sigma0=sigma0, config=DenoiseConfig(iters=2, geom=geom))
    except ValueError as exc:
        assert re.search(TOO_SMALL if sigma0 is not None else TOO_SMALL_WITHOUT_SIGMA0,
                         str(exc)), exc
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

    def test_tiny_constant_under_large_sigma0(self):
        """sigma0 = 10 keeps the loop's cube unscaled, and the estimates
        scale it by its own magnitude: the band Gram's trace of entries
        near 1e-203 underflowed and raised LinAlgError."""
        x = denoised_or_value_error(np.full((4, 4, 2), 4.31569717e-203), 10.0)
        assert not x.any()

    def test_tiny_cube_keeps_its_estimated_k(self):
        noisy = add_gaussian_noise(rank_cube(16, 16, 8, 3, seed=8), 10.0, seed=8)
        k = estimate_subspace_dim(noisy, estimate_band_noise(noisy))
        _, trace = denoise(
            np.ldexp(noisy, -700), 10.0, DenoiseConfig(iters=1, geom=TINY_GEOM)
        )
        assert trace[0].k == k

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
    @given(m=SIDES, n=SIDES, seed=SEEDS, sigma0=SIGMA0)
    @example(m=6, n=7, seed=0, sigma0=10.0)
    @example(m=6, n=7, seed=0, sigma0=None)
    def test_one_band(self, m, n, seed, sigma0):
        """K can only be 1, so with sigma0 given the band regression, which
        needs two bands, does not run: only a cube narrower than a patch is
        rejected.  Without sigma0 it runs and raises."""
        cube = np.random.default_rng(seed).uniform(0.0, 255.0, (m, n, 1))
        x = denoised_or_value_error(cube, sigma0)
        assert (x is None) == (sigma0 is None or min(m, n) < TINY_GEOM.patch)

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


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def symmetry_scene(m, n, b, seed):
    clean = rank_cube(m, n, b, min(3, b), seed=seed)
    return add_gaussian_noise(clean, 20.0, seed=seed)


class TestSymmetries:
    """The default denoise, sigma0 given, commutes with relabelling bands and
    with swapping rows for columns, to the rounding of reordered sums, and
    scales exactly with a power-of-two scale of its input.  The draws are
    fixed: a draw whose patch distances nearly tie could reorder a group
    under the reordered sums, and a failure should repeat."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(m=st.integers(12, 40), n=st.integers(12, 40), b=st.integers(4, 12),
           seed=SEEDS, data=st.data())
    def test_band_permutation(self, m, n, b, seed, data):
        perm = data.draw(st.permutations(range(b)))
        y = symmetry_scene(m, n, b, seed)
        x, _ = denoise(y, 20.0)
        xp, _ = denoise(y[:, :, perm], 20.0)
        assert rel_diff(xp, x[:, :, perm]) <= 1e-9

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(m=st.integers(12, 40), n=st.integers(12, 40), b=st.integers(4, 12), seed=SEEDS)
    def test_transposition(self, m, n, b, seed):
        assume(m != n)
        y = symmetry_scene(m, n, b, seed)
        x, _ = denoise(y, 20.0)
        xt, _ = denoise(y.transpose(1, 0, 2), 20.0)
        assert rel_diff(xt, x.transpose(1, 0, 2)) <= 1e-9

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(m=st.integers(12, 40), n=st.integers(12, 40), b=st.integers(4, 12), seed=SEEDS)
    def test_scale_by_four_is_exact(self, m, n, b, seed):
        y = symmetry_scene(m, n, b, seed)
        x, _ = denoise(y, 20.0)
        x4, _ = denoise(4.0 * y, 80.0)
        np.testing.assert_array_equal(x4, 4.0 * x)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(e=st.integers(-400, 400), sigma0=st.sampled_from([None, 20.0]))
    @example(e=-400, sigma0=20.0)
    @example(e=400, sigma0=None)
    @example(e=-9, sigma0=20.0)  # [0, 1] data: unscaled
    @example(e=17, sigma0=20.0)  # just outside the unscaled band
    @example(e=-17, sigma0=None)
    @example(e=600, sigma0=20.0)  # squares overflow unscaled
    @example(e=-600, sigma0=None)  # squares underflow unscaled
    def test_power_of_two_scale(self, e, sigma0):
        """Scaling the cube and sigma0 by 2^e scales the estimate and the
        trace's sigmas by 2^e, also where the squares of the scaled cube
        overflow or underflow and denoise scales it back near PEAK."""
        y = symmetry_scene(20, 24, 6, 3)
        cfg = DenoiseConfig(iters=2)
        x, trace = denoise(y, sigma0, cfg)
        scaled = None if sigma0 is None else math.ldexp(sigma0, e)
        xe, trace_e = denoise(np.ldexp(y, e), scaled, cfg)
        assert rel_diff(xe, np.ldexp(x, e)) <= 1e-10
        for got, want in zip(trace_e, trace):
            assert got.sigma == pytest.approx(math.ldexp(want.sigma, e), rel=1e-10)
            assert got.residual == pytest.approx(math.ldexp(want.residual, e), rel=1e-10)
