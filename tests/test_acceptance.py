"""End-to-end behavior on reference scenes and frozen numerical targets.

Each test pins one externally meaningful guarantee of the toolkit:
reference-scene quality, convergence of the outer iteration and its
improvement under the default config, noise whiteness under projection,
optimality of the spectral fit, timing shape, metric values, dimension
recovery, and shrinkage invariants.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from conftest import reference_grid

from hsidenoise import pipeline, spatial
from hsidenoise.experiment import ExperimentSpec, bench_bands, load_input
from hsidenoise.io import add_gaussian_noise, write_cube
from hsidenoise.metrics import mpsnr, mssim, psnr, quality_report, sam, ssim
from hsidenoise.pipeline import DenoiseConfig, denoise
from hsidenoise.spatial import (
    PatchGeometry,
    aggregate,
    denoise_reduced,
    match_group,
    wnnm_shrink,
)
from hsidenoise.subspace import estimate_band_noise, estimate_subspace_dim, spectral_decompose
from hsidenoise.synthetic import rank_cube
from hsidenoise.tensor import frob_norm_sq


def test_wdc_reference_quality():
    """Washington DC Mall scene at sigma 50 meets frozen quality targets.

    Needs the real cube; point HSIDENOISE_WDC at a 256x256x191 header.
    Targets: mpsnr 35.14 +- 1.0 dB, mssim 0.955 +- 0.015, sam 5.83 +- 1.0
    degrees, under ten minutes of wall time.
    """
    path = os.environ.get("HSIDENOISE_WDC", "")
    if not path or not os.path.exists(path):
        pytest.skip("WDC cube not available; the synthetic ground-truth test stands in")
    clean = load_input(path)
    assert clean.shape == (256, 256, 191)
    noisy = add_gaussian_noise(clean, 50.0, seed=0)
    t0 = time.perf_counter()
    out, _ = denoise(noisy, 50.0, DenoiseConfig())
    elapsed = time.perf_counter() - t0
    rep = quality_report(clean, out)
    assert elapsed < 600.0
    assert abs(rep.mpsnr - 35.14) <= 1.0
    assert abs(rep.mssim - 0.955) <= 0.015
    assert abs(rep.sam_deg - 5.83) <= 1.0


def test_synthetic_gain_and_stabilization():
    """Rank-5 ground truth: >= 10 dB gain and a flat tail of the trace.

    With K held at the true rank, seven iterations of WNNM's sigma^2
    weight reach the convergence plateau at both sigmas; the last two
    iterations must agree within 0.1 dB.  Both runs together stay under
    a minute.
    """
    clean = rank_cube(64, 64, 32, 5, seed=5, strengths=[1.0, 0.9, 0.8, 0.7, 0.6])
    cfg = DenoiseConfig(k0=5, lam=0.8, iters=7)
    t0 = time.perf_counter()
    for sigma in (30.0, 50.0):
        noisy = add_gaussian_noise(clean, sigma, seed=42)
        out, trace = denoise(noisy, sigma, cfg, clean=clean)
        assert len(trace) == 7
        assert mpsnr(clean, out) >= mpsnr(clean, noisy) + 10.0
        assert abs(trace[-1].psnr - trace[-2].psnr) < 0.1
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("sigma", [10.0, 30.0, 50.0])
def test_default_iterations_improve(sigma):
    """With the default config each outer iteration is at least as good as
    the one before, and the last beats the noisy input by 10 dB."""
    clean = rank_cube(32, 32, 32, 5, seed=0)
    noisy = add_gaussian_noise(clean, sigma, seed=42)
    _, trace = denoise(noisy, sigma, DenoiseConfig(), clean=clean)
    psnrs = [rec.psnr for rec in trace]
    assert len(psnrs) == 5
    assert all(b >= a for a, b in zip(psnrs, psnrs[1:])), psnrs
    assert psnrs[-1] >= mpsnr(clean, noisy) + 10.0


def test_projected_noise_stays_white():
    """Orthonormal projection preserves Gaussian noise statistics.

    A million projected samples: variance within 2% of sigma^2, mean
    within 0.5% of sigma of zero.
    """
    rng = np.random.default_rng(7)
    bands, k, sigma = 64, 8, 50.0
    p, _ = np.linalg.qr(rng.standard_normal((bands, k)))
    noise = rng.standard_normal((bands, 1_000_000 // k)) * sigma
    samples = (p.T @ noise).ravel()
    assert samples.size == 1_000_000
    assert abs(samples.var() - sigma**2) <= 0.02 * sigma**2
    assert abs(samples.mean()) <= 0.005 * sigma


def test_subspace_fit_is_optimal():
    """Closed-form fit beats random search and matches the SVD residual."""
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        cube = rng.standard_normal((5, 5, 4))
        model = spectral_decompose(cube, 2)
        closed = 0.5 * frob_norm_sq(cube - model.reconstruct())

        z = cube.reshape(-1, cube.shape[2]).T
        s = np.linalg.svd(z, compute_uv=False)
        eckart_young = 0.5 * np.sum(s[2:] ** 2)
        assert abs(closed - eckart_young) / eckart_young <= 1e-8

        best = math.inf
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            best = min(best, 0.5 * np.sum((z - q @ (q.T @ z)) ** 2))
        assert closed <= best + 1e-12


def test_noiseless_identity():
    """Zero noise on an exactly low-rank cube passes through unchanged."""
    clean = rank_cube(48, 48, 16, 4, seed=3)
    out, _ = denoise(clean, 0.0, DenoiseConfig(k0=4))
    rel = math.sqrt(frob_norm_sq(out - clean) / frob_norm_sq(clean))
    assert rel <= 1e-6


def test_spatial_stage_time_flat_in_bands(tmp_path, monkeypatch):
    """Band count drives only the spectral stage, not the patch stage.

    The patch stage works on the fixed-size reduced image, so its wall
    time at 192 bands must stay within 1.5x of the 32-band time, while
    the spectral stage grows monotonically.  Both bounds hold on the
    median of three runs per band count: single samples on two shared
    cores crossed them now and then.  Without a clock, the patch stage
    receives a 64x64x5 reduced image at every band count.

    The scene is built with OpenBLAS held to one thread, as denoise holds
    it: a threaded product here leaves OpenBLAS's idle threads spinning
    for about 0.1 s, into the first timed projection.
    """
    with spatial._one_blas_thread():
        clean = rank_cube(64, 64, 192, 5, seed=9)
    noisy = add_gaussian_noise(clean, 30.0, seed=1)
    path = write_cube(tmp_path / "bench_scene", noisy)
    spec = ExperimentSpec(
        input_path=path,
        sigmas=[30.0],
        output_dir=tmp_path / "bench",
        config=DenoiseConfig(k0=5, iters=3),
        normalize=False,
        save_cubes=False,
    )
    shapes = []

    def recording(reduced, *args, **kwargs):
        shapes.append(reduced.shape)
        return denoise_reduced(reduced, *args, **kwargs)

    monkeypatch.setattr(pipeline, "denoise_reduced", recording)
    counts = [32, 64, 128, 192]
    runs = [bench_bands(spec, band_counts=counts) for _ in range(3)]
    assert shapes == [(64, 64, 5)] * (3 * len(counts) * 3)

    def medians(key):
        return [statistics.median(float(run[j][key]) for run in runs) for j in range(len(counts))]

    stage_a = medians("stage_a_seconds")
    stage_b = medians("stage_b_seconds")
    assert stage_b[3] <= 1.5 * stage_b[0]
    assert all(a < b for a, b in zip(stage_a, stage_a[1:]))


def test_metric_reference_values():
    """PSNR, SSIM, and SAM reproduce hand-computed reference numbers."""
    ref = np.zeros((32, 32))
    off = np.full((32, 32), 16.0)
    assert abs(psnr(ref, off) - 24.05) <= 0.01

    a = np.zeros((2, 2, 4))
    b = np.zeros((2, 2, 4))
    a[:, :, 0] = 1.0
    b[:, :, 1] = 1.0
    assert abs(sam(a, b) - 90.0) <= 1e-6

    rng = np.random.default_rng(0)
    band = rng.uniform(0.0, 255.0, size=(32, 32))
    assert ssim(band, band) == 1.0

    spectra = rng.uniform(1.0, 10.0, size=(8, 8, 6))
    test = spectra + rng.standard_normal(spectra.shape)
    assert abs(sam(spectra, test) - sam(spectra, 3.7 * test)) <= 1e-9


def test_dimension_recovery():
    """Subspace dimension estimation is exact without noise, robust with.

    Noiseless rank-r cubes recover r exactly; at sigma 10 a rank-5 cube
    must come back as 5 in at least 18 of 20 seeds.
    """
    for rank in (1, 3, 5, 10):
        cube = rank_cube(64, 64, 32, rank, seed=11 + rank)
        assert estimate_subspace_dim(cube, estimate_band_noise(cube)) == rank

    hits = 0
    for seed in range(20):
        cube = rank_cube(64, 64, 32, 5, seed=200 + seed)
        noisy = add_gaussian_noise(cube, 10.0, seed=seed)
        hits += estimate_subspace_dim(noisy, estimate_band_noise(noisy)) == 5
    assert hits >= 18


def test_shrinkage_invariants():
    """Shrinkage never grows singular values; aggregation is scatter-add."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = rng.standard_normal((30, 12)) * rng.uniform(0.5, 20.0)
        sigma = rng.uniform(0.0, 5.0)
        s_in = np.linalg.svd(g, compute_uv=False)
        s_out = np.linalg.svd(wnnm_shrink(g, sigma), compute_uv=False)
        assert (s_out <= s_in + 1e-9 * max(1.0, s_in[0])).all()

    g = rng.standard_normal((24, 8))
    np.testing.assert_array_equal(wnnm_shrink(g, 0.0), g)

    geom = PatchGeometry(patch=2, window=6, group=4)
    reduced = rng.standard_normal((12, 12, 3))
    groups = []
    for ref in reference_grid(12, 12, geom):
        grp = match_group(reduced, ref, geom)
        groups.append((grp, rng.standard_normal(grp.matrix.shape)))
    acc = np.zeros((12, 12, 3))
    cnt = np.zeros((12, 12, 1))
    for grp, mat in groups:
        for j, (r, c) in enumerate(grp.members):
            acc[r : r + 2, c : c + 2, :] += mat[:, j].reshape(2, 2, 3)
            cnt[r : r + 2, c : c + 2, :] += 1.0
    naive = acc / cnt
    out = aggregate(groups, reduced.shape)
    assert np.abs(out - naive).max() <= 1e-9 * np.abs(naive).max()


@pytest.mark.parametrize("sigma", [10.0, 30.0, 50.0])
def test_tiling_reference_grid_keeps_quality(sigma, monkeypatch):
    """The reference grid tiles the image (corners one patch side apart):
    it scores within 0.1 dB MPSNR of a grid with corners 4 apart, built
    here, which matches 2.25 times as many references at patch 6.
    Measured: -0.038, -0.040 and +0.008 dB."""
    clean = rank_cube(64, 64, 32, 5, seed=0)
    noisy = add_gaussian_noise(clean, sigma, seed=1)
    tiled, _ = denoise(noisy, sigma, DenoiseConfig())

    def axis_grid_4(dim, patch):
        last = dim - patch
        return sorted({*range(0, last + 1, 4), last})

    monkeypatch.setattr(spatial, "_axis_grid", axis_grid_4)
    dense, _ = denoise(noisy, sigma, DenoiseConfig())
    assert mpsnr(clean, tiled) >= mpsnr(clean, dense) - 0.1
