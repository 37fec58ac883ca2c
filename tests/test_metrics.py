"""Quality metrics: per-band PSNR, windowed SSIM, spectral angle."""

import math

import numpy as np
import pytest

from hsidenoise.metrics import mpsnr, mssim, psnr, quality_report, sam, ssim


class TestPsnr:
    def test_constant_offset_value(self):
        ref = np.zeros((32, 32))
        test = np.full((32, 32), 16.0)
        # 10 log10(255^2 / 256)
        assert psnr(ref, test) == pytest.approx(24.0484, abs=1e-3)

    def test_identical_is_infinite(self):
        x = np.ones((8, 8))
        assert psnr(x, x) == math.inf

    def test_peak_parameter(self):
        ref = np.zeros((8, 8))
        test = np.full((8, 8), 0.1)
        assert psnr(ref, test, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestMpsnr:
    def test_mean_over_bands(self):
        ref = np.zeros((16, 16, 2))
        test = np.zeros((16, 16, 2))
        test[:, :, 0] = 16.0
        test[:, :, 1] = 32.0
        expected = 0.5 * (psnr(ref[:, :, 0], test[:, :, 0]) + psnr(ref[:, :, 1], test[:, :, 1]))
        assert mpsnr(ref, test) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_independent_of_memory_layout(self, seed):
        # C, F and band-planar (each band contiguous) copies hold the same
        # values; the mean must not depend on which order they are stored in
        rng = np.random.default_rng(seed)
        ref = rng.uniform(0.0, 255.0, (32, 32, 32))
        test = ref + rng.standard_normal(ref.shape) * 20.0

        def layouts(cube):
            planar = np.ascontiguousarray(cube.transpose(2, 0, 1)).transpose(1, 2, 0)
            return [np.ascontiguousarray(cube), np.asfortranarray(cube), planar]

        expected = mpsnr(ref, test)
        for r in layouts(ref):
            for t in layouts(test):
                assert mpsnr(r, t) == expected
                assert quality_report(r, t).mpsnr == expected


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        rng = np.random.default_rng(0)
        band = rng.uniform(0.0, 255.0, size=(32, 32))
        assert ssim(band, band) == 1.0

    def test_noise_lowers_score(self):
        rng = np.random.default_rng(1)
        band = np.tile(np.linspace(0.0, 255.0, 32), (32, 1))
        noisy = band + rng.standard_normal(band.shape) * 25.0
        score = ssim(band, noisy)
        assert 0.0 < score < 0.95

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(2)
        band = np.tile(np.linspace(0.0, 255.0, 48), (48, 1))
        mild = ssim(band, band + rng.standard_normal(band.shape) * 5.0)
        harsh = ssim(band, band + rng.standard_normal(band.shape) * 50.0)
        assert harsh < mild

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_mssim_averages_bands(self):
        rng = np.random.default_rng(3)
        cube = rng.uniform(0.0, 255.0, size=(24, 24, 3))
        assert mssim(cube, cube) == 1.0


class TestSam:
    def test_orthogonal_spectra_are_90_degrees(self):
        ref = np.zeros((2, 2, 4))
        test = np.zeros((2, 2, 4))
        ref[:, :, 0] = 1.0
        test[:, :, 1] = 1.0
        assert sam(ref, test) == pytest.approx(90.0, abs=1e-6)

    def test_scaled_spectra_are_zero_degrees(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(1.0, 10.0, size=(8, 8, 6))
        assert sam(ref, 2.0 * ref) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        ref = rng.uniform(1.0, 10.0, size=(8, 8, 6))
        test = ref + rng.standard_normal(ref.shape)
        assert abs(sam(ref, test) - sam(ref, 3.7 * test)) < 1e-9

    def test_opposite_spectra_are_180_degrees(self):
        ref = np.ones((2, 2, 3))
        assert sam(ref, -ref) == pytest.approx(180.0, abs=1e-9)

    def test_zero_pixels_skipped_with_warning(self):
        ref = np.ones((2, 2, 3))
        test = np.ones((2, 2, 3))
        ref[0, 0, :] = 0.0
        with pytest.warns(UserWarning, match="skip"):
            angle = sam(ref, test)
        assert angle == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            sam(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_independent_of_memory_layout(self, seed):
        # C, F and band-planar copies hold the same values, so the angles
        # must not depend on which order they are stored in
        rng = np.random.default_rng(seed)
        ref = rng.uniform(0.0, 255.0, (32, 32, 32))
        test = ref + rng.standard_normal(ref.shape) * 20.0

        def layouts(cube):
            planar = np.ascontiguousarray(cube.transpose(2, 0, 1)).transpose(1, 2, 0)
            return [np.ascontiguousarray(cube), np.asfortranarray(cube), planar]

        expected = sam(ref, test)
        for r in layouts(ref):
            for t in layouts(test):
                assert sam(r, t) == expected
                assert quality_report(r, t).sam_deg == expected


class TestQualityReport:
    def test_fields(self):
        rng = np.random.default_rng(6)
        clean = rng.uniform(0.0, 255.0, size=(24, 24, 4))
        noisy = clean + rng.standard_normal(clean.shape) * 10.0
        rep = quality_report(clean, noisy)
        assert len(rep.per_band_psnr) == 4
        assert rep.mpsnr == pytest.approx(np.mean(rep.per_band_psnr), rel=1e-12)
        assert 0.0 < rep.mssim < 1.0
        assert rep.sam_deg > 0.0

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(7)
        cube = rng.uniform(1.0, 255.0, size=(16, 16, 3))
        rep = quality_report(cube, cube.copy())
        assert rep.mpsnr == math.inf
        assert rep.mssim == 1.0
        assert rep.sam_deg == 0.0


class TestMismatchedPairs:
    @pytest.mark.parametrize("metric", [quality_report, sam])
    def test_shapes_differ(self, metric):
        cube = np.ones((16, 16, 3))
        with pytest.raises(ValueError, match=r"^shape mismatch: \(16, 16, 3\) vs \(16, 16, 2\)$"):
            metric(cube, cube[:, :, :2])

    @pytest.mark.parametrize(
        "metric, message",
        [
            (quality_report, r"^expected 3-d arrays, got 3-d and 2-d$"),
            (sam, r"^test must be 3-d \(rows, cols, bands\), got shape \(16, 16\)$"),
        ],
    )
    def test_dimensions_differ(self, metric, message):
        cube = np.ones((16, 16, 3))
        with pytest.raises(ValueError, match=message):
            metric(cube, cube[:, :, 0])


class TestPeak:
    @pytest.mark.parametrize("peak", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("metric", [psnr, mpsnr, ssim, mssim, quality_report])
    def test_non_finite_or_non_positive_rejected(self, metric, peak):
        rng = np.random.default_rng(8)
        clean = rng.uniform(0.0, 255.0, size=(16, 16, 2))
        noisy = clean + rng.standard_normal(clean.shape) * 10.0
        if metric in (psnr, ssim):
            clean, noisy = clean[:, :, 0], noisy[:, :, 0]
        with pytest.raises(ValueError, match="peak must be finite and > 0"):
            metric(clean, noisy, peak=peak)
