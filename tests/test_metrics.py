"""Quality metrics: per-band PSNR, windowed SSIM, spectral angle."""

import math

import numpy as np
import pytest

from hsidenoise.metrics import mpsnr, mssim, psnr, quality_report, sam, ssim
from hsidenoise.tensor import PEAK


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

    @pytest.mark.parametrize("j", [-600, -540, 500, 520])
    def test_scaled_by_a_power_of_two(self, j):
        """Squares of the difference of inputs scaled by 2^j over- or
        underflow; the PSNR still moves by 20 j log10(2) dB and no more."""
        rng = np.random.default_rng(j % 7)
        a = rng.uniform(0.0, 255.0, (16, 16))
        b = a + rng.standard_normal(a.shape) * 10.0
        want = psnr(a, b) - 20.0 * j * math.log10(2.0)
        assert psnr(np.ldexp(a, j), np.ldexp(b, j)) == pytest.approx(want, abs=1e-9)
        assert psnr(np.ldexp(a, j), np.ldexp(a, j)) == math.inf

    @pytest.mark.parametrize("seed", [None, 0])
    def test_difference_beyond_float64_range(self, seed):
        """Finite entries whose difference overflows float64 are halved
        first: the PSNR is the halved pair's at half the peak, with no
        RuntimeWarning (an error under pyproject.toml's filterwarnings)."""
        if seed is None:
            a = np.full((16, 16), 1e308)
        else:
            a = np.random.default_rng(seed).uniform(0.5, 1.0, (16, 16)) * 1.7e308
        b = -a[::-1]
        assert psnr(a, b) == pytest.approx(psnr(a * 0.5, b * 0.5, peak=127.5), abs=1e-9)


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

    @pytest.mark.parametrize("value", [3.0, 200.0])
    def test_constant_band_at_vanishing_peak(self, value):
        """At peak 1e-300, c1 and c2 underflow to 0, so a window with no
        variance is 0/0; it reads the limit as c1, c2 -> 0+, which is 1."""
        band = np.full((16, 16), value)
        assert ssim(band, band, peak=1e-300) == 1.0

    def test_zero_and_constant_regions_at_vanishing_peak(self):
        # windows in the zero half have 0/0 luminance and contrast, those
        # in the constant half 0/0 contrast, those across both neither
        band = np.zeros((24, 40))
        band[:, 20:] = 3.0
        assert ssim(band, band, peak=1e-300) == 1.0
        assert mssim(band[:, :, None], band[:, :, None], peak=1e-300) == 1.0

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
        assert rep.mpsnr == mpsnr(clean, noisy)
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

    @pytest.mark.parametrize("metric", [quality_report, sam])
    def test_dimensions_differ(self, metric):
        cube = np.ones((16, 16, 3))
        with pytest.raises(ValueError, match=r"^expected 3-d arrays, got 3-d and 2-d$"):
            metric(cube, cube[:, :, 0])

    @pytest.mark.parametrize("metric", [psnr, mpsnr, mssim, quality_report])
    def test_empty_pair_rejected(self, metric):
        """A mean over no pixels or no bands would read nan."""
        empty = np.zeros((16, 16, 0))
        with pytest.raises(ValueError, match=r"empty dimension: \(16, 16, 0\)$"):
            metric(empty, empty)


class TestNonFinite:
    @pytest.mark.parametrize("metric", [psnr, mpsnr, ssim, mssim, sam, quality_report])
    def test_rejected(self, metric):
        """A NaN or infinite entry in either argument raises the package's
        one non-finite error, rather than read nan or be skipped."""
        rng = np.random.default_rng(9)
        shape = (16, 16) if metric in (psnr, ssim) else (16, 16, 2)
        for value in (math.nan, math.inf, -math.inf):
            for which in (0, 1):
                pair = [rng.uniform(0.0, 255.0, shape) for _ in range(2)]
                pair[which][3, 4] = value
                with pytest.raises(ValueError, match="non-finite entries"):
                    metric(*pair)


def _scaled_pair_source(j):
    rng = np.random.default_rng(j % 7)
    a = rng.uniform(0.0, 255.0, (16, 16, 3))
    return a, a + rng.standard_normal(a.shape) * 10.0


@pytest.mark.parametrize("j", [-600, -540, 500, 520])
class TestExtremeScales:
    """Squares and products of cubes scaled by 2^j, and of a peak scaled
    alike, over- or underflow; each metric scales what it does not change
    under near PEAK first, so it reads its in-range value, with no
    RuntimeWarning (which pyproject.toml's filterwarnings makes an error)."""

    def test_sam_is_scale_free(self, j):
        a, b = _scaled_pair_source(j)
        for k in (j, -j):
            assert sam(np.ldexp(a, j), np.ldexp(b, k)) == sam(a, b)

    def test_peak_scaled_alike(self, j):
        a, b = _scaled_pair_source(j)
        sa, sb, peak = np.ldexp(a, j), np.ldexp(b, j), math.ldexp(PEAK, j)
        assert mssim(sa, sb, peak) == pytest.approx(mssim(a, b), abs=1e-12)
        assert ssim(sa[:, :, 1], sb[:, :, 1], peak) == pytest.approx(
            ssim(a[:, :, 1], b[:, :, 1]), abs=1e-12)
        assert mpsnr(sa, sb, peak) == pytest.approx(mpsnr(a, b), abs=1e-9)
        assert psnr(sa, sb, peak) == pytest.approx(psnr(a, b), abs=1e-9)

    def test_peak_fixed(self, j):
        """At the default peak, SSIM's constants are those of a peak scaled
        the other way; on cubes far below it they dominate, so SSIM reads 1.
        A peak scaled by 2^j moves PSNR by 20 j log10(2) dB."""
        a, b = _scaled_pair_source(j)
        got = mssim(np.ldexp(a, j), np.ldexp(b, j))
        want = mssim(a, b, peak=math.ldexp(PEAK, -j)) if j > 0 else 1.0
        assert math.isfinite(got) and got == pytest.approx(want, abs=1e-12)
        assert psnr(a, b, peak=math.ldexp(PEAK, j)) == pytest.approx(
            psnr(a, b) + 20.0 * j * math.log10(2.0), abs=1e-9)


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
