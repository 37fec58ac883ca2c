"""The numpy filters against scipy.ndimage, which the package no longer
imports: scipy is only the oracle here, and the module skips without it."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hsidenoise import metrics
from hsidenoise.io import add_gaussian_noise
from hsidenoise.metrics import mssim, ssim
from hsidenoise.synthetic import _gaussian_smooth, rank_cube
from hsidenoise.tensor import PEAK, _correlate_symmetric

ndimage = pytest.importorskip("scipy.ndimage")

SEEDS = st.integers(0, 2**32 - 1)


class TestGaussianSmooth:
    """rank_cube's filter equals gaussian_filter with sigma (s, s) or
    (s, s, 0), reflect edge and truncate 4, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                           st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 4))),
           sigma=st.floats(0.5, 10.0), seed=SEEDS)
    # axes shorter than the radius, which the reflect edge mirrors again and again
    @example(shape=(2, 2), sigma=3.0, seed=0)
    @example(shape=(5, 7), sigma=10.0, seed=1)
    @example(shape=(5, 7, 3), sigma=3.0, seed=2)
    @example(shape=(1, 9, 2), sigma=0.5, seed=3)
    def test_equals_gaussian_filter(self, shape, sigma, seed):
        x = np.random.default_rng(seed).standard_normal(shape)
        sigmas = (sigma, sigma) + (0.0,) * (len(shape) - 2)
        np.testing.assert_array_equal(_gaussian_smooth(x, sigma), ndimage.gaussian_filter(x, sigmas))

    def test_rank_cube_maps(self):
        # rank_cube's own draw, smoothed the way it was with scipy
        m, n, rank = 96, 96, 5
        maps = np.random.default_rng(0).standard_normal((m, n, rank))
        expected = ndimage.gaussian_filter(maps, sigma=(3.0, 3.0, 0))
        np.testing.assert_array_equal(_gaussian_smooth(maps, 3.0), expected)


class TestCorrelateSymmetric:
    """Where the kernel fits, the helper equals correlate1d bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3), half=st.integers(0, 5),
           axis=st.integers(0, 2), seed=SEEDS)
    def test_equals_correlate1d_interior(self, shape, half, axis, seed):
        axis %= len(shape)
        shape[axis] += 2 * half
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        w = rng.uniform(0.0, 1.0, 2 * half + 1)
        w = (w + w[::-1]) / 2.0  # symmetric bit for bit
        full = ndimage.correlate1d(x, w, axis=axis, mode="constant")
        interior = full[(slice(None),) * axis + (slice(half, shape[axis] - half),)]
        np.testing.assert_array_equal(_correlate_symmetric(x, w, axis), interior)


def reference_ssim(ref, test, peak=PEAK):
    """SSIM as computed with scipy: each windowed mean filtered over the whole
    zero-padded band, the map averaged over its interior."""
    kernel = metrics._gaussian_kernel()
    half = metrics.SSIM_WINDOW // 2

    def window_mean(img):
        out = ndimage.correlate1d(img, kernel, axis=0, mode="constant")
        return ndimage.correlate1d(out, kernel, axis=1, mode="constant")

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu1 = window_mean(ref)
    mu2 = window_mean(test)
    mu1mu2 = mu1 * mu2
    mu1sq = mu1 * mu1
    mu2sq = mu2 * mu2
    s12 = window_mean(ref * test) - mu1mu2
    s11 = window_mean(ref * ref) - mu1sq
    s22 = window_mean(test * test) - mu2sq
    num = (2.0 * mu1mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1sq + mu2sq + c1) * (s11 + s22 + c2)
    smap = num / den
    return float(np.mean(smap[half:-half, half:-half]))


class TestSsimAgainstScipy:
    # 128x128x16: one band per block, where a contiguous map's mean once
    # differed from the strided interior's in the last bit
    @pytest.mark.parametrize("shape", [(32, 32, 32), (96, 96, 8), (128, 128, 16)])
    def test_bit_identical(self, shape):
        m, n, b = shape
        clean = rank_cube(m, n, b, 5, seed=0)
        noisy = add_gaussian_noise(clean, 30.0, seed=1)
        per_band = [reference_ssim(clean[:, :, k], noisy[:, :, k]) for k in range(b)]
        assert [ssim(clean[:, :, k], noisy[:, :, k]) for k in range(b)] == per_band
        assert mssim(clean, noisy) == float(np.mean(per_band))
