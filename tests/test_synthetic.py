"""Synthetic low-rank cube generator."""

import hashlib

import numpy as np
import pytest

from hsidenoise.synthetic import rank_cube


def spectral_tail(cube, rank):
    s = np.linalg.svd(cube.reshape(-1, cube.shape[2]).T, compute_uv=False)
    return s[rank:].max(initial=0.0) / s[0]


class TestRankCube:
    @pytest.mark.parametrize("rank", [1, 3, 5, 10])
    def test_exact_rank(self, rank):
        cube = rank_cube(32, 32, 16, rank, seed=4)
        assert spectral_tail(cube, rank) < 1e-12

    @pytest.mark.parametrize("rank", [1, 3])
    def test_c_ordered(self, rank):
        cube = rank_cube(24, 20, 8, rank, seed=2)
        assert cube.dtype == np.float64 and cube.flags.c_contiguous

    def test_range_spans_zero_to_peak(self):
        cube = rank_cube(24, 24, 8, 3, seed=0)
        assert cube.min() == 0.0
        assert cube.max() == pytest.approx(255.0)

    def test_custom_peak(self):
        cube = rank_cube(24, 24, 8, 3, seed=0, peak=1.0)
        assert cube.max() == pytest.approx(1.0)
        assert spectral_tail(cube, 3) < 1e-12

    def test_seed_reproducible(self):
        a = rank_cube(16, 16, 8, 2, seed=7)
        b = rank_cube(16, 16, 8, 2, seed=7)
        np.testing.assert_array_equal(a, b)
        c = rank_cube(16, 16, 8, 2, seed=8)
        assert not np.array_equal(a, c)

    def test_strengths_change_spectrum(self):
        flat = rank_cube(32, 32, 8, 4, seed=1, strengths=[1, 1, 1, 1])
        steep = rank_cube(32, 32, 8, 4, seed=1, strengths=[1, 0.1, 0.01, 0.001])
        s_flat = np.linalg.svd(flat.reshape(-1, flat.shape[2]).T, compute_uv=False)
        s_steep = np.linalg.svd(steep.reshape(-1, steep.shape[2]).T, compute_uv=False)
        assert s_steep[3] / s_steep[0] < s_flat[3] / s_flat[0]

    def test_strengths_length_check(self):
        with pytest.raises(ValueError):
            rank_cube(16, 16, 8, 3, strengths=[1.0, 0.5])

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            rank_cube(16, 16, 8, 0)
        with pytest.raises(ValueError):
            rank_cube(16, 16, 8, 9)


# SHA-1 of the C-order float64 bytes of rank_cube(m, n, bands, rank, seed=0),
# recorded while rank_cube still smoothed with scipy.ndimage.gaussian_filter:
# the benchmark's scenes (scene96, sweep, bands191) and a rank-1 field.  The
# smoothing is exact, but the QR and the product run in LAPACK and BLAS,
# whose rounding a build other than numpy 2.4's OpenBLAS 0.3.31 may change.
@pytest.mark.parametrize("args, digest", [
    ((96, 96, 64, 5), "b7b3186a7783db1273aeb2c2a8303c294744eeb8"),
    ((32, 32, 32, 5), "bdf51957b774e989219535b15d6c04ff69c3cc94"),
    ((128, 128, 191, 8), "a3f1014c270afb18106ffa3312130ae0f3751a0f"),
    ((20, 24, 6, 1), "569913f27d65da038c10771ae464a27aed20238d"),
])
def test_scenes_pinned(args, digest):
    assert hashlib.sha1(rank_cube(*args, seed=0).tobytes()).hexdigest() == digest
