"""Patch grouping, weighted shrinkage, and aggregation."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsidenoise import spatial
from hsidenoise.spatial import (
    PatchGeometry,
    aggregate,
    denoise_reduced,
    match_group,
    match_groups,
    reference_grid,
    wnnm_shrink,
)
from hsidenoise.tensor import PEAK


SMALL = PatchGeometry(patch=2, stride=2, window=6, group=4)


class TestPatchGeometry:
    def test_defaults(self):
        geom = PatchGeometry()
        assert (geom.patch, geom.stride, geom.window, geom.group) == (6, 4, 30, 70)

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchGeometry(patch=0)
        with pytest.raises(ValueError):
            PatchGeometry(stride=0)
        with pytest.raises(ValueError):
            PatchGeometry(patch=6, window=4)
        with pytest.raises(ValueError):
            PatchGeometry(group=0)

    def test_frozen(self):
        geom = PatchGeometry()
        with pytest.raises(AttributeError):
            geom.patch = 8


class TestReferenceGrid:
    def test_hand_grid(self):
        geom = PatchGeometry(patch=6, stride=4, window=30, group=70)
        # 10 pixels, patch 6, stride 4: starts 0 and 4; 4 is also the
        # clamped last valid start 10 - 6
        grid = reference_grid(10, 10, geom)
        assert grid == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_last_start_clamped(self):
        geom = PatchGeometry(patch=6, stride=4, window=30, group=70)
        grid = reference_grid(13, 13, geom)
        rows = sorted({r for r, _ in grid})
        assert rows == [0, 4, 7]  # 13 - 6 = 7, not 8

    def test_image_equals_patch(self):
        geom = PatchGeometry(patch=4, stride=4, window=8, group=4)
        assert reference_grid(4, 4, geom) == [(0, 0)]

    def test_row_major_order(self):
        grid = reference_grid(12, 12, SMALL)
        assert grid == sorted(grid)

    def test_every_pixel_covered(self):
        geom = PatchGeometry(patch=6, stride=4, window=30, group=70)
        m = n = 21
        cover = np.zeros((m, n), dtype=bool)
        for r, c in reference_grid(m, n, geom):
            cover[r : r + 6, c : c + 6] = True
        assert cover.all()


class TestMatchGroup:
    def test_reference_is_first_member(self):
        rng = np.random.default_rng(0)
        reduced = rng.standard_normal((12, 12, 3))
        grp = match_group(reduced, (4, 4), SMALL)
        assert tuple(grp.members[0]) == (4, 4)
        assert grp.ref_pos == (4, 4)

    def test_columns_are_vectorized_patches(self):
        rng = np.random.default_rng(1)
        reduced = rng.standard_normal((10, 10, 2))
        grp = match_group(reduced, (2, 2), SMALL)
        for j, (r, c) in enumerate(grp.members):
            np.testing.assert_array_equal(
                grp.matrix[:, j], reduced[r : r + 2, c : c + 2, :].ravel()
            )

    def test_exact_duplicates_found_first(self):
        reduced = np.zeros((12, 12, 1))
        reduced[:, :, 0] = np.arange(144).reshape(12, 12)
        # plant two exact copies of the reference patch inside the window
        reduced[4:6, 4:6, 0] = [[1.0, 2.0], [3.0, 4.0]]
        reduced[2:4, 6:8, 0] = [[1.0, 2.0], [3.0, 4.0]]
        reduced[6:8, 2:4, 0] = [[1.0, 2.0], [3.0, 4.0]]
        grp = match_group(reduced, (4, 4), SMALL)
        top = {tuple(m) for m in grp.members[:3]}
        assert top == {(4, 4), (2, 6), (6, 2)}

    def test_members_stay_inside_window(self):
        rng = np.random.default_rng(2)
        reduced = rng.standard_normal((30, 30, 2))
        geom = PatchGeometry(patch=2, stride=2, window=4, group=9)
        grp = match_group(reduced, (14, 14), geom)
        half = geom.window // 2
        for r, c in grp.members:
            assert abs(r - 14) <= half and abs(c - 14) <= half

    def test_small_window_takes_all_candidates(self):
        rng = np.random.default_rng(3)
        reduced = rng.standard_normal((6, 6, 1))
        geom = PatchGeometry(patch=2, stride=2, window=2, group=70)
        grp = match_group(reduced, (2, 2), geom)
        # 3x3 candidate corners in a +-1 window around (2, 2)
        assert len(grp.members) == 9

    def test_out_of_bounds_reference(self):
        with pytest.raises(ValueError):
            match_group(np.zeros((8, 8, 1)), (7, 0), SMALL)


class TestWnnmShrink:
    def test_hand_oracle_diagonal(self):
        """diag(10, 1), p=2, sigma=1, c=2*sqrt(2).

        Singular value 10: shrunk by c*sqrt(p)/sqrt(10^2 - 2) = 4/sqrt(98).
        Singular value 1: 1^2 - 2 clips to 0, weight 4/eps kills it.
        """
        g = np.diag([10.0, 1.0])
        out = wnnm_shrink(g, 1.0, c=2.0 * math.sqrt(2.0))
        expected = np.diag([10.0 - 4.0 / math.sqrt(98.0), 0.0])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_non_expansive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = rng.standard_normal((24, 10))
            s_in = np.linalg.svd(g, compute_uv=False)
            s_out = np.linalg.svd(wnnm_shrink(g, 0.5), compute_uv=False)
            assert (s_out <= s_in + 1e-9).all()

    def test_zero_sigma_bypass_identity(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((16, 8))
        np.testing.assert_array_equal(wnnm_shrink(g, 0.0), g)

    def test_scale_covariant_bit_for_bit(self):
        """Scaling g and sigma by 2^e and c by 4^e scales the result by 2^e
        exactly: the shrink has no scale of its own."""
        rng = np.random.default_rng(6)
        g = low_rank_group(rng, 20, 7, 1.0)
        want = wnnm_shrink(g, 1.0, c=2.0)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)
        for e in range(-100, 101):
            t = 2.0**e
            got = wnnm_shrink(t * g, t, c=2.0 * t * t)
            np.testing.assert_array_equal(got, t * want, err_msg=f"e = {e}")

    def test_large_sigma_flattens(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((12, 6))
        out = wnnm_shrink(g, 50.0)
        assert np.linalg.norm(out) < 1e-9

    def test_strong_signal_nearly_preserved(self):
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.standard_normal((30, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        g = (u * [500.0, 300.0]) @ v.T
        out = wnnm_shrink(g, 1.0)
        assert np.linalg.norm(out - g) / np.linalg.norm(g) < 0.05

    def test_zero_c_is_identity(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((16, 6))
        np.testing.assert_allclose(wnnm_shrink(g, 0.5, c=0.0), g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [{"c": -2.0}, {"c": -1e-12}, {"eps": 0.0}, {"eps": -1.0}])
    def test_out_of_range_constants_rejected(self, bad):
        # a negative c would grow the top singular value instead of
        # shrinking it
        g = np.random.default_rng(10).standard_normal((16, 6))
        (name,) = bad
        with pytest.raises(ValueError, match=f"{name} must be"):
            wnnm_shrink(g, 0.5, **bad)
        reduced = np.random.default_rng(11).standard_normal((12, 12, 3))
        with pytest.raises(ValueError, match=f"{name} must be"):
            denoise_reduced(reduced, 0.5, SMALL, **bad)

    @pytest.mark.parametrize("name", ["sigma", "c", "eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_args_rejected(self, name, value):
        args = {"sigma": 0.5, "c": 1.0, "eps": 1e-16, name: value}
        g = np.random.default_rng(10).standard_normal((16, 6))
        with pytest.raises(ValueError, match=f"{name} must be"):
            wnnm_shrink(g, **args)
        reduced = np.random.default_rng(11).standard_normal((12, 12, 3))
        with pytest.raises(ValueError, match=f"{name} must be"):
            denoise_reduced(reduced, geom=SMALL, **args)


class TestAggregate:
    def test_identity_on_clean_groups(self):
        rng = np.random.default_rng(9)
        reduced = rng.standard_normal((10, 10, 2))
        groups = []
        for ref in reference_grid(10, 10, SMALL):
            grp = match_group(reduced, ref, SMALL)
            groups.append((grp, grp.matrix))
        np.testing.assert_allclose(
            aggregate(groups, reduced.shape), reduced, rtol=0, atol=1e-12
        )

    def test_matches_naive_scatter_add(self):
        rng = np.random.default_rng(10)
        reduced = rng.standard_normal((12, 12, 3))
        groups = []
        for ref in reference_grid(12, 12, SMALL):
            grp = match_group(reduced, ref, SMALL)
            groups.append((grp, rng.standard_normal(grp.matrix.shape)))

        acc = np.zeros((12, 12, 3))
        cnt = np.zeros((12, 12, 1))
        for grp, mat in groups:
            for j, (r, c) in enumerate(grp.members):
                acc[r : r + 2, c : c + 2, :] += mat[:, j].reshape(2, 2, 3)
                cnt[r : r + 2, c : c + 2, :] += 1.0
        naive = acc / cnt

        out = aggregate(groups, reduced.shape)
        assert np.abs(out - naive).max() / np.abs(naive).max() < 1e-9

    def test_order_independent(self):
        rng = np.random.default_rng(11)
        reduced = rng.standard_normal((10, 10, 2))
        groups = []
        for ref in reference_grid(10, 10, SMALL):
            grp = match_group(reduced, ref, SMALL)
            groups.append((grp, grp.matrix * 1.5))
        a = aggregate(groups, reduced.shape)
        b = aggregate(groups[::-1], reduced.shape)
        np.testing.assert_array_equal(a, b)

    def test_coverage_gap_rejected(self):
        rng = np.random.default_rng(12)
        reduced = rng.standard_normal((10, 10, 2))
        grp = match_group(reduced, (0, 0), SMALL)
        with pytest.raises(ValueError, match="coverage gap"):
            aggregate([(grp, grp.matrix)], reduced.shape)

    def test_inconsistent_matrix_rejected(self):
        rng = np.random.default_rng(13)
        reduced = rng.standard_normal((10, 10, 2))
        grp = match_group(reduced, (0, 0), SMALL)
        with pytest.raises(ValueError, match="inconsistent"):
            aggregate([(grp, grp.matrix[:, :2])], reduced.shape)

    def test_member_outside_image_rejected(self):
        rng = np.random.default_rng(13)
        reduced = rng.standard_normal((10, 10, 2))
        grp = match_group(reduced, (0, 0), SMALL)
        grp.members[1] = (9, 0)  # a 2x2 patch at row 9 leaves the image
        with pytest.raises(ValueError, match="outside"):
            aggregate([(grp, grp.matrix)], reduced.shape)


class TestDenoiseReduced:
    def test_zero_sigma_identity(self):
        rng = np.random.default_rng(14)
        reduced = rng.standard_normal((12, 12, 3))
        out = denoise_reduced(reduced, 0.0, SMALL)
        np.testing.assert_allclose(out, reduced, rtol=0, atol=1e-12)

    def test_reduces_noise_on_smooth_image(self):
        rng = np.random.default_rng(15)
        clean = np.tile(np.linspace(0.0, 255.0, 20)[:, None, None], (1, 20, 2))
        noisy = clean + rng.standard_normal(clean.shape) * 20.0
        geom = PatchGeometry(patch=4, stride=2, window=10, group=20)
        out = denoise_reduced(noisy, 20.0, geom, c=0.5 * PEAK**2)
        assert np.mean((out - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


# --- Per-reference reference implementations -------------------------------
# The spatial stage as one Python loop over references, with a sliding-window
# match, a per-group SVD and a per-member scatter.  denoise_reduced and the
# thin views above must agree with it.


def match_by_window(reduced, ref, geom):
    """(members, matrix) of one reference, from every candidate's distance."""
    m, n, k = reduced.shape
    ps, half = geom.patch, geom.window // 2
    r0, c0 = ref
    rlo, rhi = max(0, r0 - half), min(m - ps, r0 + half)
    clo, chi = max(0, c0 - half), min(n - ps, c0 + half)
    ncols = chi - clo + 1
    region = reduced[rlo : rhi + ps, clo : chi + ps, :]
    wins = np.lib.stride_tricks.sliding_window_view(region, (ps, ps), axis=(0, 1))
    diff = wins - np.moveaxis(reduced[r0 : r0 + ps, c0 : c0 + ps, :], 2, 0)
    dist = np.einsum("rckij,rckij->rc", diff, diff).ravel()
    ref_flat = (r0 - rlo) * ncols + (c0 - clo)
    take = [ref_flat]
    for idx in np.argsort(dist, kind="stable"):
        if len(take) == geom.group:
            break
        if idx != ref_flat:
            take.append(int(idx))
    members = np.array([(rlo + i // ncols, clo + i % ncols) for i in take])
    matrix = np.stack(
        [reduced[r : r + ps, c : c + ps, :].ravel() for r, c in members], axis=1
    )
    return members, matrix


def shrink_by_svd(g, sigma, c=2.0 * math.sqrt(2.0), eps=1e-16):
    """Weighted singular-value shrinkage through the SVD of the group, with
    eps relative to the largest singular value."""
    if sigma == 0:
        return g
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    if s[0] == 0:
        return g
    p = g.shape[1]
    s_clean = np.sqrt(np.maximum(s * s - p * sigma * sigma, 0.0))
    s_new = np.maximum(s - c * math.sqrt(p) / (s_clean + eps * s[0]), 0.0)
    return (u * s_new) @ vt


def denoise_by_loop(reduced, sigma, geom, c=2.0 * math.sqrt(2.0) * 255.0**2):
    m, n, k = reduced.shape
    ps = geom.patch
    acc = np.zeros((m, n, k))
    cnt = np.zeros((m, n, 1))
    for ref in reference_grid(m, n, geom):
        members, matrix = match_by_window(reduced, ref, geom)
        out = shrink_by_svd(matrix, sigma, c)
        for j, (r, col) in enumerate(members):
            acc[r : r + ps, col : col + ps, :] += out[:, j].reshape(ps, ps, k)
            cnt[r : r + ps, col : col + ps, :] += 1.0
    return acc / cnt


def _scene(seed, shape):
    """Smooth ramps on a 0..255 scale plus noise, so shrinkage keeps some
    components and zeroes others."""
    rng = np.random.default_rng(seed)
    m, n, k = shape
    ramp = np.add.outer(np.linspace(0.0, 1.0, m), np.linspace(0.0, 1.0, n))
    spectra = rng.uniform(20.0, 120.0, size=(2, k))
    clean = 60.0 + ramp[:, :, None] * spectra[0] + np.sin(3.0 * ramp)[:, :, None] * spectra[1]
    return clean + rng.standard_normal(shape) * 10.0


def _planted_duplicates():
    reduced = _scene(20, (16, 16, 2))
    patch = reduced[4:8, 4:8, :].copy()
    for r, c in [(0, 8), (8, 0), (9, 9), (2, 0)]:
        reduced[r : r + 4, c : c + 4, :] = patch
    return reduced


# name -> (reduced image, geometry, sigma)
STAGE_CASES = {
    # clipped windows give groups of 4, 6 and 9 members
    "ragged": (
        _scene(21, (12, 12, 3)),
        PatchGeometry(patch=2, stride=2, window=2, group=9),
        10.0,
    ),
    # every candidate ties at distance 0
    "constant": (np.full((14, 14, 3), 200.0), SMALL, 10.0),
    "one_patch": (_scene(22, (6, 6, 4)), PatchGeometry(), 10.0),
    "planted_duplicates": (
        _planted_duplicates(),
        PatchGeometry(patch=4, stride=2, window=12, group=6),
        10.0,
    ),
    "default_geometry": (_scene(23, (40, 40, 5)), PatchGeometry(), 10.0),
}

# Relative to the largest entry of the loop's output: summation order differs
# (distances, Gram eigh against SVD, scatter order), float64 roundoff is
# about 1e-15, and the margin covers groups whose singular values sit close
# together.
STAGE_RTOL = 1e-12


class TestStageEquivalence:
    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_members_match_loop(self, case):
        reduced, geom, _ = STAGE_CASES[case]
        m, n, _ = reduced.shape
        for ref in reference_grid(m, n, geom):
            grp = match_group(reduced, ref, geom)
            members, matrix = match_by_window(reduced, ref, geom)
            np.testing.assert_array_equal(grp.members, members)
            np.testing.assert_array_equal(grp.matrix, matrix)

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_denoise_matches_loop(self, case):
        reduced, geom, sigma = STAGE_CASES[case]
        want = denoise_by_loop(reduced, sigma, geom)
        got = denoise_reduced(reduced, sigma, geom)
        scale = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=STAGE_RTOL * scale)

    def test_ragged_case_has_ragged_groups(self):
        reduced, geom, _ = STAGE_CASES["ragged"]
        sizes = {
            len(match_group(reduced, ref, geom).members)
            for ref in reference_grid(12, 12, geom)
        }
        assert sizes == {4, 6, 9}

    def test_duplicates_lead_their_groups(self):
        reduced, geom, _ = STAGE_CASES["planted_duplicates"]
        grp = match_group(reduced, (4, 4), geom)
        top = {tuple(m) for m in grp.members[:5]}
        assert top == {(4, 4), (0, 8), (8, 0), (9, 9), (2, 0)}

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_coverage_matches_group_scatter(self, case):
        """The count built from the corners equals a scatter of every
        group's patches, one group at a time."""
        reduced, geom, _ = STAGE_CASES[case]
        m, n, _ = reduced.shape
        corners, sizes = match_groups(reduced, geom)
        want = np.zeros(m * n)
        for row, p in zip(corners, sizes):
            spatial._add_at(want, spatial._patch_index(row[:p], geom.patch, n, 1))
        got = spatial._coverage(corners, sizes, m, n, geom.patch)
        np.testing.assert_array_equal(got, want.reshape(m, n))

    def test_small_chunks_change_nothing(self, monkeypatch):
        """Chunk size bounds memory only: one group per chunk gives the same
        members and matches the loop as closely as the default chunks."""
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        want = denoise_by_loop(reduced, sigma, geom)
        monkeypatch.setattr(spatial, "_CHUNK_BYTES", 1)
        got = denoise_reduced(reduced, sigma, geom)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=STAGE_RTOL * np.abs(want).max()
        )


# Gram eigh against SVD, relative to the largest entry of the group.  Both
# paths are backward stable; squaring the singular values costs accuracy
# only for s^2 below about c*sqrt(p), and those components are zeroed by
# both.  Observed differences are at most 3e-13 on the random groups below.
SHRINK_RTOL = 1e-11


def assert_shrinks_agree(g, sigma, c=2.0 * math.sqrt(2.0)):
    got = wnnm_shrink(g, sigma, c=c)
    want = shrink_by_svd(g, sigma, c=c)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(
        got, want, rtol=0, atol=SHRINK_RTOL * np.abs(g).max()
    )
    return want


def low_rank_group(rng, d, p, sigma, rank=3, scale=5.0):
    signal = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, p))
    return signal * scale + rng.standard_normal((d, p)) * sigma


class TestShrinkAgainstSvd:
    @pytest.mark.parametrize("shape", [(12, 6), (24, 10), (4, 9), (36, 36), (900, 70)])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    def test_random_groups(self, shape, sigma):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(4):
            g = low_rank_group(rng, *shape, sigma)
            want = assert_shrinks_agree(g, sigma)
            # partly shrunk: neither zeroed nor left alone
            assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)

    def test_rank_deficient(self):
        rng = np.random.default_rng(30)
        base = rng.standard_normal((30, 5)) * 10.0
        g = np.concatenate([base, base[:, :3], 2.0 * base[:, :1]], axis=1)
        assert np.linalg.matrix_rank(g) == 5
        assert_shrinks_agree(g, 0.5)

    def test_all_zero(self):
        g = np.zeros((20, 8))
        np.testing.assert_array_equal(wnnm_shrink(g, 1.0), g)
        np.testing.assert_array_equal(shrink_by_svd(g, 1.0), g)

    # scale: c is 2*sqrt(2) on the scale of g / scale
    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_sigma_just_above_bypass(self, scale):
        rng = np.random.default_rng(31)
        g = low_rank_group(rng, 40, 10, 1.0, scale=scale)
        want = assert_shrinks_agree(g, 1.5e-9 * scale, 2.0 * math.sqrt(2.0) * scale**2)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)

    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_entries_near_1e150(self, scale):
        rng = np.random.default_rng(32)
        g = low_rank_group(rng, 36, 12, 0.1) * 1e150
        assert_shrinks_agree(g, 0.05e150, 2.0 * math.sqrt(2.0) * scale**2)

    def test_both_overflow_at_1e160(self):
        rng = np.random.default_rng(33)
        g = low_rank_group(rng, 36, 12, 0.1) * 1e160
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                shrink_by_svd(g, 1.0)
            with pytest.raises(FloatingPointError):
                wnnm_shrink(g, 1.0)

    def test_overflowed_gram_raises_not_nan(self):
        g = np.full((36, 12), 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
                wnnm_shrink(g, 1.0)


@st.composite
def reduced_and_geometry(draw):
    """A small reduced image on the 0..255 scale and a geometry that fits it."""
    patch = draw(st.integers(1, 4))
    geom = PatchGeometry(
        patch=patch,
        stride=draw(st.integers(1, patch)),
        window=draw(st.integers(patch, 9)),
        group=draw(st.integers(1, 12)),
    )
    m = draw(st.integers(patch, 12))
    n = draw(st.integers(patch, 12))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(0.0, 255.0, (m, n, k)), geom


class TestGroupReuse:
    """denoise_reduced with groups from match_groups is the stage itself."""

    @settings(max_examples=40, deadline=None)
    @given(case=reduced_and_geometry(), sigma=st.sampled_from([0.0, 5.0, 30.0]))
    def test_given_groups_change_nothing(self, case, sigma):
        reduced, geom = case
        got = denoise_reduced(reduced, sigma, geom, groups=match_groups(reduced, geom))
        np.testing.assert_array_equal(got, denoise_reduced(reduced, sigma, geom))

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_given_groups_change_nothing_on_stage_cases(self, case):
        reduced, geom, sigma = STAGE_CASES[case]
        got = denoise_reduced(reduced, sigma, geom, groups=match_groups(reduced, geom))
        np.testing.assert_array_equal(got, denoise_reduced(reduced, sigma, geom))

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_groups_hold_match_group_members(self, case):
        reduced, geom, _ = STAGE_CASES[case]
        m, n, _ = reduced.shape
        corners, sizes = match_groups(reduced, geom)
        refs = reference_grid(m, n, geom)
        assert corners.shape[0] == sizes.shape[0] == len(refs)
        for ref, row, size in zip(refs, corners, sizes):
            members = match_group(reduced, ref, geom).members
            np.testing.assert_array_equal(row[:size], members[:, 0] * n + members[:, 1])

    def test_groups_of_another_image_are_used(self):
        """Members are positions: groups matched on one image filter another
        of the same height and width, with its own values."""
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        other = reduced[::-1, ::-1].copy()
        groups = match_groups(other, geom)
        got = denoise_reduced(reduced, sigma, geom, groups=groups)
        assert not np.array_equal(got, denoise_reduced(reduced, sigma, geom))
        # with sigma 0 each group is kept as it is, so any groups that cover
        # the image give back the image
        same = denoise_reduced(reduced, 0.0, geom, groups=groups)
        np.testing.assert_allclose(same, reduced, rtol=0, atol=1e-12 * 255.0)

    def _groups(self):
        reduced, geom, _ = STAGE_CASES["ragged"]
        corners, sizes = match_groups(reduced, geom)
        return reduced, geom, corners, sizes

    def test_reference_count_mismatch_rejected(self):
        reduced, geom, corners, sizes = self._groups()
        with pytest.raises(ValueError, match="references"):
            denoise_reduced(reduced, 10.0, geom, groups=(corners[1:], sizes[1:]))
        with pytest.raises(ValueError, match="references"):
            denoise_reduced(reduced[:10], 10.0, geom, groups=(corners, sizes))
        with pytest.raises(ValueError, match="references"):
            denoise_reduced(reduced, 10.0, geom, groups=(corners, sizes[1:]))

    def test_groups_of_another_width_rejected(self):
        """A 12x16 and a 16x12 image have the same number of references, but
        flat corners r*16 + c address other pixels of the 16x12 image."""
        geom = PatchGeometry(patch=2, stride=2, window=4, group=5)
        wide = np.random.default_rng(40).uniform(0.0, 255.0, (12, 16, 2))
        tall = np.ascontiguousarray(wide.transpose(1, 0, 2))
        groups = match_groups(wide, geom)
        assert groups[0].shape[0] == len(reference_grid(16, 12, geom))
        with pytest.raises(ValueError, match="do not fit"):
            denoise_reduced(tall, 10.0, geom, groups=groups)

    @pytest.mark.parametrize("where", ["negative", "past_last_row", "past_last_col"])
    def test_member_outside_image_rejected(self, where):
        reduced, geom, corners, sizes = self._groups()
        m, n, _ = reduced.shape
        bad = corners.copy()
        bad[3, 1] = {"negative": -1, "past_last_row": m * n - 1, "past_last_col": n - 1}[where]
        with pytest.raises(ValueError, match="do not fit"):
            denoise_reduced(reduced, 10.0, geom, groups=(bad, sizes))

    def test_reference_not_first_rejected(self):
        reduced, geom, corners, sizes = self._groups()
        bad = corners.copy()
        bad[0, [0, 1]] = bad[0, [1, 0]]
        with pytest.raises(ValueError, match="do not fit"):
            denoise_reduced(reduced, 10.0, geom, groups=(bad, sizes))

    @pytest.mark.parametrize("size", [0, 10])
    def test_size_out_of_range_rejected(self, size):
        reduced, geom, corners, sizes = self._groups()
        bad = sizes.copy()
        bad[2] = size
        with pytest.raises(ValueError, match="sizes must be in"):
            denoise_reduced(reduced, 10.0, geom, groups=(corners, bad))

    def test_unsigned_groups_match_signed(self):
        reduced = np.random.default_rng(41).uniform(0.0, 255.0, (20, 20, 3))
        geom = PatchGeometry(4, 2, 8, 6)
        corners, sizes = match_groups(reduced, geom)
        want = denoise_reduced(reduced, 10.0, geom, groups=(corners, sizes))
        got = denoise_reduced(
            reduced, 10.0, geom, groups=(corners.astype(np.uint64), sizes.astype(np.uint64))
        )
        np.testing.assert_array_equal(got, want)

    def test_non_integer_groups_rejected(self):
        reduced, geom, corners, sizes = self._groups()
        with pytest.raises(ValueError, match="integers"):
            denoise_reduced(reduced, 10.0, geom, groups=(corners.astype(float), sizes))


# --- The shrinkage thread pool ----------------------------------------------


def blas_counts():
    return [get() for get, _ in spatial._openblas()]


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(spatial, "_workers", lambda: workers)


OVERFLOWING = np.full((14, 14, 3), 1e160)


class TestThreadedStage:
    """denoise_reduced shrinks its chunks on a thread pool: the output does
    not depend on the worker count, and numpy's OpenBLAS thread count is
    what the caller left it."""

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_worker_count_changes_no_bit(self, case, chunk_bytes, monkeypatch):
        reduced, geom, sigma = STAGE_CASES[case]
        if chunk_bytes is not None:
            monkeypatch.setattr(spatial, "_CHUNK_BYTES", chunk_bytes)
        groups = match_groups(reduced, geom)
        use_workers(monkeypatch, 1)
        want = denoise_reduced(reduced, sigma, geom)
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            np.testing.assert_array_equal(denoise_reduced(reduced, sigma, geom), want)
            np.testing.assert_array_equal(
                denoise_reduced(reduced, sigma, geom, groups=groups), want
            )

    def test_blas_held_to_one_thread_while_shrinking(self, blas_at_three, monkeypatch):
        seen = []
        shrink = spatial._shrink

        def recording_shrink(*args):
            seen.append(blas_counts())
            return shrink(*args)

        monkeypatch.setattr(spatial, "_shrink", recording_shrink)
        use_workers(monkeypatch, 2)
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        denoise_reduced(reduced, sigma, geom)
        assert seen and all(counts == [1] * len(blas_at_three) for counts in seen)
        assert blas_counts() == blas_at_three

    def test_overflow_raises_and_restores_blas(self, blas_at_three, monkeypatch):
        use_workers(monkeypatch, 2)
        with np.errstate(over="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
                denoise_reduced(OVERFLOWING, 10.0, SMALL)
        assert blas_counts() == blas_at_three

    def test_caller_errstate_reaches_workers(self, monkeypatch):
        use_workers(monkeypatch, 2)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                denoise_reduced(OVERFLOWING, 10.0, SMALL)

    def test_concurrent_calls_restore_blas(self, blas_at_three, monkeypatch):
        """More calling threads than cores, switching often: a hold that
        saved the count inside another call's hold would restore 1."""
        use_workers(monkeypatch, 2)
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        want = denoise_reduced(reduced, sigma, geom)
        start = threading.Barrier(4)
        outs = []

        def call():
            start.wait(timeout=60)
            for _ in range(3):
                outs.append(denoise_reduced(reduced, sigma, geom))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outs) == 12
        for out in outs:
            np.testing.assert_array_equal(out, want)
        assert blas_counts() == blas_at_three

    def test_no_openblas_runs_one_worker(self, monkeypatch):
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        use_workers(monkeypatch, 2)
        want = denoise_reduced(reduced, sigma, geom)
        pools = []

        def pool(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(spatial, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(spatial, "_openblas", lambda: ())
        np.testing.assert_array_equal(denoise_reduced(reduced, sigma, geom), want)
        assert pools == [1]
