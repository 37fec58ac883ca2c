"""Patch grouping, weighted shrinkage, and aggregation."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_grid

from hsidenoise import spatial
from hsidenoise.experiment import REPORT_FIELDS, ExperimentSpec, run_experiment
from hsidenoise.io import add_gaussian_noise, write_cube
from hsidenoise.pipeline import DenoiseConfig, denoise
from hsidenoise.synthetic import rank_cube
from hsidenoise.spatial import (
    PatchGeometry,
    aggregate,
    denoise_reduced,
    match_group,
    match_groups,
    wnnm_shrink,
)


SMALL = PatchGeometry(patch=2, window=6, group=4)


class TestPatchGeometry:
    def test_defaults(self):
        geom = PatchGeometry()
        assert (geom.patch, geom.window, geom.group) == (6, 30, 70)

    def test_fields_are_keyword_only(self):
        # by position, a stale PatchGeometry(6, 6, 30) would silently mean
        # window 6, group 30
        assert [f.name for f in dataclasses.fields(PatchGeometry)] == ["patch", "window", "group"]
        with pytest.raises(TypeError):
            PatchGeometry(6, 6, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchGeometry(patch=0)
        with pytest.raises(ValueError):
            PatchGeometry(patch=6, window=4)
        with pytest.raises(ValueError):
            PatchGeometry(group=0)

    @pytest.mark.parametrize("name", ["patch", "window", "group"])
    @pytest.mark.parametrize("value", [4.0, 2.5, True, np.float64(4.0)])
    def test_sizes_must_be_integers(self, name, value):
        # a float size once failed with a TypeError inside denoise
        with pytest.raises(ValueError, match=name):
            PatchGeometry(**{name: value})

    def test_numpy_integer_sizes_accepted(self):
        patch, window, group = np.array([4, 8, 10])
        geom = PatchGeometry(patch=patch, window=window, group=group)
        assert (geom.patch, geom.window, geom.group) == (4, 8, 10)

    def test_frozen(self):
        geom = PatchGeometry()
        with pytest.raises(AttributeError):
            geom.patch = 8


class TestReferenceGrid:
    def test_hand_grid(self):
        geom = PatchGeometry(patch=6, window=30, group=70)
        # 10 pixels, patch 6: starts 0 and 6, the second clamped to the last
        # valid start 10 - 6 = 4
        grid = reference_grid(10, 10, geom)
        assert grid == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_last_start_clamped(self):
        geom = PatchGeometry(patch=6, window=30, group=70)
        grid = reference_grid(13, 13, geom)
        rows = sorted({r for r, _ in grid})
        assert rows == [0, 6, 7]  # 13 - 6 = 7, not 12

    def test_image_equals_patch(self):
        geom = PatchGeometry(patch=4, window=8, group=4)
        assert reference_grid(4, 4, geom) == [(0, 0)]

    def test_row_major_order(self):
        grid = reference_grid(12, 12, SMALL)
        assert grid == sorted(grid)

    def test_every_pixel_covered(self):
        geom = PatchGeometry(patch=6, window=30, group=70)
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
        geom = PatchGeometry(patch=2, window=4, group=9)
        grp = match_group(reduced, (14, 14), geom)
        half = geom.window // 2
        for r, c in grp.members:
            assert abs(r - 14) <= half and abs(c - 14) <= half

    def test_small_window_takes_all_candidates(self):
        rng = np.random.default_rng(3)
        reduced = rng.standard_normal((6, 6, 1))
        geom = PatchGeometry(patch=2, window=2, group=70)
        grp = match_group(reduced, (2, 2), geom)
        # 3x3 candidate corners in a +-1 window around (2, 2)
        assert len(grp.members) == 9

    def test_out_of_bounds_reference(self):
        with pytest.raises(ValueError):
            match_group(np.zeros((8, 8, 1)), (7, 0), SMALL)

    def test_matched_on_calling_thread(self, monkeypatch):
        """One reference needs no pool and no BLAS hold, and its group is
        the one match_groups gives it."""
        reduced, geom, _ = STAGE_CASES["default_geometry"]
        m, n, _ = reduced.shape
        corners, sizes = match_groups(reduced, geom)

        def refused(*args):
            raise AssertionError("match_group made a pool or a BLAS hold")

        threads = []
        match_refs = spatial._match_refs

        def recording(*args):
            threads.append(threading.current_thread())
            return match_refs(*args)

        monkeypatch.setattr(spatial, "ThreadPoolExecutor", refused)
        monkeypatch.setattr(spatial, "_one_blas_thread", refused)
        monkeypatch.setattr(spatial, "_match_refs", recording)
        refs = reference_grid(m, n, geom)
        for (r, c), row, p in zip(refs, corners, sizes):
            grp = match_group(reduced, (r, c), geom)
            np.testing.assert_array_equal(grp.members[:, 0] * n + grp.members[:, 1], row[:p])
        assert threads == [threading.current_thread()] * len(refs)


class TestWnnmShrink:
    def test_hand_oracle_diagonal(self):
        """diag(10, 1), p=2, sigma=1, so c = 32*sqrt(2).

        Singular value 10: shrunk by c*sqrt(p)/sqrt(10^2 - 2) = 64/sqrt(98).
        Singular value 1: 1^2 - 2 clips to 0, weight 64/eps kills it.
        """
        g = np.diag([10.0, 1.0])
        out = wnnm_shrink(g, 1.0)
        expected = np.diag([10.0 - 64.0 / math.sqrt(98.0), 0.0])
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
        """Scaling g and sigma by 2^e scales the result by 2^e exactly: the
        shrink has no scale of its own."""
        rng = np.random.default_rng(6)
        g = low_rank_group(rng, 20, 7, 1.0)
        want = wnnm_shrink(g, 1.0)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)
        for e in range(-620, 621, 10):
            got = wnnm_shrink(np.ldexp(g, e), math.ldexp(1.0, e))
            np.testing.assert_array_equal(got, np.ldexp(want, e), err_msg=f"e = {e}")

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

    @pytest.mark.parametrize("name", ["sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_args_rejected(self, name, value):
        g = np.random.default_rng(10).standard_normal((16, 6))
        with pytest.raises(ValueError, match=f"{name} must be"):
            wnnm_shrink(g, value)
        reduced = np.random.default_rng(11).standard_normal((12, 12, 3))
        with pytest.raises(ValueError, match=f"{name} must be"):
            denoise_reduced(reduced, value, SMALL)

    @pytest.mark.parametrize("shape", [(16,), (4, 4, 6)])
    def test_group_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="2-d group matrix"):
            wnnm_shrink(np.ones(shape), 1.0)

    @pytest.mark.parametrize("sigma", [1.0, 20.0])
    def test_threshold_is_wnnm_sigma_rule(self, sigma):
        """The threshold is 32*sqrt(2) * sigma^2 (wnnm_c) on any scale of
        sigma; test_denoise_matches_loop pins it for denoise_reduced."""
        g = low_rank_group(np.random.default_rng(12), 24, 10, sigma, scale=5.0 * sigma)
        want = assert_shrinks_agree(g, sigma)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)

    @pytest.mark.parametrize("j", [-560, -240, -30, -8, 8, 30, 240, 500, 600])
    def test_denoise_reduced_scale_covariant_bit_for_bit(self, j):
        """denoise_reduced(t x, t sigma) = t denoise_reduced(x, sigma) for
        t = 2^j, and match_groups(t x) = match_groups(x): the stage has no
        scale of its own.  Near 2^-560 the group Gram matrices underflowed to
        zero and zeroed every group; from 2^240 the output drifted, and from
        2^500 the Gram matrices overflowed."""
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        want = denoise_reduced(reduced, sigma, geom)
        scaled = np.ldexp(reduced, j)
        got = denoise_reduced(scaled, math.ldexp(sigma, j), geom)
        np.testing.assert_array_equal(got, np.ldexp(want, j))
        for got, want in zip(match_groups(scaled, geom), match_groups(reduced, geom)):
            np.testing.assert_array_equal(got, want)


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
        geom = PatchGeometry(patch=4, window=10, group=20)
        out = denoise_reduced(noisy, 20.0, geom)
        assert np.mean((out - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["match_groups", "match_group", "denoise_reduced"])
    def test_non_finite_reduced_rejected(self, entry, value):
        """A NaN once sorted silently among the match distances, and the
        shrink then reported an overflowed Gram matrix."""
        reduced = np.random.default_rng(16).standard_normal((12, 12, 3))
        reduced[5, 7, 1] = value
        call = {
            "match_groups": lambda: match_groups(reduced, SMALL),
            "match_group": lambda: match_group(reduced, (4, 4), SMALL),
            "denoise_reduced": lambda: denoise_reduced(reduced, 1.0, SMALL),
        }[entry]
        with pytest.raises(ValueError, match="reduced has non-finite entries"):
            call()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_group_rejected(self, value):
        """wnnm_shrink once reported an overflowed Gram matrix."""
        g = np.random.default_rng(17).standard_normal((36, 12))
        g[5, 7] = value
        with pytest.raises(ValueError, match="g has non-finite entries"):
            wnnm_shrink(g, 1.0)


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


def wnnm_c(sigma):
    """WNNM's threshold at noise level sigma, 32*sqrt(2) * sigma^2."""
    return 32.0 * math.sqrt(2.0) * sigma * sigma


def shrink_by_svd(g, sigma, c, eps=1e-16):
    """Weighted singular-value shrinkage through the SVD of the group, with
    threshold c and eps relative to the largest singular value."""
    if sigma == 0:
        return g
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    if s[0] == 0:
        return g
    p = g.shape[1]
    s_clean = np.sqrt(np.maximum(s * s - p * sigma * sigma, 0.0))
    s_new = np.maximum(s - c * math.sqrt(p) / (s_clean + eps * s[0]), 0.0)
    return (u * s_new) @ vt


def denoise_by_loop(reduced, sigma, geom, c):
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
        PatchGeometry(patch=2, window=2, group=9),
        10.0,
    ),
    # every candidate ties at distance 0
    "constant": (np.full((14, 14, 3), 200.0), SMALL, 10.0),
    "one_patch": (_scene(22, (6, 6, 4)), PatchGeometry(), 10.0),
    "planted_duplicates": (
        _planted_duplicates(),
        PatchGeometry(patch=4, window=12, group=6),
        10.0,
    ),
    "default_geometry": (_scene(23, (40, 40, 5)), PatchGeometry(), 10.0),
}

# Relative to the largest entry of the loop's output: summation order differs
# (distances, Gram eigh against SVD, scatter order), float64 roundoff is
# about 1e-15, and the margin covers groups whose singular values sit close
# together.
STAGE_RTOL = 1e-12


@st.composite
def reduced_and_geometry(draw):
    """A small reduced image on the 0..255 scale and a geometry that fits it."""
    patch = draw(st.integers(1, 4))
    geom = PatchGeometry(
        patch=patch,
        window=draw(st.integers(patch, 9)),
        group=draw(st.integers(1, 12)),
    )
    m = draw(st.integers(patch, 12))
    n = draw(st.integers(patch, 12))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(0.0, 255.0, (m, n, k)), geom


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
    def test_sizes_count_in_image_corners(self, case):
        """Each group size is min(group, the in-image corners within
        window // 2 of the reference on both axes), counted one by one."""
        reduced, geom, _ = STAGE_CASES[case]
        m, n, _ = reduced.shape
        h = geom.window // 2
        _, sizes = match_groups(reduced, geom)
        want = [
            min(geom.group, sum(
                abs(y - r) <= h and abs(x - c) <= h
                for y in range(m - geom.patch + 1)
                for x in range(n - geom.patch + 1)
            ))
            for r, c in reference_grid(m, n, geom)
        ]
        assert sizes.tolist() == want

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_denoise_matches_loop(self, case):
        reduced, geom, sigma = STAGE_CASES[case]
        want = denoise_by_loop(reduced, sigma, geom, wnnm_c(sigma))
        got = denoise_reduced(reduced, sigma, geom)
        scale = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=STAGE_RTOL * scale)

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_views_compose_to_stage(self, case):
        """match_group at every reference, wnnm_shrink on each group and
        aggregate over all of them give the stage's output."""
        reduced, geom, sigma = STAGE_CASES[case]
        m, n, _ = reduced.shape
        groups = [match_group(reduced, ref, geom) for ref in reference_grid(m, n, geom)]
        got = aggregate([(g, wnnm_shrink(g.matrix, sigma)) for g in groups], reduced.shape)
        want = denoise_reduced(reduced, sigma, geom)
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

    @staticmethod
    def assert_coverage_matches_scatter(reduced, geom):
        """The count built from the corners equals a count of every group's
        patches, one member at a time."""
        m, n, _ = reduced.shape
        ps = geom.patch
        corners, sizes = match_groups(reduced, geom)
        want = np.zeros((m, n))
        for row, p in zip(corners, sizes):
            for r, c in zip(*np.divmod(row[:p], n)):
                want[r : r + ps, c : c + ps] += 1
        got = spatial._coverage(corners, sizes, m, n, ps)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_coverage_matches_group_scatter(self, case):
        reduced, geom, _ = STAGE_CASES[case]
        self.assert_coverage_matches_scatter(reduced, geom)

    @settings(max_examples=40, deadline=None)
    @given(case=reduced_and_geometry())
    def test_coverage_matches_group_scatter_on_random_images(self, case):
        self.assert_coverage_matches_scatter(*case)

    def test_small_chunks_change_nothing(self, monkeypatch):
        """Chunk size bounds memory only: one group per chunk gives the same
        members and matches the loop as closely as the default chunks."""
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        want = denoise_by_loop(reduced, sigma, geom, wnnm_c(sigma))
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


def assert_shrinks_agree(g, sigma):
    got = wnnm_shrink(g, sigma)
    want = shrink_by_svd(g, sigma, c=wnnm_c(sigma))
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
        # at sigma = 3 the threshold zeroes whole (4, 9) groups of signal
        # scale 5 in two of the four draws
        scale = 10.0 if shape == (4, 9) else 5.0
        for _ in range(4):
            g = low_rank_group(rng, *shape, sigma, scale=scale)
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
        np.testing.assert_array_equal(shrink_by_svd(g, 1.0, wnnm_c(1.0)), g)

    # the group on sigma's scale, so the threshold, 32*sqrt(2) * sigma^2,
    # shrinks it in part
    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_sigma_just_above_bypass(self, scale):
        rng = np.random.default_rng(31)
        sigma = 1.5e-9 * scale
        g = low_rank_group(rng, 40, 10, sigma, scale=5.0 * sigma)
        want = assert_shrinks_agree(g, sigma)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)

    # scale: sigma, half the group's noise at scale 1, is divided by scale,
    # and the threshold by scale^2
    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_entries_near_1e150(self, scale):
        rng = np.random.default_rng(32)
        g = low_rank_group(rng, 36, 12, 0.1) * 1e150
        assert_shrinks_agree(g, 0.05e150 / scale)

    def test_entries_near_1e160(self):
        """The oracle's SVD overflows at 2^531 (about 1e160); the shrink
        gives the in-range group's result scaled alike."""
        g = low_rank_group(np.random.default_rng(33), 36, 12, 0.1)
        want = wnnm_shrink(g, 0.1)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(g)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                shrink_by_svd(np.ldexp(g, 531), 1.0, wnnm_c(1.0))
            got = wnnm_shrink(np.ldexp(g, 531), math.ldexp(0.1, 531))
        np.testing.assert_array_equal(got, np.ldexp(want, 531))

    def test_gram_past_the_float_range_is_scaled(self):
        """The Gram matrix of this group overflows, and the shrink once
        raised LinAlgError on it; it now gives the in-range result, about
        2^-520 of it, scaled back."""
        g = np.full((36, 12), 1e160)
        with np.errstate(all="raise"):
            got = wnnm_shrink(g, 1e159)
        small = np.ldexp(g, -520)
        want = wnnm_shrink(small, math.ldexp(1e159, -520))
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(small)
        np.testing.assert_array_equal(got, np.ldexp(want, 520))

    def test_eigenvalue_past_the_float_range_is_scaled(self):
        """The Gram's entries are finite (about 9e306), its largest
        eigenvalue (about 6.3e308) is not: the shrink once returned a
        non-finite matrix after a divide warning, then raised LinAlgError.
        The group and the stage now give the in-range result scaled back,
        with no warning."""
        small = np.full((36, 70), math.ldexp(5e152, -500))
        want = wnnm_shrink(small, 1.0)
        assert 0.0 < np.linalg.norm(want) < np.linalg.norm(small)
        got = wnnm_shrink(np.ldexp(small, 500), 2.0**500)
        np.testing.assert_array_equal(got, np.ldexp(want, 500))
        reduced = rank_cube(32, 32, 3, 2, seed=0)
        want = np.ldexp(denoise_reduced(reduced, 10.0, PatchGeometry()), 500)
        got = denoise_reduced(np.ldexp(reduced, 500), math.ldexp(10.0, 500), PatchGeometry())
        np.testing.assert_array_equal(got, want)


class TestChunkInPlace:
    """A chunk's groups are shrunk in their buffer and scattered band by
    band."""

    def test_in_place_shrink_matches_out_of_place_product(self, monkeypatch):
        # slabs of 128 columns split d = 300 in three; a slab as wide as a
        # group forms each group's whole product before writing it back
        rng = np.random.default_rng(34)
        sigma = 1.0
        stack = np.stack([low_rank_group(rng, 300, 12, sigma).T for _ in range(3)])
        monkeypatch.setattr(spatial, "_SHRINK_SLAB", 300)
        want = stack.copy()
        spatial._shrink(want, sigma)
        monkeypatch.setattr(spatial, "_SHRINK_SLAB", 128)
        got = stack.copy()
        buffer = got.ctypes.data
        spatial._shrink(got, sigma)
        assert got.ctypes.data == buffer
        atol = SHRINK_RTOL * np.abs(stack).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        for g, shrunk in zip(stack, got):
            np.testing.assert_allclose(
                shrunk, shrink_by_svd(g.T, sigma, wnnm_c(sigma)).T, rtol=0, atol=atol
            )

    @staticmethod
    def assert_box_matches_entry_bincount(rng, rows, cols, n, k, ps):
        """One bincount per band adds every entry in the order one bincount
        over the entry indices of the bounding box does, so the sums agree
        bit for bit."""
        shape = rows.shape + (ps * ps, k)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        box, sums = spatial._scatter(rows * n + cols, n, ps, values)
        top, left = rows.min(), cols.min()
        height, width = rows.max() + ps - top, cols.max() + ps - left
        assert box == (slice(top, top + height), slice(left, left + width))
        assert sums.shape == (height, width, k)
        dy, dx = np.divmod(np.arange(ps * ps), ps)
        pix = (rows[..., None] + dy - top) * width + cols[..., None] + dx - left
        idx = pix[..., None] * k + np.arange(k)
        np.testing.assert_array_equal(
            sums.ravel(), np.bincount(idx.ravel(), values.ravel(), height * width * k)
        )
        return width

    @pytest.mark.parametrize("seed", range(4))
    def test_scatter_matches_entry_bincount(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = 20, 17, int(rng.integers(1, 6))
        ps = int(rng.integers(1, 5))
        rows, cols = rng.integers(0, m - ps + 1, (3, 9)), rng.integers(0, n - ps + 1, (3, 9))
        self.assert_box_matches_entry_bincount(rng, rows, cols, n, k, ps)

    def test_scatter_box_of_a_chunk_inside_one_grid_row(self):
        """Four references inside one grid row of a 24x400 image, as a
        chunk holds them: their members lie on several image rows, so the
        flat span from their first pixel to their last holds whole rows 400
        pixels wide; their box is at most their search windows wide."""
        reduced = _scene(33, (24, 400, 2))
        geom = PatchGeometry()
        corners, sizes = match_groups(reduced, geom)
        # references 20 to 23 of the first grid row, with whole groups
        refs = np.arange(20, 24)
        assert np.all(sizes[refs] == geom.group)
        members = corners[refs, : geom.group]
        rows, cols = np.divmod(members, 400)
        assert rows.max() > rows.min()
        width = self.assert_box_matches_entry_bincount(
            np.random.default_rng(33), rows, cols, 400, 2, geom.patch
        )
        assert width <= 4 * geom.patch + 2 * (geom.window // 2)


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
        geom = PatchGeometry(patch=2, window=4, group=5)
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
        geom = PatchGeometry(patch=4, window=8, group=6)
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

    def test_overflow_raises_and_restores_blas(self, blas_at_three, failing_shrink, monkeypatch):
        """A stage whose job raises leaves numpy's OpenBLAS thread count as
        the caller left it."""
        use_workers(monkeypatch, 2)
        failing_shrink()
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        with pytest.raises(RuntimeError, match="shrink call"):
            denoise_reduced(reduced, sigma, geom)
        assert blas_counts() == blas_at_three

    def test_caller_errstate_reaches_workers(self, monkeypatch):
        seen = []
        shrink = spatial._shrink

        def recording_shrink(*args):
            seen.append((threading.current_thread(), np.geterr()))
            return shrink(*args)

        monkeypatch.setattr(spatial, "_shrink", recording_shrink)
        use_workers(monkeypatch, 2)
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            denoise_reduced(reduced, sigma, geom)
        assert caller != np.geterr()
        assert seen and all(thread is not threading.current_thread() for thread, _ in seen)
        assert all(errs == caller for _, errs in seen)

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

    def test_no_openblas_runs_one_worker(self, pool_log, monkeypatch):
        """With no OpenBLAS found the stage gets a pool of one worker, kept
        next to the two-worker pool of the call before."""
        reduced, geom, sigma = STAGE_CASES["default_geometry"]
        use_workers(monkeypatch, 2)
        want = denoise_reduced(reduced, sigma, geom)
        monkeypatch.setattr(spatial, "_openblas", lambda: ())
        np.testing.assert_array_equal(denoise_reduced(reduced, sigma, geom), want)
        assert pool_log.stages == pool_log.created
        assert [workers for workers, _ in pool_log.created] == [2, 1]
        assert sorted(spatial._pools) == [(os.getpid(), 1), (os.getpid(), 2)]


class TestPoolLifetime:
    """The process keeps one shrink pool per worker count: the first stage
    creates it and later stages reuse it, a stage that raises leaves no job
    behind and the pool usable, and a process forked after a stage creates
    a pool of its own."""

    def test_two_denoises_create_one_pool(self, pool_log, monkeypatch):
        use_workers(monkeypatch, 2)
        noisy = add_gaussian_noise(rank_cube(24, 24, 8, 2, seed=11), 20.0, seed=11)
        cfg = DenoiseConfig(k0=2, iters=2, geom=PatchGeometry(patch=4, window=10, group=16))
        first, _ = denoise(noisy, 20.0, cfg)
        second, _ = denoise(noisy, 20.0, cfg)
        np.testing.assert_array_equal(second, first)
        assert len(pool_log.created) == 1
        assert pool_log.stages == pool_log.created * 4
        assert list(spatial._pools.values()) == [pool_log.created[0][1]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_raising_stage_cancels_its_queued_chunks(
        self, workers, fresh_pools, failing_shrink, monkeypatch
    ):
        """One group per chunk, and the first chunk's shrink raises.  After
        the first chunk the test queues jobs of its own on the pool, as many
        as it has workers, which hold every worker until the next chunk is
        cancelled or done: the chunks behind them are still queued when the
        calling thread sees the first error."""
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(spatial, "_CHUNK_BYTES", 1)
        finite = _scene(24, (14, 14, 3))
        want = denoise_reduced(finite, 10.0, SMALL)
        failing_shrink(0)
        jobs, free, started = [], [], []
        released = threading.Event()
        submit, shrink_chunk = spatial._submit, spatial._shrink_chunk

        def recording_submit(pool, fn, *args):
            jobs.append(submit(pool, fn, *args))
            free.append(args[-1])
            if len(jobs) == 1:
                for _ in range(workers):
                    pool.submit(released.wait, 30)
            elif len(jobs) == 2:
                jobs[1].add_done_callback(lambda job: released.set())
            return jobs[-1]

        def recording_shrink_chunk(*args):
            started.append(args)
            return shrink_chunk(*args)

        monkeypatch.setattr(spatial, "_submit", recording_submit)
        monkeypatch.setattr(spatial, "_shrink_chunk", recording_shrink_chunk)
        with pytest.raises(RuntimeError, match="shrink call 0 failed"):
            denoise_reduced(finite, 10.0, SMALL)
        assert len(jobs) == workers + 1
        assert all(job.done() for job in jobs), "a chunk outlived the call"
        assert all(job.cancelled() for job in jobs[1:])
        assert len(started) == 1
        assert len({id(q) for q in free}) == 1 and free[0].qsize() == workers
        np.testing.assert_array_equal(denoise_reduced(finite, 10.0, SMALL), want)
        assert list(fresh_pools) == [(os.getpid(), workers)]

    def test_sweep_forked_after_a_denoise_equals_serial(self, fresh_pools, tmp_path, monkeypatch):
        """The forked sweep workers inherit the cache with the parent's
        pool, whose threads they do not have: a job submitted to it would
        never run."""
        use_workers(monkeypatch, 2)
        cube = rank_cube(32, 32, 8, 2, seed=1)
        cfg = DenoiseConfig(k0=2, iters=2, geom=PatchGeometry(patch=4, window=10, group=16))
        denoise(add_gaussian_noise(cube, 20.0, seed=0), 20.0, cfg)
        assert [pid for pid, _ in fresh_pools] == [os.getpid()]
        base = dict(
            input_path=write_cube(tmp_path / "scene", cube),
            sigmas=[10.0, 20.0],
            config=cfg,
            normalize=False,
            save_cubes=False,
        )
        serial = run_experiment(ExperimentSpec(output_dir=tmp_path / "s", **base))
        parallel = []
        sweep = threading.Thread(
            target=lambda: parallel.extend(
                run_experiment(ExperimentSpec(output_dir=tmp_path / "p", jobs=2, **base))
            ),
            daemon=True,
        )
        sweep.start()
        sweep.join(timeout=120)
        assert not sweep.is_alive(), "a forked worker waits on its parent's pool"
        timing = {"seconds", "stage_a_seconds", "stage_b_seconds"}

        def untimed(rows):
            return [{f: r[f] for f in REPORT_FIELDS if f not in timing} for r in rows]

        assert all(r["status"] == "ok" for r in serial)
        assert untimed(parallel) == untimed(serial)


CHUNK_PLAN_CASES = {
    **STAGE_CASES,
    # 67 references per grid row, cut into runs of 10 and 9 at K = 5
    "wide": (_scene(33, (24, 400, 5)), PatchGeometry(), 10.0),
}


class TestChunkPlan:
    """denoise_reduced cuts the references of each grid row and group size
    into as few chunks of at most step references as it can, of lengths
    that differ by at most one, whatever the worker count."""

    @pytest.mark.parametrize("case", sorted(CHUNK_PLAN_CASES))
    def test_chunks_cut_evenly_inside_grid_rows(self, case, monkeypatch):
        reduced, geom, sigma = CHUNK_PLAN_CASES[case]
        _, n, k = reduced.shape
        corners, sizes = match_groups(reduced, geom)
        size_of = dict(zip(corners[:, 0].tolist(), sizes.tolist()))
        seen = []
        shrink_chunk = spatial._shrink_chunk

        def recording_shrink_chunk(image, members, *args):
            seen.append(members[:, 0].tolist())
            return shrink_chunk(image, members, *args)

        monkeypatch.setattr(spatial, "_shrink_chunk", recording_shrink_chunk)
        plans = []
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            seen.clear()
            denoise_reduced(reduced, sigma, geom)
            # the workers may start the chunks out of submission order
            plans.append(sorted(seen))
        assert all(plan == plans[0] for plan in plans), "the plan depends on the worker count"
        plan = plans[0]
        assert sorted(r for chunk in plan for r in chunk) == sorted(size_of)
        runs = {}
        for chunk in plan:
            keys = {(r // n, size_of[r]) for r in chunk}
            assert len(keys) == 1, f"chunk {chunk} spans rows or group sizes"
            runs.setdefault(keys.pop(), []).append(len(chunk))
        d = geom.patch * geom.patch * k
        for (row, p), lengths in runs.items():
            step = max(1, spatial._CHUNK_BYTES // 2 // (d * p * 8))
            assert max(lengths) <= step, (row, p, lengths)
            assert max(lengths) - min(lengths) <= 1, (row, p, lengths)
            assert len(lengths) == -(-sum(lengths) // step), (row, p, lengths)


class TestChunkMemory:
    """A running chunk of groups holds one buffer, its gathered groups, of
    at most half _CHUNK_BYTES; the calling thread allocates one buffer per
    worker, and a queued chunk holds only its members."""

    @staticmethod
    def traced_peak(*args, **kwargs):
        denoise_reduced(*args, **kwargs)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            denoise_reduced(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_per_worker(self, monkeypatch):
        """Given its groups, as the pipeline passes them, one worker peaks
        at 3.6-3.8 MiB here, 4.44 MiB with a buffer for each queued chunk
        too and 6.30 MiB with a chunk's gathered and shrunk groups in two
        buffers; each added worker costs about 1.4 MiB, 1.71 MiB and
        2.61 MiB then."""
        reduced = _scene(31, (96, 96, 25))
        geom = PatchGeometry()
        groups = match_groups(reduced, geom)
        peaks = []
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            peaks.append(self.traced_peak(reduced, 10.0, geom, groups=groups))
        chunk, image = spatial._CHUNK_BYTES, reduced.nbytes
        assert peaks[0] < image + 2 * chunk, f"peaks {peaks} bytes"
        assert all(b - a < chunk for a, b in zip(peaks, peaks[1:])), f"peaks {peaks} bytes"

    def test_one_stack_on_one_worker(self, monkeypatch):
        """Given its groups, one worker peaks at 3.6-3.8 MiB here: the
        output, one stack of half _CHUNK_BYTES and its shrink's
        temporaries, and at times a finished chunk's box sums with the
        buffers of the calling thread's add.  With a buffer for the queued
        chunk too it peaked at 4.44 MiB."""
        reduced = _scene(31, (96, 96, 25))
        geom = PatchGeometry()
        groups = match_groups(reduced, geom)
        use_workers(monkeypatch, 1)
        peak = self.traced_peak(reduced, 10.0, geom, groups=groups)
        assert peak < reduced.nbytes + 1.2 * spatial._CHUNK_BYTES, f"peak {peak} bytes"

    @pytest.mark.parametrize("width", [96, 1000])
    def test_one_stack_at_any_width(self, width, monkeypatch):
        """A chunk's box spans its own references' columns plus a window,
        not the image's width: beyond the output, one worker holds
        1.5-1.7 MiB at width 96 and 1.9 MiB at 1000, where chunks
        straddling two grid rows took 3.9 MiB at 1000."""
        reduced = _scene(34, (24, width, 25))
        geom = PatchGeometry()
        groups = match_groups(reduced, geom)
        use_workers(monkeypatch, 1)
        peak = self.traced_peak(reduced, 10.0, geom, groups=groups)
        assert peak < reduced.nbytes + 1.2 * spatial._CHUNK_BYTES, f"peak {peak} bytes"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_buffer_per_worker_from_the_calling_thread(self, workers, monkeypatch):
        """Every stack a job shrinks lies in one of at most workers buffers,
        each allocated by the calling thread."""
        reduced = _scene(31, (48, 48, 25))
        geom = PatchGeometry()
        groups = match_groups(reduced, geom)
        use_workers(monkeypatch, workers)
        caller = threading.current_thread()
        allocated, shrunk = [], []
        empty, shrink = np.empty, spatial._shrink

        def recording_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            allocated.append((threading.current_thread(), out))
            return out

        def recording_shrink(b, sigma):
            shrunk.append(b.base)
            return shrink(b, sigma)

        monkeypatch.setattr(np, "empty", recording_empty)
        monkeypatch.setattr(spatial, "_shrink", recording_shrink)
        denoise_reduced(reduced, 10.0, geom, groups=groups)
        assert len(shrunk) > workers
        assert all(b is not None for b in shrunk), "a stack in a buffer of its own"
        buffers = {id(b) for b in shrunk}
        assert len(buffers) <= workers
        assert buffers <= {id(a) for thread, a in allocated if thread is caller}

    def test_a_raising_job_gives_its_buffer_back(self, failing_shrink, monkeypatch):
        """One worker and one group per chunk: the first job raises, and the
        worker starts the next before the calling thread sees the error.
        That job must find the buffer back in the queue, or it waits for it
        forever, and the pool's shutdown with it."""
        use_workers(monkeypatch, 1)
        monkeypatch.setattr(spatial, "_CHUNK_BYTES", 1)
        failing_shrink(0)
        errors = []

        def call():
            try:
                denoise_reduced(_scene(24, (14, 14, 3)), 10.0, SMALL)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "a job waits for a buffer that no job gave back"
        assert len(errors) == 1

    def test_match_peak_is_not_added_to(self, monkeypatch):
        """The overlap sums are allocated after the match, so a call that
        matches peaks within the bound of a call given its groups: 3.5-3.9
        MiB here, on one worker, the matched corners above it, against
        4.58 MiB with a buffer for each queued chunk too."""
        reduced = _scene(31, (96, 96, 25))
        geom = PatchGeometry()
        use_workers(monkeypatch, 1)
        peak = self.traced_peak(reduced, 10.0, geom)
        assert peak < reduced.nbytes + 1.2 * spatial._CHUNK_BYTES, f"peak {peak} bytes"

    @pytest.mark.parametrize("shape", [(48, 48, 64), (24, 24, 95)])
    def test_match_peak_at_large_k(self, shape, monkeypatch):
        """A reference row's job forms its candidate patches in pieces: with
        d = 2304 entries per patch, the 31 window rows of a 48x48 image hold
        24.6 MB of them, and the 19 of a 24x24 image 9.9 MB at d = 3420."""
        reduced = _scene(32, shape)
        geom = PatchGeometry()
        use_workers(monkeypatch, 1)
        match_groups(reduced, geom)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            match_groups(reduced, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reduced.nbytes + spatial._CHUNK_BYTES, f"peak {peak} bytes"


def match_block_bytes(reduced, geom, rows_per_block):
    """A small _CHUNK_BYTES, under which each reference row is matched a few
    references at a time and their candidate patches are formed in pieces
    of about rows_per_block window rows."""
    w = 2 * (geom.window // 2) + 1
    d = geom.patch * geom.patch * reduced.shape[2]
    # a reference's estimates and patch, and rows_per_block rows of a strip
    # a window wide of candidate patches, with the product's two numbers
    return 4 * 8 * ((d + w * w) + rows_per_block * w * (d + 2))


class TestPooledMatch:
    """The references are matched on the calling thread, before the
    shrinkage pool opens: the groups do not depend on the worker count or
    on how the references are split into runs."""

    @pytest.mark.parametrize("rows_per_block", [None, 2])
    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_worker_count_changes_no_member(self, case, rows_per_block, monkeypatch):
        reduced, geom, sigma = STAGE_CASES[case]
        use_workers(monkeypatch, 1)
        corners, sizes = match_groups(reduced, geom)
        if rows_per_block is not None:
            chunk = match_block_bytes(reduced, geom, rows_per_block)
            monkeypatch.setattr(spatial, "_CHUNK_BYTES", chunk)
        want = denoise_reduced(reduced, sigma, geom)
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            got_corners, got_sizes = match_groups(reduced, geom)
            np.testing.assert_array_equal(got_corners, corners)
            np.testing.assert_array_equal(got_sizes, sizes)
            np.testing.assert_array_equal(denoise_reduced(reduced, sigma, geom), want)

    def test_default_geometry_on_96x96_equals_one_row_budget(self, monkeypatch):
        reduced = _scene(31, (96, 96, 5))
        geom = PatchGeometry()
        corners, sizes = match_groups(reduced, geom)
        monkeypatch.setattr(spatial, "_CHUNK_BYTES", match_block_bytes(reduced, geom, 1))
        one_row_corners, one_row_sizes = match_groups(reduced, geom)
        np.testing.assert_array_equal(corners, one_row_corners)
        np.testing.assert_array_equal(sizes, one_row_sizes)

    def test_match_groups_makes_no_pool_and_no_blas_hold(self, monkeypatch):
        reduced, geom, _ = STAGE_CASES["default_geometry"]
        want = match_groups(reduced, geom)

        def refused(*args):
            raise AssertionError("match_groups made a pool or a BLAS hold")

        monkeypatch.setattr(spatial, "ThreadPoolExecutor", refused)
        monkeypatch.setattr(spatial, "_one_blas_thread", refused)
        for got, expected in zip(match_groups(reduced, geom), want):
            np.testing.assert_array_equal(got, expected)

    def test_entries_near_5e153(self):
        """Each squared difference, 1e308, is finite, but their sum over a
        patch row overflowed, so candidates off by an odd row scored +inf.
        Matched near PEAK, the image gives the groups of its in-range copy
        (2^-505 of it, entries near 39), with no overflow."""
        reduced = np.full((14, 14, 1), 5e153)
        reduced[::2] *= -1.0
        refs = [r * 14 + c for r, c in reference_grid(14, 14, SMALL)]
        # the second, a group as large as the window: every in-image
        # candidate, then the candidates that leave the image
        for geom in (SMALL, dataclasses.replace(SMALL, group=49)):
            with np.errstate(all="raise"):
                corners, sizes = match_groups(reduced, geom)
            want_corners, want_sizes = match_groups(np.ldexp(reduced, -505), geom)
            np.testing.assert_array_equal(corners, want_corners)
            np.testing.assert_array_equal(sizes, want_sizes)
            np.testing.assert_array_equal(corners[:, 0], refs)
        h, last = geom.window // 2, 14 - geom.patch
        for (r, c), row, size in zip(reference_grid(14, 14, geom), corners, sizes):
            inside = sum(
                0 <= r + dr <= last and 0 <= c + dc <= last
                for dr in range(-h, h + 1)
                for dc in range(-h, h + 1)
            )
            assert size == inside
            used = np.stack(np.divmod(row[:size], 14), axis=1)
            assert np.all((used >= 0) & (used <= last))
            assert len(np.unique(row[:size])) == size

    def test_match_copies_the_image_once(self, monkeypatch):
        # matching reads the image in place and its working set is bounded
        # by _CHUNK_BYTES: the traced peak is 1.17 MiB here, 2.93 MiB with
        # one copy of the image
        reduced = _scene(31, (96, 96, 25))
        assert reduced.flags.c_contiguous
        geom = PatchGeometry()
        use_workers(monkeypatch, 1)
        match_groups(reduced, geom)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            match_groups(reduced, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spatial._CHUNK_BYTES, f"peak {peak} bytes"


# --- The offset-by-offset match ---------------------------------------------
# The matcher before the shortlist: one subtract-and-einsum pass over the
# image per search-window offset, in a copy padded with a NaN border, so that
# a candidate leaving the image scores NaN and sorts last.  match_groups must
# return its arrays bit for bit.


def window_sums(x, starts, size, axis):
    """Sums of size consecutive entries of x along axis, from each start."""
    out = np.take(x, starts, axis=axis)
    for i in range(1, size):
        out += np.take(x, starts + i, axis=axis)
    return out


def offset_distances(reduced, geom):
    """(R, C, w*w) distances of the candidates of the R x C references,
    row-major over the search-window offsets (dr, dc), each formed one
    offset at a time: the squared difference between the image and its
    shift, summed over the bands, then over the patch rows at the reference
    rows and the patch columns at the reference columns.  A candidate that
    leaves the image reads a NaN border and scores NaN."""
    reduced = np.asarray(reduced, dtype=np.float64)
    m, n, _ = reduced.shape
    ps, h = geom.patch, geom.window // 2
    w = 2 * h + 1
    rows, cols = (np.asarray(a) for a in spatial._grid_axes(m, n, geom))
    padded = np.pad(
        reduced.transpose(2, 0, 1), ((0, 0), (h, h), (h, h)), constant_values=np.nan
    )
    top, bottom = rows[0], rows[-1] + ps
    ref = padded[:, top + h : bottom + h, h : h + n]
    diff = np.empty(ref.shape)
    sq = np.empty((w, bottom - top, n))
    dist = np.empty((len(rows), len(cols), w, w))
    for a in range(w):
        band = padded[:, top + a : bottom + a]
        for b in range(w):
            np.subtract(band[:, :, b : b + n], ref, out=diff)
            np.einsum("kij,kij->ij", diff, diff, out=sq[b])
        box = window_sums(sq, rows - top, ps, axis=1)
        dist[:, :, a, :] = window_sums(box, cols, ps, axis=2).transpose(1, 2, 0)
    return dist.reshape(len(rows), len(cols), w * w)


def match_by_offsets(reduced, geom):
    """match_groups' (corners, sizes), from offset_distances.  Offsets are
    row-major, so a stable sort keeps ties in row-major candidate order."""
    m, n, _ = np.shape(reduced)
    ps, h = geom.patch, geom.window // 2
    w = 2 * h + 1
    rows, cols = (np.asarray(a) for a in spatial._grid_axes(m, n, geom))
    dist = offset_distances(reduced, geom)
    # NaN, for a candidate that leaves the image, sorts after the +inf an
    # overflowing in-image distance can reach; the reference sorts first
    dist[:, :, h * w + h] = -np.inf
    order = np.argsort(dist, axis=2, kind="stable")[:, :, : min(geom.group, w * w)]
    dr, dc = np.divmod(order, w)
    corners = (rows[:, None, None] + dr - h) * n + (cols[None, :, None] + dc - h)
    in_r = np.minimum(rows + h, m - ps) - np.maximum(rows - h, 0) + 1
    in_c = np.minimum(cols + h, n - ps) - np.maximum(cols - h, 0) + 1
    sizes = np.minimum(geom.group, in_r[:, None] * in_c)
    return corners.reshape(-1, order.shape[2]), sizes.ravel()


def near_ties(offset, seed, m=16, n=16, k=4):
    """An image on which the candidates of the reference at (6, 6) that do not
    overlap it all lie at one distance from it in exact arithmetic, while
    their rounded distances differ by an ulp or two, in an order that
    depends on how the terms are added.

    The reference patch holds offset alone.  Elsewhere pixel (y, x) holds
    offset plus the k values V[y % 3, x % 3], rotated across the bands by
    y // 3 + 2 * (x // 3): every 3 x 3 patch holds each pixel of V once, in
    another place and band order.  On offset, the values keep at least 27
    significant bits, so their squares round, while the estimate
    |r|^2 + |c|^2 - 2<r, c> rounds on the scale of offset^2, far above the
    gaps."""
    V = np.random.default_rng(seed).uniform(1.0, 4.0, (3, 3, k))
    y, x, b = np.ogrid[:m, :n, :k]
    reduced = offset + V[y % 3, x % 3, (b + y // 3 + 2 * (x // 3)) % k]
    reduced[6:9, 6:9] = offset
    return reduced


# group 30: the reference and the 24 candidates that overlap it lead, and 5
# of the 56 near ties follow them
NEAR_TIE_GEOM = PatchGeometry(patch=3, window=8, group=30)

# (offset, seed) of near_ties whose near ties take more than one value
NEAR_TIE_CASES = [(2.0**12, 0), (2.0**12, 2), (2.0**26, 0), (2.0**26, 2)]


def tiled_duplicates(seed, shape, period=(3, 4)):
    """A random period[0] x period[1] tile repeated over the image, so that
    each reference has many exact duplicates in its window."""
    rng = np.random.default_rng(seed)
    m, n, k = shape
    tile = rng.uniform(0.0, 255.0, period + (k,))
    reps = (-(-m // period[0]), -(-n // period[1]), 1)
    return np.ascontiguousarray(np.tile(tile, reps)[:m, :n])


class TestShortlistMatch:
    """match_groups shortlists candidates by an estimated distance and sorts
    the shortlist by its exact one: its arrays, candidates past each group
    included, are those of the offset-by-offset match bit for bit."""

    @staticmethod
    def assert_matches_offsets(reduced, geom):
        corners, sizes = match_groups(reduced, geom)
        want_corners, want_sizes = match_by_offsets(reduced, geom)
        np.testing.assert_array_equal(corners, want_corners)
        np.testing.assert_array_equal(sizes, want_sizes)

    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_stage_cases(self, case):
        reduced, geom, _ = STAGE_CASES[case]
        self.assert_matches_offsets(reduced, geom)

    @settings(max_examples=60, deadline=None)
    @given(case=reduced_and_geometry())
    def test_random_images(self, case):
        self.assert_matches_offsets(*case)

    @pytest.mark.parametrize("shape", [(96, 96, 5), (96, 96, 25), (32, 32, 5)])
    def test_default_geometry(self, shape):
        self.assert_matches_offsets(_scene(33, shape), PatchGeometry())

    @pytest.mark.parametrize("geom", [PatchGeometry(), PatchGeometry(patch=4, window=12, group=40)])
    def test_exact_duplicates(self, geom):
        """Duplicates score exactly 0 and tie in row-major order; a default
        window holds about 60 of each reference."""
        self.assert_matches_offsets(tiled_duplicates(34, (40, 40, 3)), geom)

    @pytest.mark.parametrize("offset, seed", NEAR_TIE_CASES)
    def test_near_ties(self, offset, seed):
        reduced = near_ties(offset, seed)
        # the case is what it claims: the reference's group ends among the
        # candidates that do not overlap it, at distances a few ulps apart
        rows, cols = spatial._grid_axes(16, 16, NEAR_TIE_GEOM)
        dist = offset_distances(reduced, NEAR_TIE_GEOM)[rows.index(6), cols.index(6)]
        dr, dc = np.divmod(np.arange(81), 9)
        far = dist[(np.abs(dr - 4) > 2) | (np.abs(dc - 4) > 2)]
        assert far.size == 56 and far.min() > dist[(dr >= 2) & (dr <= 6) & (dc >= 2) & (dc <= 6)].max()
        assert len(np.unique(far)) > 1
        assert far.max() - far.min() <= 16 * np.spacing(far.max())
        self.assert_matches_offsets(reduced, NEAR_TIE_GEOM)

    def test_near_ties_need_the_margin(self, monkeypatch):
        """Without the margin, the shortlist is the group of smallest
        estimates, and on near ties it loses candidates that the exact
        distances rank in the group."""
        monkeypatch.setattr(spatial, "_shortlist_margin", lambda d, energy: 0.0 * energy)
        missed = 0
        for offset, seed in NEAR_TIE_CASES:
            reduced = near_ties(offset, seed)
            got, _ = match_groups(reduced, NEAR_TIE_GEOM)
            want, _ = match_by_offsets(reduced, NEAR_TIE_GEOM)
            missed += not np.array_equal(got, want)
        assert missed > 0

    def test_entries_near_1e154(self):
        """Squared norms near d * 1e308 overflow in the estimate, which does
        not see the caller's errstate; no exact distance overflows."""
        rng = np.random.default_rng(35)
        reduced = 1e154 * (1.0 + rng.uniform(-1e-3, 1e-3, (20, 20, 3)))
        geom = PatchGeometry(patch=3, window=8, group=10)
        with np.errstate(over="raise", invalid="raise"):
            self.assert_matches_offsets(reduced, geom)

    def test_entries_near_1e_minus_160(self):
        """Squared differences near 1e-316 are subnormal: exact distances
        keep few bits and tie often."""
        rng = np.random.default_rng(36)
        reduced = 1e-160 * rng.uniform(0.0, 255.0, (20, 20, 3))
        self.assert_matches_offsets(reduced, PatchGeometry(patch=3, window=8, group=10))
