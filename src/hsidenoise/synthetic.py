"""Synthetic ground-truth cubes of known spectral rank.

Used by the experiment harness and the test suite: cubes are built from
orthonormal spatial/spectral factor pairs so the spectral rank is exact
and the singular-value profile is controlled.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from .tensor import PEAK, fold3

__all__ = ["rank_cube"]


def rank_cube(m, n, bands, rank, seed=0, peak=PEAK, smooth=3.0, strengths=None):
    """Random nonneg cube of shape (m, n, bands) with exact spectral rank.

    Spatial maps are Gaussian-smoothed noise fields (orthonormalized), so
    patches repeat across the image the way natural low-rank scenes do.
    Component 0 is the flat map with a flat spectrum; keeping that pair in
    the span lets the final affine rescale onto [0, peak] preserve the
    rank.  strengths sets the relative singular values (defaults taper
    from 1.0 to 0.3); rank 1 gives a smooth single-component image.
    """
    if not 1 <= rank <= min(m * n, bands):
        raise ValueError(f"rank must be in [1, {min(m * n, bands)}], got {rank}")
    rng = np.random.default_rng(seed)

    if rank == 1:
        # single component: |smooth field| (x) positive spectrum, scaled
        field = np.abs(gaussian_filter(rng.standard_normal((m, n)), smooth)) + 1e-3
        spectrum = rng.uniform(0.3, 1.0, bands)
        cube = field[:, :, None] * spectrum[None, None, :]
        return cube * (peak / cube.max())

    maps = rng.standard_normal((m, n, rank))
    if smooth > 0:
        maps = gaussian_filter(maps, sigma=(smooth, smooth, 0))
    w = maps.reshape(m * n, rank, order="F")
    w[:, 0] = 1.0
    w, _ = np.linalg.qr(w)

    a = rng.standard_normal((bands, rank))
    a[:, 0] = 1.0
    a, _ = np.linalg.qr(a)

    if strengths is None:
        strengths = np.linspace(1.0, 0.3, rank)
    strengths = np.asarray(strengths, dtype=np.float64)
    if strengths.shape != (rank,) or np.any(strengths <= 0):
        raise ValueError(f"need {rank} positive strengths")

    cube = fold3((a * strengths) @ w.T, (m, n))
    # affine rescale to [0, peak]; the shift lies along component 0
    lo, hi = cube.min(), cube.max()
    return (cube - lo) * (peak / (hi - lo))
