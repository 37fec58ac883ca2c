"""Synthetic ground-truth cubes of known spectral rank.

Used by the experiment harness and the test suite: cubes are built from
orthonormal spatial/spectral factor pairs so the spectral rank is exact
and the singular-value profile is controlled.
"""

import numpy as np

from .tensor import PEAK, _correlate_symmetric

__all__ = ["rank_cube"]


def _gaussian_smooth(x, sigma):
    """x Gaussian-smoothed along axes 0 and 1 as scipy.ndimage.gaussian_filter
    smooths it with sigma (sigma, sigma, 0, ...), bit for bit: its kernel
    (truncated at 4 sigma), its reflect edge and its order of axes and of
    terms.  sigma <= 0 returns x."""
    if not sigma > 0:
        return x
    radius = int(4.0 * float(sigma) + 0.5)
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    kernel = kernel / kernel.sum()
    for axis in (0, 1):
        # the reflect edge mirrors the axis again and again, d c b a | a b c d
        # | d c b a | a b ...; the gather puts the filtered axis first, where
        # each term's slice is contiguous
        size = x.shape[axis]
        k = np.arange(-radius, size + radius) % (2 * size)
        index = np.where(k < size, k, 2 * size - 1 - k)
        padded = np.moveaxis(x, axis, 0).take(index, axis=0)
        x = np.moveaxis(_correlate_symmetric(padded, kernel, 0), 0, axis)
    return x


def rank_cube(m, n, bands, rank, seed=0, peak=PEAK, smooth=3.0, strengths=None):
    """Random nonneg C-ordered cube of shape (m, n, bands) with exact
    spectral rank.

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
        field = np.abs(_gaussian_smooth(rng.standard_normal((m, n)), smooth)) + 1e-3
        spectrum = rng.uniform(0.3, 1.0, bands)
        cube = np.multiply(field[:, :, None], spectrum, out=np.empty((m, n, bands)))
        cube *= peak / cube.max()
        return cube

    maps = rng.standard_normal((m, n, rank))
    # map 0 becomes the flat map below, so only the others are smoothed
    maps[:, :, 1:] = _gaussian_smooth(maps[:, :, 1:], smooth)
    w = maps.reshape(m * n, rank, order="F")
    w[:, 0] = 1.0
    w, _ = np.linalg.qr(w)
    # the QR runs on column-major pixels; its rows in row-major pixel order
    # make the product below the C-ordered cube itself
    w = w.reshape(n, m, rank).transpose(1, 0, 2).reshape(m * n, rank)

    a = rng.standard_normal((bands, rank))
    a[:, 0] = 1.0
    a, _ = np.linalg.qr(a)

    if strengths is None:
        strengths = np.linspace(1.0, 0.3, rank)
    strengths = np.asarray(strengths, dtype=np.float64)
    if strengths.shape != (rank,) or np.any(strengths <= 0):
        raise ValueError(f"need {rank} positive strengths")

    cube = (w @ (a * strengths).T).reshape(m, n, bands)
    # affine rescale to [0, peak]; the shift lies along component 0.  In
    # place, since two cube-sized temporaries took 8.5 ms at 128x128x191
    lo, hi = cube.min(), cube.max()
    cube -= lo
    cube *= peak / (hi - lo)
    return cube
