"""Mode-3 tensor algebra for hyperspectral cubes.

A cube is a plain ndarray of shape (M, N, B): M rows, N columns, B bands.
All routines promote to float64.  The band-mode unfolding is the
(M*N, B) view ``cube.reshape(M*N, B)`` or its transpose, whose pixel
order is row-major; band-mode matrix products do not depend on that order,
and their results keep it, so they stay C-ordered cubes.  The module
holds the helpers more than one module shares.
"""

import math

import numpy as np

__all__ = ["PEAK", "mode3_product", "frob_norm_sq", "as_cube"]

# the intensity scale: inputs are normalized onto [0, PEAK], sigma is in its units
PEAK = 255.0

# A cube whose largest magnitude lies between PEAK * 2^-_SCALE_BAND and
# PEAK * 2^_SCALE_BAND is worked on as it is; where one must be scaled,
# _scale_exponent gives the power of two that puts it on [128, 256), next to
# PEAK, and _near_peak scales it.  Power-of-two scaling is exact, so the
# result is the same up to that scale, where squares and Gram matrices of
# entries near 1e152 would overflow, or of entries near 1e-160 underflow.
# Data on [0, 1] (2^-8 PEAK) and at 16 bits (2^8 PEAK) lie well inside the
# band.
_SCALE_BAND = 16

# float64 bytes per row block of the passes that read whole cubes entry by
# entry (differences, sums of squares, finiteness checks, blends): each pass
# holds one block's temporaries, not a cube's.
_BLOCK_BYTES = 256 << 10


def as_cube(arr, name="cube"):
    """Validate and return ``arr`` as a float64 cube of shape (M, N, B)."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"{name} must be 3-d (rows, cols, bands), got shape {a.shape}")
    if min(a.shape) < 1:
        raise ValueError(f"{name} has an empty dimension: {a.shape}")
    return a


def _scale_exponent(top):
    """e such that a cube of largest magnitude top is scaled by 2^-e: 0
    when top lies within the band around PEAK or is 0, otherwise the e
    that puts it in [128, 256)."""
    if top == 0.0 or PEAK * 2.0**-_SCALE_BAND <= top <= PEAK * 2.0**_SCALE_BAND:
        return 0
    return math.frexp(top)[1] - math.frexp(PEAK)[1]


def _near_peak(a, name, sigma=None):
    """(a, sigma, e): an array and a noise level on its scale, both scaled
    by 2^-e, with e from _scale_exponent of the larger of sigma and a's
    largest magnitude (0 for an empty a); returned as given when e is 0.
    One max and one min reduction find that largest magnitude, and a
    ValueError naming a is raised if it is not finite, as a NaN or infinite
    entry makes it."""
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    if not math.isfinite(top):
        raise ValueError(f"{name} has non-finite entries")
    e = _scale_exponent(max(top, sigma or 0.0))
    if e:
        a = np.ldexp(a, -e)
        if sigma is not None:
            sigma = math.ldexp(sigma, -e)
    return a, sigma, e


def _int_field(name, value):
    """value as an int, if it is a Python or numpy integer other than a bool;
    a ValueError naming the field otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _noise_level(name, value):
    """value, if it is a noise level or an array of them, each finite and
    >= 0; a ValueError naming the field otherwise.  Written so that NaN,
    which fails every comparison, fails the check."""
    v = np.asarray(value)
    if not np.all((v >= 0) & (v < np.inf)):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def mode3_product(cube, p):
    """Apply a matrix to the band mode: out[i, j, :] = p @ cube[i, j, :].

    p has shape (B2, B); the result has shape (M, N, B2).  With p orthonormal
    of shape (B, K) this projects onto a K-dimensional spectral subspace via
    p.T, and lifts back via p.  A C-contiguous cube is read through an
    (M*N, B) view, not copied, and the result is C-ordered: the (M*N, B2)
    product cube @ p.T, so its pixels' bands lie next to each other as in
    the input.  The product is formed a row block of that view at a time:
    OpenBLAS's threads pack all of a tall left operand at once, so a whole
    (128*128, 191) @ (191, 8) product touched 24 MB of buffers on 2 threads.
    """
    cube = as_cube(cube)
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != cube.shape[2]:
        raise ValueError(
            f"matrix shape {p.shape} does not match band count {cube.shape[2]}"
        )
    m, n, b = cube.shape
    flat = cube.reshape(m * n, b)
    out = np.empty((m * n, p.shape[0]))
    for rows in _row_blocks(flat):
        np.matmul(flat[rows], p.T, out=out[rows])
    return out.reshape(m, n, p.shape[0])


def _row_blocks(cube):
    """Slices of consecutive rows (leading-axis entries) of a cube, each of
    at most _BLOCK_BYTES of float64 (one row at least), covering it in
    order."""
    m = cube.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * cube[0].size))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def frob_norm_sq(a, b=None):
    """Squared Frobenius norm of a - b (of a when b is None), two arrays of
    one shape, as a float, formed a row block at a time: one block of
    temporaries."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if b is not None and np.shape(b) != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {np.shape(b)}")
    total = 0.0
    for rows in _row_blocks(a):
        d = a[rows] if b is None else a[rows] - b[rows]
        total += float(np.vdot(d, d))
    return total


def _all_finite(cube):
    """Whether every entry of a cube is finite, checked a row block at a time."""
    return all(np.isfinite(cube[rows]).all() for rows in _row_blocks(cube))


def _correlate_symmetric(x, weights, axis):
    """Correlate x along axis with a symmetric kernel of odd length 2r + 1,
    where it fits: the result is 2r shorter along axis.

    Each output adds its terms in scipy.ndimage.correlate1d's order: the
    centre tap times w[r], then (x[c - j] + x[c + j]) * w[r - j] for j = r
    down to 1, so it equals scipy's result bit for bit.  Callers pad x
    themselves for a same-size result.  Two work buffers, whatever r is.
    """
    w = list(map(float, weights))  # Python floats multiply faster than numpy scalars
    r = len(w) // 2
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0] - 2 * r
    out = np.multiply(x[r:r + n], w[r])
    term = np.empty_like(out)
    # out passed by position: parsing the keyword took 15% of a 32x32x4 pass
    for j in range(r, 0, -1):
        np.add(x[r - j:r - j + n], x[r + j:r + j + n], term)
        np.multiply(term, w[r - j], term)
        np.add(out, term, out)
    return np.moveaxis(out, 0, axis)
