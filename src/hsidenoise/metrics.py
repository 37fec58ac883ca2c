"""Quality metrics: per-band PSNR and SSIM with their band means, and the
mean spectral angle in degrees.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import PEAK, _correlate_symmetric, _near_peak, as_cube

__all__ = ["QualityReport", "psnr", "mpsnr", "ssim", "mssim", "sam", "quality_report"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
# mssim filters this many bytes of each map's bands at once: 2 MiB blocks
# raised the resident peak of a process reporting on 128x128x191 cubes by
# 36 MB, 512 KiB blocks by 5 MB
_SSIM_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class QualityReport:
    """Band-averaged metrics for one (reference, test) pair."""

    mpsnr: float
    mssim: float
    sam_deg: float


def _check_pair(ref, test, ndim):
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.ndim != ndim or test.ndim != ndim:
        raise ValueError(f"expected {ndim}-d arrays, got {ref.ndim}-d and {test.ndim}-d")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return ref, test


def _check_peak(peak):
    # written so that NaN, which fails every comparison, fails the check
    if not 0 < peak < math.inf:
        raise ValueError(f"peak must be finite and > 0, got {peak}")


def _check_window(m, n):
    """A ValueError unless an m x n image holds SSIM's window."""
    if min(m, n) < SSIM_WINDOW:
        raise ValueError(
            f"image {(m, n)} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )


def psnr(ref, test, peak=PEAK):
    """Peak signal-to-noise ratio in dB; identical inputs give math.inf.

    Where the mean square overflows or falls below the smallest normal
    float, it is taken of the difference scaled near PEAK by 2^-e
    (tensor._near_peak), and 20 e log10(2) dB are taken off."""
    _check_peak(peak)
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    # a C-ordered difference fixes the summation order, so the result does
    # not depend on the memory layouts of ref and test
    diff = np.subtract(ref, test, order="C")
    with np.errstate(over="ignore"):
        mse = float(np.mean(np.square(diff, out=diff)))
    e = 0
    if mse == math.inf or mse < sys.float_info.min:
        diff, _, e = _near_peak(np.subtract(ref, test, order="C"), "difference")
        mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse) - 20.0 * e * math.log10(2.0)


def mpsnr(ref, test, peak=PEAK):
    """Mean over bands of the per-band PSNR."""
    _check_peak(peak)
    ref, test = _check_pair(ref, test, 3)
    vals = [psnr(ref[:, :, b], test[:, :, b], peak) for b in range(ref.shape[2])]
    return float(np.mean(vals))


def _gaussian_kernel():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


def _band_ssims(ref, test, peak):
    """SSIM of each band of two (bands, rows, cols) stacks, as a list.

    The five windowed means (of ref, test, ref*test, ref*ref, test*test) are
    filtered together, and only where the window fits, which is all the map
    average reads.  The arithmetic after them runs in place, in the order of
    the textbook formula.
    """
    bands, m, n = ref.shape
    _check_window(m, n)
    half = SSIM_WINDOW // 2
    kernel = _gaussian_kernel()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    maps = np.empty((5, bands, m, n))
    maps[0] = ref
    maps[1] = test
    np.multiply(ref, test, out=maps[2])
    np.multiply(ref, ref, out=maps[3])
    np.multiply(test, test, out=maps[4])
    maps = _correlate_symmetric(_correlate_symmetric(maps, kernel, 2), kernel, 3)
    mu1, mu2, s12, s11, s22 = maps

    num = mu1 * mu2
    s12 -= num
    s11 -= np.multiply(mu1, mu1, out=mu1)
    s22 -= np.multiply(mu2, mu2, out=mu2)
    # num = (2 mu1mu2 + c1)(2 s12 + c2), den = (mu1^2 + mu2^2 + c1)(s11 + s22 + c2)
    num *= 2.0
    num += c1
    s12 *= 2.0
    s12 += c2
    num *= s12
    den = mu1
    den += mu2
    den += c1
    s11 += s22
    s11 += c2
    den *= s11
    # each band's map keeps the row stride of a full map, so its mean sums in
    # the same order as the mean of a full map's interior
    smap = np.empty((bands, m - 2 * half, n))[:, :, : n - 2 * half]
    np.divide(num, den, out=smap)
    return [float(np.mean(band)) for band in smap]


def ssim(ref, test, peak=PEAK):
    """Structural similarity of two bands.

    Gaussian-windowed means/variances (11x11 window, sigma 1.5), map
    averaged over the interior where the window fits entirely.
    """
    _check_peak(peak)
    ref, test = _check_pair(ref, test, 2)
    return _band_ssims(ref[None], test[None], peak)[0]


def mssim(ref, test, peak=PEAK):
    """Mean over bands of the per-band SSIM."""
    _check_peak(peak)
    ref, test = _check_pair(ref, test, 3)
    m, n, bands = ref.shape
    step = max(1, _SSIM_BLOCK_BYTES // (m * n * ref.itemsize))
    vals = []
    for b in range(0, bands, step):
        block = slice(b, b + step)
        vals += _band_ssims(ref[:, :, block].transpose(2, 0, 1),
                            test[:, :, block].transpose(2, 0, 1), peak)
    return float(np.mean(vals))


def sam(ref, test):
    """Mean spectral angle in degrees between per-pixel spectra.

    Pixels where either spectrum has zero norm are skipped (a warning
    reports the count); a reference or test with no usable pixel raises.
    The angle comes from the squared cosine, so positive per-pixel
    rescaling of either argument cannot change it.
    """
    ref = as_cube(ref, "ref")
    test = as_cube(test, "test")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")

    # summed band by band, so the order of the sums, and with it the
    # result, does not depend on the memory layouts of ref and test
    dots = np.zeros(ref.shape[:2])
    nref = np.zeros(ref.shape[:2])
    ntest = np.zeros(ref.shape[:2])
    for k in range(ref.shape[2]):
        r, t = ref[:, :, k], test[:, :, k]
        dots += r * t
        nref += r * r
        ntest += t * t
    denom = nref * ntest
    mask = denom > 0.0
    skipped = int(mask.size - np.count_nonzero(mask))
    if not np.any(mask):
        raise ValueError("no pixel has nonzero spectra in both cubes")
    if skipped:
        warnings.warn(f"{skipped} zero-norm pixels skipped in spectral angle")

    ratio = np.minimum(dots[mask] ** 2 / denom[mask], 1.0)
    cos = np.sign(dots[mask]) * np.sqrt(ratio)
    return float(np.degrees(np.mean(np.arccos(cos))))


def quality_report(ref, test, peak=PEAK):
    """Full report for a (reference, test) cube pair."""
    return QualityReport(mpsnr(ref, test, peak), mssim(ref, test, peak), sam(ref, test))
