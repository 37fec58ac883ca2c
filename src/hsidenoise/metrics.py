"""Quality metrics: per-band PSNR and SSIM with their band means, and the
mean spectral angle in degrees.  Each checks its pair by one rule,
_check_pair, and scales what it does not change under near PEAK by
tensor._near_peak, so none over- or underflows at any scale and a NaN or
infinite entry raises that function's "has non-finite entries" ValueError.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import PEAK, _correlate_symmetric, _near_peak

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


def _check_pair(ref, test, ndim=None, peak=PEAK):
    """ref and test as float64 arrays of one shape with no empty dimension,
    each ndim-d when ndim is given, and a finite peak > 0; a ValueError
    otherwise."""
    # written so that NaN, which fails every comparison, fails the check
    if not 0 < peak < math.inf:
        raise ValueError(f"peak must be finite and > 0, got {peak}")
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ndim is not None and (ref.ndim != ndim or test.ndim != ndim):
        raise ValueError(f"expected {ndim}-d arrays, got {ref.ndim}-d and {test.ndim}-d")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if ref.size == 0:
        raise ValueError(f"ref and test have an empty dimension: {ref.shape}")
    return ref, test


def _check_window(m, n):
    """A ValueError unless an m x n image holds SSIM's window."""
    if min(m, n) < SSIM_WINDOW:
        raise ValueError(
            f"image {(m, n)} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )


def psnr(ref, test, peak=PEAK):
    """Peak signal-to-noise ratio in dB; identical inputs give math.inf.

    The mean square is taken of the difference scaled near PEAK by 2^-e
    (tensor._near_peak), so its squares neither over- nor underflow, and
    20 e log10(2) dB are taken off; peak enters as 20 log10(peak), so no
    peak^2 is formed.  A pair whose difference overflows float64 is
    halved first, and 20 log10(2) dB more are taken off."""
    ref, test = _check_pair(ref, test, peak=peak)
    # a C-ordered difference fixes the summation order, so the result does
    # not depend on the memory layouts of ref and test
    try:
        with np.errstate(over="raise"):
            diff = np.subtract(ref, test, order="C")
        halved = 0
    except FloatingPointError:
        # finite entries whose difference overflows: the pair is halved
        # first, exactly but for subnormal entries, which add nothing to
        # the mean square next to the ones near the float64 limit
        diff = np.subtract(np.ldexp(ref, -1), np.ldexp(test, -1), order="C")
        halved = 1
    diff, _, e = _near_peak(diff, "ref - test")
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return 20.0 * (math.log10(peak) - (e + halved) * math.log10(2.0)) - 10.0 * math.log10(mse)


def mpsnr(ref, test, peak=PEAK):
    """Mean over bands of the per-band PSNR."""
    ref, test = _check_pair(ref, test, 3, peak)
    return float(np.mean([psnr(ref[:, :, b], test[:, :, b], peak) for b in range(ref.shape[2])]))


def _gaussian_kernel():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


def _limit_ratio(num, den):
    """num / den, with each 0 / 0 read as 1."""
    return np.divide(num, den, out=np.ones_like(num), where=(num != 0) | (den != 0))


def _band_ssims(ref, test, peak):
    """SSIM of each band of two (bands, rows, cols) stacks, as a list.

    The five windowed means (of ref, test, ref*test, ref*ref, test*test) are
    filtered together, and only where the window fits, which is all the map
    average reads.  The arithmetic after them runs in place, in the order of
    the textbook formula.  c1 and c2 scale with peak^2, so SSIM does not
    change when ref, test and peak are scaled alike: the three are scaled
    near PEAK by one power of two, picked from the largest of them.
    """
    bands, m, n = ref.shape
    _check_window(m, n)
    half = SSIM_WINDOW // 2
    kernel = _gaussian_kernel()

    maps = np.empty((5, bands, m, n))
    maps[0] = ref
    maps[1] = test
    maps[:2], peak, _ = _near_peak(maps[:2], "ref or test", peak)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    np.multiply(maps[0], maps[1], out=maps[2])
    np.multiply(maps[0], maps[0], out=maps[3])
    np.multiply(maps[1], maps[1], out=maps[4])
    maps = _correlate_symmetric(_correlate_symmetric(maps, kernel, 2), kernel, 3)
    mu1, mu2, s12, s11, s22 = maps

    l_num = mu1 * mu2
    s12 -= l_num
    s11 -= np.multiply(mu1, mu1, out=mu1)
    s22 -= np.multiply(mu2, mu2, out=mu2)
    # luminance (2 mu1mu2 + c1) / (mu1^2 + mu2^2 + c1) times
    # contrast-structure (2 s12 + c2) / (s11 + s22 + c2): the four factors
    # are formed in place and their products in the buffers mu2 and s22 free
    l_num *= 2.0
    l_num += c1
    cs_num = s12
    cs_num *= 2.0
    cs_num += c2
    l_den = mu1
    l_den += mu2
    l_den += c1
    cs_den = s11
    cs_den += s22
    cs_den += c2
    num = np.multiply(l_num, cs_num, out=mu2)
    den = np.multiply(l_den, cs_den, out=s22)
    if not den.all():
        # where c1 and c2 underflow to 0, a window with no variance or a
        # zero mean makes a denominator 0: the map reads its limit as
        # c1, c2 -> 0+, in which each 0/0 factor is 1
        zero = den == 0
        num[zero] = _limit_ratio(l_num[zero], l_den[zero]) * _limit_ratio(cs_num[zero], cs_den[zero])
        den[zero] = 1.0
    # each band's map keeps the row stride of a full map, so its mean sums in
    # the same order as the mean of a full map's interior
    smap = np.empty((bands, m - 2 * half, n))[:, :, : n - 2 * half]
    np.divide(num, den, out=smap)
    return [float(np.mean(band)) for band in smap]


def ssim(ref, test, peak=PEAK):
    """Structural similarity of two bands.

    Gaussian-windowed means/variances (11x11 window, sigma 1.5), map
    averaged over the interior where the window fits entirely.  ref, test
    and peak are scaled near PEAK by one power of two first, which changes
    no SSIM.  Where the constants c1 and c2 underflow to 0, a window whose
    denominator is 0 reads the limit as they go to 0: each 0/0 factor of
    luminance times contrast-structure is 1.
    """
    ref, test = _check_pair(ref, test, 2, peak)
    return _band_ssims(ref[None], test[None], peak)[0]


def mssim(ref, test, peak=PEAK):
    """Mean over bands of the per-band SSIM; each block of bands is scaled
    as ssim scales its band."""
    ref, test = _check_pair(ref, test, 3, peak)
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

    The angle comes from the squared cosine, so positive per-pixel
    rescaling of either argument cannot change it, and each cube is scaled
    near PEAK by its own power of two (tensor._near_peak) before its
    products are formed.  Pixels where either spectrum has zero norm are
    skipped (a warning reports the count); a reference or test with no
    usable pixel, or with a NaN or infinite entry, raises.
    """
    ref, test = _check_pair(ref, test, 3)
    ref, test = _near_peak(ref, "ref")[0], _near_peak(test, "test")[0]

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
