"""Quality metrics: per-band PSNR and SSIM with their band means, and the
mean spectral angle in degrees.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import correlate1d

from .tensor import as_cube

__all__ = ["QualityReport", "psnr", "mpsnr", "ssim", "mssim", "sam", "quality_report"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


@dataclass
class QualityReport:
    """Band-averaged metrics for one (reference, test) pair."""

    mpsnr: float
    mssim: float
    sam_deg: float
    per_band_psnr: list = field(default_factory=list)


def _check_pair(ref, test, ndim):
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.ndim != ndim or test.ndim != ndim:
        raise ValueError(f"expected {ndim}-d arrays, got {ref.ndim}-d and {test.ndim}-d")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return ref, test


def psnr(ref, test, peak=255.0):
    """Peak signal-to-noise ratio in dB; identical inputs give math.inf."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def mpsnr(ref, test, peak=255.0):
    """Mean over bands of the per-band PSNR."""
    ref, test = _check_pair(ref, test, 3)
    vals = [psnr(ref[:, :, b], test[:, :, b], peak) for b in range(ref.shape[2])]
    return float(np.mean(vals))


def _gaussian_kernel():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


def _window_mean(img, kernel):
    out = correlate1d(img, kernel, axis=0, mode="constant")
    return correlate1d(out, kernel, axis=1, mode="constant")


def ssim(ref, test, peak=255.0):
    """Structural similarity of two bands.

    Gaussian-windowed means/variances (11x11 window, sigma 1.5), map
    averaged over the interior where the window fits entirely.
    """
    ref, test = _check_pair(ref, test, 2)
    half = SSIM_WINDOW // 2
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image {ref.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    kernel = _gaussian_kernel()

    mu1 = _window_mean(ref, kernel)
    mu2 = _window_mean(test, kernel)
    mu1mu2 = mu1 * mu2
    mu1sq = mu1 * mu1
    mu2sq = mu2 * mu2
    s12 = _window_mean(ref * test, kernel) - mu1mu2
    s11 = _window_mean(ref * ref, kernel) - mu1sq
    s22 = _window_mean(test * test, kernel) - mu2sq

    num = (2.0 * mu1mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1sq + mu2sq + c1) * (s11 + s22 + c2)
    smap = num / den
    return float(np.mean(smap[half:-half, half:-half]))


def mssim(ref, test, peak=255.0):
    """Mean over bands of the per-band SSIM."""
    ref, test = _check_pair(ref, test, 3)
    vals = [ssim(ref[:, :, b], test[:, :, b], peak) for b in range(ref.shape[2])]
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

    dots = np.einsum("ijk,ijk->ij", ref, test)
    nref = np.einsum("ijk,ijk->ij", ref, ref)
    ntest = np.einsum("ijk,ijk->ij", test, test)
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


def quality_report(ref, test, peak=255.0):
    """Full report for a (reference, test) cube pair."""
    ref, test = _check_pair(ref, test, 3)
    per_band = [psnr(ref[:, :, b], test[:, :, b], peak) for b in range(ref.shape[2])]
    return QualityReport(
        mpsnr=float(np.mean(per_band)),
        mssim=mssim(ref, test, peak),
        sam_deg=sam(ref, test),
        per_band_psnr=per_band,
    )
