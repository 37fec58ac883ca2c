"""Outer denoising loop: alternate a global spectral low-rank projection
with non-local low-rank filtering of the reduced image, feeding a
regularized mix of the estimate and the observation back in each round.
The subspace dimension holds at K0 unless DenoiseConfig.delta grows it,
and the patch groups are matched once, on the first projection.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .spatial import PatchGeometry, _one_blas_thread, denoise_reduced, match_groups
from .subspace import (
    estimate_band_noise,
    estimate_subspace_dim,
    reestimate_noise,
    spectral_decompose,
)
from .tensor import (
    _all_finite,
    _int_field,
    _near_peak,
    _row_blocks,
    as_cube,
    frob_norm_sq,
    mode3_product,
)

__all__ = [
    "DenoiseConfig",
    "IterationRecord",
    "NumericalError",
    "denoise",
    "iterate_regularize",
    "update_k",
]


class NumericalError(RuntimeError):
    """Non-finite values appeared mid-pipeline."""


@dataclass
class DenoiseConfig:
    """All tunables of the denoising loop.

    k0 is the initial subspace dimension (estimated from the data when
    None, at the noise edge).  delta grows it each iteration, the
    paper's schedule; at its default of 0 K stays at k0, where the
    estimate puts the signal's last detectable component.  lam mixes the
    estimate with the observation; gamma scales the per-iteration noise
    re-estimate; iters counts the outer iterations, the loop's one stop.
    Each iteration passes its noise re-estimate sigma_i to the spatial
    stage, which shrinks the patch groups with WNNM's weight at that
    level.
    """

    k0: int | None = None
    delta: int = 0
    lam: float = 0.9
    gamma: float = 0.5
    iters: int = 5
    geom: PatchGeometry = field(default_factory=PatchGeometry)

    def __post_init__(self):
        if self.k0 is not None and _int_field("k0", self.k0) < 1:
            raise ValueError(f"k0 must be >= 1, got {self.k0}")
        if _int_field("delta", self.delta) < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if _int_field("iters", self.iters) < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


@dataclass
class IterationRecord:
    """One outer iteration's bookkeeping."""

    iteration: int
    k: int
    sigma: float
    # ||y_i - x_i||_F, formed as sqrt(||(I - P P^T) y_i||^2 + ||P^T y_i - m_i||^2)
    # with P the iteration's basis and m_i the filtered reduced image: the
    # first part is summed before the spatial stage, so y_i is not kept
    residual: float
    psnr: float | None
    # the full-band work: sigma re-estimate, projection, off-subspace sum, lift-back, blend
    stage_a_seconds: float
    # the spatial stage on the k-band reduced image: matching and filtering
    stage_b_seconds: float


def update_k(k0, delta, i, bands):
    """Subspace dimension after iteration i, clamped to the band count.

    Iteration i adds delta*i, so K runs k0, k0+delta, k0+3*delta,
    k0+6*delta, ...: k0 + delta*i*(i+1)/2 after iteration i.
    """
    if i < 1:
        raise ValueError(f"iteration index must be >= 1, got {i}")
    return min(k0 + delta * i * (i + 1) // 2, bands)


def iterate_regularize(x_i, y, lam):
    """Mix the current estimate with the original observation.

    Returns lam*x_i + (1-lam)*y; the blend re-injects a controlled amount
    of the observed noise for the next round.
    """
    x_i = as_cube(x_i, "x_i")
    y = as_cube(y, "y")
    if x_i.shape != y.shape:
        raise ValueError(f"shape mismatch: {x_i.shape} vs {y.shape}")
    return lam * x_i + (1.0 - lam) * y


def _check_finite(arr, stage, iteration):
    if not _all_finite(arr):
        raise NumericalError(
            f"non-finite values after {stage} at iteration {iteration}"
        )


def _iterations(y, k0, sigma0, cfg, keep):
    """Run the outer iterations on the observation y from K = k0; yield
    (record, x) after each one.

    The generator owns the iteration's input y_i, K, the groups and the
    estimate x.  The groups are matched once, on iteration 1's
    projection, and serve every iteration: their members are pixel
    positions, which do not depend on the spectral basis.  y_i is dropped
    once projected, so the spatial stage holds no full-band cube besides
    y, which may be the caller's array.  x is written only where it is
    read: at the last iteration, and at each one when keep is set; it is
    None otherwise.  Each x is a fresh array that the generator drops
    once yielded, so a caller that holds x while the next iteration runs
    holds one more cube.  The record's sigma and residual are on y's
    scale, its psnr None.  The blend pass that writes y_i also sums
    ||y_i - y||^2 block by block, from which the next iteration's
    sigma_i is re-estimated; y_i = y at iteration 1 gives 0.
    """
    k = k0
    y_i = y
    change_sq = 0.0
    groups = None
    for i in range(1, cfg.iters + 1):
        last = i == cfg.iters

        t0 = time.perf_counter()
        sigma_i = reestimate_noise(change_sq / y.size, sigma0, cfg.gamma)
        model = spectral_decompose(y_i, k)
        _check_finite(model.reduced, "spectral projection", i)
        basis = model.basis
        # ||y_i - x_i||^2 = ||(I - P P^T) y_i||^2 + ||reduced - m_i||^2,
        # for x_i = P m_i and reduced = P^T y_i with P = basis: the parts
        # lie in orthogonal subspaces.  The first is summed here, the
        # last read of y_i.
        off_sq = 0.0
        for rows in _row_blocks(y_i):
            off_sq += frob_norm_sq(y_i[rows], mode3_product(model.reduced[rows], basis))
        del y_i
        t1 = time.perf_counter()

        if groups is None:
            groups = match_groups(model.reduced, cfg.geom)
        m_i = denoise_reduced(model.reduced, sigma_i, cfg.geom, groups=groups)
        residual = math.sqrt(off_sq + frob_norm_sq(model.reduced, m_i))
        del model
        t2 = time.perf_counter()

        # the lift-back, its finiteness check and the blend with the
        # observation, one row block at a time
        x = np.empty(y.shape) if last or keep else None
        y_i = None if last else np.empty(y.shape)
        change_sq = 0.0
        for rows in _row_blocks(y):
            x_rows = mode3_product(m_i[rows], basis)
            _check_finite(x_rows, "spatial filtering", i)
            if x is not None:
                x[rows] = x_rows
            if y_i is not None:
                y_i[rows] = iterate_regularize(x_rows, y[rows], cfg.lam)
                change_sq += frob_norm_sq(y_i[rows], y[rows])
        # the last block's lift-back too, or it is held through the next
        # iteration's spatial stage: a whole cube when one block covers it
        del m_i, x_rows
        t3 = time.perf_counter()

        record = IterationRecord(iteration=i, k=k, sigma=sigma_i, residual=residual, psnr=None,
                                 stage_a_seconds=(t1 - t0) + (t3 - t2), stage_b_seconds=t2 - t1)
        yield record, x
        del x
        k = update_k(k0, cfg.delta, i, y.shape[2])


def denoise(noisy, sigma0=None, config=None, clean=None):
    """Denoise a cube; returns (estimate, trace).

    sigma0 is the observation noise sigma on the cube's value scale; when
    None it is taken as the median of the per-band regression estimates.
    The regression needs 2 bands, so a one-band cube, whose K can only be
    1, raises ValueError without sigma0.  clean, if given, must be finite
    and adds a mean-over-bands PSNR to each trace record.  When the larger
    of max|noisy| and sigma0 lies far from PEAK (outside PEAK * 2^+-16), the
    iterations run on the cube and sigma0 scaled by a power of two and the
    estimate, sigmas and residuals are scaled back, so a cube of entries
    near 1e152 still gives a finite estimate.  sigma0 and K0, where not
    given, come from estimate_band_noise and estimate_subspace_dim on that
    cube, as `hsidenoise estimate-k` prints them; those scale a cube whose
    band Gram over- or underflows themselves, so a cube of entries near
    1e-200 under a sigma0 of 10 is estimated too.

    OpenBLAS is held to one thread for the whole call, as denoise_reduced
    holds it for its shrinkage pool: after a threaded BLAS call OpenBLAS's
    idle threads spin for a while, against the pool's threads for the
    cores.  match_groups, which makes no pool, runs inside the hold too.
    Other threads' BLAS calls run on one thread meanwhile.  The shrinkage
    pool is kept for the process: the first stage creates it and every
    later stage, of this call and of later ones, reuses its threads.  A
    process forked after a denoise creates a pool of its own, and a stage
    that raises waits for its running chunks first, so when denoise
    returns or raises no job of it is left on the pool.
    """
    with _one_blas_thread():
        y = as_cube(noisy, "noisy")
        if sigma0 is not None:
            sigma0 = float(sigma0)
            if not 0 <= sigma0 < np.inf:
                raise ValueError(f"sigma0 must be finite and >= 0, got {sigma0}")
        y, sigma0, e = _near_peak(y, "input cube", sigma0)
        if clean is not None:
            if np.shape(clean) != y.shape:
                raise ValueError(f"clean has shape {np.shape(clean)}, noisy has {y.shape}")
            if not _all_finite(np.asarray(clean)):
                raise ValueError("clean cube has non-finite entries")
        cfg = config if config is not None else DenoiseConfig()
        b = y.shape[2]

        k0 = 1 if b == 1 else cfg.k0
        if k0 is None or sigma0 is None:
            band_sigma = estimate_band_noise(y)
            k0 = k0 or estimate_subspace_dim(y, band_sigma)
            if sigma0 is None:
                sigma0 = float(np.median(band_sigma))

        trace = []
        for record, x in _iterations(y, min(int(k0), b), sigma0, cfg, clean is not None):
            if clean is not None:
                record.psnr = metrics.mpsnr(clean, np.ldexp(x, e) if e else x)
            record.sigma = math.ldexp(record.sigma, e)
            record.residual = math.ldexp(record.residual, e)
            trace.append(record)
            if record.iteration < cfg.iters:
                del x  # not held through the next iteration's spatial stage

        if e:
            np.ldexp(x, e, out=x)
        return x, trace
