"""Outer denoising loop: alternate a global spectral low-rank projection
with non-local low-rank filtering of the reduced image, feeding a
regularized mix of the estimate and the observation back in each round.
The subspace dimension holds at K0 on every round, and the patch groups
are matched once, on the first projection.  The mix is never stored
whole: its band Gram follows from the observation's, formed once, and
from K-band products, and two row-block passes over the observation
rebuild it where it is read.
"""

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .spatial import PatchGeometry, _one_blas_thread, denoise_reduced, match_groups
# perfbench's tracer wraps names as pipeline binds them (the estimators,
# spectral_decompose, mode3_product, iterate_regularize, ...) and a traced
# run fails on a missing one, so spectral_decompose stays bound here
# though the loop no longer calls it
from .subspace import (  # noqa: F401
    _band_gram,
    _gram_basis,
    estimate_band_noise,
    estimate_subspace_dim,
    reestimate_noise,
    spectral_decompose,
)
from .tensor import (
    _all_finite,
    _int_field,
    _near_peak,
    _noise_level,
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
]


class NumericalError(RuntimeError):
    """Non-finite values appeared mid-pipeline."""


@dataclass(frozen=True)
class DenoiseConfig:
    """All tunables of the denoising loop.

    k0 is the subspace dimension held for every iteration (estimated
    from the data when None, at the noise edge, where the estimate puts
    the signal's last detectable component).  lam mixes the estimate
    with the observation; gamma scales the per-iteration noise
    re-estimate; iters counts the outer iterations, the loop's one stop.
    Each iteration passes its noise re-estimate sigma_i to the spatial
    stage, which shrinks the patch groups with WNNM's weight at that
    level.
    """

    k0: int | None = None
    lam: float = 0.9
    gamma: float = 0.5
    iters: int = 5
    geom: PatchGeometry = field(default_factory=PatchGeometry)

    def __post_init__(self):
        if self.k0 is not None and _int_field("k0", self.k0) < 1:
            raise ValueError(f"k0 must be >= 1, got {self.k0}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if _int_field("iters", self.iters) < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration's bookkeeping, built once: sigma and residual on
    the input cube's scale, psnr the MPSNR against clean (None without it)."""

    iteration: int
    k: int
    sigma: float
    # ||y_i - x_i||_F, formed as sqrt(||(I - P P^T) y_i||^2 + ||P^T y_i - m_i||^2)
    # with P the iteration's basis and m_i the filtered reduced image: the
    # first part is summed block by block as y_i's rows are projected, so
    # y_i is never stored
    residual: float
    psnr: float | None
    # the work on B bands: at iteration 1 the band Gram of y and its
    # projection; the sigma re-estimate; the lift of x where it is
    # written; and the two passes over y that rebuild y_(i+1) for its
    # sigma sum, its Gram and its projection
    stage_a_seconds: float
    # the spatial stage on the k-band reduced image: matching and filtering
    stage_b_seconds: float


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


def _lift(m, basis, rows, out=None):
    """The rows `rows` of the reduced image m lifted to basis' B bands, as
    one (rows * N, B) product, written into out when it is given: the
    estimate and the blend lift alike, so each is the other's bit for bit."""
    return np.matmul(m[rows].reshape(-1, m.shape[2]), basis.T, out=out)


def _blends(m, basis, y, lam):
    """(rows, block) for each row block of y, block those rows of the next
    iteration's input: m lifted by basis, blended with y."""
    for rows in _row_blocks(y):
        obs = y[rows]
        yield rows, iterate_regularize(_lift(m, basis, rows).reshape(obs.shape), obs, lam)


def _project(blocks, basis, shape):
    """(reduced, off_sq) for a cube of the given shape that arrives as
    (rows, block) pairs: its projection onto basis, and ||(I - P P^T)
    cube||^2 with P = basis, summed block by block."""
    reduced = np.empty((*shape[:2], basis.shape[1]))
    off_sq = 0.0
    for rows, block in blocks:
        reduced[rows] = mode3_product(block, basis.T)
        off_sq += frob_norm_sq(block, mode3_product(reduced[rows], basis))
    return reduced, off_sq


def _next_basis(m, basis, y, lam, r0, f):
    """(basis, change_sq): the next iteration's basis, as wide as basis,
    the top eigenvectors of the band Gram of its input y_next = lam * m
    lifted by basis + (1 - lam) * y, and ||y_next - y||^2.  r0 is the
    Gram of y * 2^-f; one pass over y rebuilds y_next's rows for the sum
    and forms C = m^T Y."""
    # m on r0's scale, so that the Gram's terms add: 2^-f is exact
    ms = np.ldexp(m, -f) if f else m
    km, b = m.shape[2], y.shape[2]
    c = np.zeros((km, b))
    change_sq = 0.0
    for rows, block in _blends(m, basis, y, lam):
        change_sq += frob_norm_sq(block, y[rows])
        c += ms[rows].reshape(-1, km).T @ y[rows].reshape(-1, b)
    flat = ms.reshape(-1, km)
    pc = basis @ np.ldexp(c, -f)
    gram = (lam * lam * (basis @ (flat.T @ flat) @ basis.T)
            + lam * (1.0 - lam) * (pc + pc.T) + (1.0 - lam) ** 2 * r0)
    return _gram_basis(gram, basis.shape[1]), change_sq


def _iterations(y, k0, sigma0, cfg, clean, e):
    """Run the outer iterations on y, the observation scaled by 2^-e, with
    K = k0 on every one; returns (x, trace), both on the input's scale.

    No full-band iterate is stored.  Iteration i's input is y_i = lam P m
    + (1 - lam) y for the previous basis P and filtered reduced image m,
    so with Y the (M*N, B) view of y, R_0 = Y^T Y (one _band_gram, at
    iteration 1) and C = m^T Y, its band Gram is
    lam^2 P (m^T m) P^T + lam (1 - lam) (P C + C^T P^T) + (1 - lam)^2 R_0,
    whose top k0 eigenvectors are the next basis.  After each spatial stage
    but the last, two passes over y rebuild y_i's rows a block at a time
    (_blends) and drop them: the first sums ||y_i - y||^2, from which the
    next sigma_i is re-estimated (0 at iteration 1, where y_1 = y), and
    C; the second projects them onto the next basis and sums their part
    off it.  The groups are matched once, on iteration 1's projection, and
    serve every iteration: their members are pixel positions, which do not
    depend on the basis.  y is read in place, whatever its layout.  x is
    written only where it is read: at the last iteration, after the groups
    and R_0 are dropped, and at every one when clean is given, for its
    PSNR.  Each x is a fresh array, dropped before the next spatial stage.
    """
    b = y.shape[2]
    lam = cfg.lam
    change_sq = 0.0
    groups = None
    trace = []
    for i in range(1, cfg.iters + 1):
        x = None
        last = i == cfg.iters

        t0 = time.perf_counter()
        if i == 1:
            # r0 is the Gram of y * 2^-f, where _band_gram had to scale it
            r0, _, f = _band_gram(y)
            basis = _gram_basis(r0, k0)
            reduced, off_sq = _project(((rows, y[rows]) for rows in _row_blocks(y)),
                                       basis, y.shape)
        sigma_i = reestimate_noise(change_sq / y.size, sigma0, cfg.gamma)
        _check_finite(reduced, "spectral projection", i)
        t1 = time.perf_counter()

        if groups is None:
            groups = match_groups(reduced, cfg.geom)
        m = denoise_reduced(reduced, sigma_i, cfg.geom, groups=groups)
        _check_finite(m, "spatial filtering", i)
        # ||y_i - x_i||^2 = ||(I - P P^T) y_i||^2 + ||reduced - m||^2 for
        # x_i = P m and reduced = P^T y_i: the parts lie in orthogonal
        # subspaces
        residual = math.sqrt(off_sq + frob_norm_sq(reduced, m))
        del reduced
        if last:
            groups = r0 = None
        t2 = time.perf_counter()

        if last or clean is not None:
            x = np.empty(y.shape)
            for rows in _row_blocks(y):
                _lift(m, basis, rows, out=x[rows].reshape(-1, b))
        if not last:
            basis_next, change_sq = _next_basis(m, basis, y, lam, r0, f)
            reduced, off_sq = _project(_blends(m, basis, y, lam), basis_next, y.shape)
            basis = basis_next
        del m
        t3 = time.perf_counter()

        if x is not None and e:
            np.ldexp(x, e, out=x)
        trace.append(IterationRecord(
            iteration=i, k=k0, sigma=math.ldexp(sigma_i, e), residual=math.ldexp(residual, e),
            psnr=None if clean is None else metrics.mpsnr(clean, x),
            stage_a_seconds=(t1 - t0) + (t3 - t2), stage_b_seconds=t2 - t1))
    return x, trace


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
            sigma0 = _noise_level("sigma0", float(sigma0))
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
                # statistics, not np.median, which imports numpy.ma on first use
                sigma0 = statistics.median(band_sigma.tolist())

        return _iterations(y, min(int(k0), b), sigma0, cfg, clean, e)
