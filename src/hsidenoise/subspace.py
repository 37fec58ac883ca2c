"""Global spectral low-rank step: orthogonal basis fitting, noise and
subspace-dimension estimation from the data itself, and the per-iteration
noise re-estimate that drives the spatial stage.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import _all_finite, _scale_exponent, as_cube, mode3_product

__all__ = [
    "SubspaceModel",
    "spectral_decompose",
    "estimate_band_noise",
    "estimate_subspace_dim",
    "reestimate_noise",
]

# ridge weight for the band regressions, relative to mean band energy
RIDGE_SCALE = 1e-6

# _band_gram scales a cube whose Gram trace is below 2^-970 (tiny / eps), where
# squares are subnormal: unscaled, a noisy 32x32x16 cube times 1e-158 (trace
# 2.4e-308) moved its sigmas by 1.3e-10 relative, and below tiny they read zero
_GRAM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass
class SubspaceModel:
    """Orthonormal spectral basis plus the image projected onto it.

    basis: (B, K) with orthonormal columns; reduced: (M, N, K) cube equal to
    the input projected by basis.T along the band mode.
    """

    basis: np.ndarray
    reduced: np.ndarray

    def reconstruct(self):
        """Lift the reduced image back to B bands: reduced x3 basis."""
        return mode3_product(self.reduced, self.basis)


def _fix_column_signs(basis):
    # make the largest-magnitude entry of each column positive so the basis
    # is deterministic across LAPACK drivers
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def _band_gram(cube):
    """(R, tr(R), f): the band Gram R = Z Z^T, Z the (B, M*N) view of the
    cube times 2^-f.  f is 0 unless R or tr(R) is not finite (entries near
    1e152) or a nonzero cube's tr(R) is below _GRAM_FLOOR; then R is formed
    on the cube scaled by the power of two that puts it on [128, 256),
    exactly.  Only a non-finite entry raises numpy.linalg.LinAlgError.
    """
    m, n, b = cube.shape

    def gram(c):
        z = c.reshape(m * n, b).T
        with np.errstate(over="ignore"):
            r = z @ z.T
            return r, float(np.trace(r))

    r, tr = gram(cube)
    if np.isfinite(tr) and np.all(np.isfinite(r)) and (tr >= _GRAM_FLOOR or not np.any(cube)):
        return r, tr, 0
    top = max(float(cube.max()), -float(cube.min()))
    if not math.isfinite(top):
        raise np.linalg.LinAlgError(
            f"the {b}x{b} band Gram matrix is not finite: the cube has a non-finite entry"
        )
    f = _scale_exponent(top)
    return (*gram(np.ldexp(cube, -f)), f)


def spectral_decompose(cube, k):
    """Fit the best rank-k spectral subspace of a cube.

    Returns a SubspaceModel whose basis holds the top-k left singular
    vectors of the band-mode unfolding and whose reduced image is the
    projection onto them.  reconstruct() is then the best rank-k
    approximation of the input in Frobenius norm.

    The decomposition runs on the B x B band Gram matrix, so the cost
    stays linear in the pixel count.  _band_gram scales a cube whose Gram
    would overflow or underflow by a power of two, so its basis is the
    in-range cube's.  A non-finite entry raises ValueError.
    """
    # one C-ordered copy of another layout serves the Gram and the projection
    cube = np.ascontiguousarray(as_cube(cube))
    m, n, b = cube.shape
    k = int(k)
    if not 1 <= k <= b:
        raise ValueError(f"subspace dimension must be in [1, {b}], got {k}")
    if not _all_finite(cube):
        raise ValueError("cube has non-finite entries")

    try:
        _, evecs = np.linalg.eigh(_band_gram(cube)[0])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition of the {b}x{b} band Gram matrix failed: {exc}"
        ) from exc
    basis = _fix_column_signs(np.ascontiguousarray(evecs[:, ::-1][:, :k]))
    reduced = mode3_product(cube, basis.T)
    return SubspaceModel(basis=basis, reduced=reduced)


def estimate_band_noise(cube):
    """Estimate per-band noise sigma by multiple regression.

    Each band is regressed on all the others (ridge-regularized least
    squares); the residual standard deviation, corrected for the noise the
    predictors carry, is that band's noise level.  Returns an array of B
    non-negative sigmas.

    With Z the (B, M*N) band-mode view, R = Z Z^T, the ridge weight
    alpha = RIDGE_SCALE * tr(R) / B and Q = (R + alpha I)^-1, band i's
    residual is (Q Z)_i / Q_ii, so everything follows from Q in closed
    form: sigma_i^2 = (Q_ii / (Q^2)_ii - alpha) / (M N), clipped at 0.
    The cube is read only to form R, by _band_gram: where squaring the
    cube would overflow or underflow (entries near 1e152, or near 1e-156
    in a 32x32x16 cube), R is that of the cube scaled by 2^-f and the
    sigmas are scaled back by 2^f, which is exact, so the result is the
    in-range cube's scaled alike.  Only a non-finite entry raises
    numpy.linalg.LinAlgError.  An all-zero cube gives all-zero sigmas.

    Each regression fits B - 1 predictors on M*N samples, so it needs M*N
    well above B; with few pixels per band it reads sigma low.  On
    rank_cube(m, m, 191, 3) with sigma 30 noise the median reads 20.1 at
    m = 24 (M*N about 3B), where K is then estimated as 93, 27.6 at
    m = 48 (about 12B) and 29.4 at m = 96; through the command line, which
    normalizes the noisy cube, the 24x24 cube reads 12.9.  Pass sigma0 to
    denoise for such cubes, and k0 too: estimate_subspace_dim reads these
    sigmas.  A UserWarning says so when M*N < 10*B; the estimate is the
    same.
    """
    cube = as_cube(cube)
    m, n, b = cube.shape
    mn = m * n
    if b < 2:
        raise ValueError(f"need at least 2 bands, got {b}")
    if mn <= b:
        raise ValueError(
            f"insufficient pixels for regression: {mn} pixels, {b} bands"
        )
    if mn < 10 * b:
        warnings.warn(
            f"{mn} pixels for {b} bands, fewer than 10 per band: the band noise "
            "estimate reads low; pass sigma0 and k0 to denoise for this cube",
            stacklevel=2,
        )

    r, tr, f = _band_gram(cube)
    if tr <= 0:
        # all-zero cube regresses to itself exactly
        return np.zeros(b)

    # on the Gram divided by its mean diagonal, so that q @ q neither
    # overflows nor underflows for very large or very small cubes
    s = tr / b
    q = np.linalg.inv(r / s + RIDGE_SCALE * np.eye(b))
    q2 = np.einsum("ji,ji->i", q, q)
    return np.ldexp(np.sqrt(s * np.maximum(np.diag(q) / q2 - RIDGE_SCALE, 0.0) / mn), f)


def estimate_subspace_dim(cube, per_band_sigma):
    """Pick the spectral subspace dimension by signal/noise eigen-comparison.

    Eigenvalues of the band correlation matrix are compared against the
    noise variance projected onto each eigenvector; K counts the
    eigenvalues that clear twice their noise contribution.  Returns an
    int in [1, B].  Degenerate input (no positive eigenvalue, as from an
    all-zero cube) returns 1 with a warning.  Where _band_gram scales the
    cube by 2^-f, the sigmas are scaled with it, so K is the in-range
    cube's; only a non-finite entry raises numpy.linalg.LinAlgError.
    """
    cube = as_cube(cube)
    m, n, b = cube.shape
    sig = np.asarray(per_band_sigma, dtype=np.float64)
    if sig.shape != (b,):
        raise ValueError(f"expected {b} band sigmas, got shape {sig.shape}")
    if not np.all((sig >= 0) & (sig < np.inf)):
        raise ValueError("band sigmas must be finite and >= 0")

    ry, _, f = _band_gram(cube)
    ry /= m * n
    try:
        evals, evecs = np.linalg.eigh(ry)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition of the band correlation matrix failed: {exc}"
        ) from exc
    evals = evals[::-1]
    evecs = evecs[:, ::-1]

    if not np.all(np.isfinite(evals)) or evals[0] <= 0:
        warnings.warn("degenerate band correlation; defaulting to K=1")
        return 1

    # noise power seen along eigenvector j, on the Gram's scale
    noise_proj = (evecs * evecs).T @ np.ldexp(sig, -f) ** 2
    # relative floor keeps the decision scale-covariant and absorbs
    # numerically-zero eigenvalues of exactly low-rank input
    floor = evals[0] * 1e-12
    k = int(np.count_nonzero(evals > 2.0 * noise_proj + floor))
    return min(max(k, 1), b)


def reestimate_noise(msd, sigma0, gamma):
    """Noise level for the current iteration.

    sigma_i = gamma * sqrt(|sigma0^2 - msd|), msd the mean square of
    y_i - y over all cube entries, which the loop sums as it blends y_i.
    At iteration 1 (y_i = y, msd 0) this is gamma*sigma0.  The three are
    taken as given: denoise and DenoiseConfig check sigma0 and gamma.
    """
    return gamma * float(np.sqrt(abs(sigma0 * sigma0 - msd)))
