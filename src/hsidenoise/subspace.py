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


def _gram_basis(gram, k):
    """The (B, k) basis of a B x B band Gram matrix's top k eigenvectors,
    largest eigenvalue first, each column signed by _fix_column_signs.
    The basis does not depend on the matrix's scale, so the Gram of a cube
    that _band_gram scaled serves as the cube's own."""
    b = gram.shape[0]
    try:
        _, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition of the {b}x{b} band Gram matrix failed: {exc}"
        ) from exc
    return _fix_column_signs(np.ascontiguousarray(evecs[:, ::-1][:, :k]))


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

    basis = _gram_basis(_band_gram(cube)[0], k)
    reduced = mode3_product(cube, basis.T)
    return SubspaceModel(basis=basis, reduced=reduced)


def estimate_band_noise(cube):
    """Estimate per-band noise sigma by multiple regression.

    Each band is regressed on all the others (ridge-regularized least
    squares).  The residual's mean square over its degrees of freedom,
    M*N - B + 1 for B - 1 predictors, is the band's noise variance plus
    the noise the predictors carry through the coefficients beta, about
    sigma^2 ||beta||^2.  The fitted ||beta||^2 overstates that by the
    coefficients' own sampling variance, v tr((X X^T)^-1) for residual
    variance v and predictors X, so sigma_i^2 = v / (1 + max(||beta||^2 -
    v tr((X X^T)^-1), 0)).  On pure noise the fitted beta is all sampling
    variance and sigma_i^2 = v.  Returns an array of B non-negative sigmas.

    With Z the (B, M*N) band-mode view, R = Z Z^T, s = tr(R)/B, the ridge
    weight alpha = RIDGE_SCALE and Q = (R/s + alpha I)^-1, band i's
    residual is (Q Z)_i / Q_ii, so everything follows from Q in closed
    form: the residual's squared norm is s (Q_ii - alpha (Q^2)_ii) / Q_ii^2,
    the ridge's own term taken off; ||beta||^2 = (Q^2)_ii / Q_ii^2 - 1; and
    tr((X X^T + alpha s I)^-1) = (tr(Q) - (Q^2)_ii / Q_ii) / s.
    The cube is read only to form R, by _band_gram: where squaring the
    cube would overflow or underflow (entries near 1e152, or near 1e-156
    in a 32x32x16 cube), R is that of the cube scaled by 2^-f and the
    sigmas are scaled back by 2^f, which is exact, so the result is the
    in-range cube's scaled alike.  Only a non-finite entry raises
    numpy.linalg.LinAlgError.  An all-zero cube gives all-zero sigmas.
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

    r, tr, f = _band_gram(cube)
    if tr <= 0:
        # all-zero cube regresses to itself exactly
        return np.zeros(b)

    # on the Gram divided by its mean diagonal, so that q @ q neither
    # overflows nor underflows for very large or very small cubes
    s = tr / b
    q = np.linalg.inv(r / s + RIDGE_SCALE * np.eye(b))
    q2 = np.einsum("ji,ji->i", q, q)
    qd = np.diag(q)
    # residual variance and ||beta||^2 less its sampling part, on R/s
    v = np.maximum(qd - RIDGE_SCALE * q2, 0.0) / (qd * qd) / (mn - b + 1)
    carried = np.maximum(q2 / (qd * qd) - 1.0 - v * (np.trace(q) - q2 / qd), 0.0)
    return np.ldexp(np.sqrt(s * v / (1.0 + carried)), f)


def estimate_subspace_dim(cube, per_band_sigma):
    """Pick the spectral subspace dimension by signal/noise eigen-comparison.

    Eigenvalues of the band correlation matrix are compared against the
    noise variance projected onto each eigenvector; K counts the
    eigenvalues past the Marchenko-Pastur noise edge, (1 + sqrt(B/(M N)))^2
    times their noise contribution: white noise alone ends there, and a
    component strong enough to be detected at all shows beyond it (Baik,
    Ben Arous & Peche 2005).  Returns an int in [1, B].  Degenerate input
    (no positive eigenvalue, as from an all-zero cube) returns 1 with a
    warning.  Where _band_gram scales the cube by 2^-f, the sigmas are
    scaled with it, so K is the in-range cube's; only a non-finite entry
    raises numpy.linalg.LinAlgError.
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
    edge = (1.0 + math.sqrt(b / (m * n))) ** 2
    k = int(np.count_nonzero(evals > edge * noise_proj + floor))
    return min(max(k, 1), b)


def reestimate_noise(msd, sigma0, gamma):
    """Noise level for the current iteration.

    sigma_i = gamma * sqrt(|sigma0^2 - msd|), msd the mean square of
    y_i - y over all cube entries, which the loop sums as it rebuilds y_i.
    At iteration 1 (y_i = y, msd 0) this is gamma*sigma0.  The three are
    taken as given: denoise and DenoiseConfig check sigma0 and gamma.
    """
    return gamma * float(np.sqrt(abs(sigma0 * sigma0 - msd)))
