"""Global spectral low-rank step: orthogonal basis fitting, noise and
subspace-dimension estimation from the data itself, and the per-iteration
noise re-estimate that drives the spatial stage.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import as_cube, fold3, mode3_product, unfold3

__all__ = [
    "SubspaceModel",
    "NoiseModel",
    "spectral_decompose",
    "estimate_band_noise",
    "estimate_subspace_dim",
    "reestimate_noise",
]

# ridge weight for the band regressions, relative to mean band energy
RIDGE_SCALE = 1e-6
# pixels per block when forming the band-regression residuals
_PIXEL_BLOCK = 4096


@dataclass
class SubspaceModel:
    """Orthonormal spectral basis plus the image projected onto it.

    basis: (B, K) with orthonormal columns; reduced: (M, N, K) cube equal to
    the input projected by basis.T along the band mode.
    """

    basis: np.ndarray
    reduced: np.ndarray

    @property
    def k(self):
        return self.basis.shape[1]

    def reconstruct(self):
        """Lift the reduced image back to B bands: reduced x3 basis."""
        return mode3_product(self.reduced, self.basis)


@dataclass
class NoiseModel:
    """Observation noise on the nominal intensity scale.

    sigma0_sq is the initial variance; gamma scales the per-iteration
    estimate made by reestimate_noise.
    """

    sigma0_sq: float
    gamma: float = 0.5

    def __post_init__(self):
        if self.sigma0_sq < 0:
            raise ValueError(f"sigma0_sq must be >= 0, got {self.sigma0_sq}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")

    @property
    def sigma0(self):
        return float(np.sqrt(self.sigma0_sq))


def _fix_column_signs(basis):
    # make the largest-magnitude entry of each column positive so the basis
    # is deterministic across LAPACK drivers
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def spectral_decompose(cube, k):
    """Fit the best rank-k spectral subspace of a cube.

    Returns a SubspaceModel whose basis holds the top-k left singular
    vectors of the band-mode unfolding and whose reduced image is the
    projection onto them.  reconstruct() is then the best rank-k
    approximation of the input in Frobenius norm.

    The decomposition runs on the B x B band Gram matrix whenever B <= M*N,
    so the cost stays linear in the pixel count.
    """
    cube = as_cube(cube)
    m, n, b = cube.shape
    k = int(k)
    if not 1 <= k <= b:
        raise ValueError(f"subspace dimension must be in [1, {b}], got {k}")
    if not np.all(np.isfinite(cube)):
        raise ValueError("cube has non-finite entries")

    z = unfold3(cube)
    if b <= m * n:
        gram = z @ z.T
        try:
            evals, evecs = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"eigendecomposition of the {b}x{b} band Gram matrix failed: {exc}"
            ) from exc
        basis = evecs[:, ::-1][:, :k]
    else:
        try:
            u, _, _ = np.linalg.svd(z, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"SVD of the {b}x{m * n} unfolding failed: {exc}"
            ) from exc
        basis = u[:, :k]

    basis = _fix_column_signs(np.ascontiguousarray(basis))
    reduced = fold3(basis.T @ z, (m, n))
    return SubspaceModel(basis=basis, reduced=reduced)


def estimate_band_noise(cube):
    """Estimate per-band noise sigma by multiple regression.

    Each band is regressed on all the others (ridge-regularized least
    squares); the residual standard deviation is that band's noise level.
    Returns an array of B non-negative sigmas.
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

    z = unfold3(cube)
    r = z @ z.T
    tr = float(np.trace(r))
    if tr <= 0:
        # all-zero cube regresses to itself exactly
        return np.zeros(b)

    alpha = RIDGE_SCALE * tr / b
    q = np.linalg.inv(r + alpha * np.eye(b))
    # leave-one-out ridge in closed form: regressing band i on the others
    # gives coefficients -q[:, i] / q[i, i], with band i itself left out
    beta = q / -np.diag(q)
    np.fill_diagonal(beta, 0.0)
    # residuals z - beta.T @ z, a block of pixels at a time so the
    # temporary stays small next to the unfolding
    ssq = np.zeros(b)
    for j in range(0, mn, _PIXEL_BLOCK):
        zj = z[:, j : j + _PIXEL_BLOCK]
        w = beta.T @ zj
        np.subtract(zj, w, out=w)
        ssq += np.einsum("ij,ij->i", w, w)
    # the predictors carry noise too: Var(w) = sigma^2 (1 + |beta|^2)
    return np.sqrt(ssq / mn / (1.0 + np.einsum("ji,ji->i", beta, beta)))


def estimate_subspace_dim(cube, per_band_sigma):
    """Pick the spectral subspace dimension by signal/noise eigen-comparison.

    Eigenvalues of the band correlation matrix are compared against the
    noise variance projected onto each eigenvector; K counts the
    eigenvalues that clear twice their noise contribution.  Returns an
    int in [1, B].  Degenerate input (no positive eigenvalue) returns 1
    with a warning.
    """
    cube = as_cube(cube)
    m, n, b = cube.shape
    sig = np.asarray(per_band_sigma, dtype=np.float64)
    if sig.shape != (b,):
        raise ValueError(f"expected {b} band sigmas, got shape {sig.shape}")

    z = unfold3(cube)
    ry = z @ z.T / (m * n)
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

    # noise power seen along eigenvector j
    noise_proj = (evecs * evecs).T @ (sig * sig)
    # relative floor keeps the decision scale-covariant and absorbs
    # numerically-zero eigenvalues of exactly low-rank input
    floor = evals[0] * 1e-12
    k = int(np.count_nonzero(evals > 2.0 * noise_proj + floor))
    return min(max(k, 1), b)


def reestimate_noise(y_i, y, noise):
    """Noise level for the current iteration.

    sigma_i = gamma * sqrt(|sigma0^2 - mean((y_i - y)^2)|), the mean taken
    over all cube entries.  At iteration 1 (y_i = y) this is gamma*sigma0.
    """
    y_i = as_cube(y_i, "y_i")
    y = as_cube(y, "y")
    if y_i.shape != y.shape:
        raise ValueError(f"shape mismatch: {y_i.shape} vs {y.shape}")
    msd = float(np.mean((y_i - y) ** 2))
    return noise.gamma * float(np.sqrt(abs(noise.sigma0_sq - msd)))
