"""Non-local spatial step on the reduced image: reference-grid selection,
k-NN full-band patch grouping, weighted singular-value shrinkage per group,
and overlap-averaged reconstruction.

denoise_reduced runs the step as three array passes over chunks of
references: matching one search-window offset at a time (match_groups, whose
result a caller can pass back in to reuse the groups on another image of the
same height and width), shrinking a stack of groups through their Gram
matrices with one threshold on the image's own scale, and one scatter-add per
chunk.  Each chunk holds at most _CHUNK_BYTES of float64 work, so peak memory
does not grow with the image.  The shrinkage of the chunks runs on a thread
pool, one worker per core, with OpenBLAS held to one thread; the calling
thread gathers and scatters the chunks in order, so the result does not
depend on the worker count.  match_group, wnnm_shrink and aggregate are the
same passes applied to one reference, one group and a list of groups.
"""

import collections
import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensor import PEAK, as_cube

__all__ = [
    "PatchGeometry",
    "PatchGroup",
    "reference_grid",
    "match_group",
    "match_groups",
    "wnnm_shrink",
    "aggregate",
    "denoise_reduced",
    "DEFAULT_WNNM_C",
    "DEFAULT_WNNM_EPS",
]

DEFAULT_WNNM_C = 2.0 * math.sqrt(2.0)
DEFAULT_WNNM_EPS = 1e-16

# float64 bytes per chunk: the match distances of a block of reference rows,
# and the group matrices of a chunk of references.  Up to workers + 1 chunks
# are in flight, each with its gathered groups, its result and its indices,
# so this bounds the stage's peak memory.  It must not depend on the worker
# count: the chunks decide how the scatter sums are grouped.  Building a
# 96x96x64 scene after a denoise takes about 0.02 s with 2 or 8 MiB chunks
# (2 cores), so the page faults that 4 MiB chunks once caused in the
# caller's next arrays do not show at this size.
_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class PatchGeometry:
    """Patch matching parameters.

    patch: square patch side; stride: spacing of reference patches;
    window: search window side, centered on the reference; group: number
    of similar patches kept per reference.
    """

    patch: int = 6
    stride: int = 4
    window: int = 30
    group: int = 70

    def __post_init__(self):
        if self.patch < 1:
            raise ValueError(f"patch size must be >= 1, got {self.patch}")
        if not 1 <= self.stride <= self.patch:
            raise ValueError(
                f"stride must be in [1, patch={self.patch}], got {self.stride}"
            )
        if self.window < self.patch:
            raise ValueError(
                f"search window ({self.window}) smaller than patch ({self.patch})"
            )
        if self.group < 1:
            raise ValueError(f"group size must be >= 1, got {self.group}")


@dataclass
class PatchGroup:
    """One reference patch's nearest neighbors from the reduced image.

    members lists (row, col) top-left positions, reference first; matrix
    has one vectorized full-band patch per column, in member order.
    """

    ref_pos: tuple
    members: np.ndarray  # (p, 2) int positions
    matrix: np.ndarray  # (patch*patch*K, p)


def _axis_grid(dim, patch, stride):
    last = dim - patch
    idx = list(range(0, last + 1, stride))
    if idx[-1] != last:
        idx.append(last)
    return idx


def _grid_axes(m, n, geom):
    if geom.patch > m or geom.patch > n:
        raise ValueError(
            f"patch size {geom.patch} exceeds image dims ({m}, {n})"
        )
    return _axis_grid(m, geom.patch, geom.stride), _axis_grid(n, geom.patch, geom.stride)


def reference_grid(m, n, geom):
    """Top-left corners of the reference patches, row-major.

    Stride-spaced grid with the last row/column clamped to the image edge
    so every pixel falls inside at least one reference patch.
    """
    rows, cols = _grid_axes(m, n, geom)
    return [(r, c) for r in rows for c in cols]


def _window_sums(x, starts, size, axis):
    """Sums of size consecutive entries of x along axis, from each start."""
    out = np.take(x, starts, axis=axis)
    for i in range(1, size):
        out += np.take(x, starts + i, axis=axis)
    return out


def _match(reduced, rows, cols, geom):
    """Group members of the references rows x cols, row-major.

    Returns (corners, sizes): corners[i] lists flat corners r*N + c of
    reference i's candidates, nearest first, and its first sizes[i] entries
    are the group.

    Distances are formed one search-window offset (dr, dc) at a time: the
    squared difference between the image and its shift, summed over bands,
    then over the patch rows at the reference rows and the patch columns at
    the reference columns.  Every term is non-negative, so exact duplicates
    score exactly 0.  Offsets are laid out row-major, so a stable sort keeps
    ties in row-major candidate order.
    """
    m, n, _ = reduced.shape
    ps, h = geom.patch, geom.window // 2
    w = 2 * h + 1
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    shifts = np.arange(-h, h + 1)
    ok_r = (rows[:, None] + shifts >= 0) & (rows[:, None] + shifts <= m - ps)
    ok_c = (cols[:, None] + shifts >= 0) & (cols[:, None] + shifts <= n - ps)
    image = np.ascontiguousarray(reduced.transpose(2, 0, 1))
    padded = np.pad(image, ((0, 0), (h, h), (h, h)))
    keep = min(geom.group, w * w)
    order = np.empty((len(rows), len(cols), keep), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * len(cols) * w * w))
    for lo in range(0, len(rows), step):
        blk = rows[lo : lo + step]
        top, bottom = blk[0], blk[-1] + ps
        ref = image[:, top:bottom]
        diff = np.empty_like(ref)
        sq = np.empty((w, bottom - top, n))
        dist = np.empty((len(blk), len(cols), w, w))
        for a in range(w):
            band = padded[:, top + a : bottom + a]
            for b in range(w):
                np.subtract(band[:, :, b : b + n], ref, out=diff)
                np.einsum("kij,kij->ij", diff, diff, out=sq[b])
            box = _window_sums(sq, blk - top, ps, axis=1)
            dist[:, :, a, :] = _window_sums(box, cols, ps, axis=2).transpose(1, 2, 0)
        # Out-of-image candidates get NaN, which sorts after the +inf an
        # overflowing in-image distance can reach; the reference sorts first.
        dist[~(ok_r[lo : lo + step, None, :, None] & ok_c[None, :, None, :])] = np.nan
        dist[:, :, h, h] = -np.inf
        flat = dist.reshape(len(blk), len(cols), w * w)
        order[lo : lo + step] = np.argsort(flat, axis=2, kind="stable")[..., :keep]
    dr, dc = np.divmod(order, w)
    corners = (rows[:, None, None] + dr - h) * n + (cols[None, :, None] + dc - h)
    sizes = np.minimum(geom.group, ok_r.sum(axis=1)[:, None] * ok_c.sum(axis=1))
    return corners.reshape(-1, keep), sizes.ravel()


def _patch_index(corners, ps, n, k):
    """Flat indices into a C-ordered (M, N, k) cube of the patches at the
    given flat corners r*N + c: shape (..., p) -> (..., ps*ps*k, p), one
    vectorized patch per column, rows in (row, col, band) order."""
    i = np.arange(ps)
    offsets = ((i[:, None] * n + i)[:, :, None] * k + np.arange(k)).ravel()
    return corners[..., None, :] * k + offsets[:, None]


def match_group(reduced, ref, geom):
    """Group the patches most similar to the reference patch.

    Candidates are all patch positions whose top-left corner lies within
    half a search window of the reference corner (clipped to the image).
    Similarity is squared Euclidean distance over all patch entries and
    bands; ties break in row-major position order.  The reference itself
    is always member 0.  If the window holds fewer than geom.group
    candidates, all of them are taken.
    """
    reduced = np.ascontiguousarray(as_cube(reduced, "reduced"))
    m, n, k = reduced.shape
    ps = geom.patch
    r0, c0 = int(ref[0]), int(ref[1])
    if not (0 <= r0 <= m - ps and 0 <= c0 <= n - ps):
        raise ValueError(f"reference {ref} out of bounds for {m}x{n} image")
    corners, sizes = _match(reduced, [r0], [c0], geom)
    members = corners[0, : sizes[0]]
    return PatchGroup(
        ref_pos=(r0, c0),
        members=np.stack(np.divmod(members, n), axis=1),
        matrix=reduced.ravel()[_patch_index(members, ps, n, k)],
    )


def _check_shrink_args(sigma, c, eps):
    # written so that NaN, which fails every comparison, fails each check
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    # a negative c amplifies the weak components instead of shrinking them
    if not 0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _shrink(a, sigma, c, eps, out=None):
    """Weighted singular-value shrinkage of a stack of group matrices a,
    shape (G, d, p); the result goes to out when given (a new array
    otherwise) and is returned.  sigma = 0 returns a itself.  Each singular
    value s becomes max(s - c*sqrt(p) / (s_clean + eps*s_max), 0), with
    s_clean = sqrt(max(s^2 - p*sigma^2, 0)) and s_max the group's largest:
    scaling a and sigma by t and c by t^2 scales the result by t.

    With a = U S V^T, the p x p Gram matrix a^T a = V S^2 V^T gives V and S
    by one batched eigh, and U S_new V^T = a V diag(S_new / S) V^T.
    Squaring loses accuracy only in singular values far below the
    threshold (s^2 under about c*sqrt(p)), which are zeroed either way.
    """
    if sigma == 0:
        return a
    d, p = a.shape[1:]
    at = a.transpose(0, 2, 1)
    gram = at @ a
    if not np.all(np.isfinite(gram)):
        raise np.linalg.LinAlgError(
            f"Gram matrix of a {d}x{p} group matrix overflowed"
        )
    lam, v = np.linalg.eigh(gram)
    lam = np.maximum(lam, 0.0)
    s = np.sqrt(lam)
    s_clean = np.sqrt(np.maximum(lam - p * sigma * sigma, 0.0))
    # eigh sorts s ascending; a zero singular value gets weight 0 and stays 0
    weight = c * math.sqrt(p) / np.where(s > 0.0, s_clean + eps * s[:, -1:], np.inf)
    ratio = np.divide(np.maximum(s - weight, 0.0), s, out=np.zeros_like(s), where=s > 0.0)
    return np.matmul(a, (v * ratio[:, None, :]) @ v.transpose(0, 2, 1), out=out)


def wnnm_shrink(g, sigma, c=DEFAULT_WNNM_C, eps=DEFAULT_WNNM_EPS):
    """Weighted singular-value shrinkage of one group matrix.

    Decompose the group, estimate the clean singular values by subtracting
    the expected noise energy, weight each inversely to that estimate, and
    soft-threshold: strong components are barely touched while weak
    (noise-dominated) ones collapse, as denoise_reduced does each group.
    The threshold c is on the scale of g squared (WNNM's c*sigma^2 is one
    choice), eps is relative to the largest singular value, and sigma = 0
    returns a copy of g.
    """
    g = np.array(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a 2-d group matrix, got shape {g.shape}")
    _check_shrink_args(sigma, c, eps)
    return _shrink(g[None], sigma, c, eps)[0]


def _workers():
    """Shrinkage threads: one per core this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.lru_cache(maxsize=None)
def _thread_count_functions(path):
    """(get, set) thread-count functions of the OpenBLAS at path, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
        try:
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _openblas():
    """(get, set) thread-count function pairs of every OpenBLAS mapped into
    this process, numpy's among them; empty where none is found, as on a
    platform without /proc/self/maps."""
    try:
        with open("/proc/self/maps") as maps:
            parts = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = dict.fromkeys(
        f[5] for f in parts if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
    )
    return tuple(fns for fns in map(_thread_count_functions, paths) if fns)


# OpenBLAS's thread count is process-wide, so the hold is too: concurrent
# and nested holds share one, and the last one out restores the counts.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = ()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS found to one thread while the block runs, and
    yield whether one was found.  Worker threads that each call BLAS would
    otherwise compete with OpenBLAS's own threads for the cores."""
    global _blas_holders, _blas_saved
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = tuple((set_, get()) for get, set_ in _openblas())
            for set_, _ in _blas_saved:
                set_(1)
        _blas_holders += 1
        found = bool(_blas_saved)
    try:
        yield found
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_, count in _blas_saved:
                    set_(count)


def _add_at(buf, idx, weights=None):
    """buf[idx] += weights (1 when None), repeated indices summed: one
    bincount over the span of idx."""
    lo = int(idx.min())
    span = int(idx.max()) + 1 - lo
    if weights is not None:
        weights = weights.ravel()
    buf[lo : lo + span] += np.bincount((idx - lo).ravel(), weights, span)


def _coverage(corners, sizes, m, n, ps):
    """Patches covering each pixel of an m x n image, over the first
    sizes[i] flat corners of each row of corners: the count of each corner,
    added at the ps * ps offsets of a patch.  The counts are exact integers,
    so they do not depend on the order of the adds."""
    used = corners[np.arange(corners.shape[1]) < sizes[:, None]]
    at = np.bincount(used, minlength=m * n).reshape(m, n)[: m - ps + 1, : n - ps + 1]
    cnt = np.zeros((m, n))
    for i in range(ps):
        for j in range(ps):
            cnt[i : i + m - ps + 1, j : j + n - ps + 1] += at
    return cnt


def _average(acc, cnt, m, n, k):
    cnt = cnt.reshape(m, n)
    if not np.all(cnt):
        gaps = np.argwhere(cnt == 0)
        raise ValueError(
            f"coverage gap: {len(gaps)} pixels covered by no patch, "
            f"first at {tuple(gaps[0])}"
        )
    return acc.reshape(m, n, k) / cnt[:, :, None]


def aggregate(groups_out, dims):
    """Average the denoised groups back into a cube.

    Each group matrix is un-vectorized to its member patches, which are
    scatter-added into sum and count buffers; the output is sum/count.
    Groups are processed in canonical order (reference position,
    row-major) so the result does not depend on the order the caller
    produced them in.  A pixel covered by no patch raises an error.
    """
    m, n, k = (int(d) for d in dims)
    idx, vals, pix = [], [], []
    for grp, mat in sorted(groups_out, key=lambda item: item[0].ref_pos):
        mat = np.asarray(mat, dtype=np.float64)
        members = np.asarray(grp.members, dtype=np.int64).reshape(-1, 2)
        ps = math.isqrt(mat.shape[0] // k)
        if ps * ps * k != mat.shape[0] or mat.shape[1:] != (len(members),):
            raise ValueError(
                f"group matrix shape {mat.shape} inconsistent with "
                f"{len(members)} members and {k} bands"
            )
        if np.any(members < 0) or np.any(members > [m - ps, n - ps]):
            raise ValueError(f"group members outside the {m}x{n} image")
        corners = members[:, 0] * n + members[:, 1]
        idx.append(_patch_index(corners, ps, n, k).ravel())
        vals.append(mat.ravel())
        pix.append(_patch_index(corners, ps, n, 1).ravel())

    acc = np.zeros(m * n * k)
    cnt = np.zeros(m * n)
    if idx:
        _add_at(acc, np.concatenate(idx), np.concatenate(vals))
        _add_at(cnt, np.concatenate(pix))
    return _average(acc, cnt, m, n, k)


def match_groups(reduced, geom):
    """Group members of every reference of the grid, as denoise_reduced
    matches them.

    Returns (corners, sizes), one row per reference in row-major grid
    order: corners[i] lists flat corners r*N + c of reference i's
    candidates, nearest first and the reference itself first of all, and
    its first sizes[i] entries are the group.  Members are pixel positions,
    so the pair can be passed as denoise_reduced's groups for another image
    of the same height and width.
    """
    reduced = as_cube(reduced, "reduced")
    m, n, _ = reduced.shape
    return _match(reduced, *_grid_axes(m, n, geom), geom)


def _check_groups(groups, m, n, geom):
    """(corners, sizes) as int64 arrays, if they are match_groups' result for
    an m x n image under geom; a ValueError otherwise, since flat corners
    from an image of another width address other pixels."""
    corners, sizes = (np.asarray(a) for a in groups)
    rows, cols = _grid_axes(m, n, geom)
    refs = (np.asarray(rows)[:, None] * n + np.asarray(cols)).ravel()
    if corners.ndim != 2 or corners.shape[0] != refs.size or sizes.shape != (refs.size,):
        raise ValueError(
            f"groups of shape {corners.shape} with {sizes.size} sizes do not "
            f"fit the {refs.size} references of a {m}x{n} image"
        )
    if corners.dtype.kind not in "iu" or sizes.dtype.kind not in "iu":
        raise ValueError("group corners and sizes must be integers")
    # unsigned corners plus the int64 patch offsets would promote to float64
    corners, sizes = (a.astype(np.int64, copy=False) for a in (corners, sizes))
    if np.any(sizes < 1) or np.any(sizes > min(geom.group, corners.shape[1])):
        raise ValueError(
            f"group sizes must be in [1, {min(geom.group, corners.shape[1])}]"
        )
    r, c = np.divmod(corners, n)
    inside = (corners >= 0) & (r <= m - geom.patch) & (c <= n - geom.patch)
    used = np.arange(corners.shape[1]) < sizes[:, None]
    if not np.all(inside | ~used) or not np.array_equal(corners[:, 0], refs):
        raise ValueError(
            f"group corners do not fit a {m}x{n} image with patch "
            f"{geom.patch}: groups must come from match_groups on an image "
            "of the same height and width"
        )
    return corners, sizes


def denoise_reduced(
    reduced,
    sigma,
    geom,
    c=DEFAULT_WNNM_C * PEAK**2,
    eps=DEFAULT_WNNM_EPS,
    groups=None,
):
    """Full spatial pass over the reduced image.

    Matches a group for every reference of the grid (or takes groups, a
    match_groups result for an image of the same height and width), then,
    in chunks of references with equal group size, gathers the groups as
    one (G, d, p) stack, shrinks it as wnnm_shrink does each group, and
    scatter-adds it into the overlap average.  c is on the scale of reduced
    squared: the default is DEFAULT_WNNM_C on the [0, 1] scale of [0, PEAK].
    With sigma = 0 this is the identity up to overlap-averaging roundoff.

    The stacks are shrunk on a pool of one thread per core, created and
    closed within the call, while OpenBLAS is held to one thread; with no
    OpenBLAS found the pool has one thread.  The calling thread gathers each
    stack and scatters the results in the order it gathered them, so the
    output is the same bit for bit for any number of threads.
    """
    reduced = np.ascontiguousarray(as_cube(reduced, "reduced"))
    _check_shrink_args(sigma, c, eps)
    m, n, k = reduced.shape
    ps = geom.patch
    if groups is None:
        corners, sizes = match_groups(reduced, geom)
    else:
        corners, sizes = _check_groups(groups, m, n, geom)
    flat = reduced.ravel()
    acc = np.zeros(flat.size)
    pending = collections.deque()

    def scatter(limit):
        while len(pending) > limit:
            idx, job = pending.popleft()
            _add_at(acc, idx, job.result())

    with _one_blas_thread() as held:
        workers = _workers() if held else 1
        pool = ThreadPoolExecutor(workers)
        try:
            # Groups clipped by the image edge can be smaller than
            # geom.group; each size is its own batch, so no group is cut or
            # padded.  The arrays are allocated here, not in the workers:
            # there they came from glibc's per-thread heaps, and a 96x96x64
            # denoise's peak RSS rose 8%.
            for p in np.unique(sizes):
                refs = np.flatnonzero(sizes == p)
                step = max(1, _CHUNK_BYTES // (ps * ps * k * p * 8))
                for lo in range(0, len(refs), step):
                    members = corners[refs[lo : lo + step], :p]
                    idx = _patch_index(members, ps, n, k)
                    a = flat[idx]
                    # each job runs in a copy of the caller's context, which
                    # holds numpy's floating-point error settings
                    job = pool.submit(
                        contextvars.copy_context().run,
                        _shrink, a, sigma, c, eps, np.empty_like(a),
                    )
                    pending.append((idx, job))
                    scatter(workers)
            scatter(0)
        finally:
            pool.shutdown(cancel_futures=True)
    return _average(acc, _coverage(corners, sizes, m, n, ps), m, n, k)
