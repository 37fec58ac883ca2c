"""Non-local spatial step on the reduced image: reference-grid selection,
k-NN full-band patch grouping, weighted singular-value shrinkage per group,
and overlap-averaged reconstruction.  The references are spaced one patch
side apart, so they tile the image; the stage's cost follows their count
(256 on a 96x96 image at patch 6, against 576 at a spacing of 4).

denoise_reduced runs the step as array passes: matching (match_groups, whose
result a caller can pass back in to reuse the groups on another image of the
same height and width) one row of references at a time, in the image itself:
every candidate in a reference's search window gets an estimated distance,
|r|^2 + |c|^2 - 2<r, c>, from one product of the row's reference patches
with the candidate patches and from the patches' squared norms, and only the
candidates within a proven rounding margin of the group's cut get the exact
distance, summed as the offset-by-offset match summed it, and a stable sort;
then, per chunk of groups of one size from one grid row, gathering the
groups into one buffer, shrinking them there through their Gram matrices
with WNNM's weight at the image's noise level sigma, and adding them into
the bounding box of the chunk's patches with one bincount per band.  A row's
match holds at most half of _CHUNK_BYTES, and so does a chunk's buffer.  A
chunk's box is at most 2 * (window // 2) + patch rows tall and spans its
references' columns plus one window, so it follows the chunk, not the
image's width.  Beyond the output, peak memory grows with the image in one
place only: the group corners grow with the reference count.

Each entry point (denoise_reduced, match_groups, match_group and
wnnm_shrink) rejects an image or group with a NaN or infinite entry, and
works on one far from PEAK, with its sigma, scaled near PEAK by a power of
two (tensor._near_peak), which is exact: it is matched and shrunk as its
in-range copy is, and a filtered result is scaled back.  So the stage has no
scale of its own, and near PEAK no distance and no group Gram matrix
overflows, nor does a Gram matrix underflow to zero.

The calling thread matches.  The shrinkage runs on a thread pool, one worker
per core, with OpenBLAS held to one thread: a worker gathers, shrinks and
scatters one chunk of groups end to end, in one of the buffers, one per
worker, that the calling thread allocates; the calling thread adds the
returned boxes into the image in the order it submitted the chunks, so the
result does not depend on the worker count.  The process keeps one pool per
worker count: the first stage that needs it creates it, and every later one
reuses its threads, which then idle until the interpreter exits.  A process
forked after a stage, as run_experiment's workers are, creates a pool of its
own, since the pools are kept by process id.  A call waits for its own jobs
before it returns or raises, so none of them outlives it.
match_group, wnnm_shrink and aggregate run the stage's helpers (_match and
_patch_offsets, _shrink, _scatter and _average) on one reference, one group
and a list of groups, on the calling thread.
"""

import collections
import contextlib
import contextvars
import ctypes
import functools
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .tensor import _int_field, _near_peak, _noise_level, as_cube

__all__ = [
    "PatchGeometry",
    "PatchGroup",
    "match_group",
    "match_groups",
    "wnnm_shrink",
    "aggregate",
    "denoise_reduced",
]

# WNNM's weight c * sqrt(p) * sigma_i^2 / (s + eps) (Gu et al., CVPR 2014):
# each iteration's shrink threshold is _SIGMA_WEIGHT_C * sigma_i^2.  Iteration 1
# runs at sigma_1 = gamma * sigma0, where 32*sqrt(2) * sigma_1^2 is the
# 8*sqrt(2) weight at sigma0 for the default gamma of 0.5.
_SIGMA_WEIGHT_C = 32.0 * math.sqrt(2.0)

# the weight's eps, relative to the group's largest singular value, so the
# shrink has no scale of its own
_WEIGHT_EPS = 1e-16

# float64 bytes of the match working set of a row of references and of the
# buffer of a chunk of groups of one size from one grid row, each at most
# half of it.  The calling thread matches a row a run of references at a
# time: their estimates and patches, then the candidate patches of their
# search windows a piece at a time, then the exact distances of their
# shortlist a piece at a time.  On a default
# denoise of a 96x96x64 scene (2 cores), giving a row's match half of
# _CHUNK_BYTES, not all of it, kept the peak RSS at 64.5 MB against 66.5 MB
# at no cost in time; a quarter was no faster.  Up to workers + 1 chunks of
# groups are in flight, but only a running one holds a buffer (its gathered
# groups, shrunk in place), so this bounds the stage's peak memory, with the
# box sums that running and finished chunks return.  It must not depend on
# the worker count: the chunks decide how the scatter sums are grouped.
# Group buffers of 1 MiB halved the in-flight memory of that scene's default
# denoise at level time (medians 2.09 s, 2.11 s with 2 MiB); 512 KiB made it
# 22% slower (2.57 s), from the overhead per chunk: one K = 25 group fills
# one.
# Building a 96x96x64 scene after a denoise takes about 0.02 s with 2 or
# 8 MiB chunks (2 cores), so the page faults that 4 MiB chunks once caused
# in the caller's next arrays do not show at this size.
_CHUNK_BYTES = 2 << 20

# columns of one group that _shrink multiplies by W W^T at a time: whole
# groups up to K = 28 at patch 6, and a temporary of at most 573 KB at
# p = 70 beyond, where one group fills a chunk's buffer.  On the spatial
# stage of a 96x96 image at K = 5, 7, 11, 17 and 25 (two workers, 2 cores),
# whole groups took the time of an out-of-place product into a second
# buffer, and slabs of 128 or 512 columns 4% more, for the same traced
# peak; slabs of the whole chunk peaked higher at K = 5, where a 128-column
# slab of a 10-group chunk is 0.7 MB against the chunk's 1 MB buffer.  At
# K = 64 (48x48, one worker) whole groups peaked 0.43 MiB above slabs of
# this width.
_SHRINK_SLAB = 1024


@dataclass(frozen=True, kw_only=True)
class PatchGeometry:
    """Patch matching parameters, given by keyword.

    patch: square patch side, which is also the spacing of the reference
    patches, so the reference grid tiles the image; window: search window
    side, centered on the reference: it reaches window // 2 corners each
    way, so 30 and 31 both search 31 x 31; group: number of similar patches
    kept per reference.
    """

    patch: int = 6
    window: int = 30
    group: int = 70

    def __post_init__(self):
        if _int_field("patch", self.patch) < 1:
            raise ValueError(f"patch size must be >= 1, got {self.patch}")
        if _int_field("window", self.window) < self.patch:
            raise ValueError(
                f"search window ({self.window}) smaller than patch ({self.patch})"
            )
        if _int_field("group", self.group) < 1:
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


def _axis_grid(dim, patch):
    last = dim - patch
    idx = list(range(0, last + 1, patch))
    if idx[-1] != last:
        idx.append(last)
    return idx


def _grid_axes(m, n, geom):
    if geom.patch > m or geom.patch > n:
        raise ValueError(
            f"patch size {geom.patch} exceeds image dims ({m}, {n})"
        )
    return _axis_grid(m, geom.patch), _axis_grid(n, geom.patch)


# Margin of the match's shortlist.  A candidate's distance to a reference is
# first estimated as |r|^2 + |c|^2 - 2<r, c>.  With u = 2^-53, d entries per
# patch and N = |r|^2 + |c|^2: a sum of d products in any order, BLAS's
# included, errs by at most gamma_d = d*u / (1 - d*u) times the sum of their
# magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
# plus t = 2^-1022 per term where a product or a partial sum falls below the
# normal range, even if it is flushed to 0.  So each squared norm errs by at
# most gamma_d |r|^2 + d*t, and the cross term by gamma_d <|r|, |c|> + d*t,
# at most gamma_d N/2 + d*t; the sum and the difference that form the
# estimate add 3u N.  The exact distance adds d non-negative terms, each a
# rounded square of a rounded difference, so it errs by at most
# gamma_{d+2} |r - c|^2 + d*t <= 2 gamma_{d+2} N + d*t.  An estimate and its
# exact distance thus differ by at most (4d + 7)u N + 4d*t to first order.
# Half the margin exceeds that by 9u N and twice over in the absolute term,
# which covers the rounding of N and of the threshold.
def _shortlist_margin(d, energy):
    """Twice the largest gap between the estimated and the exact distance of
    two patches of d entries whose squared norms add up to at most energy."""
    return (d + 4) * 2.0**-50 * energy + d * 2.0**-1018


def _patch_view(image, ps):
    """(M - ps + 1, N - ps + 1, ps, ps*K) view of the patches of a C-ordered
    (M, N, K) image: row i of patch (y, x) is image[y + i, x : x + ps], one
    run of ps*K entries."""
    m, n, k = image.shape
    windows = np.lib.stride_tricks.sliding_window_view(image.reshape(m, n * k), (ps, ps * k))
    return windows[:, ::k]


def _patch_norms(image, ps):
    """Squared norms of the patches of an (M, N, K) image, shape
    (M - ps + 1, N - ps + 1): per-pixel band energies summed over the patch
    rows, then over its columns."""
    m, n, _ = image.shape
    energy = np.einsum("ijk,ijk->ij", image, image)
    rows = energy[: m - ps + 1].copy()
    for i in range(1, ps):
        rows += energy[i : i + m - ps + 1]
    norms = rows[:, : n - ps + 1].copy()
    for j in range(1, ps):
        norms += rows[:, j : j + n - ps + 1]
    return norms


def _estimate(patches, norms, refs, ref_norms, top, bottom, lo, hi, budget):
    """Estimated distances from the references, one patch vector per row of
    refs, to the candidates of their search windows: est[j, y - top, x - lo[j]]
    for rows top <= y < bottom and columns lo[j] <= x < hi[j].

    The candidate columns are cut into strips at most a window wide, and
    each strip into pieces of as many window rows as budget bytes allow, or
    into pieces of one row when a row alone exceeds it.  The cross terms of
    a piece come from one product of its candidate patches with the
    references whose windows meet it.  On a 96-pixel-wide image, strips a
    window wide form 46% fewer products than one strip as wide as the image
    and took a third less time to match at K = 5 and 25 (one thread)."""
    nref, d = refs.shape
    est = np.empty((nref, bottom - top, int((hi - lo).max())))
    span = int(min(hi[-1] - lo[0], est.shape[2]))
    per_piece = max(1, budget // (8 * (d + 2 * nref)))
    step_y, step_x = (per_piece // span, span) if per_piece >= span else (1, per_piece)
    for y0 in range(top, bottom, step_y):
        y1 = min(y0 + step_y, bottom)
        for x0 in range(lo[0], hi[-1], step_x):
            x1 = min(x0 + step_x, hi[-1])
            j0, j1 = np.searchsorted(hi, x0, "right"), np.searchsorted(lo, x1, "left")
            cand = np.ascontiguousarray(patches[y0:y1, x0:x1]).reshape(-1, d)
            cross = refs[j0:j1] @ cand.T
            del cand
            cross *= 2.0
            piece = np.add.outer(ref_norms[j0:j1], norms[y0:y1, x0:x1].ravel())
            piece -= cross
            piece = piece.reshape(j1 - j0, y1 - y0, x1 - x0)
            for j in range(j0, j1):
                a, b = max(x0, lo[j]), min(x1, hi[j])
                est[j, y0 - top : y1 - top, a - lo[j] : b - lo[j]] = piece[j - j0, :, a - x0 : b - x0]
    return est


def _shortlist(est, widths, sizes, margins, ref_flat):
    """(owner, flat) of the shortlisted candidates, row-major: reference
    owner's candidate at flat index flat of est[owner] (_estimate), whose
    first widths[owner] columns are its window.  A reference shortlists
    itself, at ref_flat, and every candidate whose estimate is at most its
    sizes-th smallest one plus its margin.  The estimates of an image near
    PEAK are finite, so the threshold is too."""
    nref, ny, wmax = est.shape
    inside = np.broadcast_to((np.arange(wmax) < widths[:, None])[:, None], est.shape)
    est = np.where(inside, est, np.inf).reshape(nref, -1)
    kth = sizes - 1
    # a sorted list, not np.unique, which imports numpy.ma on first use
    least = np.partition(est, sorted(set(kth.tolist())), axis=1)
    threshold = np.take_along_axis(least, kth[:, None], axis=1)[:, 0] + margins
    keep = est <= threshold[:, None]
    keep[np.arange(nref), ref_flat] = True
    return np.nonzero(keep)


def _exact_distances(patches, refs, owner, ys, xs, step):
    """Squared distances from the patches at (ys, xs) of a _patch_view to
    the references refs[owner], one patch vector in its order per row of
    refs, added up as the offset-by-offset match did: per pixel over the
    bands in order, by the same einsum on band-first differences, then over
    the patch rows, then over its columns, each in order.  step candidates
    at a time."""
    ps = patches.shape[2]
    k = patches.shape[3] // ps
    dist = np.empty(len(ys))
    for lo in range(0, len(ys), step):
        hi = min(lo + step, len(ys))
        cand = patches[ys[lo:hi], xs[lo:hi]].reshape(hi - lo, -1)
        # one subtraction per run of one reference's candidates
        cuts = [lo, *(lo + 1 + np.flatnonzero(np.diff(owner[lo:hi]))), hi]
        for a, b in zip(cuts, cuts[1:]):
            cand[a - lo : b - lo] -= refs[owner[a]]
        diff = np.empty((k, hi - lo, ps, ps))
        np.copyto(diff, cand.reshape(hi - lo, ps, ps, k).transpose(3, 0, 1, 2))
        del cand
        diff = diff.reshape(k, -1, ps)
        sq = np.einsum("kij,kij->ij", diff, diff).reshape(hi - lo, ps, ps)
        del diff
        box = sq[:, 0].copy()
        for i in range(1, ps):
            box += sq[:, i]
        out = dist[lo:hi]
        out[:] = box[:, 0]
        for j in range(1, ps):
            out += box[:, j]
    return dist


def _match_refs(patches, norms, r, cols, top, bottom, lo, hi, sizes, geom, out):
    """Write into out the flat corners y*N + x of the candidates of the
    references at row r and columns cols of the N pixels wide image whose
    _patch_view is patches, nearest first, the reference itself first of
    all; norms are the patches' squared norms.  Reference j's group is its
    sizes[j] nearest in rows top to bottom - 1, columns lo[j] to hi[j] - 1.

    The distance of every in-window candidate is estimated (_estimate) and
    a shortlist drawn from the estimates (_shortlist), both under
    np.errstate(all="ignore"): on an image near PEAK no estimate overflows,
    but the products of its smallest entries can underflow, which a
    caller's errstate must not turn into an error.  An estimate lies within
    half the margin (_shortlist_margin) of its exact distance, so a
    reference's shortlist holds every candidate that can rank among the
    sizes nearest, ties included.  Only the shortlist gets its exact distance (_exact_distances)
    and a stable sort, in row-major candidate order, so ties keep that
    order.  When a window holds fewer in-image candidates than out is wide,
    its corners that leave the image follow them in row-major window order.
    """
    h = geom.window // 2
    w = 2 * h + 1
    ps, d = patches.shape[2], patches.shape[2] * patches.shape[3]
    n = patches.shape[1] + ps - 1
    width = out.shape[1]
    widths = hi - lo
    refs = patches[r, cols].reshape(len(cols), d)
    # the pieces' share of half of _CHUNK_BYTES; the shortlist's bookkeeping,
    # five numbers per candidate, later takes the estimates' place
    room = _CHUNK_BYTES // 2 - 8 * len(cols) * (d + (bottom - top) * w)
    with np.errstate(all="ignore"):
        ref_norms = norms[r, cols]
        est = _estimate(patches, norms, refs, ref_norms, top, bottom, lo, hi, room)
        margins = _shortlist_margin(d, ref_norms + norms[top:bottom].max())
        wmax = est.shape[2]
        ref_flat = (r - top) * wmax + cols - lo
        owner, flat = _shortlist(est, widths, sizes, margins, ref_flat)
        del est
    ys, xs = top + flat // wmax, lo[owner] + flat % wmax
    step = max(1, room // (8 * (2 * d + 2 * ps * ps)))
    dist = _exact_distances(patches, refs, owner, ys, xs, step)
    # the reference sorts first of all
    dist[flat == ref_flat[owner]] = -np.inf
    order = np.lexsort((dist, owner))
    ranks = np.arange(width) < sizes[:, None]
    best = order[(np.searchsorted(owner, np.arange(len(cols)))[:, None] + np.arange(width))[ranks]]
    out[ranks] = ys[best] * n + xs[best]
    for j in np.flatnonzero(sizes < width):
        y, x = np.ogrid[r - h : r + h + 1, cols[j] - h : cols[j] + h + 1]
        outside = (y < top) | (y >= bottom) | (x < lo[j]) | (x >= hi[j])
        out[j, sizes[j] :] = (y * n + x)[outside][: width - sizes[j]]


def _match(reduced, rows, cols, geom):
    """Group members of the references rows x cols of a C-ordered image,
    row-major.

    Returns (corners, sizes): corners[i] lists flat corners r*N + c of
    reference i's candidates, nearest first, and its first sizes[i] entries
    are the group.

    A candidate's exact distance is its squared difference from the
    reference, summed over the bands, then over the patch rows and columns.
    Every term is non-negative, so exact duplicates score exactly 0.
    Candidates tie in row-major order.
    The calling thread matches the references row by row, a run of columns
    at a time (_match_refs, which writes their corners in place), so that
    their estimates and patches take at most a quarter of _CHUNK_BYTES
    however wide the image, and the pieces of candidate patches and of
    shortlist differences the rest of half of it.  Each run reads the image
    in place, and the patches' squared norms, formed once here.
    """
    m, n, k = reduced.shape
    ps, h = geom.patch, geom.window // 2
    w = 2 * h + 1
    d = ps * ps * k
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    patches = _patch_view(reduced, ps)
    with np.errstate(all="ignore"):
        norms = _patch_norms(reduced, ps)
    corners = np.empty((len(rows), len(cols), min(geom.group, w * w)), dtype=np.int64)
    # each window's in-image corners: rows top to bottom - 1, columns lo to hi - 1
    top, bottom = np.maximum(rows - h, 0), np.minimum(rows + h + 1, m - ps + 1)
    lo, hi = np.maximum(cols - h, 0), np.minimum(cols + h + 1, n - ps + 1)
    sizes = np.minimum(geom.group, (bottom - top)[:, None] * (hi - lo))
    for i, r in enumerate(rows):
        step = max(1, _CHUNK_BYTES // 4 // (8 * (d + (bottom[i] - top[i]) * w)))
        for j in range(0, len(cols), step):
            run = slice(j, j + step)
            _match_refs(patches, norms, r, cols[run], top[i], bottom[i], lo[run], hi[run],
                        sizes[i, run], geom, corners[i, run])
    return corners.reshape(-1, corners.shape[2]), sizes.ravel()


def _patch_offsets(ps, n):
    """Flat offsets of a patch's pixels from its corner in an image N pixels
    wide, in (row, col) order."""
    return (np.arange(ps)[:, None] * n + np.arange(ps)).ravel()


def _scatter(corners, n, ps, values):
    """(box, sums) of the patches values (..., p, ps*ps, k) at the flat
    corners r*N + c (..., p) of a C-ordered (M, N, k) cube, N = n: box is
    the (rows, cols) pair of slices of the patches' bounding box, and
    sums[y, x, j] adds up, in entry order, the band-j values at pixel
    (box rows start + y, box cols start + x), by one bincount per band over
    the box's pixels.  sums is a (rows, cols, k) view of band-major sums,
    which each band's bincount writes in one piece."""
    k = values.shape[-1]
    r, c = np.divmod(corners, n)
    top, left = int(r.min()), int(c.min())
    height, width = int(r.max()) + ps - top, int(c.max()) + ps - left
    pix = (((r - top) * width + c - left)[..., None] + _patch_offsets(ps, width)).ravel()
    values = values.reshape(-1, k)
    sums = np.empty((k, height * width))
    for j in range(k):
        sums[j] = np.bincount(pix, values[:, j], height * width)
    box = slice(top, top + height), slice(left, left + width)
    return box, sums.reshape(k, height, width).transpose(1, 2, 0)


def match_group(reduced, ref, geom):
    """Group the patches most similar to the reference patch.

    Candidates are all patch positions whose top-left corner lies within
    half a search window of the reference corner (clipped to the image).
    Similarity is squared Euclidean distance over all patch entries and
    bands; ties break in row-major position order.  The reference itself
    is always member 0.  If the window holds fewer than geom.group
    candidates, all of them are taken.  The group is matched as match_groups
    matches it, on the image scaled near PEAK, and its matrix holds the
    patches of reduced as given.  The one reference is matched on the
    calling thread: no pool is made and BLAS's thread count is not touched.
    """
    reduced = np.ascontiguousarray(as_cube(reduced, "reduced"))
    scaled, _, _ = _near_peak(reduced, "reduced")
    m, n, k = reduced.shape
    ps = geom.patch
    r0, c0 = int(ref[0]), int(ref[1])
    if not (0 <= r0 <= m - ps and 0 <= c0 <= n - ps):
        raise ValueError(f"reference {ref} out of bounds for {m}x{n} image")
    corners, sizes = _match(scaled, [r0], [c0], geom)
    members = corners[0, : sizes[0]]
    pix = members[:, None] + _patch_offsets(ps, n)
    patches = reduced.reshape(m * n, k)[pix].reshape(len(members), -1)
    return PatchGroup(
        ref_pos=(r0, c0),
        members=np.stack(np.divmod(members, n), axis=1),
        matrix=np.ascontiguousarray(patches.T),
    )


def _shrink(b, sigma):
    """Weighted singular-value shrinkage, in place, of a stack of group
    matrices given transposed as b, shape (G, p, d), one vectorized patch
    per row; sigma = 0 leaves b as it is.  Each singular value s becomes
    max(s - c*sqrt(p) / (s_clean + eps*s_max), 0), with threshold
    c = _SIGMA_WEIGHT_C * sigma^2, eps = _WEIGHT_EPS,
    s_clean = sqrt(max(s^2 - p*sigma^2, 0)) and s_max the group's largest:
    scaling b and sigma by t scales the result by t.  The callers scale b
    and sigma near PEAK first (tensor._near_peak), where the Gram matrices
    and their eigenvalues neither overflow nor underflow to zero.

    With b = V S U^T, the p x p Gram matrix b b^T = V S^2 V^T gives V and S
    by one batched eigh, and V S_new U^T = W W^T b with
    W = V diag(sqrt(S_new / S)).  Squaring loses accuracy only in singular
    values far below the threshold (s^2 under about c*sqrt(p)), which are
    zeroed either way.  W W^T b is written back into b one group, and at
    most _SHRINK_SLAB columns, at a time, so the product's temporary is at
    most one group, not a second stack.
    """
    if sigma == 0:
        return
    p, d = b.shape[1:]
    gram = b @ b.transpose(0, 2, 1)
    lam, v = np.linalg.eigh(gram)
    # at most two (G, p, p) arrays at a time: the Gram goes here, and
    # V diag(ratio) V^T is formed as W W^T, W = V diag(sqrt(ratio)) in v
    del gram
    lam = np.maximum(lam, 0.0)
    s = np.sqrt(lam)
    s_clean = np.sqrt(np.maximum(lam - p * sigma * sigma, 0.0))
    c = _SIGMA_WEIGHT_C * sigma * sigma
    # eigh sorts s ascending; a zero singular value gets weight 0 and stays 0
    weight = c * math.sqrt(p) / np.where(s > 0.0, s_clean + _WEIGHT_EPS * s[:, -1:], np.inf)
    ratio = np.divide(np.maximum(s - weight, 0.0), s, out=np.zeros_like(s), where=s > 0.0)
    v *= np.sqrt(ratio)[:, None, :]
    w = v @ v.transpose(0, 2, 1)
    del v
    for wg, bg in zip(w, b):
        for lo in range(0, d, _SHRINK_SLAB):
            slab = bg[:, lo : lo + _SHRINK_SLAB]
            slab[...] = wg @ slab


def wnnm_shrink(g, sigma):
    """Weighted singular-value shrinkage of one group matrix.

    Decompose the group, estimate the clean singular values by subtracting
    the expected noise energy, weight each inversely to that estimate, and
    soft-threshold: strong components are barely touched while weak
    (noise-dominated) ones collapse, as denoise_reduced does each group.
    sigma is the noise level of g's entries and sets the threshold,
    WNNM's 32*sqrt(2) * sigma^2; sigma = 0 returns a copy of g.  g and
    sigma far from PEAK are shrunk scaled near it by a power of two, and
    the result is scaled back, so scaling g and sigma by 2^j scales the
    result by 2^j exactly.  A NaN or infinite entry of g raises ValueError.
    """
    g = np.array(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a 2-d group matrix, got shape {g.shape}")
    g, sigma, e = _near_peak(g, "g", _noise_level("sigma", sigma))
    _shrink(g.T[None], sigma)
    if e:
        np.ldexp(g, e, out=g)
    return g


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


# The shrink pools, one per (process id, worker count), kept for the
# process's life: a pool made and shut down by each stage started every
# stage's chunks on cold threads, about 2.4 ms a stage of a 32x32x32 denoise
# on 2 cores.  The process id keeps a forked child off the threads it did not
# inherit.
_pools = {}
_pools_lock = threading.Lock()


@contextlib.contextmanager
def _stage_pool():
    """Yield (pool, workers): the process's thread pool of one worker per
    core, with OpenBLAS held to one thread, or of one worker when no
    OpenBLAS is found.  The pool is created on the first call for this
    process and worker count and kept for later ones: it is not shut down
    on exit, so the caller waits for its own jobs before it leaves."""
    with _one_blas_thread() as held:
        workers = _workers() if held else 1
        key = os.getpid(), workers
        with _pools_lock:
            pool = _pools.get(key)
            if pool is None:
                pool = _pools[key] = ThreadPoolExecutor(workers)
        yield pool, workers


def _submit(pool, fn, *args):
    # each job runs in a copy of the caller's context, which holds numpy's
    # floating-point error settings
    return pool.submit(contextvars.copy_context().run, fn, *args)


def _shrink_chunk(image, members, ps, sigma, free):
    """Gather, shrink and scatter one chunk of groups of a C-ordered
    (M, N, k) image, in a buffer taken from the queue free.

    members (G, p) holds each group's flat corners r*N + c of patches ps
    pixels on a side.  The groups go to the front of the buffer as a
    (G, p, d) stack, d = ps*ps*k in (row, col, band) order, are shrunk
    there, and _scatter's (box, sums) of them is returned.  The buffer goes
    back to free when the job ends, also when it raises: a job that kept it
    would leave a later job waiting for it.
    """
    m, n, k = image.shape
    buffer = free.get()
    try:
        pix = members[..., None] + _patch_offsets(ps, n)
        groups = buffer[: pix.size * k].reshape(pix.shape + (k,))
        # mode="raise" would gather through a temporary copy of the buffer
        np.take(image.reshape(m * n, k), pix, axis=0, out=groups, mode="clip")
        del pix
        _shrink(groups.reshape(members.shape + (-1,)), sigma)
        return _scatter(members, n, ps, groups)
    finally:
        free.put(buffer)


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
    """The overlap average acc / cnt as an (m, n, k) cube, divided in place
    in acc's memory."""
    cnt = cnt.reshape(m, n)
    if not np.all(cnt):
        gaps = np.argwhere(cnt == 0)
        raise ValueError(
            f"coverage gap: {len(gaps)} pixels covered by no patch, "
            f"first at {tuple(gaps[0])}"
        )
    acc = acc.reshape(m, n, k)
    acc /= cnt[:, :, None]
    return acc


def aggregate(groups_out, dims):
    """Average the denoised groups back into a cube.

    Each group matrix is un-vectorized to its member patches, which are
    scatter-added into sum and count buffers; the output is sum/count.
    Groups are processed in canonical order (reference position,
    row-major) so the result does not depend on the order the caller
    produced them in.  A pixel covered by no patch raises an error.
    """
    m, n, k = (int(d) for d in dims)
    acc = np.zeros((m, n, k))
    cnt = np.zeros((m, n, 1))
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
        if not len(members):
            continue  # covers nothing
        corners = members @ [n, 1]
        box, sums = _scatter(corners, n, ps, np.ones((len(corners), ps * ps, 1)))
        cnt[box] += sums
        box, sums = _scatter(corners, n, ps, mat.T.reshape(len(corners), ps * ps, k))
        acc[box] += sums
    return _average(acc, cnt, m, n, k)


def match_groups(reduced, geom):
    """Group members of every reference of the grid, as denoise_reduced
    matches them.

    Returns (corners, sizes), one row per reference in row-major grid
    order: corners[i] lists flat corners r*N + c of reference i's
    candidates, nearest first and the reference itself first of all, and
    its first sizes[i] entries are the group.  Members are pixel positions,
    so the pair can be passed as denoise_reduced's groups for another image
    of the same height and width.  An image far from PEAK is matched scaled
    near it by a power of two, which changes no group.  The references are
    matched on the calling thread: no pool is made and BLAS's thread count
    is not touched.
    """
    reduced, _, _ = _near_peak(np.ascontiguousarray(as_cube(reduced, "reduced")), "reduced")
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


def denoise_reduced(reduced, sigma, geom, groups=None):
    """Full spatial pass over the reduced image.

    Matches a group for every reference of the grid (or takes groups, a
    match_groups result for an image of the same height and width), then,
    in chunks of references of one grid row and one group size, gathers
    each chunk's groups as one (G, p, d) stack, shrinks it in place as
    wnnm_shrink does each group at noise level sigma, and scatter-adds it
    into the overlap average.
    When the larger of sigma and reduced's largest magnitude lies far from
    PEAK (outside PEAK * 2^+-16), the stage runs on reduced and sigma
    scaled near PEAK by a power of two (tensor._near_peak) and scales its
    result back, so scaling reduced and sigma by any power of two scales
    the result by the same, bit for bit.  With sigma = 0 this is the
    identity up to overlap-averaging roundoff.  A NaN or infinite entry of
    reduced raises ValueError.

    The calling thread matches.  Then the process's pool of one thread per
    core shrinks while OpenBLAS is held to one thread; with no OpenBLAS
    found the pool has one thread.  The first call in a process creates the
    pool and later calls reuse it (_stage_pool).  The calling
    thread allocates one buffer per worker, as large as the largest chunk's
    stack.  A worker gathers, shrinks and scatters one chunk into the
    bounding box of its patches, in a buffer it takes for the job; at most
    workers + 1 chunks are in flight, and a queued one holds only its
    members.  The calling thread adds the boxes into the image in the order
    it submitted the chunks, so the output is the same bit for bit for any
    number of threads.  When a job raises, the call cancels its queued
    chunks and waits for its running ones before it re-raises: no job of
    the call outlives it, every buffer is back, and the pool serves the
    next call.
    """
    _noise_level("sigma", sigma)
    reduced = np.ascontiguousarray(as_cube(reduced, "reduced"))
    reduced, sigma, e = _near_peak(reduced, "reduced", sigma)
    m, n, k = reduced.shape
    ps = geom.patch
    if groups is None:
        corners, sizes = _match(reduced, *_grid_axes(m, n, geom), geom)
    else:
        corners, sizes = _check_groups(groups, m, n, geom)
    d = ps * ps * k
    # Groups clipped by the image edge can be smaller than geom.group; each
    # size is its own batch, so no group is cut or padded.  A chunk holds
    # references of one grid row, so that its box follows the chunk and not
    # the image's width; each row's run is cut into near-equal chunks.
    chunks = []
    ref_row = corners[:, 0] // n
    for p in sorted(set(sizes.tolist())):
        refs = np.flatnonzero(sizes == p)
        step = max(1, _CHUNK_BYTES // 2 // (d * p * 8))
        for run in np.split(refs, np.flatnonzero(np.diff(ref_row[refs])) + 1):
            chunks += [(p, c) for c in np.array_split(run, -(-len(run) // step))]
    # after the match, whose peak it would add to
    acc = np.zeros((m, n, k))
    pending = collections.deque()

    def scatter(limit):
        while len(pending) > limit:
            box, sums = pending.popleft().result()
            acc[box] += sums

    with _stage_pool() as (pool, workers):
        # One buffer per worker that can have a chunk, each as large as the
        # largest chunk's groups: at most workers jobs run at once, and each
        # holds one buffer from its start to the end of its scatter, so no
        # job waits for one.  The buffers are allocated here, not in the
        # workers: there they came from glibc's per-thread heaps, and a
        # 96x96x64 denoise's peak RSS rose 8%.
        free = queue.SimpleQueue()
        largest = max(len(refs) * p for p, refs in chunks) * d
        for _ in range(min(workers, len(chunks))):
            free.put(np.empty(largest))
        try:
            for p, refs in chunks:
                members = corners[refs, :p]
                pending.append(_submit(pool, _shrink_chunk, reduced, members, ps, sigma, free))
                scatter(workers)
            scatter(0)
        except BaseException:
            # the pool outlives the call, so its jobs must not
            for job in pending:
                job.cancel()
            wait(pending)
            raise
    out = _average(acc, _coverage(corners, sizes, m, n, ps), m, n, k)
    return np.ldexp(out, e, out=out) if e else out
