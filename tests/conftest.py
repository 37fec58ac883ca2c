"""Fixtures shared by the test modules."""

import contextlib
import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from hsidenoise import pipeline, spatial
from hsidenoise.subspace import _gram_basis


def reference_grid(m, n, geom):
    """Top-left corners of the reference patches of an m x n image, row-major."""
    rows, cols = spatial._grid_axes(m, n, geom)
    return [(r, c) for r in rows for c in cols]


@pytest.fixture
def blas_at_three():
    """Every OpenBLAS found at three threads, a count the library never
    sets, for the test's duration; skips where none is found."""
    libs = spatial._openblas()
    if not libs:
        pytest.skip("no OpenBLAS found")
    before = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(3)
    try:
        yield [3] * len(libs)
    finally:
        for (_, set_), count in zip(libs, before):
            set_(count)


@pytest.fixture
def fresh_pools(monkeypatch):
    """An empty shrink-pool cache for the test's duration, so the test sees
    which pools its stages create; those pools are shut down after it, and
    the process's cache is put back."""
    pools = {}
    monkeypatch.setattr(spatial, "_pools", pools)
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.fixture
def pool_log(fresh_pools, monkeypatch):
    """From an empty pool cache, the (workers, pool) of each shrink pool
    created, in created, and of the pool each stage ran on, in stages."""
    log = SimpleNamespace(created=[], stages=[])
    make, stage_pool = spatial.ThreadPoolExecutor, spatial._stage_pool

    def pool(workers):
        log.created.append((workers, make(workers)))
        return log.created[-1][1]

    @contextlib.contextmanager
    def recording_stage_pool():
        with stage_pool() as (pool, workers):
            log.stages.append((workers, pool))
            yield pool, workers

    monkeypatch.setattr(spatial, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(spatial, "_stage_pool", recording_stage_pool)
    return log


@pytest.fixture
def failing_shrink(monkeypatch):
    """A function that makes spatial._shrink raise RuntimeError("shrink call
    i failed") on the calls i it is given, counted from 0 over every thread
    from then on, or on every call when given none; the other calls shrink
    as before, so a stage's job can be made to raise on any image."""
    shrink = spatial._shrink
    lock = threading.Lock()

    def fail(*calls):
        counter = itertools.count()

        def failing(b, sigma):
            with lock:
                i = next(counter)
            if not calls or i in calls:
                raise RuntimeError(f"shrink call {i} failed")
            shrink(b, sigma)

        monkeypatch.setattr(spatial, "_shrink", failing)

    return fail


@pytest.fixture
def nan_stage(monkeypatch):
    """pipeline's spatial stage replaced by one whose output holds a NaN."""

    def stage(reduced, sigma, geom, groups=None):
        out = np.array(reduced)
        out[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(pipeline, "denoise_reduced", stage)


@pytest.fixture
def nan_projection(monkeypatch):
    """pipeline's basis fit replaced by one whose basis holds a NaN, so the
    reduced image the loop projects onto it holds NaNs."""

    def fit(gram, k):
        basis = _gram_basis(gram, k)
        basis[0, 0] = np.nan
        return basis

    monkeypatch.setattr(pipeline, "_gram_basis", fit)
