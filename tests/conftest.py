"""Fixtures shared by the test modules."""

import pytest

from hsidenoise import spatial


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
