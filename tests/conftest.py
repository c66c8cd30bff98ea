from contextlib import contextmanager
import tracemalloc

import numpy as np
import pytest

from wellscape import make_grid
import wellscape.grid as grid_module


@pytest.fixture
def grid64():
    return make_grid(1.0, 64, 64)


@pytest.fixture
def grid128():
    return make_grid(1.0, 128, 128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn) -> (fn(), the tracemalloc peak in bytes during the call).

    Call fn once untraced first where a first call builds cached tables."""
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def strip_rows():
    """strip_rows(rows, ny): a context in which a strip of a grid with ny
    columns holds `rows` rows, so that small grids are cut into several."""
    @contextmanager
    def patched(rows, ny):
        saved = grid_module._STRIP_BYTES
        grid_module._strip_windows.cache_clear()
        grid_module._STRIP_BYTES = 8 * ny * rows
        try:
            yield
        finally:
            grid_module._STRIP_BYTES = saved
            grid_module._strip_windows.cache_clear()
    return patched
