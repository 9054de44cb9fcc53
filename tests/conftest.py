import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` and returns the
    tracemalloc peak it reached, in bytes, above what was traced when it
    started; the call's result is dropped."""

    def measure(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
