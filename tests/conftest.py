"""Shared test configuration.

The ``ci`` hypothesis profile draws the same examples on every run, so a
property-test failure in CI reproduces locally with
``pytest --hypothesis-profile=ci``.  Without the flag the default
profile draws fresh examples.

The ``traced_peak`` fixture runs a call under tracemalloc and returns its
result with the peak of the memory traced during it, in bytes.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture
def traced_peak():
    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
