"""Shared test configuration.

The ``ci`` hypothesis profile draws the same examples on every run, so a
property-test failure in CI reproduces locally with
``pytest --hypothesis-profile=ci``.  Without the flag the default
profile draws fresh examples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
