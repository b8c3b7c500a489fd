"""Shared test settings.

The ``ci`` hypothesis profile draws the same examples on every run, so a
CI failure reproduces locally with ``--hypothesis-profile=ci``. Without
the flag the default (randomized) profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
