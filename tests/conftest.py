"""Shared test settings.

Every Hypothesis test runs derandomized and without a deadline: the same
examples on every run, and no flaky failures from slow examples. A test
sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("snowdim", deadline=None, derandomize=True)
settings.load_profile("snowdim")
