"""Shared pytest set-up: one hypothesis profile for every property test.

Properties run derandomized and without an example database, so the same
examples run on every machine and Tier-1 results are reproducible; no
deadline, because dense linear algebra timings vary with the BLAS build.
Each test still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("dcmerge", derandomize=True, database=None, deadline=None)
settings.load_profile("dcmerge")
