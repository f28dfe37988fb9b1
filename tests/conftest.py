"""Shared configuration for the tier-1 suite.

Hypothesis runs derandomized by default: every property test draws the
same examples on every run, so tier-1 passes or fails the same way each
time.  ``HYPOTHESIS_PROFILE=explore`` selects a randomized profile; the
CI ``property-explore`` job runs the property tests with it so new
counterexamples still surface — pin each one as an ``@example`` on its
test.
"""

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
