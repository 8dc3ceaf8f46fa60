"""Suite-wide settings: every hypothesis test draws the same examples on
every run, so a run of the suite is reproducible."""

from hypothesis import settings

# derandomize seeds each @given test's examples from the test itself; with no
# example database, no earlier run's failures are replayed into a later one.
# Each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
