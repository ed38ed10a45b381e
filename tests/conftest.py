"""One hypothesis profile for every property test in the suite.

Each property draws the same examples on every run and keeps none between
runs, so a failure reproduces from the source alone; there is no deadline,
because one example can solve several spanning-tree problems.  A test sets
only its own max_examples.
"""

from hypothesis import settings

settings.register_profile("co_pipeline", derandomize=True, database=None, deadline=None)
settings.load_profile("co_pipeline")
