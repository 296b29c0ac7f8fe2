"""One hypothesis profile for every property test: derandomized, so a run
is reproducible, with no deadline (first calls build field tables) and no
example database.  Tests set only their own max_examples."""

from hypothesis import settings

settings.register_profile("agcyclic", derandomize=True, deadline=None, database=None)
settings.load_profile("agcyclic")
