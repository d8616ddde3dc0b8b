"""Shared test settings."""

from hypothesis import settings

# Property tests run the same examples on every run, with no per-example
# deadline, so they cannot flake on a slow or busy machine.
settings.register_profile("hgfq", derandomize=True, deadline=None, database=None)
settings.load_profile("hgfq")
