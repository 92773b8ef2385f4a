"""Shared test settings.

Property tests draw their examples from a fixed derandomized sequence, so
every run of the suite sees the same inputs, and they have no per-example
deadline, since timings vary across machines.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
