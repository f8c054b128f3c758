"""Hypothesis runs with a fixed seed and no deadline, so the suite is
reproducible and does not fail on a slow or loaded host."""

from hypothesis import settings

settings.register_profile("floerdisk", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("floerdisk")
