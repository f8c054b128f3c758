"""Hypothesis runs with a fixed seed and no deadline, so the suite is
reproducible and does not fail on a slow or loaded host.  Every test starts
with an empty factorisation memo, so none depends on what an earlier test
left in it."""

import pytest
from hypothesis import settings

import floerdisk.abelian as abelian

settings.register_profile("floerdisk", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("floerdisk")


@pytest.fixture(autouse=True)
def empty_factor_memo():
    abelian._factor.cache_clear()
