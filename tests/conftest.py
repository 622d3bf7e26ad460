from __future__ import annotations

import pytest
from hypothesis import settings

from lorentzqrf.states import RapidityGrid

# property tests draw few examples, from a fixed seed, and are not timed, so
# the suite gives the same result on every run however loaded the machine is
settings.register_profile("lorentzqrf", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("lorentzqrf")


@pytest.fixture(scope="session")
def grid() -> RapidityGrid:
    return RapidityGrid.default()
