import pytest

import scarf


@pytest.fixture(scope="session")
def bound_params():
    return scarf.PotentialParams(s=2.0, a=1.0, m=1.0)


@pytest.fixture(scope="session")
def band_params():
    return scarf.PotentialParams(s=0.4, a=1.0, m=1.0)
