import os
from pathlib import Path

import pytest

import scarf

# pyproject's pythonpath reaches the pytest process alone; the tests that
# run scarf in a child interpreter find it through PYTHONPATH, which every
# child inherits
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])


@pytest.fixture(scope="session")
def bound_params():
    return scarf.PotentialParams(s=2.0, a=1.0, m=1.0)


@pytest.fixture(scope="session")
def band_params():
    return scarf.PotentialParams(s=0.4, a=1.0, m=1.0)
