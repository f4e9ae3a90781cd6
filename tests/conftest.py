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


SKIP_RULE = "the tier-1 suite stays green with 0 skips (ROADMAP)"


def _fail_skip(report):
    """Turn a skipped test or module into a failure that names SKIP_RULE;
    a skip's longrepr is (path, line, reason)."""
    if report.skipped and not hasattr(report, "wasxfail"):
        path, line, reason = report.longrepr
        report.outcome = "failed"
        report.longrepr = f"{path}:{line + 1}: {reason}, but {SKIP_RULE}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    _fail_skip((yield).get_result())


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    _fail_skip((yield).get_result())


@pytest.fixture(scope="session")
def bound_params():
    return scarf.PotentialParams(s=2.0, a=1.0, m=1.0)


@pytest.fixture(scope="session")
def band_params():
    return scarf.PotentialParams(s=0.4, a=1.0, m=1.0)
