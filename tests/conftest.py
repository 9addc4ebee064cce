from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # Any warning in the package's tests is an error, so that a divide or
    # invalid-value RuntimeWarning of the array kernels fails the suite.  The
    # hook sees every collected item, so it marks only those under tests/.
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
