"""Session setup shared by the test modules."""

import pytest
from hypothesis import configuration


@pytest.hookimpl(trylast=True)  # after pytest's own configure makes its temp-path factory
def pytest_configure(config):
    # Hypothesis caches each module's constants under its home directory when
    # the collected tests are sorted, even without an example database; keep
    # that in pytest's temporary directory, out of the checkout
    configuration.set_hypothesis_home_dir(config._tmp_path_factory.mktemp("hypothesis"))
