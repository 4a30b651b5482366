"""Test-wide settings: Hypothesis draws the same examples on every run, in
tier-1 and in CI alike, keeps no example database, and caches what it reads
of the source in a temporary directory, so a run writes no `.hypothesis/`
into the checkout."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)
