"""Test-wide settings: Hypothesis draws the same examples on every run, in
tier-1 and in CI alike, keeps no example database, and caches what it reads
of the source in a temporary directory, so a run writes no `.hypothesis/`
into the checkout.  The `bench_module` fixture loads a module of the
benchmark, whose plans the certificate tests build and whose tracer must
reach every layer."""

import tempfile

import pytest
from hypothesis import configuration, settings

from cli_digests import load_bench

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def bench_module():
    """`cli_digests.load_bench`, the loader of `bench/<name>.py` from its file."""
    return load_bench
