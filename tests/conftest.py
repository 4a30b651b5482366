"""Test-wide settings: Hypothesis draws the same examples on every run, in
tier-1 and in CI alike, keeps no example database, and caches what it reads
of the source in a temporary directory, so a run writes no `.hypothesis/`
into the checkout.  The `bench_module` fixture loads a module of the
benchmark, whose plans the census tests must match and whose tracer must
reach every layer."""

import importlib.util
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def bench_module():
    """A loader of `bench/<name>.py` from its file: `bench/` is no package."""
    def load(name):
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
