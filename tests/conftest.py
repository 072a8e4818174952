import pytest
from hypothesis import settings

from bggkit.liealg import build_chevalley
from bggkit.rootdata import cached_root_system

# Loaded here, before any test module is imported, so that every
# @settings object (which copies the profile current at its creation)
# is derandomized too and each run draws the same examples.
settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def a1():
    return build_chevalley(cached_root_system("A1"))


@pytest.fixture(scope="session")
def a2():
    return build_chevalley(cached_root_system("A2"))


@pytest.fixture(scope="session")
def b2():
    return build_chevalley(cached_root_system("B2"))


@pytest.fixture(scope="session")
def rs_a1():
    return cached_root_system("A1")


@pytest.fixture(scope="session")
def rs_a2():
    return cached_root_system("A2")


@pytest.fixture(scope="session")
def rs_b2():
    return cached_root_system("B2")
