import random

import pytest

from pairid.algebra import transparent_suite
from pairid.tate import tate_suite


@pytest.fixture
def t11():
    return transparent_suite(11)


@pytest.fixture
def t101():
    return transparent_suite(101)


@pytest.fixture
def t1009():
    return transparent_suite(1009)


# curve suites are session-scoped: each is built (generator search and validate()) once per run
@pytest.fixture(scope="session")
def c59():
    return tate_suite(59)


@pytest.fixture(scope="session")
def c83():
    return tate_suite(83)


@pytest.fixture(scope="session")
def c523():
    return tate_suite(523)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
