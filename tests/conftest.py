import numpy as np
import pytest

from weaklp import fields


@pytest.fixture(scope="session")
def cat():
    return fields.catalogue()


@pytest.fixture(scope="session")
def bump1(cat):
    return cat["bump1"]


@pytest.fixture(scope="session")
def bump2(cat):
    return cat["bump2"]


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from a constant and its node id:
    a test draws the same data whatever ran before it."""
    return np.random.default_rng([20240229, *request.node.nodeid.encode()])
