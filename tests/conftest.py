import numpy as np
import pytest

from frobring import (
    build_gf,
    build_matrix_ring,
    build_product,
    build_zmod,
)
from frobring import partitions
from frobring.rings import builtin_ring

from oracles import table_twin


@pytest.fixture(scope="session")
def z4():
    return build_zmod(4)


@pytest.fixture(scope="session")
def z6():
    return build_zmod(6)


@pytest.fixture(scope="session")
def z8():
    return build_zmod(8)


@pytest.fixture(scope="session")
def z9():
    return build_zmod(9)


@pytest.fixture(scope="session")
def z12():
    return build_zmod(12)


@pytest.fixture(scope="session")
def gf2():
    return build_gf(2)


@pytest.fixture(scope="session")
def gf3():
    return build_gf(3)


@pytest.fixture(scope="session")
def gf4():
    return build_gf(4)


@pytest.fixture(scope="session")
def gf9():
    return build_gf(9)


@pytest.fixture(scope="session")
def m2f2(gf2):
    return build_matrix_ring(2, gf2)


@pytest.fixture(scope="session")
def m2f3(gf3):
    return build_matrix_ring(2, gf3)


@pytest.fixture(scope="session")
def f2xf2(gf2):
    return build_product([gf2, gf2])


@pytest.fixture(scope="session")
def ex5_5_rings():
    """The builtin algebra ex5_5 and its twin built from the same Cayley tables."""
    ring = builtin_ring("ex5_5")
    return ring, table_twin(ring)


class _UniqueSizes:
    """numpy as ``frobring.partitions`` sees it, with ``np.unique``
    recording how many keys each call groups."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, keys, *args, **kwargs):
        self.sizes.append(len(keys))
        return np.unique(keys, *args, **kwargs)


@pytest.fixture
def unique_sizes(monkeypatch):
    """The number of keys of every ``np.unique`` call in frobring.partitions."""
    spy = _UniqueSizes()
    monkeypatch.setattr(partitions, "np", spy)
    return spy.sizes
