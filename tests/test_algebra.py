"""Structure-constant rings: frozen element indexing and differential oracles.

Galois fields and matrix rings share one F_p-algebra kernel.  The digests
below pin every table, the identity, the labels and the canonical
character to the indexing used before that kernel existed, and the
oracles recompute traces and matrix products along the routes it
replaced.
"""

import hashlib

import numpy as np
import pytest

from frobring.characters import canonical_generating_character
from frobring.rings import build_gf, build_matrix_ring, cayley_tables, validate_tables

from oracles import (frobenius_trace_oracle, matrix_product_oracle, matrix_trace_oracle,
                     table_twin)

FIELDS = {f"GF({q})": q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)}
MATRICES = {f"M({m},GF({q}))": (m, q) for m, q in ((1, 4), (2, 2), (2, 3), (2, 4), (3, 2))}

# sha256 prefixes of the add, mul and neg tables, one, the element labels
# and the canonical character exponents
FROZEN = {
    "GF(2)": "48e5089bf7e8174b",
    "GF(3)": "83ea3d16536a85b3",
    "GF(4)": "9ea018ce796b525b",
    "GF(5)": "a170a0fe55e6c270",
    "GF(7)": "b72bea0019998b4d",
    "GF(8)": "66740bca650fcdf7",
    "GF(9)": "0bf21fead2bf79f1",
    "GF(11)": "a5f38d73261905c7",
    "GF(13)": "3c9160e55acdcc91",
    "GF(16)": "2492aed97df00f3d",
    "GF(17)": "eabb6957d8720f20",
    "GF(19)": "f7f584a704005d79",
    "GF(23)": "b51f2926dec5ff85",
    "GF(25)": "af2eb4f0ba01bbbb",
    "GF(27)": "1c26ff19a7e77adc",
    "M(1,GF(4))": "64d1ee2918929a56",
    "M(2,GF(2))": "2aec60e2990981e9",
    "M(2,GF(3))": "fdd40e81e5fbfe57",
    "M(2,GF(4))": "73952fbef30c88d3",
    "M(3,GF(2))": "38fac4c408618505",
}


def _build(name):
    """Build a ring of FROZEN."""
    if name in FIELDS:
        return build_gf(FIELDS[name])
    m, q = MATRICES[name]
    return build_matrix_ring(m, build_gf(q))


def _on_route(ring, tabled):
    """The ring itself, or with ``tabled`` its table twin: the same
    arithmetic read from Cayley tables instead of the kernels."""
    return table_twin(ring) if tabled else ring


def _digest(ring, labels) -> str:
    n = ring.size
    add = np.vstack([ring.add_row(a) for a in range(n)])
    h = hashlib.sha256()
    for table in (add, np.vstack([ring.mul_row(a) for a in range(n)]),
                  np.argmax(add == 0, axis=1)):  # the negative of every element
        h.update(table.astype(np.int64).tobytes())
    h.update(str(ring.one).encode())
    h.update("\n".join(labels).encode())
    h.update(canonical_generating_character(ring).exponents.astype(np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("name", [*FIELDS, *MATRICES])
def test_indexing_is_frozen(name, tabled):
    ring = _build(name)
    assert _digest(_on_route(ring, tabled), ring.element_labels()) == FROZEN[name]


@pytest.mark.parametrize("name", [*FIELDS, *MATRICES])
def test_untabled_columns_match_table(name):
    ring = _build(name)
    cols = np.vstack([ring.mul_col(b) for b in range(ring.size)]).T
    assert np.array_equal(cols, cayley_tables(ring)[1])


@pytest.mark.parametrize("name", ["GF(16)", "GF(27)", "M(2,GF(4))"])
def test_axioms_hold_on_structure_constant_rings(name):
    ring = _build(name)
    validate_tables(*cayley_tables(ring), ring.one)


@pytest.mark.parametrize("name", FIELDS)
def test_field_trace_is_the_frobenius_sum(name):
    ring = _build(name)
    assert ring.trace_exponents.tolist() == frobenius_trace_oracle(ring)


@pytest.mark.parametrize("name", MATRICES)
def test_matrix_trace_form_is_field_trace_of_matrix_trace(name):
    ring = _build(name)
    assert ring.trace_exponents.tolist() == matrix_trace_oracle(ring)


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("name", MATRICES)
def test_matrix_mul_is_the_entrywise_product(name, tabled):
    ring = _build(name)
    route = _on_route(ring, tabled)
    if ring.size <= 81:
        pairs = [(a, b) for a in range(ring.size) for b in range(ring.size)]
    else:
        pairs = np.random.default_rng(5).integers(0, ring.size, size=(2000, 2)).tolist()
    for a, b in pairs:
        assert route.mul(a, b) == matrix_product_oracle(ring, a, b)
