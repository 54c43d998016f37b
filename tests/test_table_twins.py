"""Structured rings against their twins built from the same Cayley tables.

A table twin reaches every result through the table-ring routes: the
character from its supplied exponents or from the search, the kernels
from its tables.  Weights, the weight partition, its duals and its
coefficient tables must all come out as on the structured ring; for the
searched character that is Cor. 5.4, as the weight partition is
unit-invariant.
"""

import numpy as np
import pytest

from frobring.characters import (all_generating_characters, canonical_generating_character,
                                 is_symmetric)
from frobring.duality import dual_partition, krawtchouk_table
from frobring.partitions import hom_partition
from frobring.rings import (
    TableRing,
    build_gf,
    build_matrix_ring,
    build_product,
    build_zmod,
    builtin_ring,
)
from frobring.weights import weight_table

from oracles import is_commutative_by_pairs, is_symmetric_by_pairs, table_twin

TWIN_RINGS = [
    builtin_ring("ex5_5"),
    build_matrix_ring(2, build_gf(2)),
    build_zmod(12),
    build_product([build_gf(4), build_zmod(4)]),
    build_product([build_matrix_ring(2, build_gf(2)), build_gf(2)]),
]


@pytest.mark.parametrize("exponents", [True, False], ids=["supplied", "searched"])
@pytest.mark.parametrize("ring", TWIN_RINGS, ids=lambda r: r.expr)
def test_table_twin_gives_the_same_results(ring, exponents):
    twin = table_twin(ring, exponents=exponents)
    assert isinstance(twin, TableRing)
    assert twin.describe() == ring.describe()
    # commutativity and symmetry on generators, against every pair; `ring` once
    for r in (ring, twin) if exponents else (twin,):
        assert r.is_commutative == is_commutative_by_pairs(r)
        for char in all_generating_characters(r):
            assert is_symmetric(char) == is_symmetric_by_pairs(char)
    chars = [canonical_generating_character(r) for r in (ring, twin)]
    assert chars[0].order == chars[1].order
    if exponents:
        assert np.array_equal(chars[0].exponents, chars[1].exponents)
    weights = [weight_table(r) for r in (ring, twin)]
    assert weights[0].denom == weights[1].denom
    assert np.array_equal(weights[0].num, weights[1].num)
    homs = [hom_partition(r) for r in (ring, twin)]
    assert homs[0].to_json() == homs[1].to_json()
    for side in ("left", "right"):
        duals = [dual_partition(p, c, side) for p, c in zip(homs, chars)]
        assert duals[0].to_json() == duals[1].to_json()
        tables = [krawtchouk_table(p, c, side) for p, c in zip(homs, chars)]
        assert tables[0].to_json() == tables[1].to_json()
