"""The image rows of the unit-orbit index against one kernel call per
representative.

The discovery pass of ``FiniteRing.orbit_index`` keeps the image row
a*r (left) or r*a (right) of every representative r, and the radical,
the socles, the Frobenius test, the generating test, the unit sums, the
orbit ideals and the invariant Krawtchouk tables read those rows instead
of imaging r again.  Each is compared here with the per-representative
route kept in ``oracles.py``, on every ring of the differential corpus
up to 4096 elements and on both sides.
"""

import tracemalloc

import numpy as np
import pytest

from frobring import duality, weights
from frobring.characters import (canonical_generating_character, is_generating,
                                 restrictions, translate)
from frobring.cli import _non_frobenius_ring
from frobring.partitions import hom_partition
from frobring.rings import build_gf, build_matrix_ring, build_product

from oracles import (
    is_generating_by_orbits,
    krawtchouk_coeffs_by_orbit_columns,
    orbit_ideals_by_kernel,
    ring_id,
    structure_by_orbit_scan,
    table_twin,
    unit_sums_by_orbits,
)
from test_duality import _division_corpus

CORPUS = _division_corpus()
# rings with no generating character, for the structure routes
NON_FROBENIUS = [_non_frobenius_ring(), table_twin(_non_frobenius_ring(), exponents=False),
                 build_product([_non_frobenius_ring(), build_gf(3)])]


@pytest.mark.parametrize("ring", CORPUS + NON_FROBENIUS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_orbit_images_are_the_kernel_rows(ring, side):
    """Every leaf keeps one row per representative, in the narrowest
    unsigned dtype, read-only, and a commutative leaf keeps one index for
    both sides; a product keeps no rows."""
    for leaf in ring.leaves:
        index = leaf.orbit_index(side)
        assert (index is leaf.orbit_index("left")) == (side == "left" or leaf.is_commutative)
        kernel = leaf.mul_col if side == "left" else leaf.mul_row
        assert index.images.dtype == np.min_scalar_type(leaf.size - 1)
        assert not index.images.flags.writeable
        assert np.array_equal(index.images, [kernel(r) for r in index.reps.tolist()])
        assert np.array_equal(index.rep_of, index.reps[index.orbit_of])
    if len(ring.leaves) > 1:
        assert ring.orbit_index(side).images is None
        assert np.array_equal(ring.orbit_index(side).rep_of,
                              ring.orbit_index(side).reps[ring.orbit_index(side).orbit_of])


@pytest.mark.parametrize("ring", CORPUS + NON_FROBENIUS, ids=ring_id)
def test_structure_matches_the_per_representative_scan(ring):
    radical, soc_l, soc_r, frobenius = structure_by_orbit_scan(ring)
    assert ring.radical.tolist() == radical.tolist()
    assert tuple(ring.socle_members("left").tolist()) == soc_l
    assert tuple(ring.socle_members("right").tolist()) == soc_r
    assert ring.is_frobenius == frobenius == (ring not in NON_FROBENIUS)


@pytest.mark.parametrize("ring", CORPUS + NON_FROBENIUS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_orbit_ideals_match_the_per_representative_masks(ring, side):
    for leaf in ring.leaves:
        masks, first = weights._orbit_ideals(leaf, side)
        expected_masks, expected_first = orbit_ideals_by_kernel(leaf, side)
        assert np.array_equal(masks, expected_masks)
        assert np.array_equal(first, expected_first)


def _characters(ring):
    """The canonical character, a left and a right unit translate, and
    translates by nonzero non-units, which are not generating."""
    char = canonical_generating_character(ring)
    units = ring.units.tolist()
    out = [char, translate(char, units[len(units) // 2], "left"),
           translate(char, units[-1], "right")]
    is_unit = np.isin(np.arange(ring.size), ring.units)
    for side in ("left", "right"):
        reps = ring.orbit_index(side).reps
        out += [translate(char, r, side) for r in reps[~is_unit[reps]][1:3].tolist()]
    return out


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_generating_test_matches_the_per_representative_search(ring):
    chars = _characters(ring)
    verdicts = [is_generating(char) for char in chars]
    assert verdicts == [is_generating_by_orbits(char) for char in chars]
    assert verdicts[:3] == [True] * 3
    # the restrictions of a product are tested on their leaves' own rows
    for char in chars:
        for part in restrictions(char):
            assert is_generating(part) == is_generating_by_orbits(part)


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_sums_and_invariant_tables_match_the_per_representative_routes(ring, side):
    chars = [c for c in _characters(ring) if is_generating(c)]
    for char in chars:
        assert np.array_equal(weights._unit_sums(ring, char, side),
                              unit_sums_by_orbits(ring, char, side))
    hom = hom_partition(ring, chars[0])
    table = duality.krawtchouk_table(hom, chars[0], side)
    assert np.array_equal(table.widen(table.coeffs),
                          krawtchouk_coeffs_by_orbit_columns(hom, chars[0], side))


def test_orbit_images_stay_within_their_bound():
    """M(3,GF(3)), 19683 elements and 28 unit orbits a side, above the
    default size guard: each side's rows take two bytes an entry, and the
    whole pipeline stays small under tracemalloc."""
    tracemalloc.start()
    try:
        ring = build_matrix_ring(3, build_gf(3), max_size=20000)
        ring.describe()
        char = canonical_generating_character(ring)
        weights.weight_table(ring, char)
        hom = hom_partition(ring, char)
        for side in ("left", "right"):
            duality.krawtchouk_table(hom, char, side)
            duality.dual_partition(hom, char, side)
        assert duality.is_reflexive(hom, char)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for side in ("left", "right"):
        images = ring.orbit_index(side).images
        assert len(images) == len(ring.orbit_index(side).reps) == 28
        assert images.nbytes <= len(images) * ring.size * 2
    assert peak < 24 << 20
