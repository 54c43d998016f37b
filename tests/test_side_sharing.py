"""Each fact computed once: a commutative ring's right side is its left side,
and a product character is built from, and keeps, its checked leaf characters.

The right-side results a commutative ring shares with its left side are
compared with oracles that compute the right side on its own; the counts
pin that each one-sided computation runs once per side that differs.
"""

from collections import Counter

import numpy as np
import pytest

from frobring import characters, duality, weights
from frobring.characters import (Character, canonical_generating_character, is_generating,
                                 restrictions, translate)
from frobring.cli import build_ring, parse_ring
from frobring.errors import InvalidParameter
from frobring.partitions import hom_partition
from frobring.rings import (FiniteRing, ProductRing, build_gf, build_product, build_zmod,
                            builtin_ring)

from oracles import (dual_groups_by_unique_rows, is_generating_by_kernel_scan,
                     krawtchouk_table_by_element, rational_columns_by_element, ring_id,
                     table_twin, unit_sums_by_orbits, validate_homogeneous_by_orbits)
from test_partitions import _assert_matches_grouping

COMMUTATIVE = ["Z2310", "Z8 x Z9 x GF(5)", "GF(3) x GF(9) x Z25", "Z125", "GF(16)", "Z4 x Z4"]


def _characters(ring):
    """The canonical character and its left translate by the last unit."""
    canonical = canonical_generating_character(ring)
    return [canonical, translate(canonical, ring.units[-1])]


@pytest.mark.parametrize("expr", COMMUTATIVE)
def test_right_side_matches_its_own_oracles(expr):
    """Unit sums, the weight equations, the generating test, the table and
    the dual of the right side, served from the left computation, agree
    with routes that compute the right side alone."""
    ring = build_ring(parse_ring(expr))
    assert ring.is_commutative
    for char in _characters(ring):
        table = weights.weight_table(ring, char)
        assert np.array_equal(table.num, table.denom - unit_sums_by_orbits(ring, char, "right"))
        validate_homogeneous_by_orbits(ring, table.num, table.denom)
        assert is_generating(char) and is_generating_by_kernel_scan(char)
        hom = hom_partition(ring, char)
        left, right = (duality.krawtchouk_table(hom, char, side) for side in ("left", "right"))
        assert right.side == "right" and right.coeffs is left.coeffs
        if ring.size > 1000:  # rational entries, one kernel call per element
            columns = rational_columns_by_element(hom, char, "right")
            assert np.array_equal(right.coeffs[right.orbit_of][..., 0], columns)
            columns = list(map(tuple, columns.tolist()))
        else:
            rows = krawtchouk_table_by_element(hom, char, "right")
            oracle = [[list(e.coeffs) for e in row] for row in rows]
            assert right.widen(right.coeffs)[right.orbit_of].transpose(1, 0, 2).tolist() == oracle
            columns = [tuple(tuple(row[b]) for row in oracle) for b in range(ring.size)]
        dual = duality.dual_partition(hom, char, "right")
        assert dual is duality.dual_partition(hom, char, "left")
        assert dual == dual_groups_by_unique_rows(right)
        _assert_matches_grouping(dual, columns.__getitem__)


@pytest.mark.parametrize("expr", ["Z6", "Z4 x Z4"])
def test_non_generating_characters_are_refused_on_the_shared_side(expr):
    """A character whose kernel holds an ideal is found on the one side a
    commutative ring decides, as the scan of both sides finds it."""
    ring = build_ring(parse_ring(expr))
    canonical = canonical_generating_character(ring)
    for r in range(ring.size):
        char = translate(canonical, r)
        assert is_generating(char) == is_generating_by_kernel_scan(char) == (r in ring.units)


def _counted(monkeypatch, module, name, key):
    """Count calls of module.name by key(*args)."""
    calls, fn = Counter(), getattr(module, name)

    def counting(*args):
        calls[key(*args)] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _counted_method(monkeypatch, name):
    """Count calls of the ring method ``name`` by (ring, side), on every
    class that defines it."""
    calls = Counter()
    for cls in (FiniteRing, ProductRing):
        if name in vars(cls):
            def counting(ring, side, fn=vars(cls)[name]):
                calls[ring, side] += 1
                return fn(ring, side)

            monkeypatch.setattr(cls, name, counting)
    return calls


BUILDS = {
    **{expr: (lambda expr=expr: build_ring(parse_ring(expr))) for expr in COMMUTATIVE},
    "ex5_5": lambda: builtin_ring("ex5_5"),
    "ex5_5 as tables": lambda: table_twin(builtin_ring("ex5_5")),
    "M(2,GF(2)) x Z4": lambda: build_ring(parse_ring("M(2,GF(2)) x Z4")),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_one_sided_work_runs_once_per_differing_side(monkeypatch, build):
    """From a fresh ring through describe() to both tables, both duals and
    is_reflexive, each one-sided computation runs once on a commutative
    ring (per leaf where it runs on the leaves) and once per side on a
    noncommutative one or leaf."""
    ring = build()
    structure = {name: _counted_method(monkeypatch, name)
                 for name in ("_compute_unit_orbits", "_compute_socle", "_socle_is_principal")}
    sums = _counted(monkeypatch, weights, "_unit_sums", lambda ring, char, side: ring)
    ideals = _counted(monkeypatch, weights, "_orbit_ideals", lambda leaf, side: leaf)
    kernels = _counted(monkeypatch, characters, "_kernel_holds_ideal",
                       lambda char, side: char.ring)
    tables = _counted(monkeypatch, duality, "_table", lambda part, char, side: id(part))
    ring.describe()
    char = canonical_generating_character(ring)
    hom = hom_partition(ring, char)
    for side in ("left", "right"):
        duality.krawtchouk_table(hom, char, side)
        duality.dual_partition(hom, char, side)
    duality.is_reflexive(hom, char)
    sides = 1 if ring.is_commutative else 2
    rings = {ring, *ring.leaves}
    for name, calls in structure.items():
        expected = {r: 1 if r.is_commutative else 2
                    for r in (ring.leaves if name == "_socle_is_principal" else rings)}
        assert Counter(r for r, _ in calls.elements()) == expected, name
        assert max(calls.values()) == 1, name
    assert sums == {ring: sides}
    assert ideals == {leaf: 1 if leaf.is_commutative else 2 for leaf in ring.leaves}
    assert kernels == {leaf: 1 if leaf.is_commutative else 2 for leaf in ring.leaves}
    assert tables[id(hom)] == sides


SMALL_PRODUCTS = [
    build_product([build_zmod(4), build_gf(3)]),
    build_ring(parse_ring("M(2,GF(2)) x Z4")),
    build_ring(parse_ring("Z8 x Z9 x GF(5)")),
    build_product([build_product([build_zmod(4), build_gf(2)]), builtin_ring("ex5_5")]),
]


@pytest.mark.parametrize("ring", SMALL_PRODUCTS, ids=ring_id)
def test_leaf_assembled_translates_match_the_whole_ring(ring):
    """The translate by every unit, the last included, on both sides, is
    the character of the ring's own products, with the same restrictions."""
    char = canonical_generating_character(ring)
    for u in ring.units.tolist():
        for side, image in (("left", ring.mul_col(u)), ("right", ring.mul_row(u))):
            moved = translate(char, u, side)
            whole = Character(ring, char.exponents[image], char.order)
            assert moved == whole
            assert restrictions(moved) == restrictions(whole)
            assert is_generating(moved)


@pytest.mark.parametrize("ring", SMALL_PRODUCTS[:2], ids=ring_id)
def test_translate_refuses_an_element_out_of_range(ring):
    char = canonical_generating_character(ring)
    for r in (-1, ring.size):
        with pytest.raises(InvalidParameter, match=f"element index {r} out of range"):
            translate(char, r)


def test_non_additive_product_maps_are_refused_as_before():
    """Additive on each leaf but not their sum, or off the multiples a
    leaf's characteristic allows: the same refusal as any map."""
    ring = build_product([build_zmod(2), build_zmod(4)])  # (a, b) has index 4a + b
    char = canonical_generating_character(ring)
    bent = char.exponents.copy()
    bent[5] = (bent[5] + 1) % 4  # (1, 1) off the sum of its restrictions
    odd = np.array([0, 1, 2, 3, 1, 2, 3, 0])  # e(1, 0) = 1: order 4 on Z2
    for exps in (bent, odd):
        with pytest.raises(InvalidParameter,
                           match="exponent map is not an additive homomorphism into Z_4$"):
            Character(ring, exps, 4)


def test_leaf_additivity_is_checked_once_per_character_built(monkeypatch):
    """The canonical character, a translate and a character from given
    exponents each check additivity once on each leaf and never on the
    product, whose restrictions are the parts that were checked."""
    ring = build_ring(parse_ring("Z8 x Z9 x GF(5)"))
    checks = _counted(monkeypatch, characters, "_check_hom", lambda ring, e, order: ring)
    once = {leaf: 1 for leaf in ring.leaves}
    canonical = canonical_generating_character(ring)
    assert checks == once
    checks.clear()
    moved = translate(canonical, ring.units[-1])
    assert checks == once and is_generating(moved)
    checks.clear()
    given = Character(ring, moved.exponents, moved.order)
    assert checks == once
    assert restrictions(given) == restrictions(moved)
    assert all(part.ring is leaf for part, leaf in zip(restrictions(given), ring.leaves))


@pytest.mark.parametrize("build", [lambda: build_ring(parse_ring("Z8 x Z9 x GF(5)")),
                                   lambda: builtin_ring("ex5_5")], ids=["Z8 x Z9 x GF(5)", "ex5_5"])
def test_is_reflexive_reuses_the_left_dual(monkeypatch, build):
    """After dual_partition, is_reflexive groups only the bidual."""
    ring = build()
    char = canonical_generating_character(ring)
    hom = hom_partition(ring, char)
    groupings = _counted(monkeypatch, duality, "_row_keys", lambda rows: None)
    left = duality.dual_partition(hom, char, "left")
    duality.is_reflexive(hom, char)
    assert groupings[None] == 2
    assert duality.dual_partition(hom, char, "left") is left
