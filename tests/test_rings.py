"""Ring construction, axioms, and derived structure vs oracle enumeration."""

import numpy as np
import pytest

from frobring.errors import (
    CharacterSearchFailed,
    InvalidParameter,
    InvalidRing,
    ResourceLimit,
)
from frobring.rings import (
    FiniteRing,
    TableRingSpec,
    build_gf,
    build_matrix_ring,
    build_product,
    build_table_ring,
    build_zmod,
    builtin_table_spec,
    validate_tables,
)
from frobring.characters import canonical_generating_character
from frobring.cli import _non_frobenius_spec
from frobring.partitions import hom_partition, is_invariant
from frobring.weights import weight_table

from oracles import (
    all_ideals,
    is_frobenius_oracle,
    matrix_rank_oracle,
    principal_ideal_oracle,
    radical_oracle,
    socle_oracle,
    unit_orbits_oracle,
    units_oracle,
)


def _probe_rings():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    return [
        build_zmod(2),
        build_zmod(4),
        build_zmod(6),
        build_zmod(8),
        build_zmod(9),
        build_zmod(12),
        build_zmod(16),
        build_zmod(32),
        build_gf(4),
        build_gf(8),
        build_gf(9),
        build_product([gf2, gf2]),
        build_product([build_zmod(4), gf3]),
        build_matrix_ring(2, gf2),
        build_table_ring(builtin_table_spec("ex5_5")),
        build_table_ring(_non_frobenius_spec()),
    ]


PROBE_RINGS = _probe_rings()


# -- axioms -------------------------------------------------------------------


def _tables_of(ring):
    n = ring.size
    add = np.array([[ring.add(a, b) for b in range(n)] for a in range(n)])
    mul = np.array([[ring.mul(a, b) for b in range(n)] for a in range(n)])
    return add, mul


@pytest.mark.parametrize(
    "ring", PROBE_RINGS, ids=lambda r: r.expr
)
def test_axioms_hold_on_probe_rings(ring):
    if ring.size > 16:
        pytest.skip("table extraction is quadratic; small rings suffice here")
    add, mul = _tables_of(ring)
    validate_tables(add, mul, ring.one)


@pytest.mark.parametrize("moduli", [(4, 3), (8, 9, 5)], ids=str)
def test_add_row_from_kernel_matches_table(moduli):
    """A row alone comes from the kernel; once the table exists, from it."""
    ring = build_product([build_zmod(n) for n in moduli])
    before = [ring.add_row(a) for a in range(ring.size)]
    assert "add_table" not in ring.__dict__
    table = ring.add_table
    assert table is not None
    for a in range(ring.size):
        assert np.array_equal(before[a], table[a])
        assert np.array_equal(ring.add_row(a), table[a])
        assert np.array_equal(ring.add_row(a, [0, a]), table[a, [0, a]])


def test_validate_rejects_broken_zero():
    add = np.array([[1, 0], [0, 1]])
    mul = np.array([[0, 0], [0, 1]])
    with pytest.raises(InvalidRing, match="0 \\+"):
        validate_tables(add, mul, 1)


def test_validate_rejects_noncommutative_addition():
    # rows are permutations and 0 is neutral, but add(1,2) != add(2,1)
    add = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    mul = np.zeros((3, 3), dtype=int)
    with pytest.raises(InvalidRing):
        validate_tables(add, mul, 0)


def test_validate_rejects_bad_identity():
    add = np.array([[0, 1], [1, 0]])
    mul = np.array([[0, 0], [0, 0]])
    with pytest.raises(InvalidRing, match="identity"):
        validate_tables(add, mul, 1)


def test_validate_rejects_broken_distributivity():
    # proper abelian group under xor, identity 1 for mul, but mul is
    # not distributive over add
    add = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 2]])
    with pytest.raises(InvalidRing):
        validate_tables(add, mul, 1)


def test_table_ring_build_validates():
    spec = builtin_table_spec("ex5_5")
    broken = [list(row) for row in spec.mul]
    broken[3][7] = (broken[3][7] + 1) % 16
    bad = TableRingSpec(size=16, add=spec.add, mul=broken, one=spec.one)
    with pytest.raises(InvalidRing):
        build_table_ring(bad)


# -- derived structure vs oracles --------------------------------------------


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
def test_units_match_oracle(ring):
    assert sorted(map(int, ring.units)) == units_oracle(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
def test_radical_matches_ideal_enumeration(ring):
    assert frozenset(map(int, ring.radical)) == radical_oracle(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
@pytest.mark.parametrize("side", ["left", "right"])
def test_socle_matches_ideal_enumeration(ring, side):
    assert frozenset(map(int, ring.socle_members(side))) == socle_oracle(ring, side)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
def test_frobenius_flag_matches_oracle(ring):
    assert ring.is_frobenius == is_frobenius_oracle(ring)


def test_non_frobenius_detected():
    ring = build_table_ring(_non_frobenius_spec())
    assert not ring.is_frobenius
    with pytest.raises(CharacterSearchFailed):
        canonical_generating_character(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
@pytest.mark.parametrize("side", ["left", "right"])
def test_principal_ideals_match_oracle(ring, side):
    for x in range(ring.size):
        got = frozenset(map(int, ring.principal_ideal_members(x, side)))
        assert got == principal_ideal_oracle(ring, x, side)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=lambda r: r.expr)
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_orbits_match_oracle(ring, side):
    reps, orbit_of = ring.unit_orbits(side)
    orbits = {}
    for x in range(ring.size):
        orbits.setdefault(int(orbit_of[x]), set()).add(x)
    assert {frozenset(o) for o in orbits.values()} == unit_orbits_oracle(ring, side)
    assert [min(orbits[i]) for i in range(len(reps))] == reps.tolist()
    assert ring.unit_orbits(side)[1] is orbit_of


def test_unit_orbits_rejects_bad_side(z4):
    with pytest.raises(InvalidParameter):
        z4.unit_orbits("both")


def test_orbit_routes_make_few_kernel_calls(monkeypatch):
    """Structure, weights and invariance cost kernel calls per orbit, not per element."""
    f = build_matrix_ring(2, build_gf(3))
    ring = build_product([f, f])
    calls = []
    for name in ("mul_row", "mul_col"):
        def counting(self, *args, _orig=getattr(FiniteRing, name), **kwargs):
            if self is ring:
                calls.append(args[0])
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(FiniteRing, name, counting)
    ring.describe()
    weight_table(ring)
    assert is_invariant(hom_partition(ring))
    orbits = len(ring.unit_orbits("left")[0]) + len(ring.unit_orbits("right")[0])
    assert orbits == 72
    assert len(calls) <= 8 * orbits + 50


def test_one_sided_ideals_are_closed_under_library_ops(m2f2):
    """Each enumerated left ideal is add- and mul_col-stable."""
    for ideal in all_ideals(m2f2, "left"):
        members = sorted(ideal)
        for x in members:
            assert set(map(int, m2f2.mul_col(x, list(range(m2f2.size))))) <= ideal
            for y in members:
                assert m2f2.add(x, y) in ideal


# -- structure lists and quotients --------------------------------------------


def test_structure_lists():
    assert build_zmod(12).structure == [(2, 1), (3, 1)]
    assert build_gf(4).structure == [(4, 1)]
    assert build_matrix_ring(2, build_gf(3)).structure == [(3, 2)]
    prod = build_product([build_gf(2), build_matrix_ring(2, build_gf(2))])
    assert prod.structure == [(2, 1), (2, 2)]


def test_quotient_by_radical_semisimple_is_identity():
    ring = build_gf(9)
    qring, pi = ring.quotient_by_radical()
    assert qring is ring
    assert pi == list(range(ring.size))


def test_quotient_by_radical_zmod12():
    ring = build_zmod(12)
    qring, pi = ring.quotient_by_radical()
    assert qring.size == 6
    rad = set(map(int, ring.radical))
    for x in range(ring.size):
        assert (pi[x] == 0) == (x in rad)
    # projection is a ring map
    for a in range(ring.size):
        for b in range(ring.size):
            assert pi[ring.add(a, b)] == qring.add(pi[a], pi[b])
            assert pi[ring.mul(a, b)] == qring.mul(pi[a], pi[b])


def test_quotient_by_radical_table_ring(ex5_5_ring):
    qring, pi = ex5_5_ring.quotient_by_radical()
    assert qring.size == 4
    assert tuple(qring.radical) == (0,)
    assert len(qring.units) == 1  # F_2 x F_2 has a single unit


# -- size guards and parameters ----------------------------------------------


def test_size_guard_default():
    with pytest.raises(ResourceLimit):
        build_zmod(20000)


def test_size_guard_override():
    assert build_zmod(100, max_size=100).size == 100
    with pytest.raises(ResourceLimit):
        build_zmod(101, max_size=100)


def test_matrix_ring_guard():
    with pytest.raises(ResourceLimit):
        build_matrix_ring(3, build_gf(3))


def test_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_zmod(0)
    with pytest.raises(InvalidParameter):
        build_gf(6)
    with pytest.raises(InvalidParameter):
        build_gf(1)
    with pytest.raises(InvalidParameter):
        build_matrix_ring(0, build_gf(2))
    with pytest.raises(InvalidParameter):
        build_product([])


def test_builtin_spec_unknown_name():
    with pytest.raises(InvalidParameter):
        builtin_table_spec("no_such_ring")


# -- element presentation and product structure -------------------------------


def test_element_labels():
    assert build_zmod(6).element_label(4) == "4"
    m = build_matrix_ring(2, build_gf(2))
    assert m.element_label(5) == "[[0,1],[0,1]]"
    p = build_product([build_gf(2), build_gf(9)])
    assert p.element_label(10) == "(1,1)"


def test_product_encode_decode_round_trip():
    p = build_product([build_zmod(4), build_gf(3), build_gf(2)])
    assert p.size == 24
    for i in range(p.size):
        assert p.encode(p.decode(i)) == i
    # componentwise operations
    a, b = 7, 19
    da, db = p.decode(a), p.decode(b)
    expected = tuple(
        f.add(x, y) for f, x, y in zip(p.factors, da, db)
    )
    assert p.decode(p.add(a, b)) == expected
    expected = tuple(
        f.mul(x, y) for f, x, y in zip(p.factors, da, db)
    )
    assert p.decode(p.mul(a, b)) == expected


def test_product_of_single_factor_is_the_factor():
    g = build_gf(9)
    assert build_product([g]) is g


def test_characteristics():
    assert build_zmod(12).characteristic == 12
    assert build_gf(9).characteristic == 3
    assert build_matrix_ring(2, build_gf(2)).characteristic == 2
    assert build_product([build_gf(2), build_gf(9)]).characteristic == 6


def test_commutativity_flags():
    assert build_zmod(12).is_commutative
    assert build_gf(8).is_commutative
    assert not build_matrix_ring(2, build_gf(2)).is_commutative
    assert build_matrix_ring(1, build_gf(5)).is_commutative
    assert not build_table_ring(builtin_table_spec("ex5_5")).is_commutative


def test_describe_surface():
    d = build_zmod(12).describe()
    assert d == {
        "ring": "Z12",
        "size": 12,
        "characteristic": 12,
        "is_commutative": True,
        "units": 4,
        "radical_size": 2,
        "socle_left_size": 6,
        "socle_right_size": 6,
        "is_frobenius": True,
        "structure": [[2, 1], [3, 1]],
    }


# -- matrix rank --------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_rank_matches_row_space_oracle(q):
    ring = build_matrix_ring(2, build_gf(q))
    for a in range(ring.size):
        assert ring.rank(a) == matrix_rank_oracle(ring, a)


def test_matrix_rank_3x3_spot_checks():
    ring = build_matrix_ring(3, build_gf(2), max_size=600000)
    assert ring.rank(0) == 0
    assert ring.rank(ring.one) == 3
    rng = np.random.default_rng(7)
    for a in rng.integers(0, ring.size, size=40):
        assert ring.rank(int(a)) == matrix_rank_oracle(ring, int(a))
