"""Homogeneous weights: closed forms, defining equations, frozen tables."""

import re
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring.characters import (Character, all_generating_characters,
                                 canonical_generating_character)
from frobring.duality import krawtchouk_table
from frobring.errors import InternalInconsistency, InvalidParameter
from frobring.partitions import hom_partition
from frobring.rings import (
    build_gf,
    build_matrix_ring,
    build_product,
    build_zmod,
    builtin_ring,
)
from frobring.weights import (
    _validate_homogeneous,
    alpha,
    cauchy_identity_check,
    gaussian,
    has_zero_weight_nonzero,
    s_count,
    socle_weight_consistency,
    weight_matrix_rank,
    weight_rank_profile,
    weight_table,
)

from oracles import (
    count_subspaces_oracle,
    homogeneous_weight_oracle,
    principal_ideal_members,
    principal_ideal_oracle,
    ring_id,
    table_twin,
    unit_orbits_oracle,
    validate_homogeneous_by_element,
    weight_via_characters,
)


def _weight_probe_rings():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    return [
        build_zmod(4),
        build_zmod(6),
        build_zmod(8),
        build_zmod(9),
        build_zmod(12),
        build_gf(4),
        build_gf(8),
        build_gf(9),
        build_product([gf2, gf2]),
        # one unit, so every unit orbit is a singleton
        build_product([gf2, gf2, gf2]),
        build_product([build_zmod(4), gf3]),
        build_matrix_ring(2, gf2),
        builtin_ring("ex5_5"),
        table_twin(builtin_ring("ex5_5")),
        build_matrix_ring(2, gf3),
    ]


WEIGHT_RINGS = _weight_probe_rings()


# -- counting closed forms -----------------------------------------------------


@pytest.mark.parametrize(
    "q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
)
def test_gaussian_counts_subspaces(q, m):
    fld = build_gf(q)
    for r in range(m + 1):
        assert gaussian(m, r, q) == count_subspaces_oracle(fld, m, r)


def test_gaussian_known_values():
    assert gaussian(4, 2, 2) == 35
    assert gaussian(3, 1, 3) == 13
    assert gaussian(2, 1, 5) == 6
    assert gaussian(5, 0, 2) == 1
    assert gaussian(5, 5, 2) == 1


def test_gaussian_out_of_range_is_zero():
    assert gaussian(3, -1, 2) == 0
    assert gaussian(3, 4, 2) == 0


def test_gaussian_symmetry_and_recurrence():
    for q in (2, 3, 4):
        for m in range(7):
            for j in range(m + 1):
                assert gaussian(m, j, q) == gaussian(m, m - j, q)
                if m >= 1:
                    assert gaussian(m, j, q) == gaussian(
                        m - 1, j - 1, q
                    ) + q**j * gaussian(m - 1, j, q)


def test_gaussian_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        gaussian(-1, 0, 2)
    with pytest.raises(InvalidParameter):
        gaussian(3, 1, 1)


def test_alpha_values():
    assert alpha(0, 2, 4) == 1
    assert alpha(1, 2, 4) == 3
    assert alpha(2, 2, 4) == 6
    assert alpha(3, 2, 8) == 7 * 6 * 4


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_s_count_sums_to_ideal_size(q, m):
    for r in range(m + 1):
        total = sum(s_count(j, m, r, q) for j in range(r + 1))
        assert total == q ** (r * m)
        for j in range(r + 1):
            assert s_count(j, m, r, q) >= 0


def test_s_count_direct_enumeration():
    """Count matrices by rank inside one principal left ideal of M_2(F_2)."""
    ring = build_matrix_ring(2, build_gf(2))
    gen = next(x for x in range(ring.size) if ring.rank(x) == 1)
    ideal = sorted(set(int(y) for y in ring.mul_col(gen)))
    by_rank = {}
    for y in ideal:
        by_rank[ring.rank(y)] = by_rank.get(ring.rank(y), 0) + 1
    assert by_rank == {
        j: s_count(j, 2, 1, 2) for j in range(2) if s_count(j, 2, 1, 2)
    }


def test_s_count_rejects_bad_ranks():
    with pytest.raises(InvalidParameter):
        s_count(2, 2, 1, 2)
    with pytest.raises(InvalidParameter):
        s_count(0, 2, 3, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_cauchy_alternating_sum_vanishes(q, r):
    assert cauchy_identity_check(r, q)


def test_cauchy_rejects_r_zero():
    with pytest.raises(InvalidParameter):
        cauchy_identity_check(0, 2)


# -- rank weight closed form ---------------------------------------------------


def test_weight_matrix_rank_known_values():
    assert weight_matrix_rank(0, 2, 2) == 0
    assert weight_matrix_rank(1, 2, 2) == Fraction(4, 3)
    assert weight_matrix_rank(2, 2, 2) == Fraction(2, 3)
    assert weight_matrix_rank(1, 2, 3) == Fraction(9, 8)
    assert weight_matrix_rank(2, 2, 3) == Fraction(15, 16)
    assert weight_matrix_rank(1, 1, 2) == 2
    assert weight_matrix_rank(1, 1, 3) == Fraction(3, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_rank_weight_matches_character_table(q):
    ring = build_matrix_ring(2, build_gf(q))
    table = weight_table(ring)
    for x in range(ring.size):
        assert table[x] == weight_matrix_rank(ring.rank(x), 2, q)


def test_weight_rank_profile_reduces_to_single_factor():
    for q, m in [(2, 1), (2, 2), (3, 2)]:
        for r in range(m + 1):
            assert weight_rank_profile([(r, q, m)]) == weight_matrix_rank(r, m, q)


def test_weight_rank_profile_zero_weight():
    assert weight_rank_profile([(1, 2, 1), (1, 2, 1)]) == 0
    assert weight_rank_profile([(0, 2, 1), (0, 2, 1)]) == 0
    assert weight_rank_profile([(1, 2, 1), (1, 3, 1)]) == Fraction(1, 2)


def test_weight_rank_profile_matches_product_table():
    ring = build_product([build_matrix_ring(2, build_gf(2)), build_gf(3)])
    table = weight_table(ring)
    m2 = ring.factors[0]
    for x in range(ring.size):
        a, b = ring.decode(x)
        profile = [(m2.rank(a), 2, 2), (0 if b == 0 else 1, 3, 1)]
        assert table[x] == weight_rank_profile(profile)


def test_weight_rank_profile_rejects_bad_entries():
    with pytest.raises(InvalidParameter):
        weight_rank_profile([(2, 2, 1)])
    with pytest.raises(InvalidParameter):
        weight_rank_profile([(1, 1, 1)])
    with pytest.raises(InvalidParameter):
        weight_rank_profile([(1, 2)])


# -- the weight table against its defining equations ---------------------------


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_weight_table_solves_defining_equations(ring):
    """The character-sum table equals the unique linear-system solution."""
    table = weight_table(ring)
    expected = homogeneous_weight_oracle(ring)
    assert list(table.weights) == expected


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_orbit_validator_and_element_oracle_accept_the_table(ring):
    table = weight_table(ring)
    _validate_homogeneous(ring, table.num, table.denom)
    validate_homogeneous_by_element(ring, table.weights)


# -- the validator on corrupted tables --------------------------------------------


def _over_common_denominator(weights):
    """Integer numerators over one common denominator, as the validator takes them."""
    denom = lcm(*(w.denominator for w in weights))
    return np.array([w.numerator * (denom // w.denominator) for w in weights]), denom


def _both_validators_reject(ring, weights, message):
    with pytest.raises(InternalInconsistency, match=message) as info:
        _validate_homogeneous(ring, *_over_common_denominator(weights))
    assert ring.expr in str(info.value)
    with pytest.raises(InternalInconsistency):
        validate_homogeneous_by_element(ring, tuple(weights))


@pytest.mark.parametrize(
    "ring", [r for r in WEIGHT_RINGS if len(r.units) > 1], ids=ring_id
)
def test_validators_reject_a_changed_orbit_member(ring):
    orbit = next(o for o in unit_orbits_oracle(ring, "left") if len(o) > 1)
    weights = list(weight_table(ring).weights)
    member = sorted(orbit)[1]  # not the orbit's least index, its representative
    weights[member] += 1
    _both_validators_reject(ring, weights, "not constant on the left unit orbit")


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_validators_reject_a_shifted_ideal_class(ring):
    """Shifting every generator of one left ideal keeps the weight constant
    on orbits and on equal ideals, so only the average check can fail."""
    weights = list(weight_table(ring).weights)
    ideal = principal_ideal_oracle(ring, 1, "left")
    for y in range(ring.size):
        if principal_ideal_oracle(ring, y, "left") == ideal:
            weights[y] += Fraction(1, 3)
    _both_validators_reject(ring, weights, "average over the left ideal")


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_validators_reject_a_nonzero_weight_at_zero(ring):
    weights = list(weight_table(ring).weights)
    weights[0] = Fraction(1, 2)
    _both_validators_reject(ring, weights, re.escape("weight of 0 is 1/2"))


FROZEN_MULTISETS = {
    "Z4": {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1},
    "Z6": {
        Fraction(0): 1,
        Fraction(1, 2): 2,
        Fraction(3, 2): 2,
        Fraction(2): 1,
    },
    "Z8": {Fraction(0): 1, Fraction(1): 6, Fraction(2): 1},
    "Z9": {Fraction(0): 1, Fraction(1): 6, Fraction(3, 2): 2},
    "Z12": {
        Fraction(0): 1,
        Fraction(1, 2): 2,
        Fraction(1): 6,
        Fraction(3, 2): 2,
        Fraction(2): 1,
    },
    "GF(4)": {Fraction(0): 1, Fraction(4, 3): 3},
    "GF(8)": {Fraction(0): 1, Fraction(8, 7): 7},
    "GF(9)": {Fraction(0): 1, Fraction(9, 8): 8},
    "GF(2) x GF(2)": {Fraction(0): 2, Fraction(2): 2},
    "GF(2) x GF(2) x GF(2)": {Fraction(0): 4, Fraction(2): 4},
    # isomorphic to Z12, so the multisets must coincide
    "Z4 x GF(3)": {
        Fraction(0): 1,
        Fraction(1, 2): 2,
        Fraction(1): 6,
        Fraction(3, 2): 2,
        Fraction(2): 1,
    },
    "M(2,GF(2))": {Fraction(0): 1, Fraction(2, 3): 6, Fraction(4, 3): 9},
    "M(2,GF(3))": {
        Fraction(0): 1,
        Fraction(15, 16): 48,
        Fraction(9, 8): 32,
    },
    "ex5_5": {Fraction(0): 2, Fraction(1): 12, Fraction(2): 2},
}


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_frozen_weight_multisets(ring):
    assert dict(weight_table(ring).multiset()) == FROZEN_MULTISETS[ring.expr]


def test_local_ring_two_tier_pattern():
    """Local rings: q/(q-1) on the nonzero socle, 1 elsewhere."""
    for n, q in [(4, 2), (8, 2), (9, 3)]:
        ring = build_zmod(n)
        table = weight_table(ring)
        soc = set(map(int, ring.socle_members("left")))
        for x in range(1, n):
            expected = Fraction(q, q - 1) if x in soc else Fraction(1)
            assert table[x] == expected


def test_field_weight_is_constant():
    for q in (2, 3, 4, 5, 8, 9):
        table = weight_table(build_gf(q))
        for x in range(1, q):
            assert table[x] == Fraction(q, q - 1)


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_weight_one_off_socle_and_socle_matches_quotient(ring):
    assert socle_weight_consistency(ring)


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_character_choice_does_not_matter(ring):
    if ring.size > 81:
        pytest.skip("all-character sweep kept to small rings")
    base = weight_table(ring)
    for char in all_generating_characters(ring):
        alt = weight_table(ring, char=char)
        assert alt.weights == base.weights


def test_weight_via_characters_single_element(z12):
    char = all_generating_characters(z12)[0]
    assert weight_via_characters(z12, char, 6) == 2
    assert weight_via_characters(z12, char, 4) == Fraction(3, 2)
    assert weight_via_characters(z12, char, 0) == 0


@pytest.mark.parametrize("ring", WEIGHT_RINGS, ids=ring_id)
def test_orbit_unit_sums_match_per_element_sums(ring):
    """weight_table sums once per unit orbit; the oracle sums at every element."""
    chars = all_generating_characters(ring)
    for char in (chars[0], chars[-1]):
        table = weight_table(ring, char)
        assert [weight_via_characters(ring, char, x) for x in range(ring.size)] == list(
            table.weights
        )


# -- zero-weight criterion ------------------------------------------------------


def test_zero_weight_criterion():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    cases = [
        (build_zmod(4), False),
        (build_zmod(6), False),
        (build_product([gf2, gf2]), True),
        (build_product([gf2, gf2, gf3]), True),
        (build_product([build_matrix_ring(2, gf2), gf2]), False),
        (builtin_ring("ex5_5"), True),
        (table_twin(builtin_ring("ex5_5")), True),
    ]
    for ring, expected in cases:
        assert has_zero_weight_nonzero(ring) == expected, ring.expr
        table = weight_table(ring)
        scan = any(table[x] == 0 for x in range(1, ring.size))
        assert scan == expected, ring.expr


# -- table mechanics ------------------------------------------------------------


def test_weight_table_is_cached(z12):
    table = weight_table(z12)
    assert table is weight_table(z12)
    assert table.weights is table.weights
    assert not table.num.flags.writeable
    assert table.denom == len(z12.units)
    # one Fraction object per distinct weight
    assert len({id(w) for w in table.weights}) == len(table.multiset())


def test_zero_element_weight_is_zero():
    for ring in WEIGHT_RINGS:
        assert weight_table(ring)[0] == 0


# -- property tests --------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_weight_constant_on_associate_classes(data):
    ring = data.draw(st.sampled_from(WEIGHT_RINGS))
    table = weight_table(ring)
    x = data.draw(st.integers(min_value=0, max_value=ring.size - 1))
    u = data.draw(st.sampled_from([int(v) for v in ring.units]))
    assert table[ring.mul(u, x)] == table[x]
    assert table[ring.mul(x, u)] == table[x]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_weight_averages_one_on_principal_ideals(data):
    ring = data.draw(st.sampled_from(WEIGHT_RINGS))
    table = weight_table(ring)
    x = data.draw(st.integers(min_value=1, max_value=ring.size - 1))
    side = data.draw(st.sampled_from(["left", "right"]))
    members = principal_ideal_members(ring, x, side)
    total = sum(table[int(y)] for y in members)
    assert total == len(members)


@given(
    q=st.sampled_from([2, 3, 4, 5]),
    m=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_weight_tends_to_one(q, m, data):
    """Rank weights oscillate around 1 with shrinking amplitude."""
    r = data.draw(st.integers(min_value=1, max_value=m))
    w = weight_matrix_rank(r, m, q)
    dev = abs(w - 1)
    assert dev == Fraction(q ** comb(r, 2), abs(alpha(r, q, q**m)))
    if r >= 2:
        prev = abs(weight_matrix_rank(r - 1, m, q) - 1)
        # consecutive deviations shrink by 1/(q^(m-r+1) - 1)
        assert dev <= prev
        if q ** (m - r + 1) > 2:
            assert dev < prev


@pytest.mark.parametrize("route", [
    weight_table, has_zero_weight_nonzero, socle_weight_consistency, hom_partition,
    lambda ring, char: krawtchouk_table(hom_partition(ring), char, "left"),
], ids=["weight_table", "has_zero_weight_nonzero", "socle_weight_consistency",
        "hom_partition", "krawtchouk_table"])
def test_weights_refuse_a_character_that_is_not_generating_on_the_ring(route):
    """The character of another ring, or one whose kernel holds the
    ideal {0, 2}, is the caller's input error, named with the ring, by the
    one check weights and Krawtchouk tables share."""
    z4 = build_zmod(4)
    other = canonical_generating_character(build_gf(4))
    with pytest.raises(InvalidParameter, match="^Z4: the character of order 2 lives on a "
                                               r"different ring, GF\(4\)$"):
        route(z4, other)
    with pytest.raises(InvalidParameter,
                       match="^Z4: the character of order 4 is not generating$"):
        route(z4, Character(z4, [0, 2, 0, 2]))
