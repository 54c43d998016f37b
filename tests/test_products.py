"""Products factor by factor: every factor route against its direct orbit route.

A direct product takes its structure, generating test, unit sums, weight
validation and Krawtchouk columns from its factors.  Each of those is
compared here, on a corpus of products, with the direct orbit route on
the whole product kept in ``oracles.py``.
"""

import tracemalloc

import numpy as np
import pytest

from frobring import duality, weights
from frobring.characters import (Character, _check_hom, all_generating_characters,
                                 canonical_generating_character, is_generating,
                                 is_symmetric, restrictions)
from frobring.cli import _non_frobenius_ring
from frobring.errors import CharacterSearchFailed, InternalInconsistency
from frobring.partitions import Partition, hom_partition
from frobring.rings import (FiniteRing, build_gf, build_matrix_ring, build_product,
                            build_zmod, builtin_ring)

from oracles import (
    is_additive_by_pairs,
    is_commutative_by_pairs,
    is_generating_by_orbits,
    is_symmetric_by_pairs,
    krawtchouk_coeffs_by_orbit_columns,
    ring_id,
    structure_by_orbit_scan,
    table_twin,
    unit_sums_by_orbits,
    validate_homogeneous_by_orbits,
)
from test_rings import assert_index_set


def _corpus():
    gf2 = build_gf(2)
    m2f2 = build_matrix_ring(2, gf2)
    m2f3 = build_matrix_ring(2, build_gf(3))
    return [
        build_product([builtin_ring("ex5_5"), m2f2, gf2]),  # noncommutative, not semisimple
        build_product([table_twin(builtin_ring("ex5_5")), build_zmod(4)]),
        build_product([build_product([gf2, m2f2]), build_zmod(3)]),  # nested
        build_product([build_zmod(8), build_zmod(9), build_gf(5)]),
        build_product([m2f3, m2f3]),
        build_product([gf2] * 8),  # eight leaves, every element its own unit orbit
        build_product([build_gf(4), build_zmod(1)]),  # a zero-ring leaf
    ]


CORPUS = _corpus()


def _characters(ring):
    """The canonical character and two of its unit translates."""
    chars = all_generating_characters(ring)
    return [canonical_generating_character(ring), chars[len(chars) // 2], chars[-1]]


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_structure_matches_the_orbit_scan(ring):
    radical, soc_l, soc_r, frobenius = structure_by_orbit_scan(ring)
    for got, scanned in [(ring.units, FiniteRing._compute_units(ring)), (ring.radical, radical),
                         (ring.socle_members("left"), soc_l),
                         (ring.socle_members("right"), soc_r)]:
        assert_index_set(got)
        assert tuple(got.tolist()) == tuple(scanned)
    assert ring.is_frobenius == frobenius


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_restrictions_recompose_the_character(ring):
    for char in _characters(ring):
        parts = restrictions(char)
        assert [c.ring for c in parts] == list(ring.leaves)
        assert np.prod([c.ring.size for c in parts]) == ring.size
        total = np.zeros(1, dtype=np.int64)
        for c in parts:  # chi(x) = chi_1(x_1) ... chi_k(x_k), exponents in Z_order
            total = np.add.outer(total, c.exponents * (char.order // c.order)).ravel()
        assert np.array_equal(total % char.order, char.exponents)
        assert all(c.order == np.gcd(char.order, c.ring.characteristic) for c in parts)


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_generating_test_matches_the_orbit_route(ring):
    order = ring.characteristic
    chars = _characters(ring)
    for i, leaf in enumerate(ring.leaves):
        # the canonical character with leaf i's part removed: its restriction
        # there is 0, whose kernel holds the whole leaf, a nonzero ideal
        # unless the leaf is the zero ring
        parts = [c.exponents * (order // c.order) * (j != i)
                 for j, c in enumerate(restrictions(chars[0]))]
        exps = parts[0]
        for part in parts[1:]:
            exps = np.add.outer(exps, part).ravel()
        chars.append(Character(ring, exps % order, order))
    verdicts = [is_generating(c) for c in chars]
    assert verdicts == [is_generating_by_orbits(c) for c in chars]
    assert verdicts == [True] * 3 + [leaf.size == 1 for leaf in ring.leaves]


@pytest.mark.parametrize("ring", [r for r in CORPUS if r.size <= 512], ids=ring_id)
def test_additivity_check_matches_the_pairwise_oracle(ring):
    char = canonical_generating_character(ring)
    rng = np.random.default_rng(5)
    candidates = [char.exponents, char.exponents[ring.mul_col(ring.units[-1])]]
    nbroken = min(6, ring.size - 1)
    for x in rng.choice(np.arange(1, ring.size), nbroken, replace=False).tolist():
        broken = char.exponents.copy()
        broken[x] = (broken[x] + 1) % char.order
        candidates.append(broken)
    verdicts = [_check_hom(ring, e, char.order) for e in candidates]
    assert verdicts == [is_additive_by_pairs(ring, e, char.order) for e in candidates]
    assert verdicts == [True, True] + [False] * nbroken


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_commutativity_and_symmetry_match_the_pairwise_oracles(ring):
    assert ring.is_commutative == is_commutative_by_pairs(ring)
    chars = _characters(ring)
    verdicts = [is_symmetric(char) for char in chars]
    assert verdicts == [is_symmetric_by_pairs(char) for char in chars]
    # every noncommutative ring here has a translate that is not symmetric
    assert all(verdicts) == ring.is_commutative


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_sums_match_the_orbit_route(ring, side):
    for char in _characters(ring):
        assert np.array_equal(weights._unit_sums(ring, char, side),
                              unit_sums_by_orbits(ring, char, side))


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_weights_factor_through_the_restrictions(ring):
    """1 - w(x_1, ..., x_k) = (1 - w_1(x_1)) ... (1 - w_k(x_k)) under the
    restricted characters, the product rule of the Moebius functions."""
    for char in _characters(ring):
        table = weights.weight_table(ring, char)
        factors = [weights.weight_table(c.ring, c) for c in restrictions(char)]
        rhs = np.ones(1, dtype=np.int64)
        for t in factors:
            rhs = np.multiply.outer(rhs, t.denom - t.num).ravel()
        # (denom - num) / denom against rhs / prod(denom_i), cross-multiplied
        assert table.denom == np.prod([t.denom for t in factors])
        assert np.array_equal(table.denom - table.num, rhs)


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_weight_validators_agree(ring):
    for char in _characters(ring):
        table = weights.weight_table(ring, char)
        weights._validate_homogeneous(ring, table.num, table.denom)
        validate_homogeneous_by_orbits(ring, table.num, table.denom)


def _reject_messages(ring, num, denom):
    messages = []
    for validate in (weights._validate_homogeneous, validate_homogeneous_by_orbits):
        with pytest.raises(InternalInconsistency) as info:
            validate(ring, num, denom)
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_corrupted_numerators_are_rejected_naming_the_product(ring):
    table = weights.weight_table(ring)
    left_of = ring.orbit_index("left").orbit_of
    right_of = ring.orbit_index("right").orbit_of
    # a whole two-sided orbit changed keeps every one-sided orbit constant,
    # so only the ideal averages catch it
    x = int(ring.units[0]) if len(ring.units) < ring.size else 1
    orbit = np.isin(right_of, right_of[left_of == left_of[x]])
    num = table.num.copy()
    num[orbit] += 1
    fast, direct = _reject_messages(ring, num, table.denom)
    assert fast == direct
    assert fast.startswith(f"{ring.expr}: average over the left ideal of ")
    members = np.flatnonzero(left_of == left_of[x])
    num = table.num.copy()
    num[members[-1]] += 1
    fast, direct = _reject_messages(ring, num, table.denom)
    # one member of a larger orbit breaks its constancy; a one-element orbit
    # stays constant, so again only the ideal averages catch it
    caught = "weight is not constant on" if len(members) > 1 else "average over the left ideal"
    assert fast == direct and fast.startswith(f"{ring.expr}: {caught}")


@pytest.mark.parametrize("ring", CORPUS, ids=ring_id)
def test_krawtchouk_tables_match_the_orbit_columns(ring):
    for char in _characters(ring)[:2]:
        hom = hom_partition(ring, char)
        for side in ("left", "right"):
            table = duality.krawtchouk_table(hom, char, side)
            assert np.array_equal(table.orbit_of, ring.orbit_index(side).orbit_of)
            assert table.coeffs.shape[2] == 1  # rational: one integer per entry
            assert np.array_equal(table.widen(table.coeffs),
                                  krawtchouk_coeffs_by_orbit_columns(hom, char, side))
            # the dual is a union of orbits of this side, so the opposite
            # table of the dual, as is_reflexive builds it, routes by factors too
            dual = duality.dual_partition(hom, char, side)
            other = "right" if side == "left" else "left"
            back = duality.krawtchouk_table(dual, char, other)
            expected = krawtchouk_coeffs_by_orbit_columns(dual, char, other)
            assert np.array_equal(back.widen(back.coeffs), expected)
            rows = expected.reshape(len(expected), -1)
            _, group = np.unique(rows, axis=0, return_inverse=True)
            assert duality.dual_partition(dual, char, other) == Partition.from_keys(
                ring, group.reshape(-1)[back.orbit_of])


def test_twelve_leaves_stay_small():
    """GF(2)^12 (4096 elements, every element its own unit orbit): the
    weight partition, both tables, both duals and reflexivity take under
    64 MB of traced memory, as the leaves' orbit sums are 2 x 2 each."""
    tracemalloc.start()
    try:
        ring = build_product([build_gf(2)] * 12)
        char = canonical_generating_character(ring)
        hom = hom_partition(ring, char)
        tables = [duality.krawtchouk_table(hom, char, side) for side in ("left", "right")]
        duals = [duality.dual_partition(hom, char, side) for side in ("left", "right")]
        reflexive = duality.is_reflexive(hom, char)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # chi(x) = (-1)^(x_1 + ... + x_12): w = 1 - chi splits even from odd weight
    assert hom.num_blocks == 2 and [d.num_blocks for d in duals] == [3, 3] and not reflexive
    columns = np.random.default_rng(3).choice(ring.size, 32, replace=False)
    for table in tables:
        assert np.array_equal(table.widen(table.coeffs[table.orbit_of[columns]]),
                              krawtchouk_coeffs_by_orbit_columns(hom, char, table.side, columns))


def test_non_invariant_partitions_keep_the_element_route():
    ring = CORPUS[0]
    char = canonical_generating_character(ring)
    # the units form one orbit on either side, split here
    part = Partition(ring, [[0, ring.one], [x for x in range(1, ring.size) if x != ring.one]])
    table = duality.krawtchouk_table(part, char, "left")
    assert np.array_equal(table.orbit_of, np.arange(ring.size))


def test_non_frobenius_factor():
    ring = build_product([_non_frobenius_ring(), build_gf(3)])
    assert not ring.is_frobenius
    assert structure_by_orbit_scan(ring)[3] is False
    with pytest.raises(CharacterSearchFailed, match="non_frobenius_8: no generating"):
        canonical_generating_character(ring)
