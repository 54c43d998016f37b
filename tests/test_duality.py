"""Krawtchouk tables, dual partitions, reflexivity, and worked dualities."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring import cyclotomic, duality
from frobring.characters import (
    all_generating_characters,
    canonical_generating_character,
    is_symmetric,
    translate,
)
from frobring.cyclotomic import from_exponent_counts
from frobring.duality import (
    character_independence_check,
    delsarte_rank_krawtchouk,
    dual_partition,
    is_reflexive,
    is_self_dual,
    krawtchouk_table,
    left_right_agreement,
    same_entries,
)
from frobring.cli import (_natural_factor_partition, build_ring, main, parse_ring,
                          select_partition)
from frobring.errors import InternalInconsistency, InvalidParameter, ResourceLimit
from frobring.partitions import (
    Partition,
    equals,
    is_invariant,
    ex5_5_partition,
    hamming_partition,
    hom_partition,
    is_finer,
    product_partition,
    rank_partition,
    symmetrized_power_partition,
)
from frobring.rings import (
    GaloisField,
    MatrixRing,
    ProductRing,
    build_gf,
    build_matrix_ring,
    build_product,
    build_zmod,
    builtin_ring,
)
from frobring.weights import weight_table

from oracles import (dual_groups_by_unique_rows, expand_orbit_payload,
                     krawtchouk_coeffs_by_orbit_columns, krawtchouk_json_by_element,
                     krawtchouk_table_by_element, rational_columns_by_element, ring_id,
                     semisimple_lr_agreement, table_twin)
from test_partitions import (_PRODUCT_RINGS, _assert_matches_grouping, _labelled,
                             _partition_from_assignment, _random_partition_data)


def _named_invariant_partitions():
    """(partition, ring) pairs covering every construction in the package."""
    out = []
    for n in (4, 6, 8, 9, 12):
        ring = build_zmod(n)
        out.append(hom_partition(ring))
    for q in (4, 8, 9):
        out.append(hamming_partition(build_gf(q)))
    m2f2 = build_matrix_ring(2, build_gf(2))
    out.append(rank_partition(m2f2))
    out.append(hom_partition(m2f2))
    gf3 = build_gf(3)
    sq = build_product([gf3, gf3])
    out.append(symmetrized_power_partition(sq, hamming_partition(gf3)))
    mixed = build_product([m2f2, build_gf(2)])
    out.append(
        product_partition(
            mixed, rank_partition(m2f2), hamming_partition(mixed.factors[1])
        )
    )
    out.append(hom_partition(mixed))
    return out


INVARIANT_PARTITIONS = _named_invariant_partitions()


# -- table mechanics and invariants ---------------------------------------------


def test_z4_table_by_hand(z4):
    """Every entry checked against a hand-evaluated character sum.

    With chi(x) = i^x and blocks {0}, {1,3}, {2}, the sums are small
    enough to write out: chi(1)+chi(3) = 0, chi(2) = -1, and so on.
    """
    char = canonical_generating_character(z4)
    table = krawtchouk_table(hom_partition(z4), char, "left")

    def c(*exponents):
        """The sum of i^e over the exponents, each counted once per listing."""
        return from_exponent_counts(4, np.bincount(exponents, minlength=4).tolist())

    assert table.entry(0, 0) == c(0)
    assert table.entry(1, 0) == c(0, 0)
    assert table.entry(2, 0) == c(0)
    assert table.entry(0, 1) == c(0)
    assert table.entry(1, 1) == c()
    assert table.entry(2, 1) == c(2)
    assert table.entry(1, 2) == c(2, 2)
    assert table.entry(2, 2) == c(0)
    assert table.column(3) == table.column(1)


@pytest.mark.parametrize(
    "partition", INVARIANT_PARTITIONS, ids=lambda p: f"{p.ring.expr}-{p.num_blocks}"
)
def test_table_invariants(partition):
    """Zero column lists block sizes; every other column sums to zero."""
    ring = partition.ring
    char = canonical_generating_character(ring)
    for side in ("left", "right"):
        table = krawtchouk_table(partition, char, side)
        for m, block in enumerate(partition.blocks):
            assert table.entry(m, 0).as_int() == len(block)
        for b in range(ring.size):
            total = np.sum([table.entry(m, b).coeffs for m in range(partition.num_blocks)],
                           axis=0)
            expected = ring.size if b == 0 else 0
            assert total.tolist() == [expected] + [0] * (len(total) - 1)


def test_table_indices_out_of_range_are_refused(z4):
    """Blocks and elements are indexed from 0; a negative or too large
    index names itself and the valid range, rather than wrapping."""
    table = krawtchouk_table(hom_partition(z4), canonical_generating_character(z4), "left")
    for m, b, message in [(-1, 0, "block index -1 out of range 0..2"),
                          (3, 0, "block index 3 out of range 0..2"),
                          (0, -1, "element index -1 out of range 0..3"),
                          (0, 4, "element index 4 out of range 0..3")]:
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            table.entry(m, b)
    for b, message in [(-1, "element index -1 out of range 0..3"),
                       (4, "element index 4 out of range 0..3")]:
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            table.column(b)
    assert table.entry(2, 3) == table.column(3)[2]


def test_table_is_cached(z12):
    p = hom_partition(z12)
    char = canonical_generating_character(z12)
    assert krawtchouk_table(p, char, "left") is krawtchouk_table(p, char, "left")
    assert krawtchouk_table(p, char, "left") is not krawtchouk_table(p, char, "right")


def test_table_rejects_bad_inputs(z4, z6):
    p = hom_partition(z4)
    char = canonical_generating_character(z4)
    with pytest.raises(InvalidParameter):
        krawtchouk_table(p, char, "middle")
    with pytest.raises(InvalidParameter):
        krawtchouk_table(p, canonical_generating_character(z6), "left")
    from frobring.characters import Character

    non_gen = Character(z4, [0, 2, 0, 2])
    with pytest.raises(InvalidParameter):
        krawtchouk_table(p, non_gen, "left")


def test_table_json(z4):
    char = canonical_generating_character(z4)
    data = krawtchouk_table(hom_partition(z4), char, "left").to_json()
    assert data["ring"] == "Z4"
    assert data["side"] == "left"
    assert data["order"] == 4
    assert data["orbit_of"] == [0, 1, 2, 1]  # units {1, 3} form one orbit
    assert data["entries"][1][data["orbit_of"][0]] == 2  # block {1,3} at b = 0


def test_table_json_holds_one_entry_per_orbit_and_block():
    """A rational table writes one plain int per (block, orbit); a
    dividing one writes phi(N) coordinates per (block, orbit)."""
    dividing = Partition(build_zmod(9), [[0], [1], list(range(2, 9))])
    cases = [(hom_partition(build_ring(parse_ring(expr))), 1)
             for expr in ["GF(3) x GF(9) x Z25", "Z8 x Z9 x GF(5)", "ex5_5"]]
    for partition, width in cases + [(dividing, 6)]:
        char = canonical_generating_character(partition.ring)
        for side in ("left", "right"):
            table = krawtchouk_table(partition, char, side)
            data = table.to_json()
            assert data["orbit_of"] == table.orbit_of.tolist()
            entries = data["entries"]
            assert [len(row) for row in entries] == [len(table.coeffs)] * partition.num_blocks
            items = [e for row in entries for e in row]
            if width == 1:
                assert {type(e) for e in items} == {int}
                assert entries == table.coeffs[..., 0].T.tolist()
            else:
                assert {len(e) for e in items} == {width}
                assert entries == table.coeffs.transpose(1, 0, 2).tolist()


# -- dual partitions -------------------------------------------------------------


def test_z4_weight_partition_is_self_dual(z4):
    p = hom_partition(z4)
    assert is_self_dual(p)
    assert is_reflexive(p)


def test_hamming_dual_is_hamming():
    for q in (2, 3, 4, 8, 9):
        ring = build_gf(q)
        p = hamming_partition(ring)
        assert is_self_dual(p)
        assert is_reflexive(p)
    f2xf2 = build_product([build_gf(2), build_gf(2)])
    p = hamming_partition(f2xf2)
    assert is_self_dual(p)


def test_singletons_dualize_to_singletons(z8):
    """A generating character separates elements, so the discrete

    partition is its own dual."""
    p = Partition(z8, [[x] for x in range(8)])
    char = canonical_generating_character(z8)
    assert equals(dual_partition(p, char, "left"), p)


@pytest.mark.parametrize(
    "partition", INVARIANT_PARTITIONS, ids=lambda p: f"{p.ring.expr}-{p.num_blocks}"
)
def test_block_count_never_drops_and_reflexive_iff_equal(partition):
    """The dual has at least as many blocks; equality marks reflexivity."""
    char = canonical_generating_character(partition.ring)
    for side in ("left", "right"):
        dual = dual_partition(partition, char, side)
        assert partition.num_blocks <= dual.num_blocks
    left = dual_partition(partition, char, "left")
    assert is_reflexive(partition, char) == (
        partition.num_blocks == left.num_blocks
    )


@pytest.mark.parametrize(
    "partition", INVARIANT_PARTITIONS, ids=lambda p: f"{p.ring.expr}-{p.num_blocks}"
)
def test_dual_blocks_refine_to_columns(partition):
    """Elements share a dual block exactly when their columns agree."""
    ring = partition.ring
    char = canonical_generating_character(ring)
    table = krawtchouk_table(partition, char, "left")
    dual = dual_partition(partition, char, "left")
    for block in dual.blocks:
        first = table.column(block[0])
        for b in block[1:]:
            assert table.column(b) == first
    # distinct blocks have distinct columns
    columns = [table.column(block[0]) for block in dual.blocks]
    assert len({tuple((e.order, e.coeffs) for e in col) for col in columns}) == len(
        columns
    )


@pytest.mark.parametrize(
    "partition",
    [p for p in INVARIANT_PARTITIONS if p.ring.size <= 81],
    ids=lambda p: f"{p.ring.expr}-{p.num_blocks}",
)
def test_character_choice_never_changes_the_tables(partition):
    assert character_independence_check(partition)


def test_dual_under_translated_character(z12):
    """Unit translates of the character leave the dual partition unchanged."""
    p = hom_partition(z12)
    base = canonical_generating_character(z12)
    reference = dual_partition(p, base, "left")
    for u in z12.units:
        char = translate(base, int(u), "left")
        assert equals(dual_partition(p, char, "left"), reference)


# -- left/right symmetry -----------------------------------------------------------


def test_commutative_rings_left_equals_right(z12):
    p = hom_partition(z12)
    assert left_right_agreement(p)


def test_matrix_ring_rank_partition_left_equals_right(m2f2):
    p = rank_partition(m2f2)
    char = canonical_generating_character(m2f2)
    assert is_symmetric(char)
    assert left_right_agreement(p, char)
    assert semisimple_lr_agreement(m2f2, p)


def test_semisimple_checker_rejections(z4, m2f2, ex5_5_rings):
    with pytest.raises(InvalidParameter):
        semisimple_lr_agreement(z4, hom_partition(z4))
    for ring in ex5_5_rings:
        with pytest.raises(InvalidParameter):
            semisimple_lr_agreement(ring, ex5_5_partition(ring))
    with pytest.raises(InvalidParameter):
        semisimple_lr_agreement(m2f2, hom_partition(build_matrix_ring(2, build_gf(2))))
    # isolating the identity splits its unit orbit, breaking invariance
    split = Partition(
        m2f2, [[0], [m2f2.one], [x for x in range(1, 16) if x != m2f2.one]]
    )
    with pytest.raises(InvalidParameter):
        semisimple_lr_agreement(m2f2, split)


# -- the 16-element ring with asymmetric duals ---------------------------------------


def test_ex5_5_left_and_right_duals_differ(ex5_5_rings):
    for ring in ex5_5_rings:
        p = ex5_5_partition(ring)
        char = canonical_generating_character(ring)
        left = dual_partition(p, char, "left")
        right = dual_partition(p, char, "right")
        assert left.num_blocks == 6
        assert right.num_blocks == 6
        assert sorted(left.block_sizes()) == [1, 1, 1, 1, 4, 8]
        assert sorted(right.block_sizes()) == [1, 1, 1, 1, 4, 8]
        assert not equals(left, right)
        # the size-4 and size-8 blocks swap between the two sides
        left_sets = {frozenset(b) for b in left.blocks}
        right_sets = {frozenset(b) for b in right.blocks}
        assert left_sets != right_sets


def test_ex5_5_weight_partition_tables_agree(ex5_5_rings):
    """The weight partition's left and right tables coincide entrywise,

    even though the ring itself tells left from right."""
    for ring in ex5_5_rings:
        p = hom_partition(ring)
        char = canonical_generating_character(ring)
        left = krawtchouk_table(p, char, "left")
        right = krawtchouk_table(p, char, "right")
        assert same_entries(left, right)
        assert left_right_agreement(p, char)


def test_same_entries_distinguishes_partitions(z4, z6):
    a = krawtchouk_table(
        hom_partition(z4), canonical_generating_character(z4), "left"
    )
    coarse = Partition(z4, [[0], [1, 2, 3]])
    b = krawtchouk_table(coarse, canonical_generating_character(z4), "left")
    assert not same_entries(a, b)


# -- worked dualities -----------------------------------------------------------------


def _matrix_square(q):
    mat = build_matrix_ring(2, build_gf(q))
    return build_product([mat, mat]), mat


def test_matrix_square_q2_dual_is_symmetrized_rank():
    ring, mat = _matrix_square(2)
    hom = hom_partition(ring)
    char = canonical_generating_character(ring)
    dual = dual_partition(hom, char, "left")
    sym = symmetrized_power_partition(ring, rank_partition(mat))
    assert equals(dual, sym)
    assert not is_reflexive(hom, char)
    assert hom.num_blocks == 5 and dual.num_blocks == 6
    # the dual strictly refines the weight partition here
    assert is_finer(dual, hom)
    assert not is_finer(hom, dual)


def test_matrix_square_q3_weight_partition_self_dual():
    ring, _ = _matrix_square(3)
    hom = hom_partition(ring)
    char = canonical_generating_character(ring)
    assert equals(dual_partition(hom, char, "left"), hom)
    assert is_self_dual(hom, char)
    assert is_reflexive(hom, char)


def _matrix_by_field(q):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    return build_product([mat, fld]), mat, fld


def test_matrix_by_field_q3_dual_is_product_partition():
    ring, mat, fld = _matrix_by_field(3)
    hom = hom_partition(ring)
    char = canonical_generating_character(ring)
    dual = dual_partition(hom, char, "left")
    prod = product_partition(ring, rank_partition(mat), hamming_partition(fld))
    assert equals(dual, prod)
    assert hom.num_blocks == 5 and dual.num_blocks == 6
    assert not is_reflexive(hom, char)


def test_matrix_by_field_q2_dual_reflexive_not_self_dual():
    ring, mat, fld = _matrix_by_field(2)
    hom = hom_partition(ring)
    char = canonical_generating_character(ring)
    dual = dual_partition(hom, char, "left")
    prod = product_partition(ring, rank_partition(mat), hamming_partition(fld))
    lab = {l: frozenset(b) for l, b in zip(prod.labels, prod.blocks)}
    stated = {
        lab[(0, (0,))],
        lab[(0, (1,))] | lab[(1, (1,))],
        lab[(1, (0,))] | lab[(2, (0,))],
        lab[(2, (1,))],
    }
    assert {frozenset(b) for b in dual.blocks} == stated
    assert hom.num_blocks == 4 and dual.num_blocks == 4
    assert is_reflexive(hom, char)
    assert not is_self_dual(hom, char)


# -- rank Krawtchouk closed form -------------------------------------------------------


def test_delsarte_frozen_values():
    assert delsarte_rank_krawtchouk(2, 2, 0, 0) == 1
    assert delsarte_rank_krawtchouk(2, 2, 0, 1) == 9
    assert delsarte_rank_krawtchouk(2, 2, 0, 2) == 6
    assert delsarte_rank_krawtchouk(2, 2, 2, 2) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_delsarte_matches_character_sums_m2(q):
    ring = build_matrix_ring(2, build_gf(q))
    p = rank_partition(ring)
    char = canonical_generating_character(ring)
    table = krawtchouk_table(p, char, "left")
    for i in range(3):
        b = next(x for x in range(ring.size) if ring.rank(x) == i)
        for k in range(3):
            assert table.entry(k, b).as_int() == delsarte_rank_krawtchouk(2, q, i, k)


def test_delsarte_matches_character_sums_m3():
    ring = build_matrix_ring(3, build_gf(2), max_size=600000)
    p = rank_partition(ring)
    char = canonical_generating_character(ring)
    table = krawtchouk_table(p, char, "left")
    for i in range(4):
        b = next(x for x in range(ring.size) if ring.rank(x) == i)
        for k in range(4):
            assert table.entry(k, b).as_int() == delsarte_rank_krawtchouk(3, 2, i, k)


def test_delsarte_row_sums():
    """Summing the closed form over k recovers the whole-ring count at i=0."""
    for m, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        total = sum(delsarte_rank_krawtchouk(m, q, 0, k) for k in range(m + 1))
        assert total == q ** (m * m)


# -- property test ----------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_merging_weight_blocks_keeps_dual_block_bound(data):
    """Coarsenings of the weight partition are still invariant, and

    their duals never have fewer blocks."""
    n = data.draw(st.sampled_from([6, 8, 9, 12]))
    ring = build_zmod(n)
    hom = hom_partition(ring)
    if hom.num_blocks < 3:
        return
    i = data.draw(st.integers(min_value=1, max_value=hom.num_blocks - 2))
    blocks = [list(b) for k, b in enumerate(hom.blocks) if k not in (i, i + 1)]
    blocks.append(list(hom.blocks[i]) + list(hom.blocks[i + 1]))
    merged = Partition(ring, blocks)
    char = canonical_generating_character(ring)
    dual = dual_partition(merged, char, "left")
    assert merged.num_blocks <= dual.num_blocks


# -- the orbit route against the element-by-element oracle ---------------------------


CHAIN_RINGS = ["GF(3) x GF(9) x Z25", "Z125", "Z27 x GF(7)", "Z8 x Z9 x GF(5)", "Z9 x Z25"]


def _assert_matches_oracle(partition):
    """Every entry on both sides equals the per-element route's, and each dual
    groups the elements by their per-element column; returns the tables."""
    char = canonical_generating_character(partition.ring)
    tables = []
    for side in ("left", "right"):
        table = krawtchouk_table(partition, char, side)
        rows = krawtchouk_table_by_element(partition, char, side)
        oracle = [[list(e.coeffs) for e in row] for row in rows]
        assert table.widen(table.coeffs)[table.orbit_of].transpose(1, 0, 2).tolist() == oracle
        by_element = expand_orbit_payload(table.to_json(), cyclotomic.totient(char.order))
        same = by_element == krawtchouk_json_by_element(table)
        assert same, f"{side} table: the expansion is not the per-element payload"
        assert all(table.entry(m, b) == rows[m][b]
                   for m in range(partition.num_blocks) for b in (0, partition.ring.size - 1))
        _assert_matches_grouping(dual_partition(partition, char, side),
                                 lambda x: tuple(row[x] for row in rows))
        tables.append(table)
    return tables


@pytest.mark.parametrize(
    "partition", INVARIANT_PARTITIONS, ids=lambda p: f"{p.ring.expr}-{p.num_blocks}"
)
def test_orbit_tables_match_oracle_on_invariant_partitions(partition):
    for table in _assert_matches_oracle(partition):
        reps = partition.ring.orbit_index(table.side).reps
        assert len(table.coeffs) == len(reps)


def test_orbit_tables_match_oracle_on_ex5_5(ex5_5_rings):
    for ring in ex5_5_rings:
        _assert_matches_oracle(ex5_5_partition(ring))
        _assert_matches_oracle(hom_partition(ring))


def test_same_entries_matches_the_entrywise_comparison(ex5_5_rings):
    """On ex5_5 the ex5_5 partition's sides differ and the weight partition's agree."""
    for ring in ex5_5_rings:
        char = canonical_generating_character(ring)
        for partition, agree in ((ex5_5_partition(ring), False), (hom_partition(ring), True)):
            tables = [krawtchouk_table(partition, char, side) for side in ("left", "right")]
            left, right = (krawtchouk_table_by_element(partition, char, side)
                           for side in ("left", "right"))
            assert (left == right) is agree
            assert same_entries(*tables) is agree
            assert same_entries(tables[0], tables[0])


@pytest.mark.parametrize("expr", [*CHAIN_RINGS, "ex5_5 x GF(2)", "M(2,GF(3))"])
def test_dual_grouping_matches_the_unique_rows_oracle(expr):
    """Grouping rows as bytes gives the partition np.unique(axis=0) gives, also
    where the chain rings' reduced coefficients are negative."""
    ring = build_ring(parse_ring(expr))
    char = canonical_generating_character(ring)
    partition = hom_partition(ring)
    for side in ("left", "right"):
        table = krawtchouk_table(partition, char, side)
        if expr in CHAIN_RINGS:
            assert (table.coeffs < 0).any()
        assert equals(dual_partition(partition, char, side), dual_groups_by_unique_rows(table))


@pytest.mark.parametrize("ring", _PRODUCT_RINGS, ids=lambda r: r.expr)
def test_orbit_tables_match_oracle_on_products(ring):
    _assert_matches_oracle(hom_partition(ring))


@pytest.mark.parametrize("expr", CHAIN_RINGS)
def test_orbit_tables_match_oracle_on_chain_rings(expr):
    _assert_matches_oracle(hom_partition(build_ring(parse_ring(expr))))


@pytest.mark.parametrize("expr", ["ex5_5", "M(2,GF(2))", "M(2,GF(3))"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_orbit_partitions_match_oracle(expr, side):
    """Blocks = the unit orbits of one side: invariant on that side only.

    The table of the other side runs per orbit, this side's per element.
    """
    ring = build_ring(parse_ring(expr))
    reps, orbit_of = ring.orbit_index(side)[:2]
    part = Partition(ring, [np.flatnonzero(orbit_of == k) for k in range(len(reps))])
    assert not is_invariant(part)
    tables = dict(zip(("left", "right"), _assert_matches_oracle(part)))
    other = "right" if side == "left" else "left"
    assert len(tables[side].coeffs) == ring.size
    assert len(tables[other].coeffs) == len(ring.orbit_index(other).reps)


def test_singletons_take_the_identity_index(z8):
    """Singletons are not unit-invariant, so every element is its own orbit."""
    for table in _assert_matches_oracle(Partition(z8, [[x] for x in range(8)])):
        assert len(table.coeffs) == z8.size
        assert table.orbit_of.tolist() == list(range(8))


@given(data=_random_partition_data(), merge=st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_orbit_tables_match_oracle_on_random_merges(m2f2, data, merge):
    """Random partitions, two blocks merged, on Z_n and on M(2,GF(2)) at 16."""
    size, assignment = data
    ring = m2f2 if size == 16 else build_zmod(size)
    part = _partition_from_assignment(ring, assignment)
    if part.num_blocks > 1:
        i, j = merge % part.num_blocks, (merge + 1) % part.num_blocks
        blocks = [b for k, b in enumerate(part.blocks) if k not in (i, j)]
        part = Partition(ring, blocks + [part.blocks[i] + part.blocks[j]])
    _assert_matches_oracle(part)
    dual = dual_partition(part, canonical_generating_character(ring), "left")
    assert part.num_blocks <= dual.num_blocks


def _division_corpus():
    """The differential corpus up to 4096 elements: ex5_5, its twin and
    products, the product corpora, the chain rings and the rings of the
    named partitions."""
    from test_products import CORPUS

    ex5_5 = builtin_ring("ex5_5")
    rings = [ex5_5, table_twin(ex5_5), *_PRODUCT_RINGS, *(r for r in CORPUS if r.size <= 4096)]
    rings += [build_ring(parse_ring(expr)) for expr in [
        *CHAIN_RINGS, "ex5_5 x GF(2)", "ex5_5 x ex5_5", "M(3,GF(2))", "M(2,GF(4))", "GF(64)",
        "M(2,GF(3)) x Z4", "Z2 x Z4 x Z8", "Z1000", "Z4096"]]
    rings += [p.ring for p in INVARIANT_PARTITIONS]
    return list({ring_id(ring): ring for ring in rings}.values())


@pytest.mark.parametrize("ring", _division_corpus(), ids=ring_id)
def test_rational_tables_match_the_division_route(ring):
    """Unions of unit orbits of either side, on both sides: the weight
    partition, its two duals, the unit orbits of each side (whose table
    of the other side has a column per element) and, on ex5_5, its own
    partition.  Each table holds one integer per entry, and widened to
    phi(N) coordinates it is the division of every count row."""
    char = canonical_generating_character(ring)
    hom = hom_partition(ring, char)
    partitions = [hom, *(dual_partition(hom, char, side) for side in ("left", "right"))]
    partitions += [Partition.from_keys(ring, ring.orbit_index(side).orbit_of)
                   for side in ("left", "right")]
    if ring.expr == "ex5_5":
        partitions.append(ex5_5_partition(ring))
    for partition in partitions:
        for side in ("left", "right"):
            table = krawtchouk_table(partition, char, side)
            assert table.coeffs.shape[2] == 1
            _, reps = np.unique(table.orbit_of, return_index=True)
            assert np.array_equal(table.widen(table.coeffs),
                                  krawtchouk_coeffs_by_orbit_columns(partition, char, side, reps))


def _keyed_builders(ring):
    """Each keyed CLI partition kind that applies to the ring: the
    partition, an element key computed apart from the grouping, and the
    label of a key."""
    out = [(hom_partition(ring), weight_table(ring).__getitem__, str)]
    if isinstance(ring, MatrixRing):
        out.append((rank_partition(ring), ring.rank, int))
    fields = ring.factors if isinstance(ring, ProductRing) else [ring]
    if all(isinstance(f, GaloisField) for f in fields):
        sizes = [f.size for f in fields]

        def profile(x):
            comps = ring.decode(x) if isinstance(ring, ProductRing) else [x]
            return tuple(sum(c != 0 for q, c in zip(sizes, comps) if q == size)
                         for size in sorted(set(sizes)))

        out.append((hamming_partition(ring), profile, lambda k: k))
    if isinstance(ring, ProductRing) and len(ring.factors) == 2:
        left, right = map(_natural_factor_partition, ring.factors)

        def pair(x):
            a, b = ring.decode(x)
            return int(left.block_of[a]), int(right.block_of[b])

        out.append((select_partition(ring, "product"), pair,
                    lambda k: (_labelled(left, k[0]), _labelled(right, k[1]))))
        if ring.factors[0] is ring.factors[1]:
            def multiset(x):
                return tuple(sorted(int(left.block_of[c]) for c in ring.decode(x)))

            out.append((select_partition(ring, "sym2"), multiset,
                        lambda k: tuple(_labelled(left, m) for m in k)))
    return out


@pytest.mark.parametrize("ring", _division_corpus(), ids=ring_id)
def test_orbit_grouping_matches_the_element_grouping(ring, unique_sizes):
    """The weight partition, every keyed builder, both duals of the weight
    partition and each one's bidual, against the oracle's grouping of
    per-element keys: a dual's key is the element's own column, computed
    with no orbit assumed.  No np.unique call of the partitions groups
    more keys than a side has unit orbits."""
    char = canonical_generating_character(ring)
    for partition, key_of, label in _keyed_builders(ring):
        _assert_matches_grouping(partition, key_of, label)
    hom = hom_partition(ring, char)
    for side, other in (("left", "right"), ("right", "left")):
        dual = dual_partition(hom, char, side)
        for parent, child, on in ((hom, dual, side),
                                  (dual, dual_partition(dual, char, other), other)):
            columns = list(map(tuple, rational_columns_by_element(parent, char, on).tolist()))
            _assert_matches_grouping(child, columns.__getitem__)
    assert unique_sizes and max(unique_sizes) <= max(len(ring.orbit_index(side).reps)
                                                      for side in ("left", "right"))


def test_small_count_chunks_give_the_same_table(monkeypatch):
    ring, _ = _matrix_square(2)
    char = canonical_generating_character(ring)
    whole = krawtchouk_table(hom_partition(ring), char, "left")
    monkeypatch.setattr(duality, "_COUNT_CHUNK", 1)
    chunked = krawtchouk_table(Partition(ring, hom_partition(ring).blocks), char, "left")
    assert same_entries(whole, chunked)
    assert chunked.coeffs.shape == whole.coeffs.shape


def test_oversized_table_is_refused_before_counting(monkeypatch):
    """Singletons on Z9973 would need 9973 x 9973 x 9972 coordinates."""
    ring = build_zmod(9973)
    char = canonical_generating_character(ring)
    monkeypatch.setattr(ring, "mul_col", None)  # no column may be computed
    with pytest.raises(ResourceLimit, match="Z9973: a left table of 9973 columns"):
        krawtchouk_table(Partition(ring, [[x] for x in range(ring.size)]), char, "left")


def _one_against_the_rest(ring) -> Partition:
    """{0, 1} against the rest, 1 the identity: the units form one orbit
    on either side, split here, so the blocks are not unions of unit
    orbits and the table divides, one column per element."""
    return Partition(ring, [[0, ring.one], [x for x in range(1, ring.size) if x != ring.one]])


def test_runaway_division_is_refused_before_counting(monkeypatch):
    """On Z2 x Z4620 a table of 9240 columns and 2 blocks would take about
    3.2e10 coordinate updates to reduce: refused, naming ring, side and
    order, before any count."""
    ring = build_ring(parse_ring("Z2 x Z4620"))
    char = canonical_generating_character(ring)
    partition = _one_against_the_rest(ring)

    def no_counts(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(duality, "_orbit_sums", no_counts)
    monkeypatch.setattr(duality, "_kernel_counts", no_counts)
    for side in ("left", "right"):
        with pytest.raises(ResourceLimit, match=f"Z2 x Z4620: reducing a {side} table of 9240 "
                           "columns and 2 blocks at character order 4620 takes 32465664000"):
            krawtchouk_table(partition, char, side)


def test_division_work_bound_is_inclusive(monkeypatch):
    """A table whose reduction makes exactly the bound's updates is built;
    one update fewer allowed refuses it.  A rational table makes none, so
    the bound never refuses one."""
    ring = build_zmod(12)
    char = canonical_generating_character(ring)
    blocks = _one_against_the_rest(ring).blocks
    work = cyclotomic.division_work(char.order, ring.size * len(blocks))
    monkeypatch.setattr(duality, "_DIVISION_WORK", work)
    krawtchouk_table(Partition(ring, blocks), char, "left")
    monkeypatch.setattr(duality, "_DIVISION_WORK", work - 1)
    with pytest.raises(ResourceLimit, match=f"takes {work} coordinate updates"):
        krawtchouk_table(Partition(ring, blocks), char, "left")
    monkeypatch.setattr(duality, "_DIVISION_WORK", 0)
    krawtchouk_table(hom_partition(ring, char), char, "left")


def test_hom_tables_make_no_cyclotomic_division(monkeypatch):
    """Weight partitions, their duals and the tables reflexivity builds
    are all unions of unit orbits: no count row is divided."""
    def no_division(*args):
        raise AssertionError("divided")

    monkeypatch.setattr(cyclotomic, "_divide", no_division)
    for expr in ["ex5_5", "M(2,GF(3))", "Z2310", *CHAIN_RINGS, "ex5_5 x M(2,GF(2)) x GF(2)"]:
        ring = build_ring(parse_ring(expr))
        char = canonical_generating_character(ring)
        partition = hom_partition(ring, char)
        for side in ("left", "right"):
            assert krawtchouk_table(partition, char, side).coeffs.shape[2] == 1
            dual_partition(partition, char, side)
        is_reflexive(partition, char)
    with pytest.raises(AssertionError, match="divided"):
        krawtchouk_table(_one_against_the_rest(ring), char, "left")


def test_z2310_weight_tables_are_fast():
    """The weight partition of Z2310, 32 orbits by 32 blocks at order
    2310: about 0.03 s a side, against 1.6 s by division."""
    ring = build_zmod(2310)
    char = canonical_generating_character(ring)
    partition = hom_partition(ring, char)
    for side in ("left", "right"):
        start = time.perf_counter()
        krawtchouk_table(partition, char, side)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("expr, blocks, reflexive", [
    ("Z9240", (33, 33, 33), True),
    ("Z2 x Z4620", (33, 34, 34), False),
    ("Z9699", (8, 8, 8), True),
])
def test_rings_beyond_the_division_bound_finish(capsys, expr, blocks, reflexive):
    """Their weight tables would take more than 2^30 coordinate updates to
    divide; as rational tables both duals and reflexivity finish."""
    start = time.perf_counter()
    code = main(["dual", "--ring", expr, "--side", "both", "--json", "--no-timestamp"])
    assert code == 0 and time.perf_counter() - start < 10
    payload = json.loads(capsys.readouterr().out)
    assert (payload["primal_num_blocks"], payload["left"]["num_blocks"],
            payload["right"]["num_blocks"]) == blocks
    assert payload["reflexive"] is reflexive
    ring = build_ring(parse_ring(expr))
    assert is_reflexive(hom_partition(ring)) is reflexive


def test_size_guard_ring_dual_finishes(capsys):
    """Z10000 sits at the size guard; both duals and reflexivity run in seconds."""
    start = time.perf_counter()
    code = main(["dual", "--ring", "Z10000", "--side", "both", "--json", "--no-timestamp"])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"] == "Z10000" and payload["left_equals_right"]
    assert elapsed < 10


# -- inconsistency messages name the ring, the character order and the side -----------


def test_broken_zero_column_names_ring_order_and_side(monkeypatch):
    z4 = build_zmod(4)
    reduce = cyclotomic.reduce_exponent_counts
    monkeypatch.setattr(cyclotomic, "reduce_exponent_counts",
                        lambda order, counts: reduce(order, counts) * 2)
    with pytest.raises(InternalInconsistency) as err:
        krawtchouk_table(_one_against_the_rest(z4), canonical_generating_character(z4), "right")
    assert "Z4, character of order 4, right table" in str(err.value)
    assert "column at 0" in str(err.value)


def test_broken_orthogonality_names_ring_order_and_side(monkeypatch):
    z9 = build_zmod(9)
    reduce = cyclotomic.reduce_exponent_counts

    def shifted(order, counts):
        out = reduce(order, counts)
        out[1:, 0, 0] += 1  # every column but that at 0
        return out

    monkeypatch.setattr(cyclotomic, "reduce_exponent_counts", shifted)
    with pytest.raises(InternalInconsistency) as err:
        krawtchouk_table(_one_against_the_rest(z9), canonical_generating_character(z9), "left")
    assert "Z9, character of order 9, left table: column at 1 sums to" in str(err.value)


def test_broken_rational_zero_column_names_ring_order_and_side(monkeypatch):
    z4 = build_zmod(4)
    hom = hom_partition(z4)  # its unit sums take the rational route too
    rational = cyclotomic.rational_sums
    monkeypatch.setattr(cyclotomic, "rational_sums",
                        lambda order, counts, where: rational(order, counts, where) * 2)
    with pytest.raises(InternalInconsistency) as err:
        krawtchouk_table(hom, canonical_generating_character(z4), "right")
    assert "Z4, character of order 4, right table" in str(err.value)
    assert "column at 0" in str(err.value)


def test_broken_rational_orthogonality_names_ring_order_and_side(monkeypatch):
    z9 = build_zmod(9)
    rational = cyclotomic.rational_sums

    def shifted(order, counts, where):
        out = rational(order, counts, where)
        out[1:, 0] += 1  # every orbit but that of 0
        return out

    hom = hom_partition(z9)
    monkeypatch.setattr(cyclotomic, "rational_sums", shifted)
    with pytest.raises(InternalInconsistency) as err:
        krawtchouk_table(hom, canonical_generating_character(z9), "left")
    assert "Z9, character of order 9, left table: column at 1 sums to" in str(err.value)


@pytest.mark.parametrize("build", [lambda: build_matrix_ring(3, build_gf(2)),
                                   lambda: builtin_ring("ex5_5"),
                                   lambda: table_twin(builtin_ring("ex5_5")),
                                   lambda: build_zmod(2310)],
                         ids=["M(3,GF(2))", "ex5_5", "ex5_5 as tables", "Z2310"])
def test_leaf_orbit_sums_are_counted_once_per_side(monkeypatch, build):
    """Both tables of the weight partition, both duals and is_reflexive
    share the ring's orbit sums: one count pass per side, and one in all
    on a commutative ring, whose right sums are its left ones."""
    ring = build()
    char = canonical_generating_character(ring)
    hom = hom_partition(ring, char)
    passes = []
    count = duality._kernel_counts
    monkeypatch.setattr(duality, "_kernel_counts", lambda *args: passes.append(args) or count(*args))
    for side in ("left", "right"):
        krawtchouk_table(hom, char, side)
        dual_partition(hom, char, side)
    is_reflexive(hom, char)
    assert len(passes) == (1 if ring.is_commutative else 2)


@pytest.mark.parametrize("expr", ["Z9", "Z9 x Z3"])
def test_counts_off_their_gcd_classes_name_ring_order_and_side(monkeypatch, expr):
    """A count row of a rational table that is not constant on the classes
    {e : gcd(e, N) = g} is refused while a leaf's orbit sums are counted,
    on a ring that is its own single leaf and on a product, naming the
    ring counted for."""
    count = duality._kernel_counts

    def skewed(*args):
        for chunk in count(*args):
            chunk[..., 1] += 1
            yield chunk

    monkeypatch.setattr(duality, "_kernel_counts", skewed)
    ring = build_ring(parse_ring(expr))
    char = canonical_generating_character(ring)
    with pytest.raises(InternalInconsistency) as err:
        krawtchouk_table(hom_partition(ring, char), char, "right")
    assert str(err.value) == (f"{expr}, character of order {char.order}, right table: count "
                              f"at exponent 1 differs from that at exponent 2, of the same gcd "
                              f"with {char.order}")


def test_reflexivity_disagreement_names_ring_and_order(monkeypatch):
    z4 = build_zmod(4)
    monkeypatch.setattr(duality, "equals", lambda p, q: False)
    with pytest.raises(InternalInconsistency, match="Z4, character of order 4: the right "
                       "dual of the left dual"):
        is_reflexive(hom_partition(z4))
