"""Partition mechanics, the weight-induced partition, and named constructions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring.characters import canonical_generating_character
from frobring.duality import dual_partition, is_reflexive
from frobring.errors import InvalidParameter
from frobring.partitions import (
    Partition,
    equals,
    ex5_5_partition,
    hamming_partition,
    hom_partition,
    is_finer,
    is_invariant,
    partition_from_weight,
    product_partition,
    rank_partition,
    symmetrized_power_partition,
)
from frobring.rings import (
    GaloisField,
    MatrixRing,
    build_gf,
    build_matrix_ring,
    build_product,
    build_table_ring,
    build_zmod,
    builtin_ring,
    cayley_tables,
)
from frobring.weights import weight_table

from oracles import (group_by_key_oracle, is_invariant_by_units, ring_id, table_twin,
                     unit_orbits_oracle)
from test_weights import WEIGHT_RINGS


# -- canonical form and validation ---------------------------------------------


def test_blocks_are_canonically_ordered(z6):
    p = Partition(z6, [[5, 3], [4, 0, 2], [1]], labels=["a", "b", "c"])
    assert p.blocks == ((0, 2, 4), (1,), (3, 5))
    # labels follow their blocks through the reordering
    assert p.labels == ("b", "c", "a")
    assert p.num_blocks == 3
    assert p.block_sizes() == (3, 1, 2)
    assert [int(b) for b in p.block_of] == [0, 1, 0, 2, 0, 2]


def test_same_blocks_same_partition(z6):
    a = Partition(z6, [[0], [1, 2, 3, 4, 5]])
    b = Partition(z6, [[5, 4, 3, 2, 1], [0]])
    assert a == b
    assert hash(a) == hash(b)


def test_block_of_is_write_protected(z6):
    p = Partition(z6, [[0], [1, 2, 3, 4, 5]])
    with pytest.raises(ValueError):
        p.block_of[0] = 1


def test_partition_validation(z4):
    with pytest.raises(InvalidParameter, match="two blocks"):
        Partition(z4, [[0, 1], [1, 2, 3]])
    with pytest.raises(InvalidParameter, match="not covered"):
        Partition(z4, [[0, 1], [3]])
    with pytest.raises(InvalidParameter, match="out of range"):
        Partition(z4, [[0, 1], [2, 3, 4]])
    with pytest.raises(InvalidParameter, match="empty"):
        Partition(z4, [[0, 1, 2, 3], []])
    with pytest.raises(InvalidParameter, match="label"):
        Partition(z4, [[0, 1], [2, 3]], labels=["only-one"])


def test_json_round_trip(z12):
    p = hom_partition(z12)
    data = p.to_json()
    q = Partition(z12, data["blocks"], data["labels"])
    assert q == p
    assert q.labels == p.labels


# -- weight-induced partitions ---------------------------------------------------


def test_weight_partition_z4(z4):
    p = hom_partition(z4)
    assert p.blocks == ((0,), (1, 3), (2,))
    assert p.labels == ("0", "1", "2")


def test_weight_partition_blocks_share_weight(z12):
    table = weight_table(z12)
    p = partition_from_weight(table)
    for block in p.blocks:
        values = {table.weights[x] for x in block}
        assert len(values) == 1
    weights_seen = [table.weights[b[0]] for b in p.blocks]
    assert len(set(weights_seen)) == p.num_blocks


def test_hom_partition_zero_weight_block(ex5_5_rings):
    """Two elements share weight zero here, so zero's block has size 2."""
    for ring in ex5_5_rings:
        p = hom_partition(ring)
        assert p.num_blocks == 3
        assert p.blocks[0] == (0, 5)
        assert p.labels[0] == "0"
        assert sorted(p.block_sizes()) == [2, 2, 12]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_zmod(12),
        lambda: build_gf(9),
        lambda: build_matrix_ring(2, build_gf(2)),
        lambda: build_product([build_gf(2), build_gf(2)]),
    ],
    ids=["Z12", "GF9", "M2F2", "F2xF2"],
)
def test_hom_partition_is_invariant(build):
    assert is_invariant(hom_partition(build()))


@pytest.mark.parametrize(
    "build,one_sided_invariant",
    [
        (lambda: builtin_ring("ex5_5"), False),
        (lambda: table_twin(builtin_ring("ex5_5")), False),
        (lambda: build_matrix_ring(2, build_gf(2)), False),
        (lambda: build_zmod(12), True),
    ],
    ids=["ex5_5", "ex5_5 as tables", "M2F2", "Z12"],
)
def test_is_invariant_matches_unit_scan(build, one_sided_invariant):
    """Orbit route = unit-by-unit scan, on one-sided orbit partitions too."""
    ring = build()
    for side in ("left", "right"):
        orbits = Partition(ring, unit_orbits_oracle(ring, side))
        assert is_invariant(orbits) == is_invariant_by_units(orbits) == one_sided_invariant
    hom = hom_partition(ring)
    assert is_invariant(hom) and is_invariant_by_units(hom)


# -- rank and hamming partitions --------------------------------------------------


def test_rank_partition_m2f2(m2f2):
    p = rank_partition(m2f2)
    assert p.num_blocks == 3
    assert p.block_sizes() == (1, 9, 6)
    assert p.labels == (0, 1, 2)
    for r, block in enumerate(p.blocks):
        assert all(m2f2.rank(x) == r for x in block)


def test_rank_partition_m2f3(m2f3):
    p = rank_partition(m2f3)
    assert p.block_sizes() == (1, 32, 48)


def test_rank_partition_equals_hom_on_matrix_rings(m2f2, m2f3):
    for ring in (m2f2, m2f3):
        assert equals(rank_partition(ring), hom_partition(ring))


def test_rank_partition_rejects_non_matrix_ring(z4):
    with pytest.raises(InvalidParameter):
        rank_partition(z4)


def test_hamming_partition_field(gf4):
    p = hamming_partition(gf4)
    assert p.blocks == ((0,), (1, 2, 3))
    assert p.labels == ((0,), (1,))


def test_hamming_partition_product(f2xf2):
    p = hamming_partition(f2xf2)
    assert p.block_sizes() == (1, 2, 1)
    assert p.labels == ((0,), (1,), (2,))


def test_hamming_partition_mixed_fields():
    ring = build_product([build_gf(2), build_gf(3), build_gf(2)])
    p = hamming_partition(ring)
    # labels count nonzero components per field size (q=2 first, then q=3)
    assert ((0, 0),) not in p.labels  # tuples of counts, one per field size
    label_set = set(p.labels)
    assert (0, 0) in label_set and (2, 1) in label_set
    assert p.num_blocks == 6
    for label, block in zip(p.labels, p.blocks):
        for x in block:
            comps = ring.decode(x)
            n2 = (comps[0] != 0) + (comps[2] != 0)
            n3 = int(comps[1] != 0)
            assert (n2, n3) == label


def test_hamming_partition_rejects_non_field_factors(z4):
    with pytest.raises(InvalidParameter):
        hamming_partition(z4)
    with pytest.raises(InvalidParameter):
        hamming_partition(build_product([build_gf(2), build_zmod(4)]))


# -- product and symmetrized-power partitions --------------------------------------


def test_product_partition_structure():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    ring = build_product([gf2, gf3])
    p = product_partition(ring, hamming_partition(gf2), hamming_partition(gf3))
    assert p.num_blocks == 4
    assert set(p.labels) == {
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    }
    for label, block in zip(p.labels, p.blocks):
        for x in block:
            a, b = ring.decode(x)
            assert ((int(a != 0),), (int(b != 0),)) == label


def test_product_partition_rejects_mismatched_factors():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    ring = build_product([gf2, gf3])
    with pytest.raises(InvalidParameter):
        product_partition(ring, hamming_partition(gf3), hamming_partition(gf2))
    with pytest.raises(InvalidParameter):
        product_partition(gf2, hamming_partition(gf2), hamming_partition(gf3))


def test_symmetrized_power_groups_by_label_multiset():
    gf3 = build_gf(3)
    ring = build_product([gf3, gf3])
    base = hamming_partition(gf3)
    p = symmetrized_power_partition(ring, base)
    assert p.num_blocks == 3
    assert set(p.labels) == {
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (1,)),
    }
    sizes = dict(zip(p.labels, p.block_sizes()))
    assert sizes[((0,), (0,))] == 1
    assert sizes[((0,), (1,))] == 4
    assert sizes[((1,), (1,))] == 4


def test_symmetrized_power_requires_matching_factors():
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    ring = build_product([gf2, gf3])
    with pytest.raises(InvalidParameter):
        symmetrized_power_partition(ring, hamming_partition(gf2))
    square = build_product([gf3, gf3])
    with pytest.raises(InvalidParameter):
        symmetrized_power_partition(square, hamming_partition(gf3), n=3)


# -- worked-example structures -----------------------------------------------------


def _sym_rank_square(q):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    ring = build_product([mat, mat])
    return ring, mat


def test_matrix_square_merge_at_q2():
    """Over GF(2), the weight merges the {1,1} and {2,2} rank pairs."""
    ring, mat = _sym_rank_square(2)
    hom = hom_partition(ring)
    sym = symmetrized_power_partition(ring, rank_partition(mat))
    assert sym.num_blocks == 6
    assert hom.num_blocks == 5
    assert is_finer(sym, hom)
    assert not equals(sym, hom)
    by_label = {l: set(b) for l, b in zip(sym.labels, sym.blocks)}
    merged = by_label[(1, 1)] | by_label[(2, 2)]
    assert frozenset(merged) in {frozenset(b) for b in hom.blocks}
    table = weight_table(ring)
    assert {table.weights[x] for x in merged} == {Fraction(8, 9)}


def test_matrix_square_no_merge_at_q3():
    """Over GF(3), all six symmetrized rank pairs have distinct weights."""
    ring, mat = _sym_rank_square(3)
    hom = hom_partition(ring)
    sym = symmetrized_power_partition(ring, rank_partition(mat))
    assert sym.num_blocks == 6
    assert equals(hom, sym)
    table = weight_table(ring)
    assert len({table.weights[b[0]] for b in hom.blocks}) == 6


def _rank_hamming_product(q):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    ring = build_product([mat, fld])
    return ring, mat, fld


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_by_field_merges(q):
    """The weight partition of M_2(F_q) x F_q merges specific rank pairs.

    The (1,1) and (2,0) cells always share a weight.  At q = 2 the
    (1,0) and (2,1) cells merge as well, leaving four blocks.
    """
    ring, mat, fld = _rank_hamming_product(q)
    hom = hom_partition(ring)
    prod = product_partition(
        ring, rank_partition(mat), hamming_partition(fld)
    )
    lab = {l: frozenset(b) for l, b in zip(prod.labels, prod.blocks)}
    merged_11_20 = lab[(1, (1,))] | lab[(2, (0,))]
    if q == 2:
        expected = {
            lab[(0, (0,))],
            lab[(0, (1,))],
            lab[(1, (0,))] | lab[(2, (1,))],
            merged_11_20,
        }
    else:
        expected = {
            lab[(0, (0,))],
            lab[(0, (1,))],
            lab[(1, (0,))],
            lab[(2, (1,))],
            merged_11_20,
        }
    assert {frozenset(b) for b in hom.blocks} == expected
    assert is_finer(prod, hom)


def test_ex5_5_partition_blocks(ex5_5_rings):
    for ring in ex5_5_rings:
        p = ex5_5_partition(ring)
        assert p.blocks == (
            (0,),
            (1, 2, 3, 6, 7),
            (4, 5, 8, 9, 12, 13),
            (10, 11, 14, 15),
        )
        assert is_invariant(p)
        assert not equals(p, hom_partition(ring))


def test_ex5_5_partition_rejects_other_rings(z4):
    with pytest.raises(InvalidParameter):
        ex5_5_partition(z4)
    with pytest.raises(InvalidParameter, match="defined on the ex5_5 builtin ring"):
        ex5_5_partition(build_product([builtin_ring("ex5_5"), build_gf(2)]))


def test_ex5_5_partition_rejects_the_opposite_ring():
    """Same size, identity and addition as ex5_5, the product reversed: refused."""
    ring = builtin_ring("ex5_5")
    add, mul = cayley_tables(ring)
    opposite = build_table_ring({"size": 16, "add": add, "mul": mul.T,
                                 "one": ring.one, "name": "ex5_5"})
    assert not opposite.is_commutative
    with pytest.raises(InvalidParameter, match="defined on the ex5_5 builtin ring"):
        ex5_5_partition(opposite)


# -- every builder against the per-element grouping oracle --------------------------


def _assert_matches_grouping(partition, key_of, label=None):
    """Same blocks, in the same order, and the same labels as the oracle's grouping."""
    blocks, keys = group_by_key_oracle(partition.ring, key_of)
    assert partition.blocks == tuple(map(tuple, blocks))
    assert partition.labels == (None if label is None else tuple(map(label, keys)))
    block_of = np.empty(partition.ring.size, dtype=np.int64)
    for m, block in enumerate(blocks):
        block_of[block] = m
    assert np.array_equal(partition.block_of, block_of)


def _labelled(partition, m):
    return m if partition.labels is None else partition.labels[m]


_GF2, _GF3 = build_gf(2), build_gf(3)
_M2F2, _M2F3 = build_matrix_ring(2, _GF2), build_matrix_ring(2, _GF3)
_PRODUCT_RINGS = [
    build_product([_GF2, _GF3]),
    build_product([_GF3, _GF3]),
    build_product([_M2F2, _GF2]),
    build_product([_M2F3, _GF3]),
    build_product([_M2F2, _M2F2]),
    build_product([build_zmod(4), build_zmod(6)]),
]


def test_blocks_are_built_only_on_access():
    """Comparison, sizes, duals and reflexivity read ``block_of``; the
    block tuples are built on first access, as the oracle groups them."""
    ring = _PRODUCT_RINGS[2]
    table = weight_table(ring)
    part = partition_from_weight(table)
    char = canonical_generating_character(ring)
    assert equals(part, partition_from_weight(table))
    assert sum(part.block_sizes()) == ring.size
    dual_partition(part, char, "left")
    is_reflexive(part, char)
    assert "blocks" not in part.__dict__
    blocks, _ = group_by_key_oracle(ring, table.__getitem__)
    assert part.blocks == tuple(map(tuple, blocks))


@pytest.mark.parametrize("ring", WEIGHT_RINGS + _PRODUCT_RINGS, ids=ring_id)
def test_weight_partition_matches_grouping_oracle(ring):
    table = weight_table(ring)
    _assert_matches_grouping(partition_from_weight(table), table.__getitem__, str)


@pytest.mark.parametrize("ring", [_M2F2, _M2F3, build_matrix_ring(2, build_gf(4)),
                                  build_matrix_ring(3, _GF2)], ids=lambda r: r.expr)
def test_rank_partition_matches_grouping_oracle(ring):
    _assert_matches_grouping(rank_partition(ring), ring.rank, lambda k: k)


@pytest.mark.parametrize("factors", [[2], [4], [8], [9], [2, 2], [2, 2, 2], [2, 3, 2],
                                     [3, 3], [4, 2, 4]], ids=str)
def test_hamming_partition_matches_grouping_oracle(factors):
    ring = build_product([build_gf(q) for q in factors])
    sizes = sorted(set(factors))

    def profile(x):
        comps = ring.decode(x) if len(factors) > 1 else [x]
        return tuple(sum(c != 0 for q, c in zip(factors, comps) if q == size)
                     for size in sizes)

    _assert_matches_grouping(hamming_partition(ring), profile, lambda k: k)


def _factor_partitions(ring):
    """Labelled and unlabelled partitions of each factor of a two-factor product."""
    def natural(f):
        if isinstance(f, MatrixRing):
            return rank_partition(f)
        return hamming_partition(f) if isinstance(f, GaloisField) else hom_partition(f)

    def unlabelled(f):
        return Partition(f, hom_partition(f).blocks)

    a, b = ring.factors
    return [(natural(a), natural(b)), (unlabelled(a), natural(b)),
            (unlabelled(a), unlabelled(b))]


@pytest.mark.parametrize("ring", _PRODUCT_RINGS, ids=lambda r: r.expr)
def test_product_partition_matches_grouping_oracle(ring):
    for left, right in _factor_partitions(ring):
        def pair(x):
            a, b = ring.decode(x)
            return int(left.block_of[a]), int(right.block_of[b])

        _assert_matches_grouping(product_partition(ring, left, right), pair,
                                 lambda k: (_labelled(left, k[0]), _labelled(right, k[1])))


@pytest.mark.parametrize("ring,n", [(_GF3, 2), (_M2F2, 2), (_M2F3, 2), (build_zmod(6), 2),
                                    (build_zmod(12), 3), (_M2F2, 3)],
                         ids=lambda v: getattr(v, "expr", v))
def test_symmetrized_power_matches_grouping_oracle(ring, n):
    power = build_product([ring] * n)
    bases = [hom_partition(ring), Partition(ring, hom_partition(ring).blocks)]
    if isinstance(ring, MatrixRing):
        bases.append(rank_partition(ring))
    for base in bases:
        def multiset(x):
            return tuple(sorted(int(base.block_of[c]) for c in power.decode(x)))

        _assert_matches_grouping(symmetrized_power_partition(power, base, n), multiset,
                                 lambda k: tuple(_labelled(base, m) for m in k))


def test_from_keys_orders_blocks_by_least_member(z6):
    p = Partition.from_keys(z6, [7, 3, 7, 5, 3, 5], label=lambda k: int(k) * 10)
    assert p.blocks == ((0, 2), (1, 4), (3, 5))
    assert p.labels == (70, 30, 50)
    rows = Partition.from_keys(z6, [[1, 2], [0, 0], [1, 2], [0, 0], [1, 3], [1, 3]])
    assert rows.blocks == ((0, 2), (1, 3), (4, 5)) and rows.labels is None


@given(st.integers(1, 40), st.integers(1, 4), st.sampled_from([2, 5, 1 << 62]), st.data())
@settings(max_examples=60, deadline=None)
def test_from_keys_groups_any_integer_key_rows(n, k, bound, data):
    """Folding key columns into one code is exact for keys up to the int64 limits."""
    ring = build_zmod(n)
    keys = np.array(data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=k,
                                                max_size=k), min_size=n, max_size=n)),
                    dtype=np.int64)
    partition = Partition.from_keys(ring, keys, label=lambda key: tuple(key.tolist()))
    _assert_matches_grouping(partition, lambda x: tuple(keys[x].tolist()), label=lambda key: key)


# -- refinement order ---------------------------------------------------------------


def test_is_finer_basics(z12):
    fine = hom_partition(z12)
    coarse = Partition(z12, [[0], list(range(1, 12))])
    trivial = Partition(z12, [[x] for x in range(12)])
    assert is_finer(fine, fine)
    assert is_finer(fine, coarse)
    assert not is_finer(coarse, fine)
    assert is_finer(trivial, fine)
    assert is_finer(trivial, coarse)


def test_is_finer_rejects_cross_ring(z4, z6):
    with pytest.raises(InvalidParameter):
        is_finer(hom_partition(z4), hom_partition(z6))
    with pytest.raises(InvalidParameter):
        equals(hom_partition(z4), hom_partition(z6))


def test_non_invariant_partition_detected(z12):
    """Splitting an associate class breaks unit stability."""
    p = Partition(z12, [[0], [1], list(range(2, 12))])
    assert not is_invariant(p)


@st.composite
def _random_partition_data(draw):
    size = draw(st.sampled_from([4, 6, 8, 9, 12, 16]))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=size, max_size=size
        )
    )
    return size, assignment


def _partition_from_assignment(ring, assignment):
    groups = {}
    for x, g in enumerate(assignment):
        groups.setdefault(g, []).append(x)
    return Partition(ring, list(groups.values()))


@given(data=_random_partition_data(), merge=st.integers(min_value=0, max_value=10))
@settings(max_examples=100, deadline=None)
def test_merging_blocks_coarsens(data, merge):
    size, assignment = data
    ring = build_zmod(size)
    fine = _partition_from_assignment(ring, assignment)
    if fine.num_blocks < 2:
        assert is_finer(fine, fine)
        return
    i = merge % fine.num_blocks
    j = (merge + 1) % fine.num_blocks
    merged_blocks = [
        list(b) for k, b in enumerate(fine.blocks) if k not in (i, j)
    ]
    merged_blocks.append(list(fine.blocks[i]) + list(fine.blocks[j]))
    coarse = Partition(ring, merged_blocks)
    assert is_finer(fine, coarse)
    assert not is_finer(coarse, fine)
    # refinement is antisymmetric: mutual refinement means equality
    assert not (is_finer(fine, coarse) and is_finer(coarse, fine))


@given(data=_random_partition_data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_survives_round_trip(data):
    size, assignment = data
    ring = build_zmod(size)
    p = _partition_from_assignment(ring, assignment)
    q = Partition(ring, p.to_json()["blocks"])
    assert p == q
    assert is_finer(p, q) and is_finer(q, p)


# -- grouping on the unit-orbit set ---------------------------------------------------


def test_weight_partition_duals_and_reflexivity_group_no_element_keys(unique_sizes):
    """On M(2,GF(3)) x M(2,GF(3)) every np.unique call of the partitions
    groups one key per unit orbit, never one per element."""
    ring = build_product([_M2F3, _M2F3])
    char = canonical_generating_character(ring)
    hom = hom_partition(ring, char)
    for side in ("left", "right"):
        dual_partition(hom, char, side)
    assert is_reflexive(hom, char)
    orbits = max(len(ring.orbit_index(side).reps) for side in ("left", "right"))
    assert unique_sizes and max(unique_sizes) <= orbits < ring.size


def test_keys_off_the_unit_orbits_group_every_element(z12, unique_sizes):
    """{0, 1} against the rest splits the unit orbit {1, 5, 7, 11}, and
    singletons split every orbit: each groups one key per element."""
    z12.orbit_index("left")  # indexed, so only the keys decide
    keys = [0, 0] + [1] * 10
    _assert_matches_grouping(Partition.from_keys(z12, keys), keys.__getitem__)
    _assert_matches_grouping(Partition.from_keys(z12, np.arange(12)), int)
    _assert_matches_grouping(Partition(z12, [[x] for x in range(12)]), int)
    assert set(unique_sizes) == {12}


def test_product_of_non_invariant_factor_partitions_groups_every_element(unique_sizes):
    z4, z6 = build_zmod(4), build_zmod(6)
    ring = build_product([z4, z6])
    ring.orbit_index("left")
    left, right = Partition(z4, [[0, 1], [2, 3]]), Partition(z6, [[0, 1], [2, 3, 4, 5]])
    assert not (is_invariant(left) or is_invariant(right))
    unique_sizes.clear()
    part = product_partition(ring, left, right)

    def pair(x):
        a, b = ring.decode(x)
        return int(left.block_of[a]), int(right.block_of[b])

    _assert_matches_grouping(part, pair, lambda k: k)
    assert not is_invariant(part)
    assert set(unique_sizes) == {ring.size}


@given(st.sampled_from([build_zmod(n) for n in (4, 6, 8, 9, 12, 16)] + [_M2F2]),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_from_keys_on_indexed_orbits_matches_the_oracle(ring, per_orbit, data):
    """Keys drawn once per left unit orbit, or once per element, on a ring
    whose orbits are indexed: blocks, order and labels as the oracle's."""
    reps, orbit_of = ring.orbit_index("left")[:2]
    size = len(reps) if per_orbit else ring.size
    keys = np.array(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    if per_orbit:
        keys = keys[orbit_of]
    partition = Partition.from_keys(ring, keys, label=int)
    _assert_matches_grouping(partition, lambda x: int(keys[x]), int)
    assert sum(partition.block_sizes()) == ring.size
