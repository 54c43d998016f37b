"""Additive characters: construction, the generating property, translates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring.characters import (
    Character,
    all_generating_characters,
    canonical_generating_character,
    is_generating,
    is_symmetric,
    search_generating_character,
    translate,
)
from frobring.cyclotomic import from_exponent_counts, reduce_exponent_counts
from frobring.duality import krawtchouk_table
from frobring.errors import InternalInconsistency, InvalidParameter
from frobring.rings import (
    _held,
    build_gf,
    build_matrix_ring,
    build_product,
    build_table_ring,
    build_zmod,
    builtin_ring,
    cayley_tables,
)
from frobring.cli import _non_frobenius_ring, build_ring, parse_ring
from frobring.partitions import hom_partition
from frobring.weights import weight_table

from frobring.characters import _additive_maps, _check_hom
from oracles import (
    additive_closure,
    additive_presentation_by_coset_arrays,
    generating_characters_by_translate,
    is_additive_by_pairs,
    is_generating_by_kernel_scan,
    principal_ideal_oracle,
    ring_id,
    table_twin,
)


def _frobenius_probe_rings():
    return [
        build_zmod(4),
        build_zmod(6),
        build_zmod(8),
        build_zmod(9),
        build_zmod(12),
        build_gf(4),
        build_gf(8),
        build_gf(9),
        build_product([build_gf(2), build_gf(2)]),
        build_product([build_zmod(4), build_gf(3)]),
        build_matrix_ring(2, build_gf(2)),
        builtin_ring("ex5_5"),
        table_twin(builtin_ring("ex5_5")),
    ]


FROBENIUS_RINGS = _frobenius_probe_rings()


def oracle_is_generating(char) -> bool:
    """Definition-level check: no nonzero one-sided ideal in the kernel."""
    ring = char.ring
    kernel = {x for x in range(ring.size) if char.exponents[x] == 0}
    for x in range(1, ring.size):
        if principal_ideal_oracle(ring, x, "left") <= kernel:
            return False
        if principal_ideal_oracle(ring, x, "right") <= kernel:
            return False
    return True


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=ring_id)
def test_canonical_character_is_additive(ring):
    char = canonical_generating_character(ring)
    for a in range(ring.size):
        for b in range(ring.size):
            expected = (char.exponents[a] + char.exponents[b]) % char.order
            assert char.exponents[ring.add(a, b)] == expected


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=ring_id)
def test_canonical_character_is_generating_by_definition(ring):
    char = canonical_generating_character(ring)
    assert is_generating(char)
    assert oracle_is_generating(char)


def test_character_values_are_roots_of_unity(z12):
    char = canonical_generating_character(z12)
    assert char.order == 12
    assert char.exponents.tolist() == list(range(12))


def test_character_value_sum_orthogonality():
    """Values of a nontrivial character sum to zero over the ring."""
    for ring in FROBENIUS_RINGS:
        char = canonical_generating_character(ring)
        counts = np.bincount(char.exponents, minlength=char.order)
        assert not reduce_exponent_counts(char.order, counts).any()


def test_trivial_character_values_sum_to_size(z6):
    char = Character(z6, [0] * 6)
    counts = np.bincount(char.exponents, minlength=char.order)
    assert from_exponent_counts(char.order, counts).as_int() == 6


def test_constructor_rejections(z4):
    with pytest.raises(InvalidParameter):
        Character(z4, [0, 1, 2])  # wrong length
    with pytest.raises(InvalidParameter):
        Character(z4, [1, 2, 3, 0])  # nonzero at 0
    with pytest.raises(InvalidParameter):
        Character(z4, [0, 1, 3, 2])  # not additive


# -- additivity on a generating set -------------------------------------------


@pytest.mark.parametrize(
    "ring",
    FROBENIUS_RINGS + [build_matrix_ring(2, build_gf(3)),
                       build_product([build_matrix_ring(2, build_gf(2)), build_gf(2)])],
    ids=ring_id,
)
def test_additive_generators_generate_and_are_few(ring):
    gens = ring.additive_presentation.gens
    assert 2 ** len(gens) <= ring.size
    assert additive_closure(ring, gens) == frozenset(range(ring.size))


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=ring_id)
def test_generator_check_matches_pairwise_oracle(ring):
    """Additive maps (multiples, translates by any element) and broken ones."""
    char = canonical_generating_character(ring)
    order = char.order
    rng = np.random.default_rng(7)
    candidates = [char.exponents * k % order for k in range(min(order, 5))]
    candidates += [char.exponents[ring.mul_col(r)] for r in range(ring.size)]
    for _ in range(20):
        exps = rng.integers(0, order, ring.size)
        exps[0] = 0
        candidates.append(exps)
    verdicts = [_check_hom(ring, e, order) for e in candidates]
    assert verdicts == [is_additive_by_pairs(ring, e, order) for e in candidates]
    assert sum(verdicts) >= ring.size


def _cosets(ring, subgroup, g):
    """Index j of the coset subgroup + j*g holding each element, or -1."""
    label = np.full(ring.size, -1)
    coset, j = subgroup, 0
    while label[next(iter(coset))] < 0:
        label[list(coset)] = j
        coset, j = frozenset(ring.add(x, g) for x in coset), j + 1
    return label


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=ring_id)
def test_maps_additive_along_some_generators_only(ring):
    """Every generator is needed: maps additive along all but one, or
    along one only, get the pairwise verdict."""
    char = canonical_generating_character(ring)
    e, order = char.exponents, char.order
    gens = ring.additive_presentation.gens
    rng = np.random.default_rng(11)
    candidates = []
    for g in gens:
        # e + f(x + <g>) with f(<g>) = 0 is additive along g
        cyclic = additive_closure(ring, [g])
        f = {cyclic: 0}
        coset_of = [frozenset(ring.add(x, c) for c in cyclic) for x in range(ring.size)]
        candidates.append((e + [f.setdefault(c, int(rng.integers(order)))
                                for c in coset_of]) % order)
        # e + d(j) on the cosets S + jg of S = <other generators>, d(0) = 0,
        # is additive along every generator but g
        label = _cosets(ring, additive_closure(ring, [h for h in gens if h != g]), g)
        if label.min() >= 0 and label.max() >= 1:
            candidates.append((e + (label == 1)) % order)
    verdicts = [_check_hom(ring, c, order) for c in candidates]
    assert verdicts == [is_additive_by_pairs(ring, c, order) for c in candidates]
    if len(gens) > 1 and order > 2:  # over F_2 every such map is additive
        assert not all(verdicts)


@pytest.mark.parametrize(
    "ring",
    [build_zmod(12), build_gf(4), builtin_ring("ex5_5"), table_twin(builtin_ring("ex5_5")),
     build_product([build_zmod(4), build_gf(3)]),
     build_matrix_ring(2, build_gf(9))],  # 6561 elements
    ids=ring_id,
)
def test_one_changed_exponent_is_rejected(ring):
    """Changing e at one element off the generating set breaks additivity."""
    char = canonical_generating_character(ring)
    gens = set(ring.additive_presentation.gens)
    others = [x for x in range(1, ring.size) if x not in gens]
    assert others
    for x in others[:: max(1, len(others) // 40)]:
        exps = char.exponents.copy()
        exps[x] = (exps[x] + 1) % char.order
        if ring.size <= 100:
            assert not is_additive_by_pairs(ring, exps, char.order)
        with pytest.raises(InvalidParameter, match="not an additive"):
            Character(ring, exps, char.order)


def test_galois_field_character_is_frobenius_stable():
    """The exponent map is invariant under x -> x^p."""
    for q, p in [(4, 2), (8, 2), (9, 3)]:
        ring = build_gf(q)
        char = canonical_generating_character(ring)
        for x in range(q):
            xp = x
            for _ in range(p - 1):
                xp = ring.mul(xp, x)
            assert char.exponents[xp] == char.exponents[x]


# -- the generating property ---------------------------------------------------


def test_is_generating_agrees_with_definition_on_non_generating_maps():
    z4 = build_zmod(4)
    not_gen = Character(z4, [0, 2, 0, 2])
    assert not is_generating(not_gen)
    assert not oracle_is_generating(not_gen)
    trivial = Character(z4, [0, 0, 0, 0])
    assert not is_generating(trivial)

    z8 = build_zmod(8)
    doubled = Character(z8, [(2 * x) % 8 for x in range(8)])
    assert not is_generating(doubled)
    assert not oracle_is_generating(doubled)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_zmod_generating_characters_are_exactly_unit_multipliers(n):
    """x -> kx generates iff gcd(k, n) = 1, checked against the oracle."""
    from math import gcd

    ring = build_zmod(n)
    for k in range(n):
        char = Character(ring, [(k * x) % n for x in range(n)])
        expected = gcd(k, n) == 1
        assert is_generating(char) == expected
        assert oracle_is_generating(char) == expected


@pytest.mark.parametrize(
    "ring", FROBENIUS_RINGS + [build_matrix_ring(2, build_gf(3))], ids=ring_id
)
def test_translates_generate_exactly_at_units(ring):
    """chi(.r) and chi(r.) are generating iff r is a unit, on a Frobenius ring."""
    base = canonical_generating_character(ring)
    units = set(ring.units)
    for r in range(ring.size):
        for side in ("left", "right"):
            char = translate(base, r, side)
            expected = r in units
            assert is_generating(char) == expected, (r, side)
            assert is_generating_by_kernel_scan(char) == expected, (r, side)
            if ring.size <= 16:
                assert oracle_is_generating(char) == expected, (r, side)


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=ring_id)
def test_generating_character_count_equals_unit_count(ring):
    chars = all_generating_characters(ring)
    assert len(chars) == len(ring.units)
    keys = {c.key() for c in chars}
    assert len(keys) == len(chars)
    for c in chars:
        assert oracle_is_generating(c)


CHAIN_RINGS = ["Z8 x Z9 x GF(5)", "Z9 x Z25", "Z27 x GF(7)", "GF(3) x GF(9) x Z25", "Z125"]


@pytest.mark.parametrize("ring", FROBENIUS_RINGS + [build_ring(parse_ring(e)) for e in CHAIN_RINGS],
                         ids=ring_id)
def test_generating_characters_match_translate_oracle(ring):
    """The same characters in the same order as translating unit by unit."""
    fast = all_generating_characters(ring)
    slow = generating_characters_by_translate(ring)
    assert [c.order for c in fast] == [c.order for c in slow]
    assert [c.exponents.tolist() for c in fast] == [c.exponents.tolist() for c in slow]


def test_generating_characters_report_equal_translates(monkeypatch):
    """x -> 2x on Z4 has the translates by 1 and 3 equal, so it cannot be generating."""
    from frobring import characters

    z4 = build_zmod(4)
    monkeypatch.setattr(characters, "canonical_generating_character",
                        lambda ring: Character(ring, [0, 2, 0, 2]))
    with pytest.raises(InternalInconsistency) as err:
        all_generating_characters(z4)
    assert str(err.value) == ("Z4: left unit translates of the character of order 4 "
                              "must be pairwise distinct")


def test_generating_characters_report_non_generating_translates(monkeypatch):
    from frobring import characters

    gf4 = build_gf(4)
    canonical_generating_character(gf4)
    monkeypatch.setattr(characters, "is_generating", lambda char: False)
    with pytest.raises(InternalInconsistency) as err:
        all_generating_characters(gf4)
    assert str(err.value) == ("GF(4): left unit translates of the character of order 2 "
                              "must all be generating")


def test_search_finds_character_without_supplied_exponents():
    ring = table_twin(builtin_ring("ex5_5"), exponents=False)
    found = search_generating_character(ring)
    assert found is not None
    assert is_generating(found)
    assert oracle_is_generating(found)
    again = search_generating_character(ring)
    assert np.array_equal(found.exponents, again.exponents)


def test_search_returns_none_on_non_frobenius():
    ring = _non_frobenius_ring()
    assert search_generating_character(ring) is None
    assert search_generating_character(table_twin(ring, exponents=False)) is None


def test_search_needs_an_addition_table():
    """The search reads rows and the additive presentation only, so it needs
    no table: on a kernel ring it finds what it finds on the table twin."""
    for expr in ("Z12", "M(2,GF(2)) x GF(3)"):
        ring = build_ring(parse_ring(expr))
        found = [search_generating_character(r) for r in (ring, table_twin(ring, False))]
        assert found[0].order == found[1].order
        assert np.array_equal(found[0].exponents, found[1].exponents)


# -- the walk over the additive maps ----------------------------------------------


def _table512(seed):
    """The benchmark's 512-element tables, relabelled by the seed, as a ring."""
    from test_bench_hooks import _load

    return build_table_ring(_load("workloads").relabelled_tables(seed))


def _relabelled(expr, seed):
    """The ring's tables under a seeded relabelling fixing 0.  The greedy
    generators then include elements of small order, and later ones close
    on a nonzero element, which mixed-radix labels never do."""
    ring = build_ring(parse_ring(expr))
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(ring.size - 1)])
    inv = np.argsort(perm)
    add, mul = (inv[t[np.ix_(perm, perm)]] for t in cayley_tables(ring))
    return build_table_ring({"size": ring.size, "add": add, "mul": mul,
                             "one": int(inv[ring.one]), "name": f"{expr} relabelled"})


def _walk_rings():
    twins = [table_twin(build_ring(parse_ring(expr)), exponents=False)
             for expr in ["Z12", "ex5_5", "M(2,GF(2)) x GF(3)", "Z8 x Z9", "GF(9) x Z4",
                          "M(2,GF(4))", "Z4 x Z4 x GF(2)"]]
    return twins + [_relabelled("Z8 x Z9", 1), _relabelled("Z4 x Z4 x GF(2)", 2),
                    _table512(1), _table512(2),
                    build_table_ring({"size": 1, "add": [[0]], "mul": [[0]], "one": 0})]


WALK_RINGS = _walk_rings()


def test_some_walk_closes_on_a_nonzero_element():
    assert any(any(ring.additive_presentation.closing) for ring in WALK_RINGS)


@pytest.mark.parametrize("ring", [build_zmod(10000), build_ring(parse_ring("Z8 x Z9")),
                                  _relabelled("Z8 x Z9", 1)], ids=ring_id)
def test_presentation_matches_the_walk_on_coset_arrays(ring):
    got, want = ring.additive_presentation, additive_presentation_by_coset_arrays(ring)
    assert got.gens.tolist() == want.gens.tolist() and got.closing == want.closing
    assert np.array_equal(got.shifts, want.shifts)
    assert len(got.cosets) == len(want.cosets)
    for mine, ref in zip(got.cosets, want.cosets):
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref)


@pytest.mark.parametrize("ring", WALK_RINGS, ids=ring_id)
def test_walk_yields_every_character_once(ring):
    """Every character of a Frobenius ring is x -> chi(xr) for one r."""
    maps = [m.tobytes() for m in _additive_maps(ring)]
    assert len(maps) == len(set(maps)) == ring.size
    chi = canonical_generating_character(ring)
    assert chi.order == ring.characteristic
    assert set(maps) == {chi.exponents[ring.mul_col(r)].tobytes() for r in range(ring.size)}


def test_walk_yields_every_additive_map_of_a_non_frobenius_ring():
    ring = table_twin(_non_frobenius_ring(), exponents=False)
    maps = list(_additive_maps(ring))
    assert len({m.tobytes() for m in maps}) == len(maps) == ring.size == 8
    assert all(is_additive_by_pairs(ring, m, ring.characteristic) for m in maps)


@pytest.mark.parametrize("seed", range(1, 6))
def test_search_on_relabelled_tables_finds_a_generating_character(seed):
    found = search_generating_character(_table512(seed))
    assert found is not None
    assert oracle_is_generating(found)


# -- symmetry -----------------------------------------------------------------


def test_commutative_characters_are_symmetric(z12, gf9, f2xf2):
    for ring in (build_zmod(1), z12, gf9, f2xf2):
        for char in all_generating_characters(ring):
            assert is_symmetric(char)


def test_matrix_ring_has_exactly_one_symmetric_generating_character(m2f2):
    """Symmetric generating characters correspond to central units.

    The center of a full matrix ring over GF(2) has the identity as its
    only unit, so the trace character is the unique symmetric one.  The
    center of its product with GF(2) again has one unit.
    """
    chars = all_generating_characters(m2f2)
    assert len(chars) == 6
    symmetric = [c for c in chars if is_symmetric(c)]
    assert len(symmetric) == 1
    assert symmetric[0] == canonical_generating_character(m2f2)
    product = build_ring(parse_ring("M(2,GF(2)) x GF(2)"))
    verdicts = [is_symmetric(c) for c in all_generating_characters(product)]
    assert (len(verdicts), sum(verdicts)) == (6, 1)


def test_ex5_5_has_no_symmetric_generating_character(ex5_5_rings):
    for ring in ex5_5_rings:
        chars = all_generating_characters(ring)
        assert len(chars) == 4
        assert not any(is_symmetric(c) for c in chars)


# -- translates ---------------------------------------------------------------


def test_translate_matches_pointwise_definition(m2f2):
    char = canonical_generating_character(m2f2)
    r = int(m2f2.units[1])
    left = translate(char, r, "left")
    right = translate(char, r, "right")
    for x in range(m2f2.size):
        assert left.exponents[x] == char.exponents[m2f2.mul(x, r)]
        assert right.exponents[x] == char.exponents[m2f2.mul(r, x)]


def test_translate_composition(m2f2):
    char = canonical_generating_character(m2f2)
    units = [int(u) for u in m2f2.units[:4]]
    for u in units:
        for v in units:
            twice = translate(translate(char, u, "left"), v, "left")
            once = translate(char, m2f2.mul(v, u), "left")
            assert np.array_equal(twice.exponents, once.exponents)
            assert twice == once and hash(twice) == hash(once)


def test_translate_rejects_bad_side(z4):
    char = canonical_generating_character(z4)
    with pytest.raises(InvalidParameter):
        translate(char, 1, "middle")


def test_unit_translates_stay_generating(ex5_5_rings):
    for ring in ex5_5_rings:
        char = canonical_generating_character(ring)
        for u in ring.units:
            for side in ("left", "right"):
                t = translate(char, int(u), side)
                assert is_generating(t)
                assert oracle_is_generating(t)


# -- property tests -----------------------------------------------------------


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_character_additivity_random_pairs(data):
    ring = data.draw(st.sampled_from(FROBENIUS_RINGS))
    char = canonical_generating_character(ring)
    a = data.draw(st.integers(min_value=0, max_value=ring.size - 1))
    b = data.draw(st.integers(min_value=0, max_value=ring.size - 1))
    assert char.exponents[ring.add(a, b)] == (char.exponents[a] + char.exponents[b]) % char.order


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_translate_by_unit_preserves_generating(data):
    ring = data.draw(st.sampled_from(FROBENIUS_RINGS))
    char = canonical_generating_character(ring)
    u = data.draw(st.sampled_from([int(v) for v in ring.units]))
    side = data.draw(st.sampled_from(["left", "right"]))
    assert is_generating(translate(char, u, side))


def test_non_generating_canonical_character_names_ring_order_and_side(monkeypatch):
    from frobring import characters

    z4 = build_zmod(4)
    monkeypatch.setattr(characters, "_canonical", lambda ring: Character(ring, [0, 2, 0, 2]))
    with pytest.raises(InternalInconsistency) as err:
        canonical_generating_character(z4)
    assert str(err.value) == (
        "Z4: the kernel of the canonical character of order 4 holds a nonzero left ideal"
    )


def test_non_generating_canonical_character_names_the_failing_factor():
    """On a product the generating test runs on the restrictions, and the
    error names the first factor whose restriction is not generating,
    with the product's character order and the side."""
    z4 = build_zmod(4)
    ring = build_product([build_matrix_ring(2, build_gf(2)), z4])
    # held as Z4's canonical character, whose kernel holds the ideal {0, 2}
    _held(z4, "_canonical_char", lambda: Character(z4, [0, 2, 0, 2]))
    with pytest.raises(InternalInconsistency) as err:
        canonical_generating_character(ring)
    assert str(err.value) == ("M(2,GF(2)) x Z4: the kernel of the canonical character of "
                              "order 4 holds a nonzero left ideal of the factor Z4")
    assert not hasattr(ring, "_orbit_cache")  # the product's own orbits were never indexed


def test_exponents_are_read_only_and_keyed_once():
    """The tables and weights cached under ``key()`` rely on exponents
    no caller can change; the key is built once, and an equal character
    finds the same cached objects."""
    ring = build_zmod(12)
    char = canonical_generating_character(ring)
    with pytest.raises(ValueError):
        char.exponents[1] = 0
    with pytest.raises(ValueError):
        char.exponents += 1
    assert char.exponents.tolist() == list(range(12))
    assert char.key() is char.key()
    part = hom_partition(ring, char)
    table, weights = krawtchouk_table(part, char, "left"), weight_table(ring, char)
    twin = Character(ring, char.exponents.copy(), char.order)
    assert krawtchouk_table(part, char, "left") is table
    assert krawtchouk_table(part, twin, "left") is table
    assert weight_table(ring, twin) is weights
