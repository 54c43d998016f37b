"""Ring construction, axioms, and derived structure vs oracle enumeration."""

import json
from functools import reduce
from itertools import chain
from time import perf_counter

import numpy as np
import pytest

from frobring.errors import (
    CharacterSearchFailed,
    InternalInconsistency,
    InvalidParameter,
    InvalidRing,
    ResourceLimit,
)
from frobring.rings import (
    AlgebraRing,
    FiniteRing,
    build_gf,
    build_matrix_ring,
    build_product,
    build_table_ring,
    build_zmod,
    builtin_ring,
    cayley_tables,
    load_table_spec,
    validate_tables,
)
from frobring import characters, duality, partitions, rings
from frobring.characters import canonical_generating_character
from frobring.cli import _non_frobenius_ring, build_ring, parse_ring
from frobring.partitions import hom_partition, is_invariant
from frobring.weights import weight_table

from oracles import (
    additive_associativity_by_light,
    all_ideals,
    element_label_by_decode,
    ex5_5_tables_from_matrices,
    generator_translations_commute,
    is_commutative_by_pairs,
    is_frobenius_oracle,
    matrix_rank_oracle,
    non_frobenius_tables_from_bits,
    permutation_rows_by_mask,
    principal_ideal_mask,
    principal_ideal_members,
    principal_ideal_oracle,
    radical_oracle,
    right_distributivity_by_generators,
    ring_id,
    socle_oracle,
    table_twin,
    unit_orbits_oracle,
    units_oracle,
    validate_tables_exhaustive,
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
        builtin_ring("ex5_5"),
        table_twin(builtin_ring("ex5_5")),
        _non_frobenius_ring(),
        table_twin(_non_frobenius_ring(), exponents=False),
    ]


PROBE_RINGS = _probe_rings()


# -- axioms -------------------------------------------------------------------


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_axioms_hold_on_probe_rings(ring):
    add, mul = cayley_tables(ring)
    validate_tables(add, mul, ring.one)
    validate_tables_exhaustive(add, mul, ring.one)


@pytest.fixture(scope="module")
def ring1024():
    return build_product([build_matrix_ring(2, build_gf(4)), build_gf(4)])


def test_validate_1024_element_tables_within_budget(ring1024):
    """M(2,GF(4)) x GF(4): the exhaustive route took 48 s at this size."""
    add, mul = cayley_tables(ring1024)
    assert add.shape == (1024, 1024)
    start = perf_counter()
    validate_tables(add, mul, ring1024.one)
    assert perf_counter() - start < 5.0


def test_late_rows_rejected_with_genuine_witness(ring1024):
    """Changes far from row 0 are found past the first block of rows."""
    add0, mul0 = cayley_tables(ring1024)
    add = add0.copy()
    _switch_cycle(add, 1000, 1001, 1002)
    cases = [(add, mul0)]
    for row in (700, 1023):
        mul = mul0.copy()
        mul[row, 900] ^= 1
        cases.append((add0, mul))
    for add, mul in cases:
        with pytest.raises(InvalidRing) as info:
            validate_tables(add, mul, ring1024.one)
        _assert_genuine(info.value, add, mul, ring1024.one)


@pytest.mark.parametrize("entry", [(5, 1000), (1000, 5), (1000, 1001)])
def test_asymmetry_is_found_in_tiles_on_and_off_the_diagonal(ring1024, entry):
    """+ is compared with its transpose tile by tile; an entry and its
    mirror image lie in two tiles off the diagonal, the last entry in a
    tile on it."""
    add, mul = cayley_tables(ring1024)
    add[entry] ^= 1
    with pytest.raises(InvalidRing, match=r"^\d+ \+ \d+ != \d+ \+ \d+$") as info:
        validate_tables(add, mul, ring1024.one)
    _assert_genuine(info.value, add, mul, ring1024.one)


def _verdict(route, *tables):
    try:
        route(*tables)
    except InvalidRing as exc:
        return exc
    return None


def _assert_genuine(exc, add, mul, one):
    """The axiom the message names fails at the reported witness."""
    msg, w = str(exc), exc.witness
    n = add.shape[0]
    if msg == f"0 + {w[-1]} != {w[-1]}":
        assert add[0, w[1]] != w[1]
    elif msg.startswith("row "):
        assert len(set(add[w[0]].tolist())) < n
    elif "identity" in msg:
        assert not (np.array_equal(mul[one], np.arange(n))
                    and np.array_equal(mul[:, one], np.arange(n)))
    elif msg.startswith("addition is not associative"):
        a, b, c = w
        assert add[add[a, b], c] != add[a, add[b, c]]
    elif msg.startswith("multiplication is not associative"):
        a, b, c = w
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]
    elif msg.startswith("left distributivity"):
        a, b, c = w
        assert mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]
    elif msg.startswith("right distributivity"):
        a, b, c = w
        assert mul[add[b, c], a] != add[mul[b, a], mul[c, a]]
    else:
        a, b = w
        assert msg == f"{a} + {b} != {b} + {a}" and add[a, b] != add[b, a]


@pytest.mark.parametrize(
    "ring",
    [builtin_ring("ex5_5"), build_zmod(12),
     build_product([build_zmod(4), build_gf(3)]),
     build_product([builtin_ring("ex5_5"), build_gf(2)])],
    ids=lambda r: r.expr,
)
def test_generator_route_matches_exhaustive_on_mutations(ring):
    """Seeded single-entry changes to either table: same verdict both ways."""
    rng = np.random.default_rng(ring.size)
    add0, mul0 = (np.array(t) for t in cayley_tables(ring))
    n = ring.size
    rejected = 0
    for trial in range(200):
        add, mul = add0.copy(), mul0.copy()
        table = add if trial % 2 else mul
        a, b = rng.integers(0, n, 2)
        table[a, b] = (table[a, b] + rng.integers(1, n)) % n
        fast = _verdict(validate_tables, add, mul, ring.one)
        slow = _verdict(validate_tables_exhaustive, add, mul, ring.one)
        assert (fast is None) == (slow is None), (trial, fast, slow)
        if fast is not None:
            _assert_genuine(fast, add, mul, ring.one)
            rejected += 1
    assert rejected > 0


def _corrupt_mul(rng, add, mul0, one):
    """One of five seeded changes to * that keep ``one`` its identity.

    One or two entries away from the row and column of ``one``; some
    columns x -> xa taken from the opposite ring, x -> ax, which keeps
    each column additive; some rows likewise, which keeps each row
    additive; or, where + is xor, xy + l(x)m(y)c for parities l and m
    that vanish at ``one``, which keeps both distributive laws.
    """
    n = len(mul0)
    mul, kind = mul0.copy(), rng.integers(5)
    picked = rng.random(n) < 0.3
    if kind == 2:
        mul[:, picked] = mul0.T[:, picked]
    elif kind == 3:
        mul[picked] = mul0.T[picked]
    elif kind == 4 and np.array_equal(add, np.bitwise_xor.outer(np.arange(n), np.arange(n))):
        l, m = ([bin(x & mask).count("1") % 2 for x in range(n)]
                for mask in rng.choice([k for k in range(1, n)
                                        if bin(one & k).count("1") % 2 == 0], 2))
        mul ^= np.outer(l, m) * rng.integers(1, n)
    else:
        others = np.setdiff1d(np.arange(n), [one])
        for _ in range(kind % 2 + 1):
            x, a = rng.choice(others, 2)
            mul[x, a] = (mul[x, a] + rng.integers(1, n)) % n
    return mul


@pytest.mark.parametrize(
    "ring",
    [builtin_ring("ex5_5"), build_zmod(12), build_matrix_ring(2, build_gf(2)),
     build_product([build_zmod(4), build_gf(2)]), build_gf(8),
     build_product([builtin_ring("ex5_5"), build_gf(2)])],
    ids=lambda r: r.expr,
)
def test_walk_edges_match_exhaustive_on_corrupted_multiplication(ring):
    """Right distributivity on the coset walks' edges: the verdict on each
    corrupted * is the exhaustive one, every witness fails, and the check
    fails exactly where the check along every x for each generator does."""
    rng = np.random.default_rng(ring.size + 7)
    add, mul0 = (np.array(t) for t in cayley_tables(ring))
    reached = set()
    for trial in range(150):
        mul = _corrupt_mul(rng, add, mul0, ring.one)
        fast = _verdict(validate_tables, add, mul, ring.one)
        slow = _verdict(validate_tables_exhaustive, add, mul, ring.one)
        assert (fast is None) == (slow is None), (trial, fast, slow)
        by_generators = _verdict(right_distributivity_by_generators, add, mul)
        right_fails = fast is not None and str(fast).startswith("right distributivity")
        assert right_fails == (by_generators is not None), (trial, fast, by_generators)
        if fast is not None:
            _assert_genuine(fast, add, mul, ring.one)
        reached.add(str(fast).split(" at ")[0])
    assert "right distributivity fails" in reached and len(reached) > 1


def test_a_closing_edge_alone_catches_a_column():
    """On Z4 x GF(2), (R,+) = Z4 x Z2 with index 2a + b, the walks run
    0 -> 1 (g = 1, closing 1 -> 0) and {0,1} -> {2,3} -> {4,5} -> {6,7}
    (g = 2, closing 6 -> 0).  The column x -> x*2 replaced by
    2a + b -> 2b, the element (b, 0), agrees with every edge into an
    element, and one*2 is still 2; but it sends 1, of order 2, to (1, 0),
    of order 4, and only the closing edge 1 -> 0 sees that."""
    ring = build_product([build_zmod(4), build_gf(2)])
    add, mul = cayley_tables(ring)
    mul[:, 2] = 2 * (np.arange(8) % 2)
    with pytest.raises(InvalidRing, match=r"^right distributivity fails at \(2,1,1\)$"):
        validate_tables(add, mul, ring.one)
    with pytest.raises(InvalidRing):
        validate_tables_exhaustive(add, mul, ring.one)


def _relabelled_tables(ring, seed):
    """The ring's tables and one under labels shuffled with 0 fixed."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(ring.size - 1)])
    inv = np.argsort(perm)
    add, mul = (inv[t[np.ix_(perm, perm)]] for t in cayley_tables(ring))
    return add, mul, int(inv[ring.one])


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_tables_pass_both_routes(seed):
    """Shuffled labels (0 fixed) move the generators and keep a ring."""
    add, mul, one = _relabelled_tables(build_product([builtin_ring("ex5_5"), build_gf(2)]), seed)
    validate_tables(add, mul, one)
    validate_tables_exhaustive(add, mul, one)


def test_one_element_table_is_a_ring():
    """The zero ring: no additive generators, so no walk edges."""
    table = np.zeros((1, 1), dtype=np.int64)
    validate_tables(table, table, 0)
    validate_tables_exhaustive(table, table, 0)


# The first commutative loop of order 6 in lexicographic order: 0 is
# neutral and every row is a permutation, but + is not associative.
# Every commutative loop of smaller order is a group.
_LOOP6 = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                   [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]])


def _unit_only_mul(n, one):
    mul = np.zeros((n, n), dtype=int)
    mul[one] = mul[:, one] = np.arange(n)
    return mul


def _f2_algebra(uu, uv, vu, vv):
    """Unital F_2-algebra on 1, u, v, index c1 + 2cu + 4cv, from the
    products of u and v given as indices.  Bilinear, so distributive."""
    basis = [[1, 2, 4], [2, uu, uv], [4, vu, vv]]

    def mul(x, y):
        out = 0
        for i in range(3):
            for j in range(3):
                if (x >> i) & (y >> j) & 1:
                    out ^= basis[i][j]
        return out

    add = np.array([[x ^ y for y in range(8)] for x in range(8)])
    return add, np.array([[mul(x, y) for y in range(8)] for x in range(8)])


def _switch_cycle(out, a, b, c):
    """Swap u = out[a, b] and v = out[c, b] along the cycle of u and v
    cells through (a, b), and along its mirror image, if neither meets
    row or column 0: + stays commutative with permutation rows.  In a
    group of exponent 2 the cycle is a 2x2 subsquare, an intercalate;
    an odd order group has none, and its cycles are longer."""
    u, v = out[a, b], out[c, b]
    rows, cols, r, k = [], [], a, b
    while True:
        k_v = int(np.flatnonzero(out[r] == v)[0])  # u at (r, k), v at (r, k_v)
        rows += [r, r]
        cols += [k, k_v]
        r, k = int(np.flatnonzero(out[:, k_v] == u)[0]), k_v
        if r == a:
            break
    if 0 in rows or 0 in cols:
        return
    rows, cols = rows + cols, cols + rows
    out[rows, cols] = np.where(out[rows, cols] == u, v, u)


def _cycle_switches(rng, add, count):
    out = add.copy()
    for _ in range(count):
        _switch_cycle(out, *rng.choice(np.arange(1, len(add)), 3, replace=False))
    return out


def _structured_corpus():
    """Tables that pass the O(n^2) checks and fail, if at all, deeper:
    random unital F_2-algebras (associativity of *), cycle switches in
    the addition of ex5_5 x GF(2) (associativity of +), and two kinds of
    changes to the multiplication of ex5_5 that keep it additive along
    the first generator 1 (distributivity along the later ones)."""
    rng = np.random.default_rng(5)
    for products in rng.integers(0, 8, (400, 4)):
        add, mul = _f2_algebra(*products.tolist())
        yield add, mul, 1
    ring = build_product([builtin_ring("ex5_5"), build_gf(2)])
    add, mul = cayley_tables(ring)
    for count in range(1, 41):
        yield _cycle_switches(rng, add, count % 3 + 1), mul, ring.one
    ex5_5 = builtin_ring("ex5_5")
    add, mul = (t.astype(np.int64) for t in cayley_tables(ex5_5))
    one = ex5_5.one
    # + is xor here; x -> parity(x & m) is additive and vanishes at one = 0b1010
    parities = [np.array([bin(x & m).count("1") % 2 for x in range(16)], dtype=bool)
                for m in (1, 4, 5, 10, 11, 14, 15)]

    def constant_on_pairs(values):
        """Constant on each coset {2j, 2j+1} of <1>, 0 on those of 0 and one."""
        values[[0, one >> 1]] = 0
        return values[np.arange(16) >> 1]

    for _ in range(40):
        # x*y + z(y) where mu(x): each row x -> xy stays additive along 1
        rows = parities[rng.integers(len(parities))][:, None]
        yield add, np.where(rows, add[mul, constant_on_pairs(rng.integers(0, 16, 8))], mul), one
        # x*y + c where f(x) and mu(y): each column x -> xy stays additive along 1
        cells = constant_on_pairs(rng.integers(0, 2, 8)).astype(bool)[:, None] & \
            parities[rng.integers(len(parities))]
        yield add, np.where(cells, add[mul, rng.integers(1, 16)], mul), one


def _loop_corpus():
    """Cycle switches in the addition of rings with coset walks longer
    than the length 2 of every walk in ex5_5 x GF(2): Z8, Z9, Z12,
    Z4 x GF(2), GF(9), and Z12 relabelled, which gives it more than one
    generator."""
    rng = np.random.default_rng(9)
    rings = [build_zmod(8), build_zmod(9), build_zmod(12),
             build_product([build_zmod(4), build_gf(2)]), build_gf(9)]
    tables = [(*cayley_tables(ring), ring.one) for ring in rings]
    for add, mul, one in tables + [_relabelled_tables(build_zmod(12), 3)]:
        for count in range(40):
            yield _cycle_switches(rng, add, count % 3 + 1), mul, one


def test_generator_route_matches_exhaustive_on_structured_corpus():
    reached = set()
    for add, mul, one in chain(_structured_corpus(), _loop_corpus()):
        fast = _verdict(validate_tables, add, mul, one)
        slow = _verdict(validate_tables_exhaustive, add, mul, one)
        assert (fast is None) == (slow is None), (add, mul, fast, slow)
        if fast is not None:
            _assert_genuine(fast, add, mul, one)
        reached.add(str(fast).split(" at ")[0])
    assert {"None", "addition is not associative", "right distributivity fails",
            "left distributivity fails", "multiplication is not associative"} <= reached


def test_additive_associativity_matches_light_on_both_corpora():
    """Tables are refused for associativity of + exactly where Light's
    test refuses them, both through generator translations that do not
    commute and through a walk edge along which translations do not
    compose."""
    branches = set()
    for add, mul, one in chain(_structured_corpus(), _loop_corpus()):
        fast = _verdict(validate_tables, add, mul, one)
        light = _verdict(additive_associativity_by_light, add)
        refused = fast is not None and str(fast).startswith("addition is not associative")
        assert refused == (light is not None), (add, fast, light)
        if refused:
            gens = [g for g, _, _ in rings._greedy_generators(len(add), add.__getitem__)]
            branches.add(all(np.array_equal(add[g][add[h]], add[h][add[g]])
                             for g in gens for h in gens))
    assert branches == {False, True}


def _ex5_5_skewed_rows():
    """ex5_5 with x*y + z(y) wherever bit 2 of x is set, z = 3 on {2, 3}
    and 0 elsewhere.  Every column stays additive, and so does every row
    but those with bit 2 set, as of the third additive generator 4."""
    add, mul = (t.astype(np.int64) for t in cayley_tables(builtin_ring("ex5_5")))
    z = np.where(np.arange(16) >> 1 == 1, 3, 0)
    return add, np.where((np.arange(16)[:, None] >> 2) & 1 == 1, add[mul, z], mul)


@pytest.mark.parametrize(
    "tables, one, message",
    [((_LOOP6, _unit_only_mul(6, 1)), 1, "addition is not associative"),
     # u*u = v, u*v = 0, v*u = u, v*v = 0
     (_f2_algebra(4, 0, 2, 0), 1, "multiplication is not associative at \\(2,2,2\\)"),
     (_ex5_5_skewed_rows(), 10, "left distributivity fails at \\(4,")],
    ids=["commutative-loop-6", "distributive-nonassociative-8", "skewed-rows-16"],
)
def test_negatives_past_the_cheap_checks(tables, one, message):
    add, mul = tables
    with pytest.raises(InvalidRing, match=message) as info:
        validate_tables(add, mul, one)
    _assert_genuine(info.value, add, mul, one)
    with pytest.raises(InvalidRing):
        validate_tables_exhaustive(add, mul, one)


@pytest.mark.parametrize("case", [(4, 3), (8, 9, 5), "GF(4096)", "M(2,GF(9))", "GF(7)",
                                  "ex5_5"], ids=str)
def test_add_row_from_kernel_matches_table(case):
    """Every row, whole and over chosen columns, short and long, is the
    digitwise sum mod each modulus, and a kernel ring keeps no table.
    A product of Z_n has one digit per factor, an F_p-algebra one base-p
    digit per basis element."""
    if isinstance(case, tuple):
        ring, moduli = build_product([build_zmod(n) for n in case]), case
    else:
        ring = build_ring(parse_ring(case))
        moduli = (ring.p,) * ring.dim
    strides = [int(np.prod(moduli[i + 1:])) for i in range(len(moduli))]
    backwards = np.arange(ring.size)[::-1]
    for a in range(ring.size):
        # digit i of a + b over every b, outer-summed, first digit most significant
        parts = [(d + np.arange(m)) % m * s
                 for d, m, s in zip(np.unravel_index(a, moduli), moduli, strides)]
        row = reduce(lambda acc, part: np.add.outer(acc, part).ravel(), parts)
        assert np.array_equal(ring.add_row(a), row)
        assert np.array_equal(ring.add_row(a, [0, a]), row[[0, a]])
        assert np.array_equal(ring.add_row(a, backwards), row[backwards])
    assert not hasattr(ring, "add_table")


def test_validate_rejects_broken_zero():
    add = np.array([[1, 0], [0, 1]])
    mul = np.array([[0, 0], [0, 1]])
    with pytest.raises(InvalidRing, match="0 \\+"):
        validate_tables(add, mul, 1)


def test_validate_rejects_noncommutative_addition():
    # rows are permutations and 0 is neutral, but add(1,2) != add(2,1)
    add = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    mul = np.zeros((3, 3), dtype=int)
    with pytest.raises(InvalidRing, match=r"^1 \+ 2 != 2 \+ 1$"):
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


def test_validate_rejects_boolean_lattice():
    # or and and on 3 bits: every axiom holds but additive inverses
    add = np.array([[x | y for y in range(8)] for x in range(8)])
    mul = np.array([[x & y for y in range(8)] for x in range(8)])
    for route in (validate_tables, validate_tables_exhaustive):
        with pytest.raises(InvalidRing, match="row 1 of the addition table"):
            route(add, mul, 7)


@pytest.mark.parametrize("expr", ["Z8", "Z4 x GF(2)", "ex5_5 x GF(2)"])
def test_a_row_off_the_generators_that_is_no_permutation_is_refused(expr):
    """Only the generators' rows are checked to be permutations.  Rows
    y and a, neither of a generator, that are none are refused by the
    edge checks, at a triple where + really is not associative."""
    ring = build_ring(parse_ring(expr))
    add, mul = (np.array(t) for t in cayley_tables(ring))
    gens = [g for g, _, _ in rings._greedy_generators(ring.size, add.__getitem__)]
    y, a, b = [x for x in range(ring.size - 1, 0, -1) if x not in gens][:3]
    add[y, a] = add[a, y] = add[y, b]  # + stays commutative with 0 neutral
    with pytest.raises(InvalidRing, match=f"row {min(a, y)} of the addition table"):
        permutation_rows_by_mask(add)
    with pytest.raises(InvalidRing, match="addition is not associative") as info:
        validate_tables(add, mul, ring.one)
    _assert_genuine(info.value, add, mul, ring.one)


def test_generator_translations_commute_wherever_the_tables_pass():
    """The edge checks imply that the generator translations commute:
    every table of both corpora that passes has commuting ones."""
    commute = set()
    for add, mul, one in chain(_structured_corpus(), _loop_corpus()):
        passed = _verdict(validate_tables, add, mul, one) is None
        assert generator_translations_commute(add) or not passed
        commute.add((passed, generator_translations_commute(add)))
    assert {(True, True), (False, False)} <= commute


def test_overlapping_walks_are_refused_before_the_edge_checks(monkeypatch):
    """The commutation check bounds the edge checks: a table whose coset
    walks overlap, and so list more than n - 1 + k edges, is refused
    before any edge is checked, at a triple where + is not associative."""
    def no_edge_pass(*args):
        raise AssertionError("edges checked")

    monkeypatch.setattr(rings, "_first_mismatch_by_rows", no_edge_pass)
    overlapping = 0
    for add, mul, one in chain(_structured_corpus(), _loop_corpus()):
        walks = [(g, walk) for g, _, walk in rings._greedy_generators(len(add), add.__getitem__)]
        if sum(walk[:-1].size + 1 for _, walk in walks) == len(add) - 1 + len(walks):
            continue
        overlapping += 1
        with pytest.raises(InvalidRing, match="addition is not associative") as info:
            validate_tables(add, mul, one)
        _assert_genuine(info.value, add, mul, one)
    assert overlapping > 10


def test_ex5_5_is_its_matrix_ring():
    """The structure constants give exactly the tables of the 4x4 matrices,
    and the trace form the character a+b+c+d mod 2."""
    add, mul, one = ex5_5_tables_from_matrices()
    ring = builtin_ring("ex5_5")
    assert all(map(np.array_equal, cayley_tables(ring), (add, mul)))
    assert ring.one == one
    validate_tables(add, mul, one)
    validate_tables_exhaustive(add, mul, one)
    char = canonical_generating_character(ring)
    assert char.order == 2
    assert char.exponents.tolist() == [bin(x).count("1") % 2 for x in range(16)]


def test_non_frobenius_algebra_is_its_bit_arithmetic():
    add, mul, one = non_frobenius_tables_from_bits()
    ring = _non_frobenius_ring()
    assert all(map(np.array_equal, cayley_tables(ring), (add, mul)))
    assert ring.one == one
    validate_tables(add, mul, one)
    validate_tables_exhaustive(add, mul, one)
    assert not ring.is_frobenius


def test_missing_table_fields_are_named(tmp_path):
    """The builder and the file loader refuse an incomplete spec alike."""
    with pytest.raises(InvalidParameter, match=r"^tiny: missing fields \['mul', 'one'\]$"):
        build_table_ring({"size": 1, "add": [[0]], "name": "tiny"})
    with pytest.raises(InvalidParameter, match=r"^table ring: missing fields \['size'\]$"):
        build_table_ring({"add": [[0]], "mul": [[0]], "one": 0})
    path = tmp_path / "tiny.json"
    path.write_text('{"size": 1, "add": [[0]], "name": "tiny"}')
    with pytest.raises(InvalidParameter, match=r"tiny.json: missing fields \['mul', 'one'\]$"):
        load_table_spec(str(path))


def test_table_ring_build_validates():
    ring = builtin_ring("ex5_5")
    add, mul = cayley_tables(ring)
    broken = mul.tolist()
    broken[3][7] = (broken[3][7] + 1) % 16
    bad = {"size": 16, "add": add.tolist(), "mul": broken, "one": ring.one}
    with pytest.raises(InvalidRing):
        build_table_ring(bad)


@pytest.mark.parametrize("name, prefix", [("ex5_5", "ex5_5: "),
                                          (None, "table ring of size 16: ")],
                         ids=["named", "unnamed"])
def test_table_ring_errors_name_the_ring(name, prefix):
    ring = builtin_ring("ex5_5")
    add, broken = (t.astype(np.int64) for t in cayley_tables(ring))
    broken[3, 7] ^= 1
    with pytest.raises(InvalidRing) as direct:
        validate_tables(add, broken, ring.one)
    bad = {"size": 16, "add": add.tolist(), "mul": broken.tolist(), "one": ring.one,
           "name": name}
    with pytest.raises(InvalidRing) as built:
        build_table_ring(bad)
    assert str(built.value) == prefix + str(direct.value)
    assert built.value.witness == direct.value.witness


# -- derived structure vs oracles --------------------------------------------


def assert_index_set(members: np.ndarray) -> None:
    """A set of elements in the one form the library holds it: a sorted,
    read-only int64 array of indices."""
    assert members.dtype == np.int64
    assert (members[1:] > members[:-1]).all()
    with pytest.raises(ValueError):
        members[0] = members[0]


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_units_match_oracle(ring):
    assert_index_set(ring.units)
    assert ring.units.tolist() == units_oracle(ring)


def _table_rings():
    """Table twins (the non-Frobenius one among them) and a table under
    shuffled labels."""
    twins = [table_twin(builtin_ring("ex5_5")), table_twin(build_matrix_ring(2, build_gf(2))),
             table_twin(build_zmod(12)), table_twin(_non_frobenius_ring(), exponents=False)]
    add, mul, one = _relabelled_tables(build_product([builtin_ring("ex5_5"), build_gf(2)]), 1)
    spec = {"size": len(add), "add": add, "mul": mul, "one": one, "name": "relabelled"}
    return twins + [build_table_ring(spec)]


@pytest.mark.parametrize("ring", _table_rings(), ids=ring_id)
def test_table_ring_units_come_from_its_table(ring, monkeypatch):
    """A table ring reads its units off its multiplication table in one
    vectorized pass, with no kernel call: against the scalar oracle and
    the per-element scan of ``FiniteRing``."""
    expected = units_oracle(ring)
    assert FiniteRing._compute_units(ring).tolist() == expected
    for name in ("_add_row_impl", "_mul_row_impl", "_mul_col_impl"):
        monkeypatch.setattr(ring, name, None)
    assert_index_set(ring.units)
    assert ring.units.tolist() == expected


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_radical_matches_ideal_enumeration(ring):
    assert_index_set(ring.radical)
    assert frozenset(ring.radical.tolist()) == radical_oracle(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_socle_matches_ideal_enumeration(ring, side):
    assert_index_set(ring.socle_members(side))
    assert frozenset(ring.socle_members(side).tolist()) == socle_oracle(ring, side)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_frobenius_flag_matches_oracle(ring):
    assert ring.is_frobenius == is_frobenius_oracle(ring)


def test_non_frobenius_detected():
    ring = _non_frobenius_ring()
    for r in (ring, table_twin(ring, exponents=False)):
        assert not r.is_frobenius
        with pytest.raises(CharacterSearchFailed, match="non_frobenius_8: no generating"):
            canonical_generating_character(r)


def test_search_skips_non_frobenius_rings(monkeypatch):
    """The Frobenius test comes first: no candidate is generating-tested."""
    calls = []
    original = characters.is_generating
    monkeypatch.setattr(characters, "is_generating",
                        lambda char: calls.append(char) or original(char))
    ring = table_twin(_non_frobenius_ring(), exponents=False)
    with pytest.raises(CharacterSearchFailed):
        canonical_generating_character(ring)
    assert calls == []


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_principal_ideals_match_oracle(ring, side):
    for x in range(ring.size):
        got = frozenset(principal_ideal_members(ring, x, side))
        assert got == principal_ideal_oracle(ring, x, side)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_orbits_match_oracle(ring, side):
    reps, orbit_of = ring.orbit_index(side)[:2]
    orbits = {}
    for x in range(ring.size):
        orbits.setdefault(int(orbit_of[x]), set()).add(x)
    assert {frozenset(o) for o in orbits.values()} == unit_orbits_oracle(ring, side)
    assert [min(orbits[i]) for i in range(len(reps))] == reps.tolist()
    assert ring.orbit_index(side).orbit_of is orbit_of


def test_unit_orbits_rejects_bad_side(z4):
    with pytest.raises(InvalidParameter):
        z4.orbit_index("both")


@pytest.mark.parametrize("call", [
    lambda ring, char, part: ring.orbit_index("both"),
    lambda ring, char, part: ring.socle_members("both"),
    lambda ring, char, part: principal_ideal_mask(ring, 1, "both"),
    lambda ring, char, part: characters.translate(char, 1, "both"),
    lambda ring, char, part: duality.krawtchouk_table(part, char, "both"),
    lambda ring, char, part: duality.dual_partition(part, char, "both"),
], ids=["orbit_index", "socle_members", "principal_ideal_mask", "translate",
        "krawtchouk_table", "dual_partition"])
def test_every_side_argument_is_checked_alike(z4, call):
    char = canonical_generating_character(z4)
    with pytest.raises(InvalidParameter) as err:
        call(z4, char, hom_partition(z4))
    assert str(err.value) == "side must be 'left' or 'right', got 'both'"


# -- products from their factors ---------------------------------------------------


def _factor_route_products():
    ex5_5, gf2 = builtin_ring("ex5_5"), build_gf(2)
    m2f2 = build_matrix_ring(2, gf2)
    return [
        pytest.param(lambda: build_product([ex5_5, m2f2, gf2]),  # noncommutative,
                     id="ex5_5 x M(2,GF(2)) x GF(2)"),           # not semisimple
        pytest.param(lambda: build_product([table_twin(ex5_5), build_zmod(4)]),
                     id="ex5_5 x Z4"),
        pytest.param(lambda: build_product([build_product([gf2, m2f2]), build_zmod(3)]),
                     id="GF(2) x M(2,GF(2)) x Z3"),
        pytest.param(lambda: build_product([build_zmod(4), build_matrix_ring(2, build_gf(2))]),
                     id="Z4 x M(2,GF(2))"),
        pytest.param(lambda: build_product([build_zmod(8), build_zmod(9), build_gf(5)]),
                     id="Z8 x Z9 x GF(5)"),
        pytest.param(lambda: build_product([build_gf(4), build_zmod(6)]), id="GF(4) x Z6"),
    ]


@pytest.mark.parametrize("build", _factor_route_products())
def test_product_tables_units_and_orbits_match_oracles(build):
    """Units and unit orbits from the factors against the product's own
    multiplication table, stacked from its kernel rows."""
    ring = build()
    _, mul = cayley_tables(ring)
    assert not hasattr(ring, "mul_table")
    units = np.flatnonzero(((mul == ring.one) & (mul.T == ring.one)).any(axis=1))
    assert list(ring.units) == units.tolist()
    small = ring.size <= 256  # the scalar oracles take O(n^2) products
    if small:
        assert list(ring.units) == units_oracle(ring)
    for side in ("left", "right"):
        reps, orbit_of = ring.orbit_index(side)[:2]
        by_scan = FiniteRing._compute_unit_orbits(ring, side)
        assert np.array_equal(reps, by_scan[0]) and np.array_equal(orbit_of, by_scan[1])
        orbits = {frozenset(np.flatnonzero(orbit_of == k).tolist()) for k in range(len(reps))}
        by_table = mul[units] if side == "left" else mul[:, units].T  # column x: the orbit of x
        assert orbits == {frozenset(col.tolist()) for col in by_table.T}
        if small:
            assert orbits == unit_orbits_oracle(ring, side)
        assert [min(o) for o in sorted(orbits, key=min)] == reps.tolist()


def test_product_tables_and_orbits_make_no_product_kernel_calls(monkeypatch):
    """Units and unit orbits come from the factors; the product keeps no tables."""
    ring = build_product([build_gf(3), build_gf(9), build_zmod(25)])
    calls = []
    for name in ("_add_row_impl", "_mul_row_impl", "_mul_col_impl"):
        def counting(*args, _name=name, _orig=getattr(ring, name)):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(ring, name, counting)
    assert not hasattr(ring, "add_table") and not hasattr(ring, "mul_table")
    assert len(ring.units) == 320
    assert len(ring.orbit_index("left").reps) == len(ring.orbit_index("right").reps) == 12
    assert calls == []


def test_orbit_routes_make_few_kernel_calls(monkeypatch):
    """A product makes no kernel call on itself, and each ring that is not
    a product images each unit-orbit representative exactly once per
    side, in the discovery pass: describe(), weights, invariance, both
    tables, both duals and is_reflexive read the image rows of the orbit
    index.  Checked on M(2,GF(3)) x M(2,GF(3)), on M(2,GF(3)) alone and on
    the table twin of ex5_5."""
    calls = []
    for name in ("mul_row", "mul_col"):
        def counting(self, *args, _name=name, _orig=getattr(FiniteRing, name), **kwargs):
            calls.append((self, _name, args[0], len(args) == 1 and not kwargs))
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(FiniteRing, name, counting)
    twin = table_twin(builtin_ring("ex5_5"))
    square = build_product([build_matrix_ring(2, build_gf(3))] * 2)
    for ring in (square, build_matrix_ring(2, build_gf(3)), twin):
        calls.clear()
        ring.describe()
        char = canonical_generating_character(ring)
        hom = partitions.partition_from_weight(weight_table(ring, char))
        assert is_invariant(hom)
        for side in ("left", "right"):
            duality.krawtchouk_table(hom, char, side)
            duality.dual_partition(hom, char, side)
        duality.is_reflexive(hom, char)
        for leaf in ring.leaves:
            for side, name in (("left", "mul_col"), ("right", "mul_row")):
                imaged = [x for r, n, x, whole in calls if r is leaf and n == name and whole]
                assert sorted(imaged) == leaf.orbit_index(side).reps.tolist()
        if ring is square:
            assert [c for c in calls if c[0] is square] == []
    assert len(square.orbit_index("left").reps) + len(square.orbit_index("right").reps) == 72


@pytest.mark.parametrize("build", [
    pytest.param(lambda: build_product([build_matrix_ring(2, build_gf(3))] * 2),
                 id="M(2,GF(3)) x M(2,GF(3))"),
    pytest.param(lambda: build_product([build_gf(3), build_gf(9), build_zmod(25)]),
                 id="GF(3) x GF(9) x Z25"),
])
def test_product_stages_make_no_product_kernel_calls(monkeypatch, build):
    ring = build()
    calls = []
    for name in ("_add_row_impl", "_mul_row_impl", "_mul_col_impl"):
        def counting(*args, _name=name, _orig=getattr(ring, name)):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(ring, name, counting)
    info = ring.describe()
    assert info["is_frobenius"] and info["radical_size"] == len(ring.radical)
    char = canonical_generating_character(ring)
    assert characters.is_generating(char)
    hom = partitions.partition_from_weight(weight_table(ring, char))
    for side in ("left", "right"):
        duality.krawtchouk_table(hom, char, side)
        duality.dual_partition(hom, char, side)
    assert duality.is_reflexive(hom, char)
    assert calls == []


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


def test_quotient_by_radical_table_ring(ex5_5_rings):
    for ring in ex5_5_rings:
        qring, pi = ring.quotient_by_radical()
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


def test_size_guard_below_one_is_a_bad_parameter(tmp_path):
    """A guard below 1 admits no ring: a bad parameter, not a resource limit."""
    for guard in (0, -5):
        with pytest.raises(InvalidParameter, match=f"size guard must be at least 1, got {guard}"):
            build_zmod(4, max_size=guard)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]],
                                "one": 1}))
    with pytest.raises(InvalidParameter, match="size guard must be at least 1"):
        load_table_spec(str(path), max_size=-1)


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
    with pytest.raises(InvalidParameter, match="unknown builtin ring 'no_such_ring'"):
        builtin_ring("no_such_ring")
    with pytest.raises(ResourceLimit, match="size guard 15"):
        builtin_ring("ex5_5", max_size=15)


# -- element presentation and product structure -------------------------------


def test_element_labels():
    assert build_zmod(6).element_labels()[4] == "4"
    m = build_matrix_ring(2, build_gf(2))
    assert m.element_labels()[5] == "[[0,1],[0,1]]"
    p = build_product([build_gf(2), build_gf(9)])
    assert p.element_labels()[10] == "(1,1)"


@pytest.mark.parametrize("build", [
    lambda: build_product([build_zmod(4), build_gf(3), build_gf(2)]),
    lambda: build_product([build_matrix_ring(2, build_gf(2)), build_zmod(3)]),
    lambda: build_product([builtin_ring("ex5_5"), build_matrix_ring(2, build_gf(3))]),
    lambda: build_product([build_product([build_gf(4), build_zmod(6)]),
                           build_product([builtin_ring("ex5_5"), build_gf(2)])]),
    lambda: build_matrix_ring(2, build_gf(4)),
    lambda: build_matrix_ring(3, build_gf(2)),
], ids=["flat", "matrix factor", "ex5_5 and matrix factors", "nested products",
        "M(2,GF(4))", "M(3,GF(2))"])
def test_element_labels_match_decoding_each_element(build):
    ring = build()
    assert ring.element_labels() == [element_label_by_decode(ring, i) for i in range(ring.size)]


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


@pytest.mark.parametrize("swap", [False, True])
def test_characteristic_refuses_an_element_of_larger_order(swap):
    """Z2 x Z4 (index 4a + b) with one = (1, 0): 1 has additive order 2,
    (0, 1) order 4.  Swapping the labels of (0, 1) and (0, 2) makes (0, 2)
    the first generator, so (0, 1) closes on it, 2(0, 1) = (0, 2) != 0."""
    ring = build_product([build_zmod(2), build_zmod(4)])
    perm = np.array([0, 2, 1, *range(3, 8)]) if swap else np.arange(8)
    add, mul = (perm[t[np.ix_(perm, perm)]] for t in cayley_tables(ring))
    bad = rings.TableRing(add, mul, 4)
    with pytest.raises(InternalInconsistency,
                       match=f"^element {perm[1]} has additive order not dividing 2$"):
        bad.characteristic


def test_commutativity_flags():
    """The check on pairs of additive generators against every pair."""
    rings_ = [build_zmod(1), build_zmod(12), build_gf(8), build_matrix_ring(2, build_gf(2)),
              build_matrix_ring(1, build_gf(5)), builtin_ring("ex5_5"),
              table_twin(builtin_ring("ex5_5")), _non_frobenius_ring()]
    verdicts = [ring.is_commutative for ring in rings_]
    assert verdicts == [is_commutative_by_pairs(ring) for ring in rings_]
    assert verdicts == [True, True, True, False, True, False, False, True]


def test_a_bare_algebra_names_itself():
    """An algebra given only its structure constants still has a name."""
    fld = build_gf(27)
    ring = AlgebraRing(3, fld.tensor, fld.one, fld.trace_form)
    name = "algebra of dimension 3 over GF(3)"
    assert repr(ring) == f"<AlgebraRing {name} (size 27)>"
    assert ring.describe()["ring"] == name and ring.describe()["is_frobenius"]


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


@pytest.mark.parametrize(
    "m, q", [pytest.param(2, 2, id="2"), pytest.param(2, 3, id="3"), (2, 4), (3, 2)]
)
def test_matrix_rank_matches_row_space_oracle(m, q):
    ring = build_matrix_ring(m, build_gf(q))
    for a in range(ring.size):
        assert ring.rank(a) == matrix_rank_oracle(ring, a)


def test_matrix_rank_over_gf9_matches_row_space_oracle():
    """Every matrix of rank below 2, and a seeded sample of the invertible ones."""
    ring = build_matrix_ring(2, build_gf(9))
    ranks = ring.ranks
    assert np.bincount(ranks).tolist() == [1, 800, 5760]
    sample = np.random.default_rng(9).choice(np.flatnonzero(ranks == 2), 40, replace=False)
    for a in [*np.flatnonzero(ranks < 2), *sample]:
        assert ranks[a] == matrix_rank_oracle(ring, int(a))


def test_matrix_rank_over_a_field_without_tables():
    """No kernel ring holds Cayley tables; ranks need none."""
    ring = build_matrix_ring(2, build_gf(4))
    assert not hasattr(ring.field, "mul_table") and not hasattr(ring, "mul_table")
    for a in range(ring.size):
        assert ring.rank(a) == matrix_rank_oracle(ring, a)


def test_matrix_ring_over_a_field_above_the_table_threshold():
    """Over GF(8192), ranks must not disturb the ring's digits."""
    ring = build_matrix_ring(1, build_gf(8192))
    assert ring.rank(0) == 0 and (ring.ranks[1:] == 1).all()
    assert ring.add_row(ring.one)[:3].tolist() == [1, 0, 3]
    assert ring.radical == (0,)
    assert ring.is_frobenius


def test_matrix_rank_3x3_spot_checks():
    ring = build_matrix_ring(3, build_gf(2), max_size=600000)
    assert ring.rank(0) == 0
    assert ring.rank(ring.one) == 3
    rng = np.random.default_rng(7)
    for a in rng.integers(0, ring.size, size=40):
        assert ring.rank(int(a)) == matrix_rank_oracle(ring, int(a))
