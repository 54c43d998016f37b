"""Ring construction, axioms, and derived structure vs oracle enumeration."""

from time import perf_counter

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
    build_gf,
    build_matrix_ring,
    build_product,
    build_table_ring,
    build_zmod,
    builtin_ring,
    load_table_spec,
    validate_tables,
)
from frobring import characters, duality, partitions
from frobring.characters import canonical_generating_character
from frobring.cli import _non_frobenius_ring
from frobring.partitions import hom_partition, is_invariant
from frobring.weights import weight_table

from oracles import (
    all_ideals,
    ex5_5_tables_from_matrices,
    is_frobenius_oracle,
    matrix_rank_oracle,
    non_frobenius_tables_from_bits,
    principal_ideal_oracle,
    product_table_by_rows,
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


def _tables_of(ring):
    return ring.add_table, ring.mul_table


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_axioms_hold_on_probe_rings(ring):
    add, mul = _tables_of(ring)
    validate_tables(add, mul, ring.one)
    validate_tables_exhaustive(add, mul, ring.one)


@pytest.fixture(scope="module")
def ring1024():
    return build_product([build_matrix_ring(2, build_gf(4)), build_gf(4)])


def test_validate_1024_element_tables_within_budget(ring1024):
    """M(2,GF(4)) x GF(4): the exhaustive route took 48 s at this size."""
    add, mul = _tables_of(ring1024)
    assert add.shape == (1024, 1024)
    start = perf_counter()
    validate_tables(add, mul, ring1024.one)
    assert perf_counter() - start < 5.0


def test_late_rows_rejected_with_genuine_witness(ring1024):
    """Changes far from row 0 are found past the first block of rows."""
    add0, mul0 = _tables_of(ring1024)
    add = add0.copy()
    _swap_intercalate(add, 1000, 1001, 1002)
    cases = [(add, mul0)]
    for row in (700, 1023):
        mul = mul0.copy()
        mul[row, 900] ^= 1
        cases.append((add0, mul))
    for add, mul in cases:
        with pytest.raises(InvalidRing) as info:
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
    add0, mul0 = (np.array(t) for t in _tables_of(ring))
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
    add, mul0 = (np.array(t) for t in _tables_of(ring))
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
    add, mul = ring.add_table, ring.mul_table.copy()
    mul[:, 2] = 2 * (np.arange(8) % 2)
    with pytest.raises(InvalidRing, match=r"^right distributivity fails at \(2,1,1\)$"):
        validate_tables(add, mul, ring.one)
    with pytest.raises(InvalidRing):
        validate_tables_exhaustive(add, mul, ring.one)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_tables_pass_both_routes(seed):
    """Shuffled labels (0 fixed) move the generators and keep a ring."""
    ring = build_product([builtin_ring("ex5_5"), build_gf(2)])
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(ring.size - 1)])
    inv = np.argsort(perm)
    add, mul = (inv[t[np.ix_(perm, perm)]] for t in _tables_of(ring))
    validate_tables(add, mul, int(inv[ring.one]))
    validate_tables_exhaustive(add, mul, int(inv[ring.one]))


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


def _swap_intercalate(out, a, b, c):
    """Swap the two values of the 2x2 subsquare on rows a, c through
    (a, b), and of its mirror image, if it lies away from row and
    column 0: + stays commutative with permutation rows."""
    d = int(np.flatnonzero(out[c] == out[a, b])[0])
    if d == 0 or out[a, d] != out[c, b]:
        return
    x, y = out[a, b], out[a, d]
    for r, k in ((a, b), (c, d), (a, d), (c, b)):
        out[r, k] = out[k, r] = y if out[r, k] == x else x


def _intercalate_swaps(rng, add, count):
    out = add.copy()
    for _ in range(count):
        _swap_intercalate(out, *rng.choice(np.arange(1, len(add)), 3, replace=False))
    return out


def _structured_corpus():
    """Tables that pass the O(n^2) checks and fail, if at all, deeper:
    random unital F_2-algebras (associativity of *), intercalate swaps in
    the addition of ex5_5 x GF(2) (associativity of +), and two kinds of
    changes to the multiplication of ex5_5 that keep it additive along
    the first generator 1 (distributivity along the later ones)."""
    rng = np.random.default_rng(5)
    for products in rng.integers(0, 8, (400, 4)):
        add, mul = _f2_algebra(*products.tolist())
        yield add, mul, 1
    ring = build_product([builtin_ring("ex5_5"), build_gf(2)])
    for count in range(1, 41):
        yield _intercalate_swaps(rng, ring.add_table, count % 3 + 1), ring.mul_table, ring.one
    ex5_5 = builtin_ring("ex5_5")
    add, mul = (t.astype(np.int64) for t in _tables_of(ex5_5))
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


def test_generator_route_matches_exhaustive_on_structured_corpus():
    reached = set()
    for add, mul, one in _structured_corpus():
        fast = _verdict(validate_tables, add, mul, one)
        slow = _verdict(validate_tables_exhaustive, add, mul, one)
        assert (fast is None) == (slow is None), (add, mul, fast, slow)
        if fast is not None:
            _assert_genuine(fast, add, mul, one)
        reached.add(str(fast).split(" at ")[0])
    assert {"None", "addition is not associative", "right distributivity fails",
            "left distributivity fails", "multiplication is not associative"} <= reached


def _ex5_5_skewed_rows():
    """ex5_5 with x*y + z(y) wherever bit 2 of x is set, z = 3 on {2, 3}
    and 0 elsewhere.  Every column stays additive, and so does every row
    but those with bit 2 set, as of the third additive generator 4."""
    add, mul = (t.astype(np.int64) for t in _tables_of(builtin_ring("ex5_5")))
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


def test_validate_rejects_boolean_lattice():
    # or and and on 3 bits: every axiom holds but additive inverses
    add = np.array([[x | y for y in range(8)] for x in range(8)])
    mul = np.array([[x & y for y in range(8)] for x in range(8)])
    for route in (validate_tables, validate_tables_exhaustive):
        with pytest.raises(InvalidRing, match="row 1 of the addition table"):
            route(add, mul, 7)


def test_ex5_5_is_its_matrix_ring():
    """The structure constants give exactly the tables of the 4x4 matrices,
    and the trace form the character a+b+c+d mod 2."""
    add, mul, one = ex5_5_tables_from_matrices()
    ring = builtin_ring("ex5_5")
    assert np.array_equal(ring.add_table, add)
    assert np.array_equal(ring.mul_table, mul)
    assert ring.one == one
    validate_tables(add, mul, one)
    validate_tables_exhaustive(add, mul, one)
    char = canonical_generating_character(ring)
    assert char.order == 2
    assert char.exponents.tolist() == [bin(x).count("1") % 2 for x in range(16)]


def test_non_frobenius_algebra_is_its_bit_arithmetic():
    add, mul, one = non_frobenius_tables_from_bits()
    ring = _non_frobenius_ring()
    assert np.array_equal(ring.add_table, add)
    assert np.array_equal(ring.mul_table, mul)
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
    broken = ring.mul_table.tolist()
    broken[3][7] = (broken[3][7] + 1) % 16
    bad = {"size": 16, "add": ring.add_table.tolist(), "mul": broken, "one": ring.one}
    with pytest.raises(InvalidRing):
        build_table_ring(bad)


@pytest.mark.parametrize("name, prefix", [("ex5_5", "ex5_5: "),
                                          (None, "table ring of size 16: ")],
                         ids=["named", "unnamed"])
def test_table_ring_errors_name_the_ring(name, prefix):
    ring = builtin_ring("ex5_5")
    add, broken = (t.astype(np.int64) for t in _tables_of(ring))
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


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_units_match_oracle(ring):
    assert sorted(map(int, ring.units)) == units_oracle(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
def test_radical_matches_ideal_enumeration(ring):
    assert frozenset(map(int, ring.radical)) == radical_oracle(ring)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_socle_matches_ideal_enumeration(ring, side):
    assert frozenset(map(int, ring.socle_members(side))) == socle_oracle(ring, side)


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
        got = frozenset(map(int, ring.principal_ideal_members(x, side)))
        assert got == principal_ideal_oracle(ring, x, side)


@pytest.mark.parametrize("ring", PROBE_RINGS, ids=ring_id)
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


# -- products from their factors ---------------------------------------------------


def _factor_route_products():
    ex5_5, gf2 = builtin_ring("ex5_5"), build_gf(2)
    m2f2 = build_matrix_ring(2, gf2)
    return [
        build_product([ex5_5, m2f2, gf2]),  # noncommutative, not semisimple
        build_product([table_twin(ex5_5), build_zmod(4)]),
        build_product([build_product([gf2, m2f2]), build_zmod(3)]),
        build_product([build_zmod(4, table_threshold=0),
                       build_matrix_ring(2, gf2, table_threshold=0)]),
        build_product([build_zmod(8), build_zmod(9), build_gf(5)]),
        build_product([build_gf(4), build_zmod(6)], table_threshold=10),  # above it
    ]


@pytest.mark.parametrize("ring", _factor_route_products(), ids=ring_id)
def test_product_tables_units_and_orbits_match_oracles(ring):
    by_rows = {op: product_table_by_rows(ring, op) for op in ("add", "mul")}
    if ring.size > ring.table_threshold:
        assert ring.add_table is None and ring.mul_table is None
    else:
        assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
        assert np.array_equal(ring.add_table, by_rows["add"])
        assert np.array_equal(ring.mul_table, by_rows["mul"])
    mul = by_rows["mul"]
    units = np.flatnonzero(((mul == ring.one) & (mul.T == ring.one)).any(axis=1))
    assert list(ring.units) == units.tolist()
    small = ring.size <= 256  # the scalar oracles take O(n^2) products
    if small:
        assert list(ring.units) == units_oracle(ring)
    for side in ("left", "right"):
        reps, orbit_of = ring.unit_orbits(side)
        by_scan = FiniteRing._compute_unit_orbits(ring, side)
        assert np.array_equal(reps, by_scan[0]) and np.array_equal(orbit_of, by_scan[1])
        orbits = {frozenset(np.flatnonzero(orbit_of == k).tolist()) for k in range(len(reps))}
        by_table = mul[units] if side == "left" else mul[:, units].T  # column x: the orbit of x
        assert orbits == {frozenset(col.tolist()) for col in by_table.T}
        if small:
            assert orbits == unit_orbits_oracle(ring, side)
        assert [min(o) for o in sorted(orbits, key=min)] == reps.tolist()


def test_product_tables_and_orbits_make_no_product_kernel_calls(monkeypatch):
    ring = build_product([build_gf(3), build_gf(9), build_zmod(25)])
    calls = []
    for name in ("_add_row_impl", "_mul_row_impl", "_mul_col_impl"):
        def counting(*args, _name=name, _orig=getattr(ring, name)):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(ring, name, counting)
    assert ring.add_table.shape == ring.mul_table.shape == (675, 675)
    assert len(ring.units) == 320
    assert len(ring.unit_orbits("left")[0]) == len(ring.unit_orbits("right")[0]) == 12
    assert calls == []


def test_orbit_routes_make_few_kernel_calls(monkeypatch):
    """Structure, weights and invariance of a product make no kernel call on it."""
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
    assert calls == []


@pytest.mark.parametrize("ring", [
    build_product([build_matrix_ring(2, build_gf(3))] * 2),
    # no tables on the product, so a whole-ring operation could only be a kernel call
    build_product([build_gf(3), build_gf(9), build_zmod(25)], table_threshold=0),
], ids=ring_id)
def test_product_stages_make_no_product_kernel_calls(monkeypatch, ring):
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
    assert not builtin_ring("ex5_5").is_commutative
    assert not table_twin(builtin_ring("ex5_5")).is_commutative


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
    ring = build_matrix_ring(2, build_gf(4, table_threshold=0))
    assert ring.field.mul_table is None
    for a in range(ring.size):
        assert ring.rank(a) == matrix_rank_oracle(ring, a)


def test_matrix_ring_over_a_field_above_the_table_threshold():
    """GF(8192) keeps no tables; ranks must not disturb the ring's digits."""
    ring = build_matrix_ring(1, build_gf(8192))
    assert ring.field.mul_table is None and ring.mul_table is None
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
