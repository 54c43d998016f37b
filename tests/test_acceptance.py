"""Acceptance gate: nine numbered criteria, one line of output each.

Every check is exact (tolerance zero); the stated runtime budgets are
asserted with fresh ring instances so caching cannot flatter them.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import sys
import time
from fractions import Fraction

import pytest

from frobring.characters import (
    all_generating_characters,
    canonical_generating_character,
)
from frobring.duality import (
    character_independence_check,
    delsarte_rank_krawtchouk,
    dual_partition,
    is_reflexive,
    is_self_dual,
    krawtchouk_table,
    same_entries,
)
from frobring.partitions import (
    equals,
    ex5_5_partition,
    hamming_partition,
    hom_partition,
    is_finer,
    product_partition,
    rank_partition,
    symmetrized_power_partition,
)
from frobring.rings import (
    build_gf,
    build_matrix_ring,
    build_product,
    build_zmod,
    builtin_ring,
)
from frobring.weights import (
    cauchy_identity_check,
    has_zero_weight_nonzero,
    s_count,
    weight_table,
)

from oracles import all_ideals, principal_ideal_members, table_twin


def _report(number: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {detail}", file=sys.stderr)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_weight_fixtures():
    start = time.perf_counter()
    z4 = build_zmod(4)
    t4 = weight_table(z4)
    m2 = build_matrix_ring(2, build_gf(2))
    tm = weight_table(m2)
    elapsed = time.perf_counter() - start
    ok = (
        list(t4.weights) == [Fraction(0), Fraction(1), Fraction(2), Fraction(1)]
        and dict(tm.multiset())
        == {Fraction(0): 1, Fraction(4, 3): 9, Fraction(2, 3): 6}
        and sum(tm.weights) == 16
        and elapsed < 1.0
    )
    _report(
        "1",
        ok,
        f"Z4 weights {[str(w) for w in t4.weights]}, M2(F2) multiset ok, "
        f"sum 16, {elapsed:.3f}s < 1s",
    )


def _matrix_square(q):
    mat = build_matrix_ring(2, build_gf(q))
    return build_product([mat, mat]), mat


def test_criterion_2_matrix_square_dichotomy():
    ring3, mat3 = _matrix_square(3)
    start = time.perf_counter()
    table3 = weight_table(ring3)
    weight_pass = time.perf_counter() - start
    hom3 = hom_partition(ring3)
    sym3 = symmetrized_power_partition(ring3, rank_partition(mat3))
    q3_ok = (
        ring3.size == 6561
        and weight_pass < 10.0
        and equals(hom3, sym3)
        and hom3.num_blocks == 6
        and len({table3.weights[b[0]] for b in hom3.blocks}) == 6
    )

    ring2, mat2 = _matrix_square(2)
    table2 = weight_table(ring2)
    hom2 = hom_partition(ring2)
    sym2 = symmetrized_power_partition(ring2, rank_partition(mat2))
    by_label = {l: set(b) for l, b in zip(sym2.labels, sym2.blocks)}
    merged = by_label[(1, 1)] | by_label[(2, 2)]
    q2_ok = (
        hom2.num_blocks == 5
        and is_finer(sym2, hom2)
        and not equals(sym2, hom2)
        and frozenset(merged) in {frozenset(b) for b in hom2.blocks}
        and {table2.weights[x] for x in merged} == {Fraction(8, 9)}
    )
    _report(
        "2",
        q3_ok and q2_ok,
        f"q=3: 6 blocks, 6 weights, weight pass {weight_pass:.2f}s < 10s; "
        "q=2: {1,1}/{2,2} merge at 8/9 into 5 blocks",
    )


def _matrix_by_field(q):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    return build_product([mat, fld]), mat, fld


def _stated_merge_blocks(ring, mat, fld, q):
    prod = product_partition(ring, rank_partition(mat), hamming_partition(fld))
    lab = {l: set(b) for l, b in zip(prod.labels, prod.blocks)}
    merged_11_20 = lab[(1, (1,))] | lab[(2, (0,))]
    if q == 2:
        return {
            frozenset(lab[(0, (0,))]),
            frozenset(lab[(0, (1,))]),
            frozenset(lab[(1, (0,))] | lab[(2, (1,))]),
            frozenset(merged_11_20),
        }
    return {
        frozenset(lab[(0, (0,))]),
        frozenset(lab[(0, (1,))]),
        frozenset(lab[(1, (0,))]),
        frozenset(lab[(2, (1,))]),
        frozenset(merged_11_20),
    }


def test_criterion_3_matrix_by_field_structure():
    results = {}
    for q in (2, 3):
        ring, mat, fld = _matrix_by_field(q)
        hom = hom_partition(ring)
        expected = _stated_merge_blocks(ring, mat, fld, q)
        results[q] = {frozenset(b) for b in hom.blocks} == expected
    _report(
        "3",
        results[2] and results[3],
        "weight partition of M2(Fq) x Fq merges the stated rank cells "
        "for q=2 (4 blocks) and q=3 (5 blocks)",
    )


def test_criterion_4_sixteen_element_ring():
    start = time.perf_counter()
    ring = builtin_ring("ex5_5")
    char = canonical_generating_character(ring)
    part = ex5_5_partition(ring)
    left = dual_partition(part, char, "left")
    right = dual_partition(part, char, "right")
    hom = hom_partition(ring)
    tl = krawtchouk_table(hom, char, "left")
    tr = krawtchouk_table(hom, char, "right")
    elapsed = time.perf_counter() - start
    ok = (
        not equals(left, right)
        and same_entries(tl, tr)
        and elapsed < 1.0
    )
    _report(
        "4",
        ok,
        f"4-block partition: left dual != right dual; weight partition "
        f"tables entrywise equal; {elapsed:.3f}s < 1s",
    )


def test_criterion_5_rank_partition_self_dual():
    ok = True
    details = []
    for m, q, budget in [(2, 2, None), (2, 3, None), (3, 2, 30.0)]:
        ring = build_matrix_ring(m, build_gf(q), max_size=600000)
        rank = rank_partition(ring)
        hom = hom_partition(ring)
        char = canonical_generating_character(ring)
        start = time.perf_counter()
        self_dual = is_self_dual(rank, char)
        elapsed = time.perf_counter() - start
        ok &= equals(rank, hom) and self_dual
        if budget is not None:
            ok &= elapsed < budget
            details.append(f"M{m}(F{q}) dual {elapsed:.2f}s < {budget:.0f}s")
    _report(
        "5",
        ok,
        "rank = weight partition, self-dual on M2(F2), M2(F3), M3(F2); "
        + ", ".join(details),
    )


def test_criterion_6a_large_self_dual():
    ring, _ = _matrix_square(3)
    char = canonical_generating_character(ring)
    hom = hom_partition(ring)
    start = time.perf_counter()
    self_dual = is_self_dual(hom, char)
    elapsed = time.perf_counter() - start
    ok = ring.size == 6561 and self_dual and elapsed < 300.0
    _report(
        "6a",
        ok,
        f"weight partition self-dual on the 6561-element square, "
        f"{elapsed:.2f}s < 300s",
    )


def test_criterion_6b_small_square_not_reflexive():
    ring, mat = _matrix_square(2)
    char = canonical_generating_character(ring)
    hom = hom_partition(ring)
    start = time.perf_counter()
    dual = dual_partition(hom, char, "left")
    sym = symmetrized_power_partition(ring, rank_partition(mat))
    reflexive = is_reflexive(hom, char)
    elapsed = time.perf_counter() - start
    ok = equals(dual, sym) and not reflexive and elapsed < 5.0
    _report(
        "6b",
        ok,
        f"dual equals symmetrized rank partition, not reflexive, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_7_matrix_by_field_duality():
    ring3, mat3, fld3 = _matrix_by_field(3)
    char3 = canonical_generating_character(ring3)
    hom3 = hom_partition(ring3)
    dual3 = dual_partition(hom3, char3, "left")
    prod3 = product_partition(
        ring3, rank_partition(mat3), hamming_partition(fld3)
    )
    q3_ok = (
        equals(dual3, prod3)
        and dual3.num_blocks == 6
        and not is_reflexive(hom3, char3)
    )

    ring2, mat2, fld2 = _matrix_by_field(2)
    char2 = canonical_generating_character(ring2)
    hom2 = hom_partition(ring2)
    dual2 = dual_partition(hom2, char2, "left")
    stated = _stated_merge_blocks(ring2, mat2, fld2, 2)
    # reuse the q=2 stated 4-block structure for the dual comparison
    prod2 = product_partition(
        ring2, rank_partition(mat2), hamming_partition(fld2)
    )
    lab = {l: set(b) for l, b in zip(prod2.labels, prod2.blocks)}
    stated_dual = {
        frozenset(lab[(0, (0,))]),
        frozenset(lab[(0, (1,))] | lab[(1, (1,))]),
        frozenset(lab[(1, (0,))] | lab[(2, (0,))]),
        frozenset(lab[(2, (1,))]),
    }
    q2_ok = (
        {frozenset(b) for b in dual2.blocks} == stated_dual
        and hom2.num_blocks == 4 == dual2.num_blocks
        and is_reflexive(hom2, char2)
        and not is_self_dual(hom2, char2)
    )
    _report(
        "7",
        q3_ok and q2_ok,
        "q=3: dual is the 6-block product partition, not reflexive; "
        "q=2: stated 4-block dual, block counts certify reflexivity, "
        "not self-dual",
    )


def test_criterion_8_delsarte_cross_check():
    ok = True
    for m, q in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]:
        ring = build_matrix_ring(m, build_gf(q), max_size=600000)
        part = rank_partition(ring)
        char = canonical_generating_character(ring)
        table = krawtchouk_table(part, char, "left")
        for i in range(m + 1):
            b = next(x for x in range(ring.size) if ring.rank(x) == i)
            for k in range(m + 1):
                got = table.entry(k, b).as_int()
                ok &= got == delsarte_rank_krawtchouk(m, q, i, k)
    _report(
        "8",
        ok,
        "closed form equals brute-force character sums for all (i,k), "
        "m <= 2 with q in {2,3} and m = 3 with q = 2",
    )


def _builtin_rings_up_to(limit):
    gf2 = build_gf(2)
    gf3 = build_gf(3)
    rings = [
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
        build_matrix_ring(2, gf3),
        build_matrix_ring(3, gf2, max_size=600000),
    ]
    return [r for r in rings if r.size <= limit]


def test_criterion_9_property_suites():
    checks = []

    # average exactly 1 on every nonzero principal one-sided ideal
    ok = True
    for ring in _builtin_rings_up_to(512):
        table = weight_table(ring)
        for side in ("left", "right"):
            seen = set()
            for x in range(1, ring.size):
                members = principal_ideal_members(ring, x, side)
                if members in seen:
                    continue
                seen.add(members)
                ok &= sum(table.weights[int(y)] for y in members) == len(members)
    checks.append(("principal-ideal averages, rings to 512", ok))

    # the same average over every left ideal, principal or not
    ok = True
    for ring in _builtin_rings_up_to(64):
        table = weight_table(ring)
        for ideal in all_ideals(ring, "left"):
            if len(ideal) == 1:
                continue
            ok &= sum(table.weights[y] for y in ideal) == len(ideal)
    checks.append(("all-left-ideal averages, rings to 64", ok))

    ok = all(
        cauchy_identity_check(r, q) for r in range(1, 7) for q in (2, 3, 4, 5)
    )
    checks.append(("alternating q-binomial identity", ok))

    ok = True
    for q in (2, 3):
        for m in range(1, 5):
            for r in range(m + 1):
                total = sum(s_count(j, m, r, q) for j in range(r + 1))
                ok &= total == q ** (r * m)
    checks.append(("rank counts fill each ideal", ok))

    gf2 = build_gf(2)
    gf3 = build_gf(3)
    zero_cases = [
        (build_zmod(4), False),
        (build_zmod(6), False),
        (build_product([gf2, gf2]), True),
        (build_product([gf2, gf2, gf3]), True),
        (build_product([build_matrix_ring(2, gf2), gf2]), False),
    ]
    ok = True
    for ring, expected in zero_cases:
        ok &= has_zero_weight_nonzero(ring) == expected
        table = weight_table(ring)
        ok &= any(table.weights[x] == 0 for x in range(1, ring.size)) == expected
    checks.append(("zero-weight criterion vs direct scan", ok))

    ok = True
    for ring in _builtin_rings_up_to(81):
        part = hom_partition(ring)
        ok &= character_independence_check(part)
        base = weight_table(ring).weights
        for char in all_generating_characters(ring):
            ok &= weight_table(ring, char).weights == base
    checks.append(("character independence, rings to 81", ok))

    ok = True
    for ring in _builtin_rings_up_to(256):
        char = canonical_generating_character(ring)
        parts = [hom_partition(ring)]
        from frobring.rings import MatrixRing

        if isinstance(ring, MatrixRing):
            parts.append(rank_partition(ring))
        for part in parts:
            for side in ("left", "right"):
                dual = dual_partition(part, char, side)
                ok &= part.num_blocks <= dual.num_blocks
    checks.append(("duals never have fewer blocks", ok))

    all_ok = all(ok for _, ok in checks)
    failed = [name for name, ok in checks if not ok]
    _report(
        "9",
        all_ok,
        "property suites all exact"
        + (f"; FAILED: {failed}" if failed else ""),
    )
