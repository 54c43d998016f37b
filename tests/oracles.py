"""Independent reference computations used to pin down expected values.

Everything here derives results straight from definitions, along
routes the library does not use: ideals come from generator-closure
enumeration rather than annihilator formulas, weights from solving the
defining linear equations rather than character sums, subspace counts
from exhaustive span enumeration, field traces from Frobenius sums and
matrix products entry by entry rather than from structure constants,
and cyclotomic reductions from sympy polynomial division.  The
element-by-element checks that the unit-orbit index replaced (weight
validation, the generating test, unit invariance) are kept here too,
each scanning every element or every unit.  So are the pair-by-pair
additivity check that the check on generators replaced, the ring-axiom
check on every triple that the checks on generators replaced, the
commutativity and character-symmetry checks on every pair, which the
checks on pairs of additive generators replaced, and the
weight of one element from its own character sum over the units.  The
Krawtchouk table by one column per element, each entry reduced on its
own, is kept for the orbit-indexed tables that replaced it, and so is
the dual grouping by ``np.unique(axis=0)`` over the coefficient rows,
which grouping the rows as opaque byte strings replaced.  The
grouping of elements by a per-element Python key, which every partition
builder and the dual partition used before they keyed elements by
integer arrays grouped in one ``np.unique`` pass, is kept as well.  So
are the generating characters as unit translates built, deduplicated and
sorted one at a time, which one vectorized sort of all their exponent
rows replaced, and ``json.dumps`` with two-space indent and sorted keys,
the text the CLI's ``--json`` renderer must reproduce byte for byte.
The additive presentation walked one coset array at a time is kept for
the walk that steps through the one-element cosets of {0} in Python.
The CLI's text output by ``str()`` of each value is kept too; the text
renderer prints lists that way again, now that no payload shares list
objects.  The per-element Krawtchouk payload, every element's phi(N)
coordinates per block with equal rows sharing one list, is kept for the
orbit-level payload that replaced it, with the expansion that rebuilds
it from the new one.  So is each principal ideal as a mask from one
kernel call, with its members, which no library route reads since the
orbit index keeps the image rows.
Right distributivity checked for every x along each additive generator,
which the check on the edges of the coset walks replaced, is kept, and
so is Light's associativity test for each additive generator, which
the check that the generator translations compose along those edges
replaced, and the table-file reader by ``json.load``, whose nested
lists the reader of integer matrices into arrays replaced.  So are the
check that every row of + is a permutation, through one n x n mask,
which the check of the generators' rows replaced, and the check that
the generator translations commute, which the edge checks imply.
The rational value of a character sum by its trace, which the divisor
sum over gcd classes replaced, is kept, and the Krawtchouk columns per
orbit divide every count row, as the tables did before they held one
integer per entry wherever the partition is a union of unit orbits.
The builtin algebras are pinned to their definitions: ex5_5 by products
of its 4x4 binary matrices, the 8-element non-Frobenius algebra by
packed-bit arithmetic.  Any ring can be rebuilt as a table ring from its
own Cayley tables, a twin on which every result must come out the same.
A product takes its structure, generating test, unit sums, weight
validation and Krawtchouk columns from its factors, and any other ring
reads them off the image rows its orbit index keeps; the direct orbit
routes, one kernel call on the whole ring per unit orbit, are kept here
for both: the orbit scans for the radical, the socles and the Frobenius
test, the ideal search per orbit for the generating test, the unit sum
per orbit, each orbit's principal ideal as a mask, the validator built
on those masks, and the Krawtchouk column per orbit.
Cyclotomic integers of different orders are compared by lifting both to
a common multiple through the reducer, which no library route needs.
Element labels decoded one element at a time, through each product's
``decode`` and each matrix's entries, are kept for the label lists built
as combinations of the factors' labels.  Left/right table agreement on a
semisimple ring through a symmetric character cross-checks
``left_right_agreement``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

import numpy as np

from frobring import cyclotomic
from frobring.errors import (InternalInconsistency, InvalidParameter, InvalidRing,
                             ResourceLimit)
from frobring.duality import _row_keys
from frobring.rings import _check_side, cayley_tables


@lru_cache(maxsize=16)
def _tables(ring) -> tuple[list[list[int]], list[list[int]]]:
    """The ring's Cayley tables as nested lists, built once per ring for
    the scalar loops below: an index costs far less than the one-element
    kernel call of ``ring.add`` or ``ring.mul``."""
    return tuple(t.tolist() for t in cayley_tables(ring))


# -- ideal enumeration -------------------------------------------------------


def close_ideal(ring, seed, side: str) -> frozenset:
    """Smallest one-sided ideal containing the seed elements."""
    add, mul = _tables(ring)
    members = set(seed) | {0}
    changed = True
    while changed:
        changed = False
        current = list(members)
        for x in current:
            for r in range(ring.size):
                y = mul[r][x] if side == "left" else mul[x][r]
                if y not in members:
                    members.add(y)
                    changed = True
        current = list(members)
        for i, a in enumerate(current):
            for b in current[i:]:
                y = add[a][b]
                if y not in members:
                    members.add(y)
                    changed = True
    return frozenset(members)


def principal_ideal_oracle(ring, x: int, side: str) -> frozenset:
    """One-sided principal ideal of a unital ring: all rx (or xr)."""
    _, mul = _tables(ring)
    if side == "left":
        return frozenset(row[x] for row in mul)
    return frozenset(mul[x])


def principal_ideal_mask(ring, x: int, side: str = "left") -> np.ndarray:
    """Boolean membership mask of Rx (side 'left') or xR ('right'), from
    one kernel call."""
    _check_side(side)
    if not 0 <= x < ring.size:
        raise InvalidParameter(f"element index {x} out of range")
    mask = np.zeros(ring.size, dtype=bool)
    mask[ring.mul_col(x) if side == "left" else ring.mul_row(x)] = True
    return mask


def principal_ideal_members(ring, x: int, side: str = "left") -> tuple[int, ...]:
    return tuple(np.flatnonzero(principal_ideal_mask(ring, x, side)).tolist())


def all_ideals(ring, side: str) -> set[frozenset]:
    """Every one-sided ideal, by breadth-first generator extension."""
    zero = frozenset({0})
    found = {zero}
    queue = [zero]
    while queue:
        ideal = queue.pop()
        for g in range(ring.size):
            if g in ideal:
                continue
            bigger = close_ideal(ring, set(ideal) | {g}, side)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return found


def radical_oracle(ring) -> frozenset:
    """Jacobson radical as the intersection of maximal left ideals."""
    ideals = all_ideals(ring, "left")
    proper = [i for i in ideals if len(i) < ring.size]
    maximal = [
        i for i in proper
        if not any(i < j for j in proper)
    ]
    out = set(range(ring.size))
    for i in maximal:
        out &= i
    return frozenset(out)


def socle_oracle(ring, side: str) -> frozenset:
    """Socle as the sum of the minimal nonzero one-sided ideals."""
    ideals = all_ideals(ring, side)
    nonzero = [i for i in ideals if len(i) > 1]
    minimal = [
        i for i in nonzero
        if not any(j < i for j in nonzero)
    ]
    union = set()
    for i in minimal:
        union |= i
    return close_ideal(ring, union, side)


def is_frobenius_oracle(ring) -> bool:
    """Is the left socle a principal left ideal?"""
    soc = socle_oracle(ring, "left")
    return any(
        principal_ideal_oracle(ring, x, "left") == soc for x in soc
    )


def units_oracle(ring) -> list[int]:
    _, mul = _tables(ring)
    out = []
    for x in range(ring.size):
        for y in range(ring.size):
            if mul[x][y] == ring.one and mul[y][x] == ring.one:
                out.append(x)
                break
    return out


def unit_orbits_oracle(ring, side: str) -> set[frozenset]:
    """The orbits {u*x} (side 'left') or {x*u} over the units, by scalar products."""
    _, mul = _tables(ring)
    units = units_oracle(ring)
    if side == "left":
        return {frozenset(mul[u][x] for u in units) for x in range(ring.size)}
    return {frozenset(mul[x][u] for u in units) for x in range(ring.size)}


# -- element-by-element checks ------------------------------------------------


def validate_homogeneous_by_element(ring, weights) -> None:
    """Check the defining weight equations at every element, both sides.

    Raises InternalInconsistency when w(0) != 0, when two elements with
    the same principal ideal differ in weight, or when the weights over
    a nonzero principal ideal do not average 1.
    """
    if weights[0] != 0:
        raise InternalInconsistency("weight of 0 must be 0")
    for side in ("left", "right"):
        first_seen: dict[bytes, int] = {}
        ideals: dict[bytes, np.ndarray] = {}
        for x in range(1, ring.size):
            col = ring.mul_col(x) if side == "left" else ring.mul_row(x)
            members = np.unique(col)
            key = members.tobytes()
            if key in first_seen:
                if weights[x] != weights[first_seen[key]]:
                    raise InternalInconsistency(
                        f"weight is not constant on equal {side} principal ideals "
                        f"(elements {first_seen[key]} and {x})"
                    )
            else:
                first_seen[key] = x
                ideals[key] = members
        for key, members in ideals.items():
            total = sum(weights[int(y)] for y in members)
            if total != len(members):
                raise InternalInconsistency(
                    f"average over the {side} ideal of {first_seen[key]} "
                    f"is {total}/{len(members)}, not 1"
                )


def group_by_key_oracle(ring, key_of) -> tuple[list[list[int]], list]:
    """Elements grouped by equal ``key_of(x)``, blocks ordered by least member.

    Returns the blocks and, in the same order, the key of each block.
    """
    groups: dict = {}
    for x in range(ring.size):
        groups.setdefault(key_of(x), []).append(x)
    keys = sorted(groups, key=lambda k: groups[k][0])
    return [groups[k] for k in keys], keys


def generating_characters_by_translate(ring) -> list:
    """The unit translates of the canonical character, one at a time.

    Deduplicated by exponent bytes and sorted by exponent list; raises
    if two units give one translate or a translate is not generating.
    """
    from frobring.characters import (canonical_generating_character,
                                     is_generating, translate)

    base = canonical_generating_character(ring)
    seen: dict = {}
    for u in ring.units:
        cand = translate(base, u, "left")
        seen.setdefault(cand.key(), cand)
    chars = sorted(seen.values(), key=lambda c: c.exponents.tolist())
    where = f"{ring.expr}: left unit translates of the character of order {base.order}"
    if len(chars) != len(ring.units):
        raise InternalInconsistency(f"{where} must be pairwise distinct")
    if not all(is_generating(c) for c in chars):
        raise InternalInconsistency(f"{where} must all be generating")
    return chars


def json_text_oracle(payload) -> str:
    """The CLI's ``--json`` text as the standard library writes it."""
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_text_oracle(payload: dict, indent: str = "") -> None:
    """Print the CLI's text output: each value by ``str()``, one line per key."""
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            emit_text_oracle(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                emit_text_oracle(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def element_label_by_decode(ring, i: int) -> str:
    """The label of element i: a product's tuple of factor labels, a
    matrix's rows of entry indices, or else the index itself."""
    from frobring.rings import MatrixRing, ProductRing

    if isinstance(ring, ProductRing):
        return "(" + ",".join(element_label_by_decode(f, c)
                              for f, c in zip(ring.factors, ring.decode(i))) + ")"
    if isinstance(ring, MatrixRing):
        return "[" + ",".join("[" + ",".join(str(int(v)) for v in row) + "]"
                              for row in ring.matrix_of(i)) + "]"
    return str(i)


def is_generating_by_kernel_scan(char) -> bool:
    """Generating test scanning every nonzero kernel element's two ideals."""
    ring = char.ring
    exps = char.exponents
    for x in np.flatnonzero(exps == 0):
        x = int(x)
        if x == 0:
            continue
        if not exps[ring.mul_col(x)].any() or not exps[ring.mul_row(x)].any():
            return False
    return True


def is_invariant_by_units(partition) -> bool:
    """Unit invariance checked unit by unit, on both sides."""
    ring = partition.ring
    b = partition.block_of
    for u in ring.units:
        if not np.array_equal(b[ring.mul_row(u)], b):
            return False
        if not np.array_equal(b[ring.mul_col(u)], b):
            return False
    return True


def is_commutative_by_pairs(ring) -> bool:
    """Commutativity checked on every pair (a, b): row a against column a."""
    return all(np.array_equal(ring.mul_row(a), ring.mul_col(a)) for a in range(ring.size))


def is_symmetric_by_pairs(char) -> bool:
    """chi(ab) = chi(ba) checked on every pair (a, b)."""
    ring, exps = char.ring, char.exponents
    return all(np.array_equal(exps[ring.mul_row(a)], exps[ring.mul_col(a)])
               for a in range(ring.size))


def semisimple_lr_agreement(ring, partition) -> bool:
    """Left/right table agreement on a semisimple ring, via a symmetric character."""
    from frobring.characters import (all_generating_characters,
                                     canonical_generating_character, is_symmetric)
    from frobring.duality import left_right_agreement
    from frobring.partitions import is_invariant

    if tuple(ring.radical) != (0,):
        raise InvalidParameter("ring is not semisimple")
    if partition.ring is not ring:
        raise InvalidParameter("partition lives on a different ring")
    if not is_invariant(partition):
        raise InvalidParameter("partition is not invariant")
    char = canonical_generating_character(ring)
    if not is_symmetric(char):
        for candidate in all_generating_characters(ring):
            if is_symmetric(candidate):
                char = candidate
                break
        else:
            raise InternalInconsistency(
                f"{ring.expr}: semisimple, but no generating character of order "
                f"{char.order} gives equal left and right values chi(ab), chi(ba)"
            )
    return left_right_agreement(partition, char)


def is_additive_by_pairs(ring, exponents, order: int) -> bool:
    """Is the exponent map additive?  Checked on every pair (x, y)."""
    for x in range(ring.size):
        if not np.array_equal(exponents[ring.add_row(x)], (exponents[x] + exponents) % order):
            return False
    return True


def additive_presentation_by_coset_arrays(ring):
    """(R,+) on the greedy generating set, each coset H + jg taken as one
    array operation, even while H = {0} and every coset is one element."""
    from frobring.rings import AdditivePresentation

    in_span = np.arange(ring.size) == 0
    gens, shifts, cosets = [], [], []
    while not in_span.all():
        gens.append(int(np.argmin(in_span)))
        shifts.append(ring.add_row(gens[-1]))
        walk = [np.flatnonzero(in_span)]
        while not in_span[shifts[-1][walk[-1][0]]]:
            walk.append(shifts[-1][walk[-1]])
            in_span[walk[-1]] = True
        cosets.append(np.stack(walk))
    return AdditivePresentation(
        np.array(gens, dtype=np.int64), np.array(shifts, dtype=np.int64).reshape(-1, ring.size),
        tuple(cosets), tuple(int(s[c[-1, 0]]) for s, c in zip(shifts, cosets)))


def additive_closure(ring, gens) -> frozenset:
    """Subgroup of (R,+) generated by gens, by breadth-first closure."""
    add, _ = _tables(ring)
    members = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = add[cur][g]
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


def validate_tables_exhaustive(add: np.ndarray, mul: np.ndarray, one: int) -> None:
    """Check all ring axioms on the given tables, on every triple: O(n^3).

    Raises InvalidRing with the first offending element pair or triple.
    """
    n = add.shape[0]
    arange = np.arange(n)
    if not np.array_equal(add[0], arange):
        b = int(np.flatnonzero(add[0] != arange)[0])
        raise InvalidRing(f"0 + {b} != {b}", witness=(0, b))
    if not np.array_equal(add, add.T):
        a, b = map(int, np.argwhere(add != add.T)[0])
        raise InvalidRing(f"{a} + {b} != {b} + {a}", witness=(a, b))
    counts = np.apply_along_axis(np.bincount, 1, add, minlength=n)
    if not (counts == 1).all():
        a = int(np.argwhere(counts != 1)[0][0])
        raise InvalidRing(f"row {a} of the addition table is not a permutation",
                          witness=(a,))
    if not (0 <= one < n) or not np.array_equal(mul[one], arange) or not np.array_equal(
        mul[:, one], arange
    ):
        raise InvalidRing(f"element {one} is not a two-sided identity", witness=(one,))
    add64 = add.astype(np.int64)
    mul64 = mul.astype(np.int64)
    for a in range(n):
        lhs = add64[add64[a]]
        rhs = add64[a][add64]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise InvalidRing(f"addition is not associative at ({a},{b},{c})",
                              witness=(a, b, c))
        lhs = mul64[mul64[a]]
        rhs = mul64[a][mul64]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise InvalidRing(f"multiplication is not associative at ({a},{b},{c})",
                              witness=(a, b, c))
        row = mul64[a]
        lhs = row[add64]
        rhs = add64[np.ix_(row, row)]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise InvalidRing(f"left distributivity fails at ({a},{b},{c})",
                              witness=(a, b, c))
        col = mul64[:, a]
        lhs = col[add64]
        rhs = add64[np.ix_(col, col)]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise InvalidRing(f"right distributivity fails at ({a},{b},{c})",
                              witness=(a, b, c))


def permutation_rows_by_mask(add: np.ndarray) -> None:
    """Is every row of + a permutation?  One n x n mask, each row's
    values marked in it; raises InvalidRing at the first row that misses
    a value."""
    n = add.shape[0]
    seen = np.zeros((n, n), dtype=bool)
    np.put_along_axis(seen, add, True, axis=1)
    if not seen.all():
        a = int(np.flatnonzero(~seen.all(axis=1))[0])
        raise InvalidRing(f"row {a} of the addition table is not a permutation",
                          witness=(a,))


def generator_translations_commute(add: np.ndarray) -> bool:
    """g+(h+x) = h+(g+x) for every pair g, h of the greedy additive
    generators and every x: the translations by the generators commute."""
    from frobring.rings import _greedy_generators

    gens = [g for g, _, _ in _greedy_generators(add.shape[0], add.__getitem__)]
    return all(np.array_equal(add[g][add[h]], add[h][add[g]]) for g in gens for h in gens)


def additive_associativity_by_light(add: np.ndarray) -> None:
    """Light's test for each g of the greedy generating set, as g joins
    it: (x+g)+y = x+(g+y) for all x, y, k n^2 gathers.  The g passing it
    are closed under +, so each span is a subgroup, the walk that grows
    it is sound, and + is associative once the set spans.  Sound once 0
    is neutral, + is commutative and every row is a permutation.  Raises
    InvalidRing at the first [x, y] that fails, per g in turn."""
    from frobring.rings import _greedy_generators

    for g, shift, _ in _greedy_generators(add.shape[0], add.__getitem__):
        lhs, rhs = add[shift], add[:, shift]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            x, y = map(int, bad[0])
            raise InvalidRing(f"addition is not associative at ({x},{g},{y})",
                              witness=(x, g, y))


def right_distributivity_by_generators(add: np.ndarray, mul: np.ndarray) -> None:
    """(x+g)a = xa + ga for all x, a and each g of the greedy generating
    set, where ``validate_tables`` takes only the x on the coset walks'
    edges: k n^2 gathers, for fixed a the g satisfying it for all x
    being closed under +.  Sound once (R,+) is an abelian group.  Raises
    InvalidRing at the first [a, x] that fails, per g in turn."""
    from frobring.rings import _greedy_generators

    n = add.shape[0]
    by_col, flat_add = np.ascontiguousarray(mul.T), add.ravel()
    for g, shift, _ in _greedy_generators(n, add.__getitem__):
        lhs = by_col[:, shift]
        rhs = flat_add.take(mul[g].astype(np.intp)[:, None] * n + by_col)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            a, x = map(int, bad[0])
            raise InvalidRing(f"right distributivity fails at ({a},{x},{g})",
                              witness=(a, x, g))


# -- table files by json ---------------------------------------------------------


def load_table_spec_by_json(path: str, max_size: int | None = None) -> dict:
    """``load_table_spec`` by ``json.load``: every value, tables included,
    as ``json`` reads it, so a table comes as nested lists."""
    from frobring.rings import DEFAULT_SIZE_GUARD, _require_fields

    guard = DEFAULT_SIZE_GUARD if max_size is None else max_size
    budget = (2 * guard + 1) * guard * (len(str(guard)) + 16) + (1 << 16)
    if os.path.getsize(path) > budget:
        raise ResourceLimit(f"{path} is larger than {budget} bytes, the most a "
                            f"ring within the size guard {guard} needs")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameter(f"{path}: expected a JSON object")
    _require_fields(data, path)
    return data


# -- homogeneous weight from the defining equations --------------------------


def homogeneous_weight_oracle(ring) -> list[Fraction]:
    """Solve for the weight directly from its defining equations.

    Unknowns: one weight per left-associate class (elements generating
    the same principal left ideal).  Equations: the weights over each
    distinct nonzero principal left ideal sum to the ideal size.  The
    solution must exist and be unique; anything else raises.
    """
    n = ring.size
    ideal_of = [principal_ideal_oracle(ring, x, "left") for x in range(n)]
    class_of: dict[frozenset, int] = {}
    classes: list[list[int]] = []
    for x in range(1, n):
        key = ideal_of[x]
        if key not in class_of:
            class_of[key] = len(classes)
            classes.append([])
        classes[class_of[key]].append(x)
    distinct_ideals = sorted(
        {ideal_of[x] for x in range(1, n)}, key=lambda i: (len(i), sorted(i))
    )
    rows = []
    for ideal in distinct_ideals:
        coeff = [Fraction(0)] * len(classes)
        for y in ideal:
            if y != 0:
                coeff[class_of[ideal_of[y]]] += 1
        rows.append((coeff, Fraction(len(ideal))))

    ncols = len(classes)
    pivots = {}
    for coeff, rhs in rows:
        coeff = list(coeff)
        for col, (pc, prhs) in pivots.items():
            factor = coeff[col]
            if factor:
                coeff = [a - factor * b for a, b in zip(coeff, pc)]
                rhs = rhs - factor * prhs
        lead = next((j for j, a in enumerate(coeff) if a), None)
        if lead is None:
            if rhs != 0:
                raise ArithmeticError("inconsistent weight equations")
            continue
        inv = Fraction(1) / coeff[lead]
        coeff = [a * inv for a in coeff]
        rhs = rhs * inv
        pivots[lead] = (coeff, rhs)
    if len(pivots) != ncols:
        raise ArithmeticError("weight equations do not determine the weight")
    values = [Fraction(0)] * ncols
    for col in sorted(pivots, reverse=True):
        coeff, rhs = pivots[col]
        acc = rhs
        for j in range(col + 1, ncols):
            acc -= coeff[j] * values[j]
        values[col] = acc
    weights = [Fraction(0)] * n
    for x in range(1, n):
        weights[x] = values[class_of[ideal_of[x]]]
    return weights


def _unit_sum(ring, char, x: int, units_arr: np.ndarray, side: str):
    if side == "left":
        prods = ring.mul_row(x, units_arr)  # x * u
    else:
        prods = ring.mul_col(x, units_arr)  # u * x
    counts = np.bincount(char.exponents[prods], minlength=char.order)
    return cyclotomic.from_exponent_counts(char.order, counts)


def weight_via_characters(ring, char, x: int) -> Fraction:
    """w(x) from the generating-character sum over units, at one element.

    Both one-sided sums are computed; they must agree and be rational
    integers, else the inputs are inconsistent.
    """
    if not 0 <= x < ring.size:
        raise InvalidParameter(f"element index {x} out of range")
    units_arr = np.asarray(ring.units, dtype=np.int64)
    left = _unit_sum(ring, char, x, units_arr, "left")
    right = _unit_sum(ring, char, x, units_arr, "right")
    if left.coeffs != right.coeffs:
        raise InternalInconsistency(
            f"unit sums over x*u and u*x differ at element {x}"
        )
    value = left.as_int()
    if value is None:
        raise InternalInconsistency(
            f"character sum at element {x} is not a rational integer"
        )
    return 1 - Fraction(value, len(units_arr))


# -- linear algebra over small fields ----------------------------------------


def span_oracle(field, vectors) -> frozenset:
    """All linear combinations of the given tuples over a field ring."""
    add, mul = _tables(field)
    dim = len(vectors[0]) if vectors else 0
    span = {tuple([0] * dim)}
    for vec in vectors:
        additions = []
        for scale in range(field.size):
            scaled = tuple(mul[scale][c] for c in vec)
            for base in span:
                additions.append(
                    tuple(add[a][b] for a, b in zip(base, scaled))
                )
        span.update(additions)
        # re-close under addition until stable
        changed = True
        while changed:
            changed = False
            current = list(span)
            for i, a in enumerate(current):
                for b in current[i:]:
                    s = tuple(add[x][y] for x, y in zip(a, b))
                    if s not in span:
                        span.add(s)
                        changed = True
    return frozenset(span)


def matrix_rank_oracle(matrix_ring, a: int) -> int:
    """Rank as log_q of the row-space size."""
    digits = matrix_ring.matrix_of(a)
    field = matrix_ring.field
    rows = [tuple(int(c) for c in row) for row in digits]
    size = len(span_oracle(field, rows))
    rank = 0
    while field.size ** rank < size:
        rank += 1
    assert field.size ** rank == size
    return rank


def count_subspaces_oracle(field, m: int, r: int) -> int:
    """Number of r-dimensional subspaces of field^m by span enumeration."""
    all_vecs = _all_vectors(field, m)
    zero_space = frozenset({tuple([0] * m)})
    seen = {zero_space}
    frontier = [zero_space]
    result = 1 if r == 0 else 0
    while frontier:
        space = frontier.pop()
        for v in all_vecs:
            if v in space:
                continue
            bigger = span_oracle(field, list(space) + [v])
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
                dim = 0
                while field.size ** dim < len(bigger):
                    dim += 1
                if dim == r:
                    result += 1
    return result


def _all_vectors(field, m: int):
    vecs = [()]
    for _ in range(m):
        vecs = [v + (c,) for v in vecs for c in range(field.size)]
    return vecs


# -- field traces and matrix products from scalar field operations -----------


def frobenius_trace_oracle(field) -> list[int]:
    """Absolute trace x + x^p + ... + x^(p^(k-1)) of every field element.

    The trace lies in the prime subfield, whose elements are the
    constants, so its index is its value in 0..p-1.
    """
    add, mul = _tables(field)
    out = []
    for x in range(field.size):
        acc, conj = 0, x
        for _ in range(field.k):
            acc = add[acc][conj]
            power = field.one
            for _ in range(field.p):
                power = mul[power][conj]
            conj = power
        out.append(acc)
    return out


def matrix_trace_oracle(matrix_ring) -> list[int]:
    """Field trace of the matrix trace of every matrix-ring element."""
    field = matrix_ring.field
    add, _ = _tables(field)
    field_trace = frobenius_trace_oracle(field)
    out = []
    for a in range(matrix_ring.size):
        entries = matrix_ring.matrix_of(a)
        acc = 0
        for i in range(matrix_ring.m):
            acc = add[acc][int(entries[i, i])]
        out.append(field_trace[acc])
    return out


def matrix_product_oracle(matrix_ring, a: int, b: int) -> int:
    """Index of a*b from the m-by-m product over the field's scalar ops.

    Entries are read back in row-major order, (0,0) most significant.
    """
    field = matrix_ring.field
    add, mul = _tables(field)
    m = matrix_ring.m
    left, right = matrix_ring.matrix_of(a), matrix_ring.matrix_of(b)
    index = 0
    for i in range(m):
        for j in range(m):
            acc = 0
            for k in range(m):
                acc = add[acc][mul[int(left[i, k])][int(right[k, j])]]
            index = index * field.size + acc
    return index


# -- cyclotomic reduction through sympy ---------------------------------------


def sympy_cyclotomic_coeffs(order: int) -> tuple[int, ...]:
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(order, x), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def sympy_reduce_exponents(order: int, counts) -> tuple[int, ...]:
    """Reduce sum_k counts[k] * x^k modulo the order-th cyclotomic polynomial."""
    import sympy

    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x)
    rem = sympy.Poly([int(c) for c in reversed(counts)] or [0], x).rem(phi)
    coeffs = [int(c) for c in reversed(rem.all_coeffs())]
    degree = phi.degree()
    coeffs += [0] * (degree - len(coeffs))
    return tuple(coeffs[:degree])


@lru_cache(maxsize=None)
def root_power_traces(order: int) -> tuple[int, ...]:
    """Trace of each power of the root down to the rationals.

    Entry k is the sum of zeta_order^(k*j) over all j coprime to the
    order.  A sum of root powers with integer counts that is known to
    be a rational number v therefore satisfies
    sum(counts[k] * traces[k]) == v * totient(order): the rational value
    by a trace and a divisibility test, the route the class-constant
    divisor sum of ``cyclotomic.rational_sums`` replaced.
    """
    from math import gcd

    phi = cyclotomic.totient(order)
    return tuple(cyclotomic._mobius(order // gcd(k, order))
                 * (phi // cyclotomic.totient(order // gcd(k, order))) for k in range(order))


def lift(a: cyclotomic.CycInt, order: int) -> cyclotomic.CycInt:
    """Rewrite ``a`` in Z[zeta_order], a multiple of its order, through the reducer.

    zeta_(a.order) is zeta_order^step with step = order / a.order, so the
    coordinate on zeta_(a.order)^k becomes the count at exponent k * step.
    """
    step = order // a.order
    counts = [0] * order
    counts[: len(a.coeffs) * step : step] = a.coeffs
    return cyclotomic.from_exponent_counts(order, counts)


# -- Krawtchouk tables, one column per element --------------------------------


def krawtchouk_table_by_element(partition, char, side: str) -> list[list]:
    """Entries [block][element] as CycInts, one O(n) column per element.

    Asserts both table invariants on every column: the column at 0 lists
    the block sizes, and every column sums to |R| at 0 and to 0 elsewhere.
    """
    ring = partition.ring
    order, nblocks = char.order, partition.num_blocks
    base = partition.block_of * order
    sizes = partition.block_sizes()
    rows = [[None] * ring.size for _ in range(nblocks)]
    for b in range(ring.size):
        col = ring.mul_col(b) if side == "left" else ring.mul_row(b)
        counts = np.bincount(base + char.exponents[col], minlength=nblocks * order)
        counts = counts.reshape(nblocks, order)
        for m in range(nblocks):
            rows[m][b] = cyclotomic.from_exponent_counts(order, counts[m])
            if b == 0 and rows[m][b].as_int() != sizes[m]:
                raise InternalInconsistency(f"column at 0 gave {rows[m][b]} for block {m}")
        total = cyclotomic.from_exponent_counts(order, counts.sum(axis=0)).as_int()
        if total != (ring.size if b == 0 else 0):
            raise InternalInconsistency(f"column at {b} sums to {total}")
    return rows


def krawtchouk_json_by_element(table) -> dict:
    """The table as nested lists, ``entries[m][b]`` at every element b as
    phi(N) coordinates.

    Equal coefficient rows share one list object, across orbits and
    blocks, so there are as many row objects as distinct row values.
    """
    rows = np.ascontiguousarray(table.coeffs.transpose(1, 0, 2))  # [block, orbit, coord]
    flat = rows.reshape(-1, rows.shape[2])
    _, first, row_of = np.unique(_row_keys(flat), return_index=True, return_inverse=True)
    distinct = table.widen(flat[first]).tolist()
    entry_of = row_of.reshape(rows.shape[:2])[:, table.orbit_of]
    return {
        "ring": table.partition.ring.expr,
        "side": table.side,
        "order": table.char.order,
        "partition": table.partition.to_json(),
        "entries": [list(map(distinct.__getitem__, block)) for block in entry_of.tolist()],
    }


def expand_orbit_payload(payload: dict, phi: int) -> dict:
    """The payload of ``krawtchouk_json_by_element`` rebuilt from the
    orbit-level one of ``KrawtchoukTable.to_json``: the entry at element
    b is the one at orbit ``orbit_of[b]``, a plain int v written as the
    phi coordinates (v, 0, ..., 0)."""
    def coords(entry) -> list[int]:
        return entry if isinstance(entry, list) else [entry] + [0] * (phi - 1)

    out = {key: value for key, value in payload.items() if key != "orbit_of"}
    out["entries"] = [[coords(row[k]) for k in payload["orbit_of"]]
                      for row in payload["entries"]]
    return out


# -- the direct orbit routes on a whole product ----------------------------------


def structure_by_orbit_scan(ring) -> tuple:
    """Radical, left and right socles and the Frobenius flag by orbit
    scans with one kernel call on the ring itself per representative: the
    radical test 1 - rx a unit per left orbit, the annihilator of one
    radical element per orbit, and a generator of each socle searched
    among the orbit representatives inside it."""
    one_plus = ring.add_row(ring.one)
    is_unit = np.isin(np.arange(ring.size), ring.units)
    reps, orbit_of = ring.orbit_index("left")[:2]
    inside = np.array([is_unit[one_plus[ring.mul_col(x)]].all() for x in reps.tolist()])
    radical = np.flatnonzero(inside[orbit_of])
    socles, principal = [], []
    for side in ("left", "right"):
        reps = ring.orbit_index(side).reps
        soc = np.ones(ring.size, dtype=bool)
        for j in reps[np.isin(reps, radical)].tolist():
            soc &= (ring.mul_row(j) if side == "left" else ring.mul_col(j)) == 0
        socles.append(tuple(np.flatnonzero(soc).tolist()))
        principal.append(any(np.array_equal(principal_ideal_mask(ring, a, side), soc)
                             for a in reps[soc[reps]].tolist()))
    if principal[0] != principal[1]:
        raise InternalInconsistency("one-sided principal-socle conditions disagree")
    return radical, socles[0], socles[1], principal[0]


def is_generating_by_orbits(char) -> bool:
    """Generating test on the whole ring: the ideal of every nonzero
    orbit representative, on each side, from one kernel call, must leave
    the kernel."""
    ring, exps = char.ring, char.exponents
    for side in ("left", "right"):
        reps = ring.orbit_index(side).reps  # reps[0] = 0, whose orbit is {0}
        for x in reps[1:].tolist():
            if not exps[ring.mul_col(x) if side == "left" else ring.mul_row(x)].any():
                return False
    return True


def orbit_ideals_by_kernel(ring, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The principal-ideal masks of the orbit representatives, one kernel
    call each, and for each representative the first one whose mask is
    equal, found by comparing masks pairwise."""
    reps = ring.orbit_index(side).reps
    masks = np.stack([principal_ideal_mask(ring, r, side) for r in reps.tolist()])
    first = [next(j for j in range(k + 1) if np.array_equal(masks[j], masks[k]))
             for k in range(len(reps))]
    return masks, np.array(first)


def unit_sums_by_orbits(ring, char, side: str) -> np.ndarray:
    """Unit sum at every element, one character sum over the units of the
    whole ring per unit orbit: chi(u*x) on side 'left', chi(x*u) on 'right'."""
    traces = np.asarray(root_power_traces(char.order), dtype=np.int64)
    units_arr = np.asarray(ring.units, dtype=np.int64)
    reps, orbit_of = ring.orbit_index(side)[:2]
    sums = []
    for x in reps.tolist():
        prods = ring.mul_col(x, units_arr) if side == "left" else ring.mul_row(x, units_arr)
        dot = int(np.bincount(char.exponents[prods], minlength=char.order) @ traces)
        if dot % int(traces[0]):
            raise InternalInconsistency(f"{ring.expr}: unit sum at {x} is not a rational integer")
        sums.append(dot // int(traces[0]))
    return np.array(sums, dtype=np.int64)[orbit_of]


def validate_homogeneous_by_orbits(ring, num: np.ndarray, denom: int) -> None:
    """The weight equations once per unit orbit, each orbit's principal
    ideal built as a membership mask on the whole ring.  Raises
    InternalInconsistency with the library validator's messages."""
    if num[0] != 0:
        raise InternalInconsistency(
            f"{ring.expr}: weight of 0 is {Fraction(int(num[0]), denom)}, not 0")
    for side in ("left", "right"):
        reps, orbit_of = ring.orbit_index(side)[:2]
        off = np.flatnonzero(num[reps[orbit_of]] != num)
        if len(off):
            x = int(off[0])
            raise InternalInconsistency(
                f"{ring.expr}: weight is not constant on the {side} unit orbit "
                f"of {reps[orbit_of[x]]} (element {x})")
        first_seen: dict[bytes, int] = {}
        for r in reps[1:].tolist():
            members = principal_ideal_mask(ring, r, side)
            key = np.packbits(members).tobytes()
            if key in first_seen:
                if num[r] != num[first_seen[key]]:
                    raise InternalInconsistency(
                        f"{ring.expr}: weight is not constant on equal {side} "
                        f"principal ideals (elements {first_seen[key]} and {r})")
                continue
            first_seen[key] = r
            total, size = int(num[members].sum()), int(members.sum())
            if total != denom * size:
                raise InternalInconsistency(
                    f"{ring.expr}: average over the {side} ideal of {r} "
                    f"is {Fraction(total, denom)}/{size}, not 1")


def krawtchouk_coeffs_by_orbit_columns(partition, char, side: str,
                                       reps: np.ndarray | None = None) -> np.ndarray:
    """Reduced coordinates [column, block, coordinate] of the columns at
    ``reps``, by default the representatives of the unit orbits of the
    side: one kernel call on the whole ring per column, and every count
    row divided by the cyclotomic polynomial, rational or not."""
    ring = partition.ring
    order, nblocks = char.order, partition.num_blocks
    if reps is None:
        reps = ring.orbit_index(side).reps
    base = partition.block_of * order
    kernel = ring.mul_col if side == "left" else ring.mul_row
    counts = np.stack([np.bincount(base + char.exponents[kernel(b)], minlength=nblocks * order)
                       for b in reps.tolist()])
    return cyclotomic.reduce_exponent_counts(order, counts.reshape(len(reps), nblocks, order))


def rational_columns_by_element(partition, char, side: str) -> np.ndarray:
    """The coefficient column [element, block] at every element of a table
    whose coefficients are rational integers, one kernel call on the whole
    ring per element: no unit orbit is assumed.  Raises
    InternalInconsistency where a column is not rational."""
    ring = partition.ring
    order, nblocks = char.order, partition.num_blocks
    base = partition.block_of * order
    kernel = ring.mul_col if side == "left" else ring.mul_row
    return np.stack([cyclotomic.rational_sums(
        order, np.bincount(base + char.exponents[kernel(b)],
                           minlength=nblocks * order).reshape(nblocks, order),
        f"{ring.expr}, {side} column at {b}") for b in range(ring.size)])


# -- dual grouping by unique rows --------------------------------------------------


def dual_groups_by_unique_rows(table):
    """The dual partition of a Krawtchouk table, orbits grouped by
    ``np.unique(axis=0)`` over their coefficient rows."""
    from frobring.partitions import Partition

    _, group = np.unique(table.coeffs.reshape(len(table.coeffs), -1), axis=0,
                         return_inverse=True)
    return Partition.from_keys(table.partition.ring, group.reshape(-1)[table.orbit_of])


# -- the builtin algebras from their definitions, and table twins ----------------


def ex5_5_tables_from_matrices() -> tuple[np.ndarray, np.ndarray, int]:
    """Cayley tables of ex5_5 from 4x4 binary matrix arithmetic.

    Element a*8 + b*4 + c*2 + d is the matrix with rows (a,0,0,0),
    (0,a,b,0), (0,0,c,0), (d,0,0,c).  Raises if a sum or product leaves
    that shape.
    """
    def matrix(i):
        a, b, c, d = (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1
        return np.array([[a, 0, 0, 0], [0, a, b, 0], [0, 0, c, 0], [d, 0, 0, c]])

    index = {matrix(i).tobytes(): i for i in range(16)}

    def element(m):
        key = (m % 2).tobytes()
        if key not in index:
            raise InternalInconsistency(f"not an ex5_5 matrix:\n{m % 2}")
        return index[key]

    mats = [matrix(i) for i in range(16)]
    add = np.array([[element(x + y) for y in mats] for x in mats])
    mul = np.array([[element(x @ y) for y in mats] for x in mats])
    return add, mul, element(np.eye(4, dtype=np.int64))


def non_frobenius_tables_from_bits() -> tuple[np.ndarray, np.ndarray, int]:
    """Cayley tables of F_2[x,y]/(x^2, y^2, xy, yx), element a + bx + cy
    packed as 4a + 2b + c, multiplied as (a1 a2, a1 b2 + a2 b1, a1 c2 + a2 c1)."""
    def unpack(i):
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    def pack(a, b, c):
        return a % 2 * 4 + b % 2 * 2 + c % 2

    elems = [unpack(i) for i in range(8)]
    add = np.array([[pack(a1 + a2, b1 + b2, c1 + c2) for a2, b2, c2 in elems]
                    for a1, b1, c1 in elems])
    mul = np.array([[pack(a1 * a2, a1 * b2 + a2 * b1, a1 * c2 + a2 * c1)
                     for a2, b2, c2 in elems] for a1, b1, c1 in elems])
    return add, mul, pack(1, 0, 0)


def table_twin(ring, exponents: bool = True):
    """The ring rebuilt as a table ring from its own Cayley tables.

    The twin keeps the ring's name and structure.  With ``exponents`` it
    carries the canonical character's exponents; without, its character
    comes from the search.
    """
    from frobring.characters import canonical_generating_character
    from frobring.rings import build_table_ring

    add, mul = cayley_tables(ring)
    spec = {"size": ring.size, "add": add, "mul": mul, "one": ring.one, "name": ring.expr}
    if exponents:
        spec["char_exponents"] = canonical_generating_character(ring).exponents.tolist()
    twin = build_table_ring(spec)
    twin.structure = ring.structure
    return twin


def ring_id(ring) -> str:
    """A test id that tells a table twin from the ring it copies."""
    from frobring.rings import TableRing

    return f"{ring.expr} as tables" if isinstance(ring, TableRing) else ring.expr
