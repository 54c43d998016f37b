"""Krawtchouk coefficients and dual partitions.

The left coefficient of block P_m at element b is the exact cyclotomic
sum of chi(a b) over a in P_m; the right coefficient sums chi(b a).
When every block is closed under unit multiplication on the other side
(P_m u = P_m for the left table, u P_m = P_m for the right), the left
column at ub equals the one at b, so a table keeps one column per unit
orbit of its side and maps elements to orbits.  Otherwise every element
is its own orbit, through the same code.  All columns are reduced in one
vectorized pass of ``cyclotomic.reduce_exponent_counts`` into a dense
integer array, on which the two invariants are checked once per table:
the b = 0 column lists the block sizes, and each column sums to |R|
exactly at b = 0 and to 0 elsewhere.  Grouping orbits by their full
column yields the left and right dual partitions, unions of orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import cyclotomic
from .characters import (Character, all_generating_characters,
                         canonical_generating_character, is_generating,
                         is_symmetric)
from .errors import InternalInconsistency, InvalidParameter, ResourceLimit
from .partitions import Partition, equals, is_invariant
from .rings import FiniteRing
from .weights import gaussian

_COUNT_CHUNK = 1 << 21  # exponent counts held at once, in int64 entries
_TABLE_ENTRIES = 1 << 25  # most int64 coordinates one table may hold


@dataclass(frozen=True, eq=False)
class KrawtchoukTable:
    """Exact character sums indexed by (block, element), stored per orbit.

    ``coeffs[k, m]`` holds the reduced coordinates of the sum over block
    m at every element of orbit k, and ``orbit_of`` gives each element's
    orbit.
    """

    partition: Partition
    char: Character
    side: str
    coeffs: np.ndarray
    orbit_of: np.ndarray

    def entry(self, m: int, b: int) -> cyclotomic.CycInt:
        return self.column(b)[m]

    def column(self, b: int) -> tuple[cyclotomic.CycInt, ...]:
        return tuple(cyclotomic.CycInt(self.char.order, tuple(e))
                     for e in self.coeffs[self.orbit_of[b]].tolist())

    def to_json(self) -> dict:
        """The table as nested lists, ``entries[m][b]`` at every element b.

        The members of one orbit share one list object per block.
        """
        orbits = self.orbit_of.tolist()
        return {
            "ring": self.partition.ring.expr,
            "side": self.side,
            "order": self.char.order,
            "partition": self.partition.to_json(),
            "entries": [[row[k] for k in orbits]
                        for row in self.coeffs.transpose(1, 0, 2).tolist()],
        }


def same_entries(a: KrawtchoukTable, b: KrawtchoukTable) -> bool:
    """Entrywise exact equality of two tables over the same partition."""
    if a.partition.blocks != b.partition.blocks or a.char.order != b.char.order:
        return False
    # each (orbit in a, orbit in b) pair met by some element, as one int64 code
    pairs = np.unique(a.orbit_of * len(b.coeffs) + b.orbit_of)
    return np.array_equal(a.coeffs[pairs // len(b.coeffs)], b.coeffs[pairs % len(b.coeffs)])


def krawtchouk_table(partition: Partition, char: Character, side: str) -> KrawtchoukTable:
    if side not in ("left", "right"):
        raise InvalidParameter(f"side must be left or right, got {side!r}")
    ring = partition.ring
    if char.ring is not ring:
        raise InvalidParameter("character lives on a different ring")
    if not is_generating(char):
        raise InvalidParameter("character is not generating")
    cache = partition.__dict__.setdefault("_kraw_cache", {})
    cache_key = (char.key(), side)
    if cache_key in cache:
        return cache[cache_key]
    block_of = partition.block_of
    reps, orbit_of = ring.unit_orbits("right" if side == "left" else "left")
    if np.array_equal(block_of[reps[orbit_of]], block_of):
        reps, orbit_of = ring.unit_orbits(side)
    else:  # not invariant on the other side: every element is its own orbit
        reps = orbit_of = np.arange(ring.size)
    nblocks, order = partition.num_blocks, char.order
    if len(reps) * nblocks * cyclotomic.totient(order) > _TABLE_ENTRIES:
        raise ResourceLimit(f"{ring.expr}: a {side} table of {len(reps)} columns, {nblocks} "
                            f"blocks and character order {order} exceeds "
                            f"{_TABLE_ENTRIES} coordinates")
    base = block_of * order
    exps = char.exponents
    kernel = ring.mul_col if side == "left" else ring.mul_row
    step = max(1, _COUNT_CHUNK // (nblocks * order))
    parts = []
    for start in range(0, len(reps), step):
        counts = np.stack([np.bincount(base + exps[kernel(b)], minlength=nblocks * order)
                           for b in reps[start:start + step].tolist()])
        parts.append(cyclotomic.reduce_exponent_counts(
            order, counts.reshape(-1, nblocks, order)))
    table = KrawtchoukTable(partition, char, side, np.concatenate(parts), orbit_of)
    _check_table(table)
    cache[cache_key] = table
    return table


def _check_table(table: KrawtchoukTable) -> None:
    """The column at 0 lists the block sizes; every other column sums to 0.

    Then the column at 0 sums to |R|, as orthogonality asks.
    """
    coeffs, zero = table.coeffs, table.orbit_of[0]
    where = (f"{table.partition.ring.expr}, character of order {table.char.order}, "
             f"{table.side} table")
    sizes = np.zeros_like(coeffs[0])
    sizes[:, 0] = table.partition.block_sizes()
    if not np.array_equal(coeffs[zero], sizes):
        raise InternalInconsistency(f"{where}: column at 0 gives {coeffs[zero].tolist()}, "
                                    f"not the block sizes {sizes[:, 0].tolist()}")
    totals = coeffs.sum(axis=1)
    totals[zero] = 0
    bad = np.flatnonzero(totals.any(axis=1))
    if len(bad):
        total = cyclotomic.CycInt(table.char.order, tuple(totals[bad[0]].tolist()))
        raise InternalInconsistency(
            f"{where}: column at {np.flatnonzero(table.orbit_of == bad[0])[0]} sums to "
            f"{total}, violating orthogonality"
        )


def dual_partition(partition: Partition, char: Character, side: str) -> Partition:
    """Group elements by exact equality of their full coefficient column.

    Equal orbit columns are found as equal rows of the dense array, so
    each dual block is a union of orbits.
    """
    table = krawtchouk_table(partition, char, side)
    rows = np.ascontiguousarray(table.coeffs.reshape(len(table.coeffs), -1))
    # one opaque byte string per row: equal bytes are equal int64 rows
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, group = np.unique(keys, return_inverse=True)
    return Partition.from_keys(partition.ring, group[table.orbit_of])


def is_self_dual(partition: Partition, char: Character | None = None) -> bool:
    if char is None:
        char = canonical_generating_character(partition.ring)
    return equals(partition, dual_partition(partition, char, "left"))


def is_reflexive(partition: Partition, char: Character | None = None) -> bool:
    """Does the partition equal its bidual?

    Decided twice: by comparing the right dual of the left dual with
    the partition itself, and by the block-count criterion |P| = |dual|.
    The two answers must coincide.
    """
    if char is None:
        char = canonical_generating_character(partition.ring)
    left_dual = dual_partition(partition, char, "left")
    bidual = dual_partition(left_dual, char, "right")
    by_bidual = equals(bidual, partition)
    by_count = partition.num_blocks == left_dual.num_blocks
    if by_bidual != by_count:
        raise InternalInconsistency(
            f"{partition.ring.expr}, character of order {char.order}: the right dual "
            "of the left dual and the block-count criterion disagree"
        )
    return by_bidual


def left_right_agreement(partition: Partition, char: Character | None = None) -> bool:
    """Are the left and right Krawtchouk tables entrywise equal?

    Stronger than comparing the two dual partitions.
    """
    if char is None:
        char = canonical_generating_character(partition.ring)
    return same_entries(krawtchouk_table(partition, char, "left"),
                        krawtchouk_table(partition, char, "right"))


def character_independence_check(partition: Partition, ring: FiniteRing | None = None) -> bool:
    """Do all generating characters give the same left/right tables?"""
    ring = ring or partition.ring
    if ring is not partition.ring:
        raise InvalidParameter("partition lives on a different ring")
    chars = all_generating_characters(ring)
    refs = {side: krawtchouk_table(partition, chars[0], side) for side in ("left", "right")}
    return all(same_entries(refs[side], krawtchouk_table(partition, char, side))
               for char in chars[1:] for side in refs)


def delsarte_rank_krawtchouk(m: int, q: int, i: int, k: int) -> int:
    """Closed-form rank-partition coefficient for m x m matrices over F_q.

    Equals the character sum over rank-k matrices B of chi(tr(B A)) for
    any rank-i matrix A.
    """
    if not (0 <= i <= m and 0 <= k <= m):
        raise InvalidParameter(f"need 0 <= i, k <= m, got i={i}, k={k}, m={m}")
    return sum((-1) ** (k - j) * q ** (j * m + comb(k - j, 2))
               * gaussian(m - j, m - k, q) * gaussian(m - i, j, q) for j in range(k + 1))


def semisimple_lr_agreement(ring: FiniteRing, partition: Partition) -> bool:
    """Left/right table agreement on a semisimple ring, via a symmetric character."""
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
