"""Krawtchouk coefficients and dual partitions.

The left coefficient of block P_m at element b is the exact cyclotomic
sum of chi(a b) over a in P_m; the right coefficient sums chi(b a).
When every block is closed under unit multiplication on the other side
(P_m u = P_m for the left table, u P_m = P_m for the right), the left
column at ub equals the one at b, so a table keeps one column per unit
orbit of its side and maps elements to orbits.  Otherwise every element
is its own orbit, its column summed over one kernel call.

When the blocks are unions of unit orbits of either side, every
coefficient is a rational integer.  The order N of a generating
character is the characteristic of R, so for gcd(a, N) = 1 the element
a.1 is a central unit and a.x lies in both Ux and xU: the map x -> a.x
fixes every block, and the Galois map zeta -> zeta^a, which sends
chi(xy) to chi((a.x)y), fixes every coefficient.  Such a table holds one
integer per (orbit, block), from ``cyclotomic.rational_sums``, which
checks that each count row really is constant on the classes
{e : gcd(e, N) = g}.  Any other table is divided by the N-th cyclotomic
polynomial into phi(N) coordinates by
``cyclotomic.reduce_exponent_counts``; a rational value v stands for the
coordinates (v, 0, ..., 0), which is how ``entry`` and ``column`` spell
it.  JSON writes one entry per (block, orbit), beside the orbit of each
element: a plain int on a rational table, the coordinates otherwise.  On
the dense array the two invariants are checked once per table: the b = 0
column lists the block sizes, and each column sums to |R| exactly at
b = 0 and to 0 elsewhere.  Grouping orbits by their full column yields
the left and right dual partitions, unions of orbits.

A table of a partition invariant on the other side comes from the
leaves, with no kernel call on the ring; a ring that is not a product is
its own single leaf.  The blocks are unions of products O_1 x ... x O_k
of leaf orbits of the other side, and chi(ab) = chi_1(a_1 b_1) ...
chi_k(a_k b_k) for the restricted characters, so the sum over
O_1 x ... x O_k at b is the product of the leaves' rational orbit sums
S_i[b_i, O_i].  Each block's sum contracts those with the 0/1 map from
orbits to blocks, and the table is checked as any other.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from math import comb, prod

import numpy as np

from . import cyclotomic
from .characters import (Character, _check_generating, canonical_generating_character,
                         generating_translates, restrictions)
from .errors import InternalInconsistency, InvalidParameter, ResourceLimit
from .partitions import Partition, equals
from .rings import _check_side, _frozen, _held, _sides
from .weights import gaussian

_COUNT_CHUNK = 1 << 21  # exponent counts held at once, in int64 entries
_TABLE_ENTRIES = 1 << 25  # most int64 coordinates one table may hold
_DIVISION_WORK = 1 << 30  # most coordinate updates one table's reduction may make
_SLAB_ENTRIES = 1 << 19  # int64 partial sums one slab of blocks holds in _block_sums


@dataclass(frozen=True, eq=False)
class KrawtchoukTable:
    """Exact character sums indexed by (block, element), stored per orbit.

    ``coeffs[k, m]`` holds the sum over block m at every element of
    orbit k, and ``orbit_of`` gives each element's orbit.  A rational
    table holds one integer per sum, its last axis of width 1; any other
    holds the phi(N) reduced coordinates.  The width follows from the
    partition alone, so the tables of both sides of one partition share
    it.
    """

    partition: Partition
    char: Character
    side: str
    coeffs: np.ndarray
    orbit_of: np.ndarray

    def entry(self, m: int, b: int) -> cyclotomic.CycInt:
        _check_index("block", m, self.partition.num_blocks)
        return self.column(b)[m]

    def column(self, b: int) -> tuple[cyclotomic.CycInt, ...]:
        _check_index("element", b, len(self.orbit_of))
        return tuple(cyclotomic.CycInt(self.char.order, tuple(e))
                     for e in self.widen(self.coeffs[self.orbit_of[b]]).tolist())

    def widen(self, coords: np.ndarray) -> np.ndarray:
        """Coordinates [..., width] as [..., phi(N)]: a rational table's
        value v is (v, 0, ..., 0); a dividing table's come back as they are."""
        phi = cyclotomic.totient(self.char.order)
        if coords.shape[-1] == phi:
            return coords
        out = np.zeros(coords.shape[:-1] + (phi,), dtype=coords.dtype)
        out[..., 0] = coords[..., 0]
        return out

    def to_json(self) -> dict:
        """The table as nested lists: ``orbit_of[b]`` is the orbit of
        element b, and ``entries[m][k]`` the sum over block m at orbit k,
        an int when the table holds one integer per sum, else its phi(N)
        coordinates."""
        coeffs = self.coeffs[..., 0] if self.coeffs.shape[2] == 1 else self.coeffs
        return {
            "ring": self.partition.ring.expr,
            "side": self.side,
            "order": self.char.order,
            "partition": self.partition.to_json(),
            "orbit_of": self.orbit_of.tolist(),
            "entries": coeffs.swapaxes(0, 1).tolist(),
        }


def _check_index(what: str, i: int, count: int) -> None:
    if not 0 <= i < count:
        raise InvalidParameter(f"{what} index {i} out of range 0..{count - 1}")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte string per row of a C-contiguous 2-D array: equal
    bytes are equal rows."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def same_entries(a: KrawtchoukTable, b: KrawtchoukTable) -> bool:
    """Entrywise exact equality of two tables over the same partition."""
    if (not np.array_equal(a.partition.block_of, b.partition.block_of)
            or a.char.order != b.char.order):
        return False
    # each (orbit in a, orbit in b) pair met by some element, as one int64 code
    pairs = np.unique(a.orbit_of * len(b.coeffs) + b.orbit_of)
    return np.array_equal(a.coeffs[pairs // len(b.coeffs)], b.coeffs[pairs % len(b.coeffs)])


def krawtchouk_table(partition: Partition, char: Character, side: str) -> KrawtchoukTable:
    _check_side(side)
    _check_generating(partition.ring, char)
    return _held(partition, "_kraw_cache", lambda: _table(partition, char, side),
                 key=char.key(), side=side)


def _table(partition: Partition, char: Character, side: str) -> KrawtchoukTable:
    """The table of ``krawtchouk_table``, computed afresh and not cached."""
    ring = partition.ring
    block_of = partition.block_of
    other = ring.orbit_index("right" if side == "left" else "left")
    invariant = np.array_equal(block_of[other.rep_of], block_of)
    index = ring.orbit_index(side)
    # unions of unit orbits of either side have rational coefficients
    rational = invariant or np.array_equal(block_of[index.rep_of], block_of)
    reps, orbit_of = index.reps, index.orbit_of
    if not invariant:  # not invariant on the other side: every element is its own orbit
        reps = orbit_of = np.arange(ring.size)
    nblocks, order = partition.num_blocks, char.order
    width = 1 if rational else cyclotomic.totient(order)
    if len(reps) * nblocks * width > _TABLE_ENTRIES:
        raise ResourceLimit(f"{ring.expr}: a {side} table of {len(reps)} columns, {nblocks} "
                            f"blocks and character order {order} exceeds "
                            f"{_TABLE_ENTRIES} coordinates")
    work = 0 if rational else cyclotomic.division_work(order, len(reps) * nblocks)
    if work > _DIVISION_WORK:
        raise ResourceLimit(f"{ring.expr}: reducing a {side} table of {len(reps)} columns and "
                            f"{nblocks} blocks at character order {order} takes {work} "
                            f"coordinate updates, more than {_DIVISION_WORK}")
    where = f"{ring.expr}, character of order {order}, {side} table"
    if invariant:
        coeffs = _block_sums(block_of[other.reps], nblocks, char, side, where)[..., None]
    else:  # an element's column sums over one kernel call
        kernel = ring.mul_col if side == "left" else ring.mul_row
        counts = _kernel_counts(block_of, nblocks, char, map(kernel, reps.tolist()))
        if rational:
            parts = [cyclotomic.rational_sums(order, c, where)[..., None] for c in counts]
        else:
            parts = [cyclotomic.reduce_exponent_counts(order, c) for c in counts]
        coeffs = np.concatenate(parts)
    table = KrawtchoukTable(partition, char, side, coeffs, orbit_of)
    _check_table(table, where)
    return table


def _kernel_counts(block_of: np.ndarray, nblocks: int, char: Character, rows: Iterable):
    """Exponent counts [column, block, exponent], one column per image row
    in ``rows`` (a leaf's orbit index rows, or one kernel call per
    element), in chunks of at most _COUNT_CHUNK entries."""
    order, exps = char.order, char.exponents
    base = block_of * order
    step = max(1, _COUNT_CHUNK // (nblocks * order))
    rows = iter(rows)
    while chunk := [np.bincount(base + exps[row], minlength=nblocks * order)
                    for row in islice(rows, step)]:
        yield np.stack(chunk).reshape(-1, nblocks, order)


def _orbit_sums(char: Character, side: str, where: str) -> np.ndarray:
    """A leaf's sums [side orbit k, other-side orbit O] of chi(ab) over a
    in O, b the representative of k (chi(ba) on the right), counted over
    its image rows.  Rational, as O is a union of unit orbits: every count
    row passes ``cyclotomic.rational_sums``, whose messages start with
    ``where``.  Cached on the character per side, orbits(side) x
    orbits(other) <= n^2 int64 entries, as ``orbit_index`` bounds its rows:
    no more than a ``TableRing``'s own two int32 tables."""
    def count():
        leaf = char.ring
        other_reps, other_of = leaf.orbit_index("right" if side == "left" else "left")[:2]
        counts = _kernel_counts(other_of, len(other_reps), char, leaf.orbit_index(side).images)
        return _frozen(np.concatenate([cyclotomic.rational_sums(char.order, c, where)
                                       for c in counts]))

    return _held(char, "_orbit_sums", count, side=side)


def _block_sums(block_of_orbit: np.ndarray, nblocks: int, char: Character, side: str,
                where: str) -> np.ndarray:
    """The rational table [orbit, block] of a partition invariant on the
    other side: per slab of blocks, the 0/1 map from other-side orbits to
    them, one axis per leaf (orbit ids are mixed radix over the leaves),
    contracted with each leaf's ``_orbit_sums`` in turn.  Each partial sum
    adds at most |R| roots of unity, so int64 is exact."""
    sums = [_orbit_sums(c, side, where) for c in restrictions(char)]
    table = np.empty((prod(len(s) for s in sums), nblocks), dtype=np.int64)
    step = max(1, _SLAB_ENTRIES // prod(max(s.shape) for s in sums))
    for start in range(0, nblocks, step):
        blocks = np.arange(start, min(start + step, nblocks))
        acc = (block_of_orbit[:, None] == blocks).astype(np.int64)
        acc = acc.reshape([s.shape[1] for s in sums] + [len(blocks)])
        for s in sums:  # [O_i, ..., O_k, block, b_1, ..., b_i-1] -> [O_i+1, ..., block, ..., b_i]
            acc = np.tensordot(acc, s, axes=(0, 1))
        table[:, start:start + len(blocks)] = acc.reshape(len(blocks), -1).T
    return table


def _check_table(table: KrawtchoukTable, where: str) -> None:
    """The column at 0 lists the block sizes; every other column sums to 0.

    Then the column at 0 sums to |R|, as orthogonality asks.
    """
    coeffs, zero = table.coeffs, table.orbit_of[0]
    sizes = np.zeros_like(coeffs[0])
    sizes[:, 0] = table.partition.block_sizes()
    if not np.array_equal(coeffs[zero], sizes):
        raise InternalInconsistency(f"{where}: column at 0 gives {coeffs[zero].tolist()}, "
                                    f"not the block sizes {sizes[:, 0].tolist()}")
    totals = coeffs.sum(axis=1)
    totals[zero] = 0
    bad = np.flatnonzero(totals.any(axis=1))
    if len(bad):
        total = cyclotomic.CycInt(table.char.order, tuple(table.widen(totals[bad[0]]).tolist()))
        raise InternalInconsistency(
            f"{where}: column at {np.flatnonzero(table.orbit_of == bad[0])[0]} sums to "
            f"{total}, violating orthogonality"
        )


def dual_partition(partition: Partition, char: Character, side: str) -> Partition:
    """Group elements by exact equality of their full coefficient column.

    Equal orbit columns are found as equal rows of the dense array and
    grouped on the table's orbits, so each dual block is a union of orbits.
    """
    table = krawtchouk_table(partition, char, side)

    def grouped():
        rows = np.ascontiguousarray(table.coeffs.reshape(len(table.coeffs), -1))
        _, group = np.unique(_row_keys(rows), return_inverse=True)
        return Partition.from_classes(partition.ring, group, table.orbit_of)

    return _held(partition, "_dual_cache", grouped, key=char.key(), side=side)


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


def character_independence_check(partition: Partition) -> bool:
    """Do all generating characters, one at a time, give the same left/right tables?"""
    base = canonical_generating_character(partition.ring)
    refs = {side: krawtchouk_table(partition, base, side) for side in _sides(partition.ring)}
    return all(same_entries(refs[side], _table(partition, char, side))
               for char in generating_translates(partition.ring) for side in refs)


def delsarte_rank_krawtchouk(m: int, q: int, i: int, k: int) -> int:
    """Closed-form rank-partition coefficient for m x m matrices over F_q.

    Equals the character sum over rank-k matrices B of chi(tr(B A)) for
    any rank-i matrix A.
    """
    if not (0 <= i <= m and 0 <= k <= m):
        raise InvalidParameter(f"need 0 <= i, k <= m, got i={i}, k={k}, m={m}")
    return sum((-1) ** (k - j) * q ** (j * m + comb(k - j, 2))
               * gaussian(m - j, m - k, q) * gaussian(m - i, j, q) for j in range(k + 1))

