"""Partitions of a ring's element set.

A partition is stored in canonical form: a read-only int64 array
``block_of`` that gives the block of every element, blocks numbered in
order of their least member, so two partitions of a ring are equal iff
their arrays are.  Every builder keys each element by an integer array
(a weight numerator, a rank, a row of factor blocks) and one
``np.unique`` pass groups one key per left unit orbit (or per element,
if the keys are not constant on the orbits) into that canonical form.
The blocks as sorted tuples are built from it on first access.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParameter
from .rings import (FiniteRing, GaloisField, MatrixRing, ProductRing, _frozen, _held,
                    builtin_ring, cayley_tables)
from .weights import WeightTable, weight_table


class Partition:
    """Disjoint nonempty blocks covering all element indices of a ring.

    ``block_of`` is the canonical form, ``num_blocks`` counts the blocks
    and ``labels``, if any, holds one label per block in block order.
    """

    def __init__(self, ring: FiniteRing, blocks, labels=None):
        blocks = [np.fromiter(block, dtype=np.int64) for block in blocks]
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(blocks):
                raise InvalidParameter("one label per block required")
        if any(len(block) == 0 for block in blocks):
            raise InvalidParameter("empty block")
        members = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
        outside = members[(members < 0) | (members >= ring.size)]
        if len(outside):
            raise InvalidParameter(f"element index {outside[0]} out of range")
        seen = np.bincount(members, minlength=ring.size)
        if (seen > 1).any():
            raise InvalidParameter(f"element {np.flatnonzero(seen > 1)[0]} appears in two blocks")
        if (seen == 0).any():
            raise InvalidParameter(f"element {np.flatnonzero(seen == 0)[0]} not covered")
        owner = np.empty(ring.size, dtype=np.int64)
        owner[members] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        self._group(ring, owner, np.arange(ring.size),
                    None if labels is None else labels.__getitem__)

    @classmethod
    def from_keys(cls, ring: FiniteRing, keys, label=None) -> "Partition":
        """Blocks of elements with equal keys.

        ``keys`` holds one key per element: a length-n array, or an n x k
        array whose rows are the keys.  ``label``, if given, maps a
        block's key to that block's label.  Keys constant on the left unit
        orbits, if the ring has indexed them, are grouped once per orbit.
        """
        keys = np.asarray(keys)
        index = _held(ring, "_orbit_cache", side="left")
        if index is None or not np.array_equal(keys[index.rep_of], keys):
            return cls.from_classes(ring, keys, np.arange(ring.size), label)
        return cls.from_classes(ring, keys[index.reps], index.orbit_of, label)

    @classmethod
    def from_classes(cls, ring: FiniteRing, keys, class_of, label=None) -> "Partition":
        """Blocks of elements whose classes have equal keys: ``keys`` as in
        ``from_keys`` but one per class, ``class_of`` the class of each
        element, classes numbered by least member as unit orbits are."""
        self = cls.__new__(cls)
        self._group(ring, np.asarray(keys), class_of, label)
        return self

    def _group(self, ring: FiniteRing, keys: np.ndarray, class_of: np.ndarray, label) -> None:
        """The canonical form: group equal class keys, order blocks by least member.

        The first key column is ranked densely; each further column is
        ranked too and folded into the code, which is re-ranked after each
        fold.  The code stays below the class count, so the fold is exact
        for any integer keys, and equal codes mean equal keys.
        """
        columns = keys.reshape(len(keys), -1).T
        _, first, code = np.unique(columns[0], return_index=True, return_inverse=True)
        for column in columns[1:]:
            _, digit = np.unique(column, return_inverse=True)
            _, first, code = np.unique(code * (digit.max() + 1) + digit,
                                       return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.ring = ring
        self._block_of_class, self._class_of = rank[code], class_of
        self.block_of = _frozen(self._block_of_class[class_of])
        self.num_blocks = len(order)
        self.labels = None if label is None else tuple(label(keys[first[k]]) for k in order)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block as a sorted tuple of indices, in order of least member."""
        members = np.argsort(self.block_of, kind="stable").tolist()
        ends = np.cumsum(self.block_sizes()).tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))

    def block_sizes(self) -> tuple[int, ...]:
        sizes = np.bincount(self._block_of_class, weights=np.bincount(self._class_of))
        return tuple(sizes.astype(np.int64).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.block_of, other.block_of)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.block_of.tobytes()))

    def __repr__(self) -> str:
        return (f"<Partition of {self.ring.expr} into {self.num_blocks} "
                f"blocks of sizes {self.block_sizes()}>")

    def to_json(self) -> dict:
        out = {"ring": self.ring.expr, "blocks": [list(b) for b in self.blocks]}
        if self.labels is not None:
            out["labels"] = [_label_json(l) for l in self.labels]
        return out


def _label_json(label):
    if isinstance(label, tuple):
        return list(_label_json(x) for x in label)
    return label


def partition_from_weight(table: WeightTable) -> Partition:
    """Group elements by exact weight equality; labels are the weights."""
    return Partition.from_keys(table.ring, table.num,
                               lambda num: str(Fraction(int(num), table.denom)))


def hom_partition(ring: FiniteRing, char=None) -> Partition:
    """The partition induced by the homogeneous weight."""
    return partition_from_weight(weight_table(ring, char))


def rank_partition(ring: FiniteRing) -> Partition:
    """Blocks of a matrix ring by matrix rank, labelled 0..m."""
    if not isinstance(ring, MatrixRing):
        raise InvalidParameter("rank_partition needs a matrix ring")
    return Partition.from_keys(ring, ring.ranks, int)


def hamming_partition(ring: FiniteRing) -> Partition:
    """Blocks by Hamming support profile, one count per distinct field size.

    Components are grouped by their field order q; the label records,
    for each q in increasing order, how many components of that order
    are nonzero.
    """
    if isinstance(ring, GaloisField):
        sizes, comps = np.array([ring.size]), np.arange(ring.size)[:, None]
    elif isinstance(ring, ProductRing) and all(isinstance(f, GaloisField) for f in ring.factors):
        sizes, comps = np.array(ring.sizes), ring._dec
    else:
        raise InvalidParameter("hamming_partition needs a product of fields")
    profile = np.stack([(comps[:, sizes == q] != 0).sum(axis=1) for q in np.unique(sizes)],
                       axis=1)
    return Partition.from_keys(ring, profile, lambda key: tuple(key.tolist()))


def _labelled(partition: Partition, m: int):
    return partition.labels[m] if partition.labels is not None else m


def product_partition(ring: FiniteRing, left: Partition, right: Partition) -> Partition:
    """Blocks of a two-factor product ring given by pairs of factor blocks."""
    if not isinstance(ring, ProductRing) or len(ring.factors) != 2:
        raise InvalidParameter("product_partition needs a two-factor product ring")
    if left.ring is not ring.factors[0] or right.ring is not ring.factors[1]:
        raise InvalidParameter("partitions must live on the ring's two factors")
    pairs = np.stack([left.block_of[ring._dec[:, 0]], right.block_of[ring._dec[:, 1]]], axis=1)
    return Partition.from_keys(ring, pairs, lambda key: (_labelled(left, int(key[0])),
                                                         _labelled(right, int(key[1]))))


def symmetrized_power_partition(ring: FiniteRing, base: Partition, n: int = 2) -> Partition:
    """Blocks of R^n given by multisets of base-block labels.

    All n factors of the product ring must be the very ring the base
    partition lives on; elements whose component block labels agree up
    to reordering land in the same block.
    """
    if not isinstance(ring, ProductRing) or len(ring.factors) != n:
        raise InvalidParameter(f"need a product ring with {n} factors")
    if any(f is not base.ring for f in ring.factors):
        raise InvalidParameter("all factors must carry the base partition's ring")
    multisets = np.sort(base.block_of[ring._dec], axis=1)
    return Partition.from_keys(ring, multisets,
                               lambda key: tuple(_labelled(base, m) for m in key.tolist()))


def is_invariant(partition: Partition) -> bool:
    """Is every block closed under unit multiplication on both sides?

    That holds exactly when every left unit orbit Ux and every right
    unit orbit xU lies inside one block.
    """
    b = partition.block_of
    return all(np.array_equal(b[partition.ring.orbit_index(side).rep_of], b)
               for side in ("left", "right"))


def is_finer(p: Partition, q: Partition) -> bool:
    """Is every block of p contained in a block of q?"""
    if p.ring is not q.ring:
        raise InvalidParameter("partitions live on different rings")
    # each block of p meets one block of q: as many (p, q) block pairs as p blocks
    return len(np.unique(p.block_of * q.num_blocks + q.block_of)) == p.num_blocks


def equals(p: Partition, q: Partition) -> bool:
    if p.ring is not q.ring:
        raise InvalidParameter("partitions live on different rings")
    return np.array_equal(p.block_of, q.block_of)


# Element indices of the five defining matrices of the builtin 16-element
# ring: in (a, b, c, d) coordinates with index a*8 + b*4 + c*2 + d these
# are A1=(0,0,1,0), A2=(0,0,0,1), B1=(1,0,0,0), B2=(0,1,0,0), B3=(0,1,0,1).
_EX5_5_A1 = 2
_EX5_5_A2 = 1
_EX5_5_B1 = 8
_EX5_5_B2 = 4
_EX5_5_B3 = 5


def _unit_orbit(ring: FiniteRing, x: int) -> np.ndarray:
    """The two-sided unit orbit UxU: the right orbits met by the left orbit Ux."""
    left = ring.orbit_index("left").orbit_of
    right = ring.orbit_index("right").orbit_of
    return np.flatnonzero(np.isin(right, right[left == left[x]]))


def _is_ex5_5(ring: FiniteRing) -> bool:
    """Is the ring the builtin ex5_5 on its own indices?

    The block indices above are fixed, so the ring must have the
    builtin's Cayley tables; a name proves nothing.  A table twin of the
    builtin passes, a look-alike does not.
    """
    ref = builtin_ring("ex5_5")
    return ring.size == ref.size and all(
        np.array_equal(table, ref_table)
        for table, ref_table in zip(cayley_tables(ring), cayley_tables(ref)))


def ex5_5_partition(ring: FiniteRing) -> Partition:
    """The invariant 4-block partition whose left and right duals differ.

    Blocks: {0}, the units, the two-sided unit orbit of A1 plus {A2},
    and the orbit of B1 plus {B2, B3}.
    """
    if not _is_ex5_5(ring):
        raise InvalidParameter("this partition is defined on the ex5_5 builtin ring")
    p2 = np.union1d(_unit_orbit(ring, _EX5_5_A1), [_EX5_5_A2])
    p3 = np.union1d(_unit_orbit(ring, _EX5_5_B1), [_EX5_5_B2, _EX5_5_B3])
    return Partition(ring, [[0], ring.units, p2, p3], labels=["P0", "P1", "P2", "P3"])
