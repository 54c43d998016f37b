"""Partitions of a ring's element set.

A partition is stored in canonical form: each block is a sorted tuple
of element indices, blocks are ordered by smallest member, and a dense
element-to-block lookup is kept alongside for the character-sum code
that indexes by element in tight loops.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .rings import FiniteRing, GaloisField, MatrixRing, ProductRing, TableRing
from .weights import WeightTable, weight_table


class Partition:
    """Disjoint nonempty blocks covering all element indices of a ring."""

    def __init__(self, ring: FiniteRing, blocks, labels=None):
        raw = [tuple(sorted(int(x) for x in block)) for block in blocks]
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(raw):
                raise InvalidParameter("one label per block required")
            order = sorted(range(len(raw)), key=lambda i: raw[i][0] if raw[i] else -1)
            labels = tuple(labels[i] for i in order)
        for block in raw:
            if not block:
                raise InvalidParameter("empty block")
        raw.sort(key=lambda b: b[0])
        block_of = np.full(ring.size, -1, dtype=np.int64)
        for m, block in enumerate(raw):
            for x in block:
                if not 0 <= x < ring.size:
                    raise InvalidParameter(f"element index {x} out of range")
                if block_of[x] != -1:
                    raise InvalidParameter(f"element {x} appears in two blocks")
                block_of[x] = m
        if (block_of == -1).any():
            missing = int(np.flatnonzero(block_of == -1)[0])
            raise InvalidParameter(f"element {missing} not covered")
        self.ring = ring
        self.blocks = tuple(raw)
        self.labels = labels
        self.block_of = block_of
        block_of.setflags(write=False)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.ring is other.ring and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((id(self.ring), self.blocks))

    def __repr__(self) -> str:
        return (f"<Partition of {self.ring.expr} into {self.num_blocks} "
                f"blocks of sizes {self.block_sizes()}>")

    def to_json(self) -> dict:
        out = {"ring": self.ring.expr, "blocks": [list(b) for b in self.blocks]}
        if self.labels is not None:
            out["labels"] = [_label_json(l) for l in self.labels]
        return out

    @staticmethod
    def from_json(ring: FiniteRing, obj: dict) -> "Partition":
        return Partition(ring, obj["blocks"], obj.get("labels"))


def _label_json(label):
    if isinstance(label, tuple):
        return list(_label_json(x) for x in label)
    return label


def _group_by_key(ring: FiniteRing, key_of) -> tuple[list, list]:
    groups: dict = {}
    for x in range(ring.size):
        groups.setdefault(key_of(x), []).append(x)
    keys = sorted(groups, key=lambda k: groups[k][0])
    return [groups[k] for k in keys], keys


def partition_from_weight(table: WeightTable) -> Partition:
    """Group elements by exact weight equality; labels are the weights."""
    blocks, keys = _group_by_key(table.ring, lambda x: table.weights[x])
    return Partition(table.ring, blocks, labels=[str(k) for k in keys])


def hom_partition(ring: FiniteRing, char=None) -> Partition:
    """The partition induced by the homogeneous weight."""
    return partition_from_weight(weight_table(ring, char))


def rank_partition(ring: FiniteRing) -> Partition:
    """Blocks of a matrix ring by matrix rank, labelled 0..m."""
    if not isinstance(ring, MatrixRing):
        raise InvalidParameter("rank_partition needs a matrix ring")
    ranks = ring.ranks
    blocks = [np.flatnonzero(ranks == r) for r in range(ring.m + 1)]
    return Partition(ring, blocks, labels=list(range(ring.m + 1)))


def _field_factors(ring: FiniteRing) -> list[GaloisField]:
    if isinstance(ring, GaloisField):
        return [ring]
    if isinstance(ring, ProductRing):
        if all(isinstance(f, GaloisField) for f in ring.factors):
            return list(ring.factors)
    raise InvalidParameter("hamming_partition needs a product of fields")


def hamming_partition(ring: FiniteRing) -> Partition:
    """Blocks by Hamming support profile, one count per distinct field size.

    Components are grouped by their field order q; the label records,
    for each q in increasing order, how many components of that order
    are nonzero.
    """
    factors = _field_factors(ring)
    sizes = sorted({f.size for f in factors})
    pos = {q: i for i, q in enumerate(sizes)}

    def profile(x: int) -> tuple:
        comps = ring.decode(x) if isinstance(ring, ProductRing) else [x]
        counts = [0] * len(sizes)
        for f, c in zip(factors, comps):
            if c != 0:
                counts[pos[f.size]] += 1
        return tuple(counts)

    blocks, keys = _group_by_key(ring, profile)
    return Partition(ring, blocks, labels=keys)


def product_partition(ring: FiniteRing, left: Partition, right: Partition) -> Partition:
    """Blocks of a two-factor product ring given by pairs of factor blocks."""
    if not isinstance(ring, ProductRing) or len(ring.factors) != 2:
        raise InvalidParameter("product_partition needs a two-factor product ring")
    if left.ring is not ring.factors[0] or right.ring is not ring.factors[1]:
        raise InvalidParameter("partitions must live on the ring's two factors")
    size2 = ring.factors[1].size
    blocks = []
    labels = []
    for i, bi in enumerate(left.blocks):
        ai = np.asarray(bi, dtype=np.int64)
        for j, bj in enumerate(right.blocks):
            aj = np.asarray(bj, dtype=np.int64)
            blocks.append((ai[:, None] * size2 + aj[None, :]).ravel())
            labels.append((
                left.labels[i] if left.labels is not None else i,
                right.labels[j] if right.labels is not None else j,
            ))
    return Partition(ring, blocks, labels=labels)


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
    if n < 1:
        raise InvalidParameter("need n >= 1")

    def multiset(x: int) -> tuple:
        comps = ring.decode(x)
        return tuple(sorted(int(base.block_of[c]) for c in comps))

    blocks, keys = _group_by_key(ring, multiset)
    if base.labels is not None:
        keys = [tuple(base.labels[m] for m in k) for k in keys]
    return Partition(ring, blocks, labels=keys)


def is_invariant(partition: Partition) -> bool:
    """Is every block closed under unit multiplication on both sides?

    That holds exactly when every left unit orbit Ux and every right
    unit orbit xU lies inside one block.
    """
    b = partition.block_of
    for side in ("left", "right"):
        reps, orbit_of = partition.ring.unit_orbits(side)
        if not np.array_equal(b[reps[orbit_of]], b):
            return False
    return True


def is_finer(p: Partition, q: Partition) -> bool:
    """Is every block of p contained in a block of q?"""
    if p.ring is not q.ring:
        raise InvalidParameter("partitions live on different rings")
    for block in p.blocks:
        target = q.block_of[block[0]]
        if any(q.block_of[x] != target for x in block[1:]):
            return False
    return True


def equals(p: Partition, q: Partition) -> bool:
    if p.ring is not q.ring:
        raise InvalidParameter("partitions live on different rings")
    return p.blocks == q.blocks


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
    _, left = ring.unit_orbits("left")
    _, right = ring.unit_orbits("right")
    return np.flatnonzero(np.isin(right, right[left == left[x]]))


def ex5_5_partition(ring: FiniteRing) -> Partition:
    """The invariant 4-block partition whose left and right duals differ.

    Blocks: {0}, the units, the two-sided unit orbit of A1 plus {A2},
    and the orbit of B1 plus {B2, B3}.
    """
    if not (isinstance(ring, TableRing) and ring.spec_name == "ex5_5"):
        raise InvalidParameter("this partition is defined on the ex5_5 builtin ring")
    p0 = [0]
    p1 = list(ring.units)
    p2 = np.union1d(_unit_orbit(ring, _EX5_5_A1), [_EX5_5_A2])
    p3 = np.union1d(_unit_orbit(ring, _EX5_5_B1), [_EX5_5_B2, _EX5_5_B3])
    return Partition(ring, [p0, p1, p2, p3], labels=["P0", "P1", "P2", "P3"])
