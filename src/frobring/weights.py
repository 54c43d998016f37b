"""The normalized homogeneous weight of a finite Frobenius ring.

The weight w is the unique rational function on the ring with w(0)=0
that is constant on {y : Ry = Rx} and averages to 1 over every nonzero
principal left ideal.  It is computed here by the character sum

    w(x) = 1 - (1/|R*|) * sum over units u of chi(x u)

for a generating character chi; the sum over chi(u x) must give the
same value and both are asserted.  The unit sum is a rational integer,
so a table holds one integer numerator |R*| - s(x) per element over the
single denominator |R*|, and is checked against the defining equations
in that integer form, on each side the ring differs on
(``rings._sides``).  The sums and the checks run once per unit orbit,
on the image rows the ring's orbit index keeps, since Rx = R(ux) and
the unit sum is the same along Ux and along xU.  On a
direct product both run on the factors: the unit sum
at (x_1, x_2) is s_1(x_1) s_2(x_2) under the restricted characters, and
the principal ideal of (x_1, x_2) is R_1 x_1 x R_2 x_2, so every ideal
sum of the product's own numerators is an entry of M_1 NUM M_2^T for the
factors' principal-ideal matrices M_i.  Closed forms for matrix rings
and products of matrix rings serve as independent cross-checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache as memoized, cached_property
from itertools import accumulate
from math import comb

import numpy as np

from . import cyclotomic
from .characters import (Character, _check_generating, canonical_generating_character,
                         restrictions)
from .errors import InternalInconsistency, InvalidParameter
from .rings import FiniteRing, _frozen, _held, _image_masks, _mixed_radix, _outer, _sides


def gaussian(m: int, j: int, q: int) -> int:
    """Gaussian coefficient: the number of j-dimensional subspaces of F_q^m.

    Returns 0 when j is negative or exceeds m (the empty-product
    convention used throughout).
    """
    if m < 0 or q < 2:
        raise InvalidParameter(f"need m >= 0 and q >= 2, got m={m}, q={q}")
    if j < 0 or j > m:
        return 0
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(q**m - q**i, q**j - q**i)
    if num.denominator != 1:
        raise InternalInconsistency("Gaussian coefficient must be an integer")
    return int(num)


def alpha(j: int, q: int, x: int) -> int:
    """Product of (x - q^i) for i < j; counts independent j-tuples at x = q^m."""
    if j < 0:
        raise InvalidParameter(f"need j >= 0, got {j}")
    out = 1
    for i in range(j):
        out *= x - q**i
    return out


def s_count(j: int, m: int, r: int, q: int) -> int:
    """Number of rank-j matrices in a principal ideal with a rank-r generator.

    Inside M_m(F_q), the left ideal generated by a rank-r matrix holds
    gaussian(r, j, q) * alpha(j, q, q^m) matrices of rank j; summing
    over j gives the ideal size q^(r m).
    """
    if not 0 <= j <= r <= m:
        raise InvalidParameter(f"need 0 <= j <= r <= m, got j={j}, r={r}, m={m}")
    return gaussian(r, j, q) * alpha(j, q, q**m)


def cauchy_identity_check(r: int, q: int) -> bool:
    """Alternating q-binomial sum: is sum_j (-1)^j q^C(j,2) [r j]_q zero?"""
    if r < 1:
        raise InvalidParameter(f"the identity needs r >= 1, got {r}")
    total = sum((-1) ** j * q ** comb(j, 2) * gaussian(r, j, q) for j in range(r + 1))
    return total == 0


def weight_matrix_rank(r: int, m: int, q: int) -> Fraction:
    """Homogeneous weight of a rank-r matrix in M_m(F_q), in closed form."""
    if not 0 <= r <= m:
        raise InvalidParameter(f"need 0 <= r <= m, got r={r}, m={m}")
    return Fraction((-1) ** (r + 1) * q ** comb(r, 2), alpha(r, q, q**m)) + 1


def _check_profile(profile) -> None:
    for entry in profile:
        if len(entry) != 3:
            raise InvalidParameter(f"profile entries are (rank, q, m): {entry!r}")
        r, q, m = entry
        if not 0 <= r <= m or q < 2:
            raise InvalidParameter(f"bad profile entry {entry!r}")


def weight_rank_profile(profile) -> Fraction:
    """Weight of an element of a product of matrix rings, from its ranks.

    ``profile`` lists (r_i, q_i, m_i) per factor; the factor
    contributions multiply inside 1 - prod_i (...).
    """
    _check_profile(profile)
    prod = Fraction(1)
    for r, q, m in profile:
        prod *= Fraction((-1) ** r * q ** comb(r, 2), alpha(r, q, q**m))
    return 1 - prod


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Weights of all ring elements: w(x) = num[x] / denom, exactly.

    ``num`` is a read-only int64 array holding |R*| - s(x) for the unit
    sum s(x), and ``denom`` is |R*|.
    """

    ring: FiniteRing
    num: np.ndarray
    denom: int

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights as Fractions, one object per distinct value."""
        values, inverse = np.unique(self.num, return_inverse=True)
        fracs = [Fraction(v, self.denom) for v in values.tolist()]
        return tuple(map(fracs.__getitem__, inverse.tolist()))

    def __getitem__(self, x: int) -> Fraction:
        return Fraction(int(self.num[x]), self.denom)

    def multiset(self) -> Counter:
        values, counts = np.unique(self.num, return_counts=True)
        return Counter({Fraction(v, self.denom): c
                        for v, c in zip(values.tolist(), counts.tolist())})


def _orbit_ideals(ring: FiniteRing, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The principal ideals of the unit-orbit representatives.

    Returns the boolean matrix whose row k marks the ideal of the k-th
    representative (Rx on side 'left', xR on 'right'), scattered from its
    image row in the ring's orbit index, and for each representative the
    first one generating the same ideal.
    """
    masks = _image_masks(ring.orbit_index(side).images, ring.size)
    rows = np.packbits(masks, axis=1)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return masks, first[group]


def _validate_homogeneous(ring: FiniteRing, num: np.ndarray, denom: int) -> None:
    """Check the defining equations on every principal ideal, both sides.

    The weights are num / denom.  Rx = R(ux) for every unit u, so each
    side is decided once per unit orbit: the weight must be constant on
    every orbit, equal on orbits whose representatives generate the same
    ideal, and average 1 over each distinct nonzero principal ideal.
    That is every equation the definition poses at every element.

    The ideal of a representative (x_1, ..., x_k) of a product is the
    product of the leaves' ideals, so with M_i the principal-ideal matrix
    of leaf i, the ideal sums are the entries of NUM contracted with every
    M_i along its own axis (M_1 NUM M_2^T for two leaves), where NUM is
    num reshaped to the leaf sizes; the ideal sizes are the products of
    the row sums; and two ideals are equal iff all their factors are.  A
    ring that is not a product is its own single leaf.  A unit sum lies
    in [-|R*|, |R*|], so 0 <= num <= 2|R*| and an ideal sum of
    numerators stays below 2|R|^2, far inside int64 for every ring under
    the size guard.
    """
    if num[0] != 0:
        raise InternalInconsistency(
            f"{ring.expr}: weight of 0 is {Fraction(int(num[0]), denom)}, not 0")
    leaves, ideals = ring.leaves, memoized(_orbit_ideals)
    for side in _sides(ring):
        reps, _, rep_of, _ = ring.orbit_index(side)
        off = np.flatnonzero(num[rep_of] != num)
        if len(off):
            x = int(off[0])
            raise InternalInconsistency(
                f"{ring.expr}: weight is not constant on the {side} unit orbit "
                f"of {rep_of[x]} (element {x})"
            )
        masks, firsts = zip(*(ideals(leaf, side if side in _sides(leaf) else "left")
                              for leaf in leaves))
        totals = num.reshape([leaf.size for leaf in leaves])
        for axis, leaf_masks in enumerate(masks):  # M_i times totals along axis i
            rows = np.moveaxis(totals, axis, 0)
            totals = np.moveaxis(np.stack([rows[m].sum(axis=0) for m in leaf_masks]), 0, axis)
        totals = totals.ravel()
        sizes = _outer(np.multiply, [m.sum(axis=1) for m in masks])
        first = _mixed_radix(list(firsts), [len(f) for f in firsts])
        # reps[0] = 0, whose ideal {0} no other representative generates
        unequal = num[reps] != num[reps[first]]
        unaveraged = (first == np.arange(len(reps))) & (totals != denom * sizes)
        unaveraged[0] = False
        bad = np.flatnonzero(unequal | unaveraged)
        if not len(bad):
            continue
        k = int(bad[0])
        r = int(reps[k])
        if unequal[k]:
            raise InternalInconsistency(
                f"{ring.expr}: weight is not constant on equal {side} "
                f"principal ideals (elements {reps[first[k]]} and {r})"
            )
        raise InternalInconsistency(
            f"{ring.expr}: average over the {side} ideal of {r} "
            f"is {Fraction(int(totals[k]), denom)}/{sizes[k]}, not 1"
        )


def _unit_sums(ring: FiniteRing, char: Character, side: str) -> np.ndarray:
    """Unit sum at every element: s(x_1, ..., x_k) = s_1(x_1) ... s_k(x_k).

    The units of a product are U_1 x ... x U_k and chi(ux) is the product
    of the restrictions at the components, so the sum factors over the
    leaves, each taken with its restricted character.  On a leaf, side
    'left' sums chi(u*x) over the units, side 'right' chi(x*u), the same
    along the orbit Ux (xU): the image rows of the leaf's orbit index,
    read at the units, give every orbit's exponent counts, scaled to the
    order N of chi, in one ``bincount``.  Multiplying by a.1,
    gcd(a, N) = 1, permutes the units, so each sum is fixed by the Galois
    map zeta -> zeta^a: one ``cyclotomic.rational_sums`` call checks that
    every count row is constant on the classes {e : gcd(e, N) = g} and
    returns the rational values.  Validation downstream certifies the
    table.  A unit sum is at most |R*|, so the products are exact in int64.
    """
    order, leaves = char.order, ring.leaves
    counts = []
    for leaf, c in zip(leaves, restrictions(char)):
        images = leaf.orbit_index(side).images[:, leaf.units]
        rows = (c.exponents * (order // c.order))[images]
        rows += np.arange(len(images))[:, None] * order
        counts.append(np.bincount(rows.ravel(), minlength=len(images) * order).reshape(-1, order))
    where = f"{ring.expr}, character of order {order}, {side} unit sums"
    sums = cyclotomic.rational_sums(order, np.concatenate(counts), where)
    ends = accumulate(map(len, counts))
    return _outer(np.multiply, [sums[end - len(n):end][leaf.orbit_index(side).orbit_of]
                                for leaf, n, end in zip(leaves, counts, ends)])


def weight_table(ring: FiniteRing, char: Character | None = None) -> WeightTable:
    """All weights at once; validated against the defining equations.

    ``char`` must be a generating character of ``ring``.  Results are
    cached per character on the ring instance.
    """
    if char is None:
        char = canonical_generating_character(ring)
    _check_generating(ring, char)
    return _held(ring, "_weight_cache", lambda: _weight_table(ring, char), key=char.key())


def _weight_table(ring: FiniteRing, char: Character) -> WeightTable:
    nunits = len(ring.units)
    left, *right = (_unit_sums(ring, char, side) for side in _sides(ring))
    for other in right:
        differ = np.flatnonzero(left != other)
        if len(differ):
            raise InternalInconsistency(
                f"{ring.expr}: one-sided unit sums differ at {int(differ[0])}")
    num = _frozen(nunits - left)
    _validate_homogeneous(ring, num, nunits)
    return WeightTable(ring, num, nunits)


def socle_weight_consistency(ring: FiniteRing, char: Character | None = None) -> bool:
    """Weights live on the socle the way the semisimple quotient says.

    Checks w(x) = 1 off the socle, and that the weight multiset on the
    socle matches the full weight multiset of R/rad(R) computed with
    that quotient's own generating character.
    """
    table = weight_table(ring, char)
    soc = np.isin(np.arange(ring.size), ring.socle_members("left"))
    if (table.num[~soc] != table.denom).any():
        return False
    qtable = weight_table(ring.quotient_by_radical()[0])
    # equal multisets of num/denom and qnum/qdenom, cross-multiplied
    return np.array_equal(np.sort(table.num[soc]) * qtable.denom,
                          np.sort(qtable.num) * table.denom)


def has_zero_weight_nonzero(ring: FiniteRing, char: Character | None = None) -> bool:
    """Is there a nonzero element of weight zero?

    When the semisimple decomposition of R/rad is known, the structural
    criterion (at least two F_2 factors) is evaluated too and must
    agree with the scan.
    """
    table = weight_table(ring, char)
    scan = bool((table.num[1:] == 0).any())
    if ring.structure is not None:
        predicted = sum(1 for t in ring.structure if tuple(t) == (2, 1)) >= 2
        if predicted != scan:
            raise InternalInconsistency(
                "zero-weight scan disagrees with the two-F_2-factors criterion"
            )
    return scan
