"""The normalized homogeneous weight of a finite Frobenius ring.

The weight w is the unique rational function on the ring with w(0)=0
that is constant on {y : Ry = Rx} and averages to 1 over every nonzero
principal left ideal.  It is computed here by the character sum

    w(x) = 1 - (1/|R*|) * sum over units u of chi(x u)

for a generating character chi; the sum over chi(u x) must give the
same value and both are asserted.  Closed forms for matrix rings and
products of matrix rings serve as independent cross-checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import cyclotomic
from .characters import Character, canonical_generating_character
from .errors import InternalInconsistency, InvalidParameter
from .rings import FiniteRing


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


@dataclass(frozen=True)
class WeightTable:
    """Weights of all ring elements, indexed by element."""

    ring: FiniteRing
    weights: tuple[Fraction, ...]

    def __getitem__(self, x: int) -> Fraction:
        return self.weights[x]

    def multiset(self) -> Counter:
        return Counter(self.weights)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.expr,
            "weights": [
                {"index": i, "weight": f"{w.numerator}/{w.denominator}"}
                for i, w in enumerate(self.weights)
            ],
        }


def _unit_sum(ring: FiniteRing, char: Character, x: int, units_arr: np.ndarray,
              side: str) -> cyclotomic.CycInt:
    if side == "left":
        prods = ring.mul_row(x, units_arr)  # x * u
    else:
        prods = ring.mul_col(x, units_arr)  # u * x
    counts = np.bincount(char.exponents[prods], minlength=char.order)
    return cyclotomic.from_exponent_counts(char.order, counts)


def weight_via_characters(ring: FiniteRing, char: Character, x: int) -> Fraction:
    """w(x) from the generating-character sum over units.

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


def _validate_homogeneous(ring: FiniteRing, weights: tuple[Fraction, ...]) -> None:
    """Check the defining equations on every principal ideal, both sides."""
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


def _orbit_unit_sums(ring: FiniteRing, char: Character,
                     units_arr: np.ndarray, side: str) -> list[int]:
    """Unit sum at every element, computed once per unit orbit.

    The multiset {x*u : u unit} is the same for every member of the
    orbit xU (and likewise Ux on the other side), so one character sum
    covers the whole orbit.  The rational value is extracted with the
    trace map; validation downstream certifies the table.
    """
    order = char.order
    exps = char.exponents
    traces = np.asarray(cyclotomic.root_power_traces(order), dtype=np.int64)
    phi = int(traces[0])
    sums: list[int | None] = [None] * ring.size
    for x in range(ring.size):
        if sums[x] is not None:
            continue
        if side == "left":
            prods = ring.mul_row(x, units_arr)  # the orbit xU, with multiplicity
        else:
            prods = ring.mul_col(x, units_arr)  # the orbit Ux
        counts = np.bincount(exps[prods], minlength=order)
        dot = int(counts @ traces)
        if dot % phi:
            raise InternalInconsistency(
                f"unit sum at {x} is not a rational integer"
            )
        value = dot // phi
        for y in np.unique(prods):
            sums[int(y)] = value
    return sums


def weight_table(ring: FiniteRing, char: Character | None = None,
                 validate: bool = True) -> WeightTable:
    """All weights at once; validated against the defining equations.

    Results are cached per character on the ring instance.
    """
    if char is None:
        char = canonical_generating_character(ring)
    cache = getattr(ring, "_weight_cache", None)
    if cache is None:
        cache = ring._weight_cache = {}
    key = char.key()
    if key in cache:
        return cache[key]
    units_arr = np.asarray(ring.units, dtype=np.int64)
    nunits = len(units_arr)
    left = _orbit_unit_sums(ring, char, units_arr, "left")
    right = _orbit_unit_sums(ring, char, units_arr, "right")
    weights = []
    for x in range(ring.size):
        if left[x] != right[x]:
            raise InternalInconsistency(f"one-sided unit sums differ at {x}")
        weights.append(1 - Fraction(left[x], nunits))
    table = WeightTable(ring, tuple(weights))
    if validate:
        _validate_homogeneous(ring, table.weights)
    cache[key] = table
    return table


def socle_weight_consistency(ring: FiniteRing, char: Character | None = None) -> bool:
    """Weights live on the socle the way the semisimple quotient says.

    Checks w(x) = 1 off the socle, and that the weight multiset on the
    socle matches the full weight multiset of R/rad(R) computed with
    that quotient's own generating character.
    """
    table = weight_table(ring, char)
    soc = set(ring.socle_members("left"))
    for x in range(ring.size):
        if x not in soc and table.weights[x] != 1:
            return False
    quotient, _ = ring.quotient_by_radical()
    qtable = weight_table(quotient)
    on_socle = Counter(table.weights[x] for x in sorted(soc))
    return on_socle == qtable.multiset()


def has_zero_weight_nonzero(ring: FiniteRing, char: Character | None = None) -> bool:
    """Is there a nonzero element of weight zero?

    When the semisimple decomposition of R/rad is known, the structural
    criterion (at least two F_2 factors) is evaluated too and must
    agree with the scan.
    """
    table = weight_table(ring, char)
    scan = any(w == 0 for w in table.weights[1:])
    if ring.structure is not None:
        predicted = sum(1 for t in ring.structure if tuple(t) == (2, 1)) >= 2
        if predicted != scan:
            raise InternalInconsistency(
                "zero-weight scan disagrees with the two-F_2-factors criterion"
            )
    return scan
