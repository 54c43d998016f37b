"""Exact arithmetic with sums of complex roots of unity.

Elements of Z[zeta_N], zeta_N = exp(2*pi*i/N), are stored as integer
coordinate vectors with respect to the power basis 1, zeta, ...,
zeta^(phi(N)-1).  Vectors are reduced modulo the N-th cyclotomic
polynomial, which is the minimal polynomial of zeta_N, so two values are
the same algebraic number exactly when their reduced coordinates match.
One vectorized reducer, ``reduce_exponent_counts``, builds every value
from exponent counts in int64 under a bound that refuses any overflow;
the scalar constructor ``from_exponent_counts`` runs the same division
on Python integers when that bound fails, so it stays exact for every
integer.

Sums whose counts are constant on the classes {e : gcd(e, N) = g} need
no division: such a class holds the primitive (N/g)-th roots of unity,
which sum to mu(N/g), so the value is the rational integer
sum_g c_g mu(N/g), one dot product per row (``rational_sums``).  A sum
fixed by every Galois map zeta -> zeta^a, gcd(a, N) = 1, has such counts
whenever the map permutes what is summed, as it does for the unit sums
and for the Krawtchouk coefficients of unit-invariant partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import InternalInconsistency, InvalidParameter, ResourceLimit


@lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial, constant term first.

    The product of (x^d - 1)^mu(order/d) over the divisors d of the
    order: the factors with mu = 1 are multiplied out first, then each
    with mu = -1 divides exactly, as a running sum with stride d.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if not isinstance(order, int) or order < 1:
        raise InvalidParameter(f"order must be a positive integer, got {order!r}")
    divisors = [d for d in range(1, order + 1) if order % d == 0 and _mobius(order // d)]
    poly = np.ones(1, dtype=np.int64)
    for d in sorted(divisors, key=lambda d: -_mobius(order // d)):
        if _mobius(order // d) == 1:  # times x^d - 1
            pad = np.zeros(d, dtype=np.int64)
            poly = np.concatenate([pad, poly]) - np.concatenate([poly, pad])
        else:  # over x^d - 1: q_i = q_(i-d) - p_i
            head = np.zeros(-(-(len(poly) - d) // d) * d, dtype=np.int64)
            head[: len(poly) - d] = poly[: len(poly) - d]
            poly = -np.cumsum(head.reshape(-1, d), axis=0).ravel()[: len(poly) - d]
    return tuple(poly.tolist())


@lru_cache(maxsize=None)
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def totient(n: int) -> int:
    """Euler's totient, without touching the cyclotomic polynomial.

    >>> totient(1), totient(12), totient(20000)
    (1, 4, 8000)
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"argument must be a positive integer, got {n!r}")
    out = 1
    for p, e in _factorization(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _mobius(n: int) -> int:
    fac = _factorization(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def _gcd_classes(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each exponent e, the exponent gcd(e, order) mod order that
    stands for its class; and the divisors g with mu(order/g) != 0, mod
    the order, with those mu values."""
    rep = np.gcd(np.arange(order), order) % order
    divisors = [g for g in range(1, order + 1) if order % g == 0 and _mobius(order // g)]
    out = (rep, np.array(divisors) % order,
           np.array([_mobius(order // g) for g in divisors], dtype=np.int64))
    for a in out:
        a.flags.writeable = False
    return out


def rational_sums(order: int, counts, where: str) -> np.ndarray:
    """The rational integers sum_e counts[..., e] * zeta_order^e.

    Maps an integer array [..., order] to [...].  Every row must be
    constant on each class {e : gcd(e, order) = g}; the class sums to
    the Ramanujan value mu(order/g), so a row's value is
    sum_g counts[g] * mu(order/g) over the divisors g of the order.  A
    row that is not class-constant raises InternalInconsistency, whose
    message starts with ``where``.  Counts whose dot product could leave
    int64 raise ResourceLimit before any arithmetic.

    >>> rational_sums(6, [[1, 1, 0, 2, 0, 1], [0, 2, 1, 0, 1, 2]], "x").tolist()
    [0, 1]
    >>> rational_sums(4, [0, 1, 0, 0], "Z4, left table")
    Traceback (most recent call last):
    ...
    frobring.errors.InternalInconsistency: Z4, left table: count at exponent 1 differs from that at exponent 3, of the same gcd with 4
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[-1:] != (order,):
        raise InvalidParameter(f"need {order} exponent counts per row, got {counts.shape}")
    rep, divisors, mobius = _gcd_classes(order)
    if counts.size and max(int(counts.max()), -int(counts.min())) * len(divisors) >= 2**63:
        raise ResourceLimit(f"exponent counts at order {order} could overflow int64 in a "
                            "rational sum")
    off = counts != counts.take(rep, axis=-1)
    if off.any():
        e = int(np.flatnonzero(off.reshape(-1, order).any(axis=0))[0])
        raise InternalInconsistency(f"{where}: count at exponent {rep[e]} differs from that "
                                    f"at exponent {e}, of the same gcd with {order}")
    return counts.take(divisors, axis=-1) @ mobius


@lru_cache(maxsize=None)
def _power_height(r: int) -> int:
    """Largest |coordinate| of any power of zeta_r in the power basis."""
    tail = np.asarray(cyclotomic_poly(r)[:-1], dtype=np.int64)
    power = np.zeros(len(tail), dtype=np.int64)
    power[0] = height = 1
    for _ in range(r - 1):  # x^k -> x^(k+1), reduced
        lead = power[-1]
        power = np.concatenate(([0], power[:-1])) - lead * tail
        height = max(height, int(np.abs(power).max()))
    return height


def reduce_exponent_counts(order: int, counts) -> np.ndarray:
    """Exact coordinates of sum_e counts[..., e] * zeta_order^e.

    Maps an integer array [..., order] to [..., phi(order)] by sparse
    long division by the order-th cyclotomic polynomial over the last
    axis.  With r the product of the primes dividing the order and
    s = order / r, Phi_order(x) = Phi_r(x^s), so the exponents fall into
    s residue classes mod s, each divided by Phi_r in r - phi(r)
    vectorized steps, with no per-order basis matrix.

    Dividing one power x^e from the top, the coordinates held after each
    step are those of a reduced power of zeta_r, shifted; so every
    intermediate value is at most the row's l1 norm times the height of
    those powers.  Input whose bound reaches int64 raises ResourceLimit
    before any arithmetic, so the reduction never wraps.
    """
    if not isinstance(order, int) or order < 1:
        raise InvalidParameter(f"order must be a positive integer, got {order!r}")
    try:
        counts = np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise ResourceLimit(f"exponent counts at order {order} exceed int64") from None
    if counts.shape[-1:] != (order,):
        raise InvalidParameter(f"need {order} exponent counts per row, got {counts.shape}")
    r = prod(p for p, _ in _factorization(order))
    if counts.size:
        peak = max(int(counts.max()), -int(counts.min()))
        if 2 * peak * r * _power_height(r) >= 2**63:
            raise ResourceLimit(
                f"exponent counts up to {peak} at order {order} could overflow "
                "int64 in the cyclotomic reduction"
            )
    return _divide(order, counts)


def division_work(order: int, rows: int) -> int:
    """Coordinates ``reduce_exponent_counts`` touches on ``rows`` rows.

    The division makes r - phi(r) steps, r the radical of the order, and
    each step updates phi(r) * order / r coordinates of every row.

    >>> division_work(8, 1), division_work(2310, 1)
    (4, 878400)
    """
    r = prod(p for p, _ in _factorization(order))
    return (r - totient(r)) * rows * totient(r) * (order // r)


def _divide(order: int, counts: np.ndarray) -> np.ndarray:
    """The long division of reduce_exponent_counts, in the dtype of counts."""
    r = prod(p for p, _ in _factorization(order))
    tail = np.asarray(cyclotomic_poly(r)[:-1], dtype=counts.dtype)[:, None]
    deg = len(tail)
    work = counts.reshape(-1, r, order // r).copy()  # [row, e // s, e % s]
    for q in range(r - 1, deg - 1, -1):
        work[:, q - deg:q] -= work[:, q, None] * tail
    return work[:, :deg].reshape(counts.shape[:-1] + (deg * (order // r),))


@dataclass(frozen=True)
class CycInt:
    """A cyclotomic integer: reduced coordinates over 1, zeta, zeta^2, ...

    Two instances compare equal iff they have the same order and the
    same coordinates; at one order, that is equality of the values.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise InvalidParameter(f"order must be positive, got {self.order}")
        if len(self.coeffs) != totient(self.order):
            raise InvalidParameter(
                f"expected {totient(self.order)} coordinates for order "
                f"{self.order}, got {len(self.coeffs)}"
            )

    def as_int(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def from_exponent_counts(order: int, counts) -> CycInt:
    """Sum of counts[e] * zeta_order^e over all exponents e.

    ``counts`` is indexed by exponent and may be shorter than the order;
    entries may be negative and of any size.

    >>> from_exponent_counts(4, [0, 0, 1]).coeffs
    (-1, 0)
    >>> from_exponent_counts(2, [0, 1]).as_int()
    -1
    """
    counts = list(counts)
    beyond = [e for e in range(order, len(counts)) if counts[e]]
    if beyond:
        raise InvalidParameter(f"exponent {beyond[0]} out of range for order {order}")
    counts = counts[:order] + [0] * (order - len(counts))
    try:
        coeffs = reduce_exponent_counts(order, counts)
    except ResourceLimit:  # beyond int64: the same division on Python integers
        coeffs = _divide(order, np.array(counts, dtype=object))
    return CycInt(order, tuple(int(c) for c in coeffs.tolist()))
