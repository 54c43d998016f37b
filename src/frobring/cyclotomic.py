"""Exact arithmetic with sums of complex roots of unity.

Elements of Z[zeta_N], zeta_N = exp(2*pi*i/N), are stored as integer
coordinate vectors with respect to the power basis 1, zeta, ...,
zeta^(phi(N)-1).  Vectors are reduced modulo the N-th cyclotomic
polynomial, which is the minimal polynomial of zeta_N, so two values are
the same algebraic number exactly when their reduced coordinates match.
No floating point appears anywhere; every coefficient is a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import InvalidParameter


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomial division by a monic divisor.

    Polynomials are lists of coefficients, constant term first.
    """
    num = list(num)
    deg_d = len(den) - 1
    assert den[-1] == 1, "divisor must be monic"
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j in range(deg_d + 1):
            num[i - deg_d + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial, constant term first.

    Computed by exact division of x^order - 1 by the cyclotomic
    polynomials of all proper divisors of ``order``.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if not isinstance(order, int) or order < 1:
        raise InvalidParameter(f"order must be a positive integer, got {order!r}")
    if order == 1:
        return (-1, 1)
    num = [0] * (order + 1)
    num[0] = -1
    num[order] = 1
    num = list(num)
    for d in range(1, order):
        if order % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            assert all(c == 0 for c in rem)
    return tuple(num)


def degree(order: int) -> int:
    """Degree of the order-th cyclotomic polynomial (Euler's totient)."""
    return len(cyclotomic_poly(order)) - 1


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
def root_power_traces(order: int) -> tuple[int, ...]:
    """Trace of each power of the root down to the rationals.

    Entry k is the sum of zeta_order^(k*j) over all j coprime to the
    order.  A sum of root powers with integer counts that is known to
    be a rational number v therefore satisfies
    sum(counts[k] * traces[k]) == v * totient(order), which turns
    extracting v into a single integer dot product, with no reduction
    modulo the cyclotomic polynomial.

    >>> root_power_traces(4)
    (2, 0, -2, 0)
    >>> root_power_traces(6)
    (2, 1, -1, -2, -1, 1)
    """
    if not isinstance(order, int) or order < 1:
        raise InvalidParameter(
            f"order must be a positive integer, got {order!r}"
        )
    phi = totient(order)
    out = []
    for k in range(order):
        d = order // gcd(k, order)
        out.append(_mobius(d) * (phi // totient(d)))
    return tuple(out)


class _Reduction:
    """Per-order reduction context: powers of zeta in the power basis.

    Row k holds the coordinates of zeta^k; rows are generated
    incrementally by multiplying by x and reducing modulo the
    cyclotomic polynomial, and cached for reuse.
    """

    def __init__(self, order):
        self.order = order
        self.poly = cyclotomic_poly(order)
        self.degree = len(self.poly) - 1
        first = [0] * self.degree
        first[0] = 1
        self._rows = [tuple(first)]

    def row(self, k):
        rows = self._rows
        while len(rows) <= k:
            prev = rows[-1]
            nxt = [0] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for j in range(self.degree):
                    nxt[j] -= lead * self.poly[j]
            rows.append(tuple(nxt))
        return rows[k]


@lru_cache(maxsize=None)
def _reduction(order: int) -> _Reduction:
    return _Reduction(order)


@dataclass(frozen=True)
class CycInt:
    """A cyclotomic integer: reduced coordinates over 1, zeta, zeta^2, ...

    Two instances compare equal iff they have the same order and the
    same coordinates.  Use :func:`equals` to compare values living in
    different orders (both are lifted to the least common multiple
    first).
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise InvalidParameter(f"order must be positive, got {self.order}")
        if len(self.coeffs) != degree(self.order):
            raise InvalidParameter(
                f"expected {degree(self.order)} coordinates for order "
                f"{self.order}, got {len(self.coeffs)}"
            )

    def __add__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.order != other.order:
            raise InvalidParameter(
                f"order mismatch: {self.order} vs {other.order}; lift first"
            )
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        # integer multiples only; general products are out of scope
        if not isinstance(scalar, int):
            return NotImplemented
        return CycInt(self.order, tuple(scalar * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def as_int(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def zero(order: int) -> CycInt:
    return CycInt(order, (0,) * degree(order))


def root_power(order: int, k: int) -> CycInt:
    """zeta_order^k in reduced coordinates; k is taken modulo order.

    >>> root_power(4, 2).coeffs
    (-1, 0)
    >>> root_power(2, 1).coeffs
    (-1,)
    """
    red = _reduction(order)
    return CycInt(order, red.row(k % order))


def from_exponent_counts(order: int, counts) -> CycInt:
    """Sum of counts[e] * zeta_order^e over all exponents e.

    ``counts`` is indexed by exponent, 0 <= e < order; entries may be
    negative.  This is the bulk constructor used for character sums.
    """
    red = _reduction(order)
    acc = [0] * red.degree
    for e, c in enumerate(counts):
        c = int(c)
        if c == 0:
            continue
        if e >= order:
            raise InvalidParameter(f"exponent {e} out of range for order {order}")
        row = red.row(e)
        for j in range(red.degree):
            acc[j] += c * row[j]
    return CycInt(order, tuple(acc))


def lift(a: CycInt, order: int) -> CycInt:
    """Rewrite ``a`` in Z[zeta_order]; order must be a multiple of a.order."""
    if order % a.order != 0:
        raise InvalidParameter(f"{order} is not a multiple of {a.order}")
    if order == a.order:
        return a
    step = order // a.order
    counts = [0] * order
    for j, c in enumerate(a.coeffs):
        counts[j * step] += c
    return from_exponent_counts(order, counts)


def equals(a: CycInt, b: CycInt) -> bool:
    """True iff a and b are the same algebraic number.

    Operands of different orders are lifted to the least common
    multiple and compared there.
    """
    if a.order == b.order:
        return a.coeffs == b.coeffs
    m = a.order * b.order // gcd(a.order, b.order)
    return lift(a, m).coeffs == lift(b, m).coeffs


def to_json(a: CycInt) -> dict:
    return {"order": a.order, "coeffs": list(a.coeffs)}


def from_json(data: dict) -> CycInt:
    try:
        order = data["order"]
        coeffs = data["coeffs"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameter(f"malformed cyclotomic integer payload: {data!r}") from exc
    if not isinstance(order, int) or not all(isinstance(c, int) for c in coeffs):
        raise InvalidParameter("order and coeffs must be integers")
    return CycInt(order, tuple(coeffs))
