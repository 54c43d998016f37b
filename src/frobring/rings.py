"""Finite unital rings on dense integer indices.

Every ring here has elements 0..size-1 with index 0 the zero element.
Arithmetic is exposed three ways: scalar ``add``/``mul``,
whole Cayley tables (cached as numpy arrays when the ring is small
enough), and vector kernels ``add_row``/``mul_row``/``mul_col`` that
compute one row or column of a table on demand.  The kernels are what
keep character sums and weight computations fast on rings too large to
table, e.g. products of matrix rings.

Families: integers mod n, finite algebras over F_p given by structure
constants (Galois fields, full matrix rings over a Galois field, and the
builtin rings such as ex5_5), finite direct products, and explicit table
rings built from user Cayley data.  Derived structure (units, Jacobson
radical, socles, principal ideals, the radical quotient) is computed by
the defining property in each case.  Properties that depend only on a principal
ideal Rx = R(ux) or xR = (xu)R are decided once per unit orbit, through
the cached index ``unit_orbits``.  A direct product takes its Cayley
tables, units, unit orbits, radical, socles and Frobenius test from its
factors, in mixed radix.
"""

from __future__ import annotations

import json
import os
import warnings
from functools import cached_property, reduce
from itertools import product as iter_product
from math import gcd

import numpy as np

from .cyclotomic import _factorization
from .errors import (
    InternalInconsistency,
    InvalidParameter,
    InvalidRing,
    ResourceLimit,
)

DEFAULT_SIZE_GUARD = 10000
DEFAULT_TABLE_THRESHOLD = 4096

_EXHAUSTIVE_CHECK_LIMIT = 512
_COMPARE_BLOCK = 1 << 17  # table entries compared per step in validate_tables


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise InvalidParameter(f"side must be 'left' or 'right', got {side!r}")


def _check_size(size: int, max_size: int | None) -> None:
    guard = DEFAULT_SIZE_GUARD if max_size is None else max_size
    if size > guard:
        raise ResourceLimit(f"ring of size {size} exceeds the size guard {guard}")


class FiniteRing:
    """Common behavior for all ring families.

    Subclasses must set ``size``, ``one``, ``expr`` and either supply
    both Cayley tables or implement the kernels ``_add_row_impl``,
    ``_mul_row_impl`` and ``_mul_col_impl``.  Scalar ``add``/``mul``
    read the cached table when the ring is small enough to have one and
    fall back to a one-element kernel call otherwise.
    """

    size: int
    one: int
    expr: str
    structure: list[tuple[int, int]] | None = None

    def __init__(self, table_threshold: int | None = None):
        self.table_threshold = (
            DEFAULT_TABLE_THRESHOLD if table_threshold is None else table_threshold
        )

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        table = self.add_table
        if table is not None:
            return table.item(a, b)
        return int(self._add_row_impl(a, (b,))[0])

    def mul(self, a: int, b: int) -> int:
        table = self.mul_table
        if table is not None:
            return table.item(a, b)
        return int(self._mul_row_impl(a, (b,))[0])

    # -- vector kernels ----------------------------------------------------

    def _indices(self, sel) -> np.ndarray:
        if sel is None:
            cached = getattr(self, "_arange", None)
            if cached is None:
                cached = np.arange(self.size, dtype=np.int64)
                self._arange = cached
            return cached
        return np.asarray(sel, dtype=np.int64)

    def add_row(self, a: int, cols=None) -> np.ndarray:
        """Vector of a + b over b in cols (all elements by default).

        From the addition table once built; a row alone does not build it.
        """
        table = self.__dict__.get("add_table")
        if table is not None:
            row = table[a] if cols is None else table[a, np.asarray(cols)]
            return row.astype(np.int64)
        return self._add_row_impl(a, cols)

    def mul_row(self, a: int, cols=None) -> np.ndarray:
        """Vector of a * b over b in cols."""
        table = self.mul_table
        if table is not None:
            row = table[a] if cols is None else table[a, np.asarray(cols)]
            return row.astype(np.int64)
        return self._mul_row_impl(a, cols)

    def mul_col(self, b: int, rows=None) -> np.ndarray:
        """Vector of a * b over a in rows."""
        table = self.mul_table
        if table is not None:
            col = table[:, b] if rows is None else table[np.asarray(rows), b]
            return col.astype(np.int64)
        return self._mul_col_impl(b, rows)

    # -- cached tables -----------------------------------------------------

    @cached_property
    def add_table(self) -> np.ndarray | None:
        return self._table("add") if self.size <= self.table_threshold else None

    @cached_property
    def mul_table(self) -> np.ndarray | None:
        return self._table("mul") if self.size <= self.table_threshold else None

    def _table(self, op: str) -> np.ndarray:
        """The whole ``op`` ('add' or 'mul') table, one kernel row per element."""
        row_impl = self._add_row_impl if op == "add" else self._mul_row_impl
        out = np.empty((self.size, self.size), dtype=np.int32)
        for a in range(self.size):
            out[a] = row_impl(a, None)
        return out

    @cached_property
    def neg_table(self) -> np.ndarray:
        return self._build_neg_table()

    def _build_neg_table(self) -> np.ndarray:
        out = np.empty(self.size, dtype=np.int64)
        for a in range(self.size):
            zeros = np.flatnonzero(self.add_row(a) == 0)
            out[a] = zeros[0]
        return out

    # -- derived structure ---------------------------------------------------

    @cached_property
    def characteristic(self) -> int:
        """Additive order of 1; equals the additive exponent of (R,+)."""
        c = 1
        acc = self.one
        while acc != 0:
            acc = self.add(acc, self.one)
            c += 1
        if self.size <= _EXHAUSTIVE_CHECK_LIMIT:
            for x in range(self.size):
                y = 0
                for _ in range(c):
                    y = self.add(y, x)
                if y != 0:
                    raise InternalInconsistency(
                        f"element {x} has additive order not dividing {c}"
                    )
        return c

    @cached_property
    def is_commutative(self) -> bool:
        for a in range(self.size):
            if not np.array_equal(self.mul_row(a), self.mul_col(a)):
                return False
        return True

    @cached_property
    def units(self) -> tuple[int, ...]:
        return self._compute_units()

    def _compute_units(self) -> tuple[int, ...]:
        # brute-force two-sided inverse search
        one = self.one
        out = []
        for x in range(self.size):
            for y in np.flatnonzero(self.mul_row(x) == one):
                if self.mul(int(y), x) == one:
                    out.append(x)
                    break
        return tuple(out)

    @cached_property
    def is_unit_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[list(self.units)] = True
        return mask

    def unit_orbits(self, side: str = "left") -> tuple[np.ndarray, np.ndarray]:
        """The unit orbits Ux (side 'left') or xU ('right'), indexed once.

        Returns the representatives, each the least index of its orbit,
        in increasing order, and the orbit id of every element.  Building
        the index costs one kernel call over the units per orbit.
        """
        _check_side(side)
        cache = getattr(self, "_orbit_cache", None)
        if cache is None:
            cache = self._orbit_cache = {}
        if side not in cache:
            reps, orbit_of = self._compute_unit_orbits(side)
            reps.setflags(write=False)
            orbit_of.setflags(write=False)
            cache[side] = (reps, orbit_of)
        return cache[side]

    def _compute_unit_orbits(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        units = np.asarray(self.units, dtype=np.int64)
        orbit_of = np.full(self.size, -1, dtype=np.int64)
        reps = []
        for x in range(self.size):
            if orbit_of[x] < 0:
                orbit = self.mul_col(x, units) if side == "left" else self.mul_row(x, units)
                orbit_of[orbit] = len(reps)
                reps.append(x)
        return np.asarray(reps, dtype=np.int64), orbit_of

    @cached_property
    def radical(self) -> tuple[int, ...]:
        """Jacobson radical: x such that 1 - r*x is a unit for every r.

        The condition reads only Rx = R(ux), so one representative decides
        each left unit orbit.
        """
        one_plus = self.add_row(self.one)
        neg = self.neg_table
        is_unit = self.is_unit_mask
        reps, orbit_of = self.unit_orbits("left")
        inside = np.array([is_unit[one_plus[neg[self.mul_col(int(x))]]].all() for x in reps])
        return tuple(int(x) for x in np.flatnonzero(inside[orbit_of]))

    def socle_members(self, side: str = "left") -> tuple[int, ...]:
        """Annihilator of the radical: the left or right socle.

        The radical is a union of unit orbits on each side, and
        (uj)x = u(jx), x(ju) = (xj)u, so one radical element per orbit of
        that side suffices as annihilator.
        """
        _check_side(side)
        cache = getattr(self, "_socle_cache", None)
        if cache is None:
            cache = self._socle_cache = {}
        if side not in cache:
            cache[side] = self._compute_socle(side)
        return cache[side]

    def _compute_socle(self, side: str) -> tuple[int, ...]:
        reps, _ = self.unit_orbits(side)
        mask = np.ones(self.size, dtype=bool)
        for j in reps[np.isin(reps, self.radical)]:
            jr = self.mul_row(int(j)) if side == "left" else self.mul_col(int(j))
            mask &= jr == 0
        return tuple(int(x) for x in np.flatnonzero(mask))

    def principal_ideal_mask(self, x: int, side: str = "left") -> np.ndarray:
        """Boolean membership mask of Rx (side 'left') or xR ('right')."""
        _check_side(side)
        if not 0 <= x < self.size:
            raise InvalidParameter(f"element index {x} out of range")
        mask = np.zeros(self.size, dtype=bool)
        mask[self.mul_col(x) if side == "left" else self.mul_row(x)] = True
        return mask

    def principal_ideal_members(self, x: int, side: str = "left") -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.principal_ideal_mask(x, side)))

    def _socle_is_principal(self, side: str) -> bool:
        soc = np.zeros(self.size, dtype=bool)
        soc[list(self.socle_members(side))] = True
        reps, _ = self.unit_orbits(side)
        # Ra = R(ua) and aR = (au)R: one candidate generator per orbit in the socle
        return any(np.array_equal(self.principal_ideal_mask(int(a), side), soc)
                   for a in reps[soc[reps]])

    @cached_property
    def is_frobenius(self) -> bool:
        """True iff each socle is generated by a single element on its side."""
        left_ok = self._socle_is_principal("left")
        right_ok = self._socle_is_principal("right")
        if left_ok != right_ok:
            raise InternalInconsistency(
                "one-sided principal-socle conditions disagree; they are "
                "equivalent for finite rings"
            )
        if left_ok and self.socle_members("left") != self.socle_members("right"):
            raise InternalInconsistency(
                "left and right socles differ on a ring with principal socles"
            )
        return left_ok and right_ok

    def quotient_by_radical(self):
        """Quotient ring R/rad(R) as a table ring, plus the projection map.

        Cosets are indexed in order of first appearance when scanning
        element indices upward, so the zero coset gets index 0.
        """
        cached = getattr(self, "_quotient_cache", None)
        if cached is not None:
            return cached
        rad = list(self.radical)
        if rad == [0]:
            # already semisimple: the quotient is the ring itself
            self._quotient_cache = (self, list(range(self.size)))
            return self._quotient_cache
        n = self.size
        pi = [-1] * n
        reps = []
        for x in range(n):
            if pi[x] >= 0:
                continue
            idx = len(reps)
            reps.append(x)
            for y in self.add_row(x, rad):
                pi[int(y)] = idx
        m = len(reps)
        qadd = [[pi[self.add(a, b)] for b in reps] for a in reps]
        qmul = [[pi[self.mul(a, b)] for b in reps] for a in reps]
        spec = {"size": m, "add": qadd, "mul": qmul, "one": pi[self.one],
                "name": f"{self.expr} mod radical"}
        qring = build_table_ring(spec, max_size=self.size)
        qring.structure = self.structure
        self._quotient_cache = (qring, pi)
        return self._quotient_cache

    @property
    def leaves(self) -> tuple[FiniteRing, ...]:
        """The rings this one is the direct product of, nested products
        expanded, in index order: the ring itself unless it is a product."""
        return (self,)

    # -- presentation --------------------------------------------------------

    def element_label(self, i: int) -> str:
        return str(i)

    def describe(self) -> dict:
        soc_l = self.socle_members("left")
        soc_r = self.socle_members("right")
        return {
            "ring": self.expr,
            "size": self.size,
            "characteristic": self.characteristic,
            "is_commutative": self.is_commutative,
            "units": len(self.units),
            "radical_size": len(self.radical),
            "socle_left_size": len(soc_l),
            "socle_right_size": len(soc_r),
            "is_frobenius": self.is_frobenius,
            "structure": [list(t) for t in self.structure] if self.structure else None,
        }

    def __repr__(self):
        return f"<{type(self).__name__} {self.expr} (size {self.size})>"


class ZmodRing(FiniteRing):
    """Integers modulo n."""

    def __init__(self, n: int, table_threshold: int | None = None):
        if n < 1:
            raise InvalidParameter(f"modulus must be >= 1, got {n}")
        super().__init__(table_threshold)
        self.modulus = n
        self.size = n
        self.one = 1 % n
        self.expr = f"Z{n}"
        self.structure = [(p, 1) for p, _ in _factorization(n)]

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def _add_row_impl(self, a, cols):
        return (self._indices(cols) + a) % self.modulus

    def _mul_row_impl(self, a, cols):
        return (self._indices(cols) * a) % self.modulus

    def _mul_col_impl(self, b, rows):
        return (self._indices(rows) * b) % self.modulus

    def _build_neg_table(self):
        return (-np.arange(self.size, dtype=np.int64)) % self.modulus

    @cached_property
    def is_commutative(self):
        return True

    def _compute_units(self):
        return tuple(x for x in range(self.size) if gcd(x, self.modulus) == 1)


class AlgebraRing(FiniteRing):
    """A finite algebra over F_p given by structure constants.

    ``tensor[i, j, k]`` is the coordinate on basis element e_k of the
    product e_i * e_j.  Element index is sum(digit_i * p**i), so the
    base-p digit i is the coordinate on e_i.  Multiplying by a fixed
    element is an F_p-linear map on digit vectors, so a row or column
    of the multiplication table is the image of every element under one
    d-by-d matrix.  The kernels take that image on the low and the high
    digits separately, each over about sqrt(size) elements, and add the
    two parts through digit-addition tables of the same small size.
    ``trace_form`` lists the trace of each basis element; the canonical
    character is x -> sum(trace_form * digits(x)) mod p.
    """

    def __init__(self, p: int, tensor: np.ndarray, one: int, trace_form: np.ndarray,
                 table_threshold: int | None = None):
        super().__init__(table_threshold)
        self.p = p
        self.dim = dim = tensor.shape[0]
        self.size = p**dim
        self.one = one
        self.tensor = np.asarray(tensor, dtype=np.int64) % p
        self.trace_form = np.asarray(trace_form, dtype=np.int64) % p
        # digits(a*b) = digits(b) @ L_a = digits(a) @ R_b; row a of _by_left
        # is L_a flattened, row b of _by_right is R_b flattened
        self._by_left = self.tensor.reshape(dim, dim * dim)
        self._by_right = self.tensor.transpose(1, 0, 2).reshape(dim, dim * dim)
        self._pows = p ** np.arange(dim, dtype=np.int64)
        # elements below _low carry only the low digits, multiples of it only the high
        self._low = p ** (dim // 2)
        i = np.arange(self.size, dtype=np.int64)
        self._digits = (i[:, None] // self._pows) % p

    # on one digit the algebra is Z_p, where arithmetic beats a table lookup
    def add(self, a, b):
        return (a + b) % self.p if self.dim == 1 else super().add(a, b)

    def mul(self, a, b):
        return a * b % self.p if self.dim == 1 else super().mul(a, b)

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        return (digits % self.p) @ self._pows

    @cached_property
    def _half_sums(self) -> tuple[np.ndarray, np.ndarray]:
        lo_digits = self._digits[: self._low]
        hi_digits = self._digits[:: self._low]
        return (self._encode(lo_digits[:, None] + lo_digits[None]),
                self._encode(hi_digits[:, None] + hi_digits[None]))

    def _sum(self, x, y: np.ndarray) -> np.ndarray:
        """Elementwise x + y of element indices."""
        if self.dim == 1:
            return (x + y) % self.p  # a lone digit needs no p-by-p table
        lo_sum, hi_sum = self._half_sums
        low = self._low
        return lo_sum[x % low, y % low] + hi_sum[x // low, y // low]

    def _image(self, mat: np.ndarray, sel) -> np.ndarray:
        """Indices of digits(x) @ mat for x in sel."""
        idx = self._indices(sel)
        low = self._low
        if len(idx) < low:  # too few to pay for imaging both halves
            return self._encode(self._digits[idx] @ mat)
        lo_img = self._encode(self._digits[:low] @ mat)
        hi_img = self._encode(self._digits[::low] @ mat)
        return self._sum(lo_img[idx % low], hi_img[idx // low])

    def _add_row_impl(self, a, cols):
        return self._sum(a, self._indices(cols))

    def _mul_row_impl(self, a, cols):
        return self._image((self._digits[a] @ self._by_left).reshape(self.dim, -1), cols)

    def _mul_col_impl(self, b, rows):
        return self._image((self._digits[b] @ self._by_right).reshape(self.dim, -1), rows)

    def _build_neg_table(self):
        return self._encode(-self._digits)

    @cached_property
    def trace_exponents(self) -> np.ndarray:
        """The trace form of every element, as an integer in 0..p-1."""
        return self._digits @ self.trace_form % self.p


class GaloisField(AlgebraRing):
    """The field with q = p^k elements.

    Elements are polynomials over Z_p of degree < k modulo a fixed monic
    irreducible f, on the basis 1, x, ..., x^(k-1).  The modulus is the
    monic irreducible of degree k whose coefficient tuple (constant term
    first) is lexicographically least, so the construction is
    reproducible.  Element index encodes the coefficients in base p with
    the constant term as the least significant digit.  The trace form is
    the trace of multiplication by each basis element, which is the
    absolute trace of the field.
    """

    def __init__(self, q: int, table_threshold: int | None = None):
        factors = _factorization(q)
        if len(factors) != 1:
            raise InvalidParameter(f"{q} is not a prime power")
        p, k = factors[0]
        self.k = k
        self.modulus_poly = self._least_irreducible(p, k)
        powers = self._power_rows(p, self.modulus_poly)
        j = np.arange(k)
        tensor = powers[j[:, None] + j[None, :]]  # x^i * x^j = x^(i+j) mod f
        super().__init__(p, tensor, 1, np.einsum("ijj->i", tensor), table_threshold)
        self.expr = f"GF({q})"
        self.structure = [(q, 1)]

    @staticmethod
    def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
        if k == 1:
            return (0, 1)  # f = x, so GF(p) is Z_p with the same indexing

        def poly_mod(num, den):
            num = list(num)
            dd = len(den) - 1
            inv_lead = pow(den[-1], -1, p)
            for i in range(len(num) - 1, dd - 1, -1):
                c = num[i] * inv_lead % p
                if c:
                    for j in range(dd + 1):
                        num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
            while len(num) > 1 and num[-1] == 0:
                num.pop()
            return num

        def divisible(f, d):
            r = poly_mod(f, d)
            return len(r) == 1 and r[0] == 0

        for tail in iter_product(range(p), repeat=k):
            f = (*tail, 1)
            if f[0] == 0:
                continue
            reducible = False
            for deg in range(1, k // 2 + 1):
                for dt in iter_product(range(p), repeat=deg):
                    if divisible(f, (*dt, 1)):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                return f
        raise InternalInconsistency(f"no irreducible of degree {k} over GF({p})")

    @staticmethod
    def _power_rows(p: int, f: tuple[int, ...]) -> np.ndarray:
        """Coefficients of x^j mod f for j < 2k-1, one row each."""
        k = len(f) - 1
        rows = []
        cur = [1] + [0] * (k - 1)
        for _ in range(2 * k - 1):
            rows.append(list(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for t in range(k):
                    cur[t] = (cur[t] - lead * f[t]) % p
        return np.array(rows, dtype=np.int64) % p

    @cached_property
    def is_commutative(self):
        return True

    def _compute_units(self):
        return tuple(range(1, self.size))


class MatrixRing(AlgebraRing):
    """Full m-by-m matrix ring over a Galois field.

    Element index encodes the matrix entries as base-q digits in
    row-major reading order, the (0,0) entry most significant.  Over F_p
    the basis is E_uv (x) x^j, the matrix units times the field basis,
    with positions u*m+v counted from the last entry so that index and
    digits agree.  The trace form is the field's on the diagonal
    positions, so the canonical character is the field trace of the
    matrix trace.
    """

    def __init__(self, m: int, fld: GaloisField, table_threshold: int | None = None,
                 max_size: int | None = None):
        if not isinstance(fld, GaloisField):
            raise InvalidParameter("matrix rings require a GaloisField scalar field")
        if m < 1:
            raise InvalidParameter(f"matrix dimension must be >= 1, got {m}")
        q = fld.size
        _check_size(q ** (m * m), max_size)
        npos = m * m
        last = npos - 1
        units = np.zeros((npos, npos, npos), dtype=np.int64)  # E_uv E_vw = E_uw
        for u, v, w in iter_product(range(m), repeat=3):
            units[last - (u * m + v), last - (v * m + w), last - (u * m + w)] = 1
        diagonal = np.eye(m, dtype=np.int64).ravel()  # unchanged by the reversal
        self._weights = q ** np.arange(last, -1, -1, dtype=np.int64)
        super().__init__(fld.p, np.kron(units, fld.tensor), int(diagonal @ self._weights),
                         np.kron(diagonal, fld.trace_form), table_threshold)
        self.m = m
        self.field = fld
        self.expr = f"M({m},{fld.expr})"
        self.structure = [(q, m)]

    def matrix_of(self, a: int) -> np.ndarray:
        return (a // self._weights % self.field.size).reshape(self.m, self.m)

    @cached_property
    def is_commutative(self):
        return self.m == 1

    def rank(self, a: int) -> int:
        return int(self.ranks[a])

    @cached_property
    def ranks(self) -> np.ndarray:
        """Rank of every matrix, by one Gaussian elimination over all of them.

        Column by column, each matrix with a nonzero entry there takes the
        first such row as pivot and replaces every row r by
        pivot[col] * r - r[col] * pivot.  That clears the column without
        dividing and turns the pivot row to zero, which drops it for the
        later columns, so the rank is the number of pivots.  Entries are
        F_p digit vectors multiplied through the field's structure tensor.
        """
        m, k = self.m, self.field.dim
        tensor = self.field.tensor.reshape(k * k, k)

        def times(x, y):  # entrywise field product of digit vectors
            xy = x[..., :, None] * y[..., None, :]
            return xy.reshape(*xy.shape[:-2], k * k) @ tensor

        mats = self._digits.reshape(self.size, m * m, k)[:, ::-1].copy().reshape(-1, m, m, k)
        rank = np.zeros(self.size, dtype=np.int64)
        for col in range(m):
            nonzero = mats[:, :, col].any(axis=-1)
            idx = np.flatnonzero(nonzero.any(axis=1))
            rows = mats[idx]
            pivot = rows[np.arange(len(idx)), nonzero[idx].argmax(axis=1)][:, None]
            cleared = times(pivot[:, :, col, None], rows) - times(rows[:, :, col, None], pivot)
            mats[idx] = cleared % self.p
            rank[idx] += 1
        return rank

    def _compute_units(self):
        return tuple(int(x) for x in np.flatnonzero(self.ranks == self.m))

    def element_label(self, i):
        return "[" + ",".join(
            "[" + ",".join(str(int(v)) for v in row) + "]" for row in self.matrix_of(i)
        ) + "]"


def _outer(op, parts) -> np.ndarray:
    """``op`` over one entry per part, for every combination, first part most
    significant: with ``np.add`` the sum of factor values at every product
    element, with ``np.multiply`` their product."""
    return reduce(lambda acc, part: op.outer(acc, part).ravel(), parts)


def _mixed_radix(parts, radices) -> np.ndarray:
    """Every combination of one entry per part, encoded first part most significant.

    1-D parts give the codes of all tuples in increasing order when each
    part increases.  2-D parts are factor Cayley tables, and the result
    is the product's table: entry (a, b) is the code of the factor
    entries at the digits of a and b.  ``radices[i]`` is the base of
    part i's digit.
    """
    out = parts[0]
    for part, radix in zip(parts[1:], radices[1:]):
        if part.ndim == 1:
            out = (out[:, None] * radix + part[None, :]).ravel()
        else:
            out = (out[:, None, :, None] * radix + part[None, :, None, :]).reshape(
                len(out) * len(part), -1)
    return out


class ProductRing(FiniteRing):
    """Direct product of rings with componentwise operations.

    Element index is the mixed-radix encoding of the component indices,
    first factor most significant.  The encoding is associative: nesting
    products yields the same indexing as one flat product, so every route
    below can run over ``leaves``, the factors with nested products
    expanded.  Cayley tables, units, unit orbits and structure come from
    the factors with no kernel call on the product: its tables are the
    factor tables in mixed radix, its units are U_1 x ... x U_k, its unit
    orbits on either side are the products of the factor orbits, its
    radical and socles are the products of the factors' ones, and it is
    Frobenius iff every factor is, each factor running its own checks.
    The other modules take the same route: a character restricts to each
    factor (``characters.restrictions``) and is generating iff every
    restriction is, the unit sums are products of the factors' sums, the
    weight equations are checked on the product through the factors'
    principal-ideal matrices, and the Krawtchouk columns of a partition
    invariant on the other side are built from the factors' exponent
    counts, then checked on the product.
    """

    def __init__(self, factors, table_threshold: int | None = None,
                 max_size: int | None = None):
        factors = tuple(factors)
        if len(factors) < 2:
            raise InvalidParameter("ProductRing wants at least two factors")
        size = 1
        for f in factors:
            size *= f.size
        _check_size(size, max_size)
        super().__init__(table_threshold)
        self.factors = factors
        self.sizes = tuple(f.size for f in factors)
        strides = [1] * len(factors)
        for i in range(len(factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        self.size = size
        self.one = self.encode(tuple(f.one for f in factors))
        self.expr = " x ".join(f.expr for f in factors)
        parts = [f.structure for f in factors]
        self.structure = (
            [t for part in parts for t in part] if all(p is not None for p in parts) else None
        )

    def encode(self, comps) -> int:
        return sum(c * s for c, s in zip(comps, self.strides))

    def decode(self, a: int) -> tuple[int, ...]:
        return tuple((a // s) % sz for s, sz in zip(self.strides, self.sizes))

    @cached_property
    def _dec(self) -> np.ndarray:
        return np.stack(np.unravel_index(np.arange(self.size), self.sizes), axis=1)

    def add(self, a, b):
        da, db = self.decode(a), self.decode(b)
        return self.encode(tuple(f.add(x, y) for f, x, y in zip(self.factors, da, db)))

    def mul(self, a, b):
        da, db = self.decode(a), self.decode(b)
        return self.encode(tuple(f.mul(x, y) for f, x, y in zip(self.factors, da, db)))

    def _combine(self, factor_rows, cols):
        dec = self._dec if cols is None else self._dec[np.asarray(cols)]
        acc = np.zeros(dec.shape[0], dtype=np.int64)
        for i, (row, s) in enumerate(zip(factor_rows, self.strides)):
            acc += s * row[dec[:, i]]
        return acc

    def _add_row_impl(self, a, cols):
        da = self.decode(a)
        return self._combine(
            [f.add_row(x) for f, x in zip(self.factors, da)], cols
        )

    def _mul_row_impl(self, a, cols):
        da = self.decode(a)
        return self._combine(
            [f.mul_row(x) for f, x in zip(self.factors, da)], cols
        )

    def _mul_col_impl(self, b, rows):
        db = self.decode(b)
        return self._combine(
            [f.mul_col(y) for f, y in zip(self.factors, db)], rows
        )

    def _build_neg_table(self):
        return _mixed_radix([f.neg_table for f in self.factors], self.sizes)

    def _table(self, op):
        # a factor above its own threshold stacks its rows: its size, not the product's
        tables = [getattr(f, f"{op}_table") for f in self.factors]
        return _mixed_radix([f._table(op) if t is None else t
                             for f, t in zip(self.factors, tables)], self.sizes)

    def _compute_unit_orbits(self, side):
        # the least member of U_1x_1 x U_2x_2 is the pair of the factors' least
        # members, and the encoding is lexicographic, so ids follow the reps
        orbits = [f.unit_orbits(side) for f in self.factors]
        return (_mixed_radix([reps for reps, _ in orbits], self.sizes),
                _mixed_radix([orbit_of for _, orbit_of in orbits],
                             [len(reps) for reps, _ in orbits]))

    @cached_property
    def leaves(self):
        return tuple(leaf for f in self.factors for leaf in f.leaves)

    @cached_property
    def radical(self):
        # rad(R_1 x R_2) = rad R_1 x rad R_2
        return self._from_factors(f.radical for f in self.factors)

    def _compute_socle(self, side):
        return self._from_factors(f.socle_members(side) for f in self.factors)

    def _from_factors(self, member_lists) -> tuple[int, ...]:
        """The product of one increasing member list per factor, as a tuple."""
        parts = [np.asarray(m, dtype=np.int64) for m in member_lists]
        return tuple(_mixed_radix(parts, self.sizes).tolist())

    @cached_property
    def is_frobenius(self):
        # a list, not a generator: every factor runs its own consistency checks
        return all([f.is_frobenius for f in self.factors])

    @cached_property
    def characteristic(self):
        c = 1
        for f in self.factors:
            c = _lcm(c, f.characteristic)
        return c

    @cached_property
    def is_commutative(self):
        return all(f.is_commutative for f in self.factors)

    def _compute_units(self):
        return tuple(_mixed_radix([np.asarray(f.units, dtype=np.int64) for f in self.factors],
                                  self.sizes).tolist())

    def element_label(self, i):
        comps = self.decode(i)
        return "(" + ",".join(
            f.element_label(c) for f, c in zip(self.factors, comps)
        ) + ")"


class TableRing(FiniteRing):
    """A ring given by explicit Cayley tables."""

    def __init__(self, add_table: np.ndarray, mul_table: np.ndarray, one: int,
                 name: str | None = None, char_exponents=None):
        super().__init__(table_threshold=add_table.shape[0])
        self.size = add_table.shape[0]
        self.one = one
        self.expr = name or f"table ring of size {self.size}"
        self.add_table = add_table
        self.mul_table = mul_table
        self.char_exponents = (
            None if char_exponents is None else np.asarray(char_exponents, dtype=np.int64)
        )


def _as_table(data, size, what) -> np.ndarray:
    arr = np.asarray(data)
    if arr.shape != (size, size) or not np.issubdtype(arr.dtype, np.integer):
        raise InvalidParameter(f"{what} table must be a {size}x{size} integer matrix")
    if arr.min() < 0 or arr.max() >= size:
        raise InvalidParameter(f"{what} table entries must lie in 0..{size - 1}")
    return arr.astype(np.int32)


def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry where two equal-shaped arrays differ, or None."""
    diff = lhs != rhs
    if not diff.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(diff), diff.shape))


def _first_mismatch_by_rows(n: int, lhs, rhs) -> tuple[int, int] | None:
    """First (row, column) where two n x n arrays differ, or None.

    ``lhs(rows)`` and ``rhs(rows)`` build the given rows only; a block of
    rows at a time keeps the operands small enough to stay in cache.
    """
    step = max(1, _COMPARE_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        bad = _first_mismatch(lhs(rows), rhs(rows))
        if bad:
            return bad[0] + start, bad[1]
    return None


def _grow_span(in_span: np.ndarray, shift: np.ndarray) -> list[np.ndarray]:
    """Extend the subgroup H marked in the mask ``in_span`` to H + <g>.

    ``shift`` is the translation x -> x + g.  The cosets H + jg are
    pairwise disjoint until one falls back into H, so the walk marks
    each new coset until it meets a marked one, and returns the cosets
    H, H + g, ..., H + (m-1)g it passed, each in the order of H.  Sound
    wherever H and g lie in an associative part of the addition; each
    step marks at least one element, so the walk ends on any table.
    """
    walk = [np.flatnonzero(in_span)]
    while not in_span[shift[walk[-1][0]]]:
        walk.append(shift[walk[-1]])
        in_span[walk[-1]] = True
    return walk


def _greedy_generators(size: int, translation):
    """Yield a generating set of (R,+) as triples (g, x -> x + g, walk).

    The least element outside the span so far joins the set, and the
    span grows by it before it is yielded; ``walk`` is what
    ``_grow_span`` returned.  Each span at least doubles, so at most
    log2(size) members.  ``translation(g)`` returns the translation by g.
    """
    in_span = np.arange(size) == 0
    while not in_span.all():
        g = int(np.argmin(in_span))
        shift = translation(g)
        yield g, shift, _grow_span(in_span, shift)


def validate_tables(add: np.ndarray, mul: np.ndarray, one: int) -> None:
    """Check every ring axiom on the given tables, exactly, in O(n^2 log n).

    Raises InvalidRing with an offending element pair or triple.  After
    the O(n^2) checks (0 is neutral, + is commutative, every row of + is
    a permutation, ``one`` is a two-sided identity), the remaining
    axioms are checked on a greedy additive generating set S:

    * Associativity of + by Light's test: (x+g)+y = x+(g+y) for all x, y
      and each g in S, as g joins S.  The elements passing it are
      closed under +, and with permutation rows they form a group.  So
      each span is a subgroup, the coset walk that grew it is sound, it
      at least doubles per generator (|S| <= log2 n), and + is
      associative once S spans.
    * Right distributivity (x+g)a = xa+ga for all a, on the edges
      x -> x+g of the coset walks that grew the spans: the edge into
      each nonzero element, and per g in S the closing edge
      (m-1)g -> mg = h in the span before g.  These give (R,+) the
      presentation <S | mg = h, commuting>, so for fixed a the map
      x -> xa, additive on every edge, is additive.
    * Left distributivity a(x+g) = ax+ag for a, g in S and all x: for
      fixed a the g are closed under +, and given right distributivity
      so are the a, as (a+b)(x+y) = a(x+y) + b(x+y).
    * Associativity of * on S^3: with both distributive laws the
      associator (xy)z - x(yz) is additive in each argument.

    Cost: k n^2 for Light's test, n^2 for right distributivity, k^2 n
    and k^3 for the last two, k = |S|.
    """
    n = add.shape[0]
    arange = np.arange(n)
    if not np.array_equal(add[0], arange):
        b = int(np.flatnonzero(add[0] != arange)[0])
        raise InvalidRing(f"0 + {b} != {b}", witness=(0, b))
    bad = _first_mismatch(add, add.T)
    if bad:
        a, b = bad
        raise InvalidRing(f"{a} + {b} != {b} + {a}", witness=(a, b))
    seen = np.zeros((n, n), dtype=bool)
    np.put_along_axis(seen, add, True, axis=1)
    if not seen.all():
        a = int(np.flatnonzero(~seen.all(axis=1))[0])
        raise InvalidRing(f"row {a} of the addition table is not a permutation",
                          witness=(a,))
    if not (0 <= one < n) or not np.array_equal(mul[one], arange) or not np.array_equal(
        mul[:, one], arange
    ):
        raise InvalidRing(f"element {one} is not a two-sided identity", witness=(one,))
    gens, edges = [], []
    for g, shift, walk in _greedy_generators(n, add.__getitem__):
        # (x+g)+y against x+(g+y) at [x, y]
        bad = _first_mismatch_by_rows(n, lambda rows: add[shift[rows]],
                                      lambda rows: add[rows][:, shift])
        if bad:
            x, y = bad
            raise InvalidRing(f"addition is not associative at ({x},{g},{y})",
                              witness=(x, g, y))
        gens.append(g)
        # the sources x of the walk's edges x -> x+g, the closing one last
        edges.append(np.concatenate(walk[:-1] + [walk[-1][:1]]))
    s = np.array(gens, dtype=np.intp)
    counts = [len(e) for e in edges]  # s[:0]: no edges on a one-element ring
    xs, gs = np.concatenate([s[:0], *edges]), np.repeat(s, counts)
    # (x+g)a against xa + ga at [a, edge]: row a reads the addition rows of the ga
    by_col, flat_add, x_plus_g = np.ascontiguousarray(mul.T), add.ravel(), add[xs, gs]
    row_of_ga = by_col[:, s].astype(np.intp) * n
    bad = _first_mismatch_by_rows(n, lambda rows: by_col[rows][:, x_plus_g],
                                  lambda rows: flat_add.take(
                                      np.repeat(row_of_ga[rows], counts, axis=1)
                                      + by_col[rows][:, xs]))
    if bad:
        a, x, g = bad[0], int(xs[bad[1]]), int(gs[bad[1]])
        raise InvalidRing(f"right distributivity fails at ({a},{x},{g})",
                          witness=(a, x, g))
    ss = mul[np.ix_(s, s)]
    # a(g+x) at [a, g, x] against ax + ag, for a, g in S
    bad = _first_mismatch(mul[s[:, None, None], add[s]],
                          add[mul[s][:, None, :], ss[:, :, None]])
    if bad:
        a, g, x = int(s[bad[0]]), int(s[bad[1]]), bad[2]
        raise InvalidRing(f"left distributivity fails at ({a},{x},{g})",
                          witness=(a, x, g))
    # (ab)c against a(bc) at [a, b, c], for a, b, c in S
    bad = _first_mismatch(mul[ss[:, :, None], s], mul[s[:, None, None], ss])
    if bad:
        a, b, c = (int(s[i]) for i in bad)
        raise InvalidRing(f"multiplication is not associative at ({a},{b},{c})",
                          witness=(a, b, c))


def _require_fields(spec: dict, where: str) -> None:
    missing = {"size", "add", "mul", "one"} - set(spec)
    if missing:
        raise InvalidParameter(f"{where}: missing fields {sorted(missing)}")


_JSON = json.JSONDecoder()
_SPACES_AND_DIGITS = b" \t\n\r0123456789"
_POWERS_OF_TEN = [10 ** k for k in range(1, 19)]


def _int_matrix(s: str, idx: int) -> tuple[np.ndarray, int] | None:
    """The JSON array at ``s[idx]`` as an int64 matrix and its end, or None.

    Accepts exactly a non-empty array of equal-length non-empty rows of
    integers 0..10^18 - 1, as JSON spells them.  Such an array ends
    before the next quote or brace, and the text up to there is read in
    C-speed passes: its bracket-and-comma skeleton must be that of an
    r x c matrix (so it holds nothing but digits, JSON whitespace and
    ``[],``), ``np.fromstring`` must read r*c values from it, and it
    must hold r*c runs of digits whose lengths add up to the values'
    digit counts, so no entry is empty, split or padded with zeros.
    """
    stop = s.find('"', idx)
    stop = len(s) if stop < 0 else stop
    brace = s.find("}", idx, stop)
    text = s[idx:stop if brace < 0 else brace].rstrip(" \t\n\r,")
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    skeleton = raw.translate(None, _SPACES_AND_DIGITS)
    cols = skeleton.find(b"]") - 1
    rows = (len(skeleton) - 1) // (cols + 2) if cols > 0 else 0
    row = b"[" + b"," * (cols - 1) + b"]"
    if rows == 0 or skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x: a partial read
        try:
            values = np.fromstring(raw.replace(b"[", b" ").replace(b"]", b" "),
                                   dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    is_digit = np.frombuffer(raw, dtype=np.uint8) - 48 < 10  # wraps below "0"
    runs = np.count_nonzero(is_digit[1:] > is_digit[:-1])  # raw starts with "["
    if values.size != rows * cols or runs != values.size:
        return None
    top = int(values.max())  # fromstring saturates at 2^63 - 1
    digits = values.size + sum(int(np.count_nonzero(values >= p))
                               for p in _POWERS_OF_TEN if p <= top)
    if top >= 10 ** 18 or digits != np.count_nonzero(is_digit):
        return None
    return values.reshape(rows, cols), idx + len(text)


class _TableDecoder(json.JSONDecoder):
    """``json``'s decoder, except that an array in the top-level object
    that is an integer matrix is read by ``_int_matrix``.  Every other
    value is read by the C decoder at the same index, so it, and every
    error message, is the one ``json`` gives."""

    def __init__(self):
        super().__init__()
        self.scan_once = self._scan

    def _scan(self, s: str, idx: int):
        if s.startswith("{", idx):
            return self.parse_object((s, idx + 1), self.strict, self._scan_value,
                                     None, None, {})
        return self._scan_value(s, idx)

    @staticmethod
    def _scan_value(s: str, idx: int):
        if s.startswith("[", idx):
            return _int_matrix(s, idx) or _JSON.scan_once(s, idx)
        return _JSON.scan_once(s, idx)


def load_table_spec(path: str, max_size: int | None = None) -> dict:
    """Read a table-ring JSON file: size, add, mul, one, optional extras.

    Returns the object read, for ``build_table_ring``.  A top-level
    value that is an integer matrix, as ``add`` and ``mul`` are, comes
    as an int64 array, and every other value as ``json`` reads it.  A
    file larger than two tables and an exponent list at the size guard
    could need, at 16 bytes of separators and indentation per entry, is
    refused before it is parsed.
    """
    guard = DEFAULT_SIZE_GUARD if max_size is None else max_size
    budget = (2 * guard + 1) * guard * (len(str(guard)) + 16) + (1 << 16)
    if os.path.getsize(path) > budget:
        raise ResourceLimit(f"{path} is larger than {budget} bytes, the most a "
                            f"ring within the size guard {guard} needs")
    with open(path) as fh:
        try:
            data = json.load(fh, cls=_TableDecoder)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameter(f"{path}: expected a JSON object")
    _require_fields(data, path)
    return data


# -- builders ------------------------------------------------------------


def build_zmod(n: int, max_size: int | None = None,
               table_threshold: int | None = None) -> ZmodRing:
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"modulus must be a positive integer, got {n!r}")
    _check_size(n, max_size)
    return ZmodRing(n, table_threshold)


def build_gf(q: int, max_size: int | None = None,
             table_threshold: int | None = None) -> GaloisField:
    _check_size(q, max_size)
    return GaloisField(q, table_threshold)


def build_matrix_ring(m: int, fld: GaloisField, max_size: int | None = None,
                      table_threshold: int | None = None) -> MatrixRing:
    return MatrixRing(m, fld, table_threshold, max_size=max_size)


def build_product(factors, max_size: int | None = None,
                  table_threshold: int | None = None) -> FiniteRing:
    factors = list(factors)
    if not factors:
        raise InvalidParameter("a product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors, table_threshold, max_size=max_size)


def builtin_ring(name: str, max_size: int | None = None) -> AlgebraRing:
    """The builtin ring of that name; ``ex5_5`` is the one there is.

    ex5_5 is a 16-element noncommutative Frobenius ring that is not
    semisimple: the 4x4 binary matrices with rows (a,0,0,0), (0,a,b,0),
    (0,0,c,0), (d,0,0,c), indexed a*8 + b*4 + c*2 + d.  That index is
    the F_2-algebra on the basis e_0..e_3 = d, c, b, a, whose product
    (a,b,c,d)(e,f,g,h) = (ae, af+bg, cg, de+ch) has the structure
    constants e_3e_3 = e_3, e_3e_2 = e_2e_1 = e_2, e_1e_1 = e_1 and
    e_0e_3 = e_1e_0 = e_0.  The unit is a = c = 1, and the trace form
    (1,1,1,1) gives the generating character a+b+c+d mod 2.
    """
    if name != "ex5_5":
        raise InvalidParameter(f"unknown builtin ring {name!r}")
    _check_size(16, max_size)
    tensor = np.zeros((4, 4, 4), dtype=np.int64)
    for i, j, k in ((3, 3, 3), (3, 2, 2), (2, 1, 2), (1, 1, 1), (0, 3, 0), (1, 0, 0)):
        tensor[i, j, k] = 1  # e_i e_j = e_k
    ring = AlgebraRing(2, tensor, 0b1010, np.ones(4, dtype=np.int64))
    ring.expr = name
    return ring


def build_table_ring(spec: dict, max_size: int | None = None) -> TableRing:
    """A table ring from Cayley data: ``size``, ``add``, ``mul`` and ``one``,
    with optional ``char_exponents`` and ``name``, as the JSON format has them."""
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidParameter("name must be a string")
    _require_fields(spec, name or "table ring")
    size, one = spec["size"], spec["one"]
    if type(size) is not int or size < 1:  # a JSON true is an int too
        raise InvalidParameter(f"size must be a positive integer, got {size!r}")
    _check_size(size, max_size)
    add = _as_table(spec["add"], size, "add")
    mul = _as_table(spec["mul"], size, "mul")
    if type(one) is not int:
        raise InvalidParameter("one must be an element index")
    try:
        validate_tables(add, mul, one)
    except InvalidRing as exc:
        label = name or f"table ring of size {size}"
        raise InvalidRing(f"{label}: {exc}", witness=exc.witness) from None
    exps = spec.get("char_exponents")
    if exps is not None:
        if len(exps) != size or any(type(e) is not int for e in exps):
            raise InvalidParameter("char_exponents must list one integer per element")
    return TableRing(add, mul, one, name=name, char_exponents=exps)
