"""Finite unital rings on dense integer indices.

Every ring here has elements 0..size-1 with index 0 the zero element.
All arithmetic goes through the vector kernels ``add_row``/``mul_row``/
``mul_col``, which compute one row or column of a Cayley table on
demand; scalar ``add``/``mul`` are one-element kernel calls in every
family.  Only a ``TableRing``, whose input they are, holds Cayley
tables; ``cayley_tables`` builds them for any ring on request.

Families: integers mod n, finite algebras over F_p given by structure
constants (Galois fields, full matrix rings over a Galois field, and the
builtin rings such as ex5_5), finite direct products, and explicit table
rings built from user Cayley data.  Derived structure (units, Jacobson
radical, socles, the radical quotient) is computed by the defining
property in each case.  Properties that depend only on a principal ideal
Rx = R(ux) or xR = (xu)R are decided once per unit orbit, on the image
rows the cached ``orbit_index`` keeps, and biadditive identities such as
commutativity on pairs of generators of (R,+).  A one-sided fact is
decided on the sides ``_sides`` names, the left alone on a commutative
ring, and every cached result is held through ``_held``.  A set of
elements (the units, the radical, a socle) is held as a sorted read-only
int64 array of indices.  A direct product takes its units, unit orbits,
radical, socles and Frobenius test from its factors, in mixed radix.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import replace
from functools import cached_property, reduce
from itertools import product as iter_product
from math import lcm
from typing import NamedTuple

import numpy as np

from .cyclotomic import _factorization
from .errors import (
    InternalInconsistency,
    InvalidParameter,
    InvalidRing,
    ResourceLimit,
)

DEFAULT_SIZE_GUARD = 10000

_COMPARE_BLOCK = 1 << 17  # table entries compared per step in validate_tables
_TILE = 128  # side of the tiles in which validate_tables compares + with its transpose
_RANK_CHUNK = 1 << 17  # digit products MatrixRing.ranks holds per elimination step


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: a cached array is shared by every caller."""
    arr.setflags(write=False)
    return arr


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise InvalidParameter(f"side must be 'left' or 'right', got {side!r}")


def _sides(ring: FiniteRing) -> tuple[str, ...]:
    """The sides a one-sided fact of the ring is decided on: left alone if
    the ring is commutative, where ab = ba and Ux = xU make the right side
    the left side, else both."""
    return ("left",) if ring.is_commutative else ("left", "right")


def _held(owner, name: str, compute=None, key=None, side: str | None = None):
    """The result ``compute()`` held on ``owner``, computed once: the entry
    (key, side) of the dict attribute ``name``.

    A one-sided result of a ring (``owner``, else ``owner.ring``) decided
    on the left alone (``_sides``) is filed under both sides, as a copy
    relabelled with the other side if the value carries its side.  With
    no ``compute`` the result is only looked up: None if it is not held.
    """
    held = owner.__dict__
    try:
        return held[name][key, side]
    except KeyError:
        if compute is None:
            return None
    value = compute()
    cache = held.setdefault(name, {})
    ring = owner if isinstance(owner, FiniteRing) else owner.ring
    for s in (side,) if side is None or len(_sides(ring)) > 1 else ("left", "right"):
        cache[key, s] = value if getattr(value, "side", s) == s else replace(value, side=s)
    return cache[key, side]


def _size_guard(max_size: int | None) -> int:
    """The size guard in force: ``max_size``, else the default."""
    if max_size is None:
        return DEFAULT_SIZE_GUARD
    if max_size < 1:
        raise InvalidParameter(f"the size guard must be at least 1, got {max_size}")
    return max_size


def _check_size(size: int, max_size: int | None) -> None:
    guard = _size_guard(max_size)
    if size > guard:
        raise ResourceLimit(f"ring of size {size} exceeds the size guard {guard}")


class AdditivePresentation(NamedTuple):
    """(R,+) as <S | mg = h for each g in S, commuting>: the greedy set S,
    the translation by each g, the m x |H| array of the cosets H + jg
    (j < m) of the span H before g, each in the order of H, and h in H.
    """

    gens: np.ndarray
    shifts: np.ndarray
    cosets: tuple[np.ndarray, ...]
    closing: tuple[int, ...]


class OrbitIndex(NamedTuple):
    """The unit orbits of one side: the representatives, the orbit id and
    the representative of every element, and the image row of each
    representative (None on a product, whose consumers image its leaves)."""

    reps: np.ndarray
    orbit_of: np.ndarray
    rep_of: np.ndarray
    images: np.ndarray | None


def _image_masks(images: np.ndarray, size: int) -> np.ndarray:
    """The boolean matrix whose row k marks the entries of image row k."""
    masks = np.zeros((len(images), size), dtype=bool)
    masks[np.arange(len(images))[:, None], images] = True
    return masks


class FiniteRing:
    """Common behavior for all ring families.

    Subclasses must set ``size``, ``one`` and ``expr`` and implement
    the kernels ``_add_row_impl``, ``_mul_row_impl`` and
    ``_mul_col_impl``, which ``add_row``, ``mul_row`` and ``mul_col``
    call.  Scalar ``add``/``mul`` are one-element kernel calls, the
    same in every family.
    """

    size: int
    one: int
    expr: str
    structure: list[tuple[int, int]] | None = None

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add_row_impl(a, (b,))[0])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_row_impl(a, (b,))[0])

    # -- vector kernels ----------------------------------------------------

    @cached_property
    def _arange(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)

    def _indices(self, sel) -> np.ndarray:
        return self._arange if sel is None else np.asarray(sel, dtype=np.int64)

    def add_row(self, a: int, cols=None) -> np.ndarray:
        """Vector of a + b over b in cols (all elements by default)."""
        return self._add_row_impl(a, cols)

    def mul_row(self, a: int, cols=None) -> np.ndarray:
        """Vector of a * b over b in cols."""
        return self._mul_row_impl(a, cols)

    def mul_col(self, b: int, rows=None) -> np.ndarray:
        """Vector of a * b over a in rows."""
        return self._mul_col_impl(b, rows)

    # -- derived structure ---------------------------------------------------

    @cached_property
    def additive_presentation(self) -> AdditivePresentation:
        """(R,+) on the greedy generating set, from one ``_greedy_generators`` pass."""
        steps = list(_greedy_generators(self.size, self.add_row))
        return AdditivePresentation(
            np.array([g for g, _, _ in steps], dtype=np.int64),
            np.array([shift for _, shift, _ in steps], dtype=np.int64).reshape(-1, self.size),
            tuple(cosets for _, _, cosets in steps),
            tuple(int(shift[cosets[-1, 0]]) for _, shift, cosets in steps))

    @cached_property
    def characteristic(self) -> int:
        """Additive order of 1; equals the additive exponent of (R,+).

        c is read off one walk along x -> x + 1.  By additivity it kills
        every element iff it kills every generator g of the additive
        presentation: with mg = h, cg = (c/m)h if m divides c, else cg
        lies in the coset H + (c mod m)g, outside H.
        """
        step = self.add_row(self.one).tolist()
        c, x = 1, self.one
        while x != 0:
            x, c = step[x], c + 1
        pres = self.additive_presentation
        for g, cosets, h in zip(pres.gens.tolist(), pres.cosets, pres.closing):
            m, x = len(cosets), 0
            if c % m == 0 and h != 0:
                step = self.add_row(h).tolist()
                for _ in range(c // m):
                    x = step[x]
            if c % m or x != 0:
                raise InternalInconsistency(f"element {g} has additive order not dividing {c}")
        return c

    @cached_property
    def is_commutative(self) -> bool:
        """Multiplication is biadditive, so R is commutative iff the
        generators of the additive presentation commute pairwise."""
        gens = self.additive_presentation.gens
        return all(np.array_equal(self.mul_row(g, gens), self.mul_col(g, gens))
                   for g in gens.tolist())

    @cached_property
    def units(self) -> np.ndarray:
        """The units, as a sorted read-only int64 array of indices."""
        return _frozen(self._compute_units())

    def _compute_units(self) -> np.ndarray:
        # x is a unit iff some y with xy = 1 also has yx = 1
        one = self.one
        out = []
        for x in range(self.size):
            candidates = np.flatnonzero(self.mul_row(x) == one)
            if len(candidates) and (self.mul_col(x, candidates) == one).any():
                out.append(x)
        return np.array(out, dtype=np.int64)

    def orbit_index(self, side: str = "left") -> OrbitIndex:
        """The unit orbits Ux (side 'left') or xU ('right'), indexed once.

        Representatives are the least index of their orbit, in increasing
        order.  The discovery pass makes one kernel call per orbit, over
        all of R: the row a*r (left) or r*a (right) of a representative r
        is its image row, and its entries at the units are the orbit.
        The image rows are kept, in the narrowest unsigned dtype that
        indexes the ring, for every consumer that reads Rr or rR: at most
        orbits x n <= n^2 entries, which for a ``TableRing`` is no more
        than its own tables.  Above the default size guard that can be
        large (Z720720 has 240 orbits, about 0.7 GB of uint32 rows).
        """
        _check_side(side)
        return _held(self, "_orbit_cache", lambda: OrbitIndex(
            *(a if a is None else _frozen(a) for a in self._compute_unit_orbits(side))),
            side=side)

    def _compute_unit_orbits(self, side: str) -> OrbitIndex:
        units = self.units
        kernel = self.mul_col if side == "left" else self.mul_row
        dtype = np.min_scalar_type(self.size - 1)
        orbit_of = np.full(self.size, -1, dtype=np.int64)
        reps, images = [], []
        for x in range(self.size):
            if orbit_of[x] < 0:
                image = kernel(x)
                orbit_of[image[units]] = len(reps)
                reps.append(x)
                images.append(image.astype(dtype))
        reps = np.asarray(reps, dtype=np.int64)
        return OrbitIndex(reps, orbit_of, reps[orbit_of], np.array(images))

    @cached_property
    def radical(self) -> np.ndarray:
        """Jacobson radical, as a sorted read-only int64 array of indices:
        x such that 1 - r*x is a unit for every r.

        As r runs over R so does -r, so that reads: 1 + y is a unit for
        every y in Rx.  The condition reads only Rx = R(ux), so the image
        row of each left orbit's representative decides the orbit.
        """
        is_unit = np.zeros(self.size, dtype=bool)
        is_unit[self.units] = True
        index = self.orbit_index("left")
        inside = is_unit[self.add_row(self.one)][index.images].all(axis=1)
        return _frozen(np.flatnonzero(inside[index.orbit_of]))

    def socle_members(self, side: str = "left") -> np.ndarray:
        """Annihilator of the radical, the left or right socle, as a sorted
        read-only int64 array of indices: x with rad x = 0 (left) or
        x rad = 0 (right).

        The radical is a two-sided ideal, so rad (ux) = rad x and
        (xu) rad = x rad: the image row of each representative of the side,
        read at the radical, decides its orbit.
        """
        _check_side(side)
        return _held(self, "_socle_cache", lambda: _frozen(self._compute_socle(side)), side=side)

    def _compute_socle(self, side: str) -> np.ndarray:
        index = self.orbit_index(side)
        inside = (index.images[:, self.radical] == 0).all(axis=1)
        return np.flatnonzero(inside[index.orbit_of])

    def _socle_is_principal(self, side: str) -> bool:
        soc = np.zeros(self.size, dtype=bool)
        soc[self.socle_members(side)] = True
        index = self.orbit_index(side)
        # Ra = R(ua) and aR = (au)R: one candidate generator per orbit in the socle
        return bool((_image_masks(index.images[soc[index.reps]], self.size) == soc)
                    .all(axis=1).any())

    @cached_property
    def is_frobenius(self) -> bool:
        """True iff each socle is generated by a single element on its side."""
        principal = [self._socle_is_principal(side) for side in _sides(self)]
        if principal[0] != principal[-1]:
            raise InternalInconsistency("one-sided principal-socle conditions disagree; they "
                                        "are equivalent for finite rings")
        if principal[0] and not np.array_equal(self.socle_members("left"),
                                               self.socle_members("right")):
            raise InternalInconsistency("left and right socles differ on a ring with "
                                        "principal socles")
        return principal[0]

    def quotient_by_radical(self):
        """Quotient ring R/rad(R) as a table ring, plus the projection map.

        Cosets are indexed in order of first appearance when scanning
        element indices upward, so the zero coset gets index 0.
        """
        return _held(self, "_quotient_cache", self._compute_quotient)

    def _compute_quotient(self):
        rad = self.radical
        if len(rad) == 1:
            # already semisimple: the quotient is the ring itself
            return self, list(range(self.size))
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
        coset_of = np.asarray(pi)
        qadd = np.array([coset_of[self.add_row(a, reps)] for a in reps])
        qmul = np.array([coset_of[self.mul_row(a, reps)] for a in reps])
        spec = {"size": len(reps), "add": qadd, "mul": qmul, "one": pi[self.one],
                "name": f"{self.expr} mod radical"}
        qring = build_table_ring(spec, max_size=self.size)
        qring.structure = self.structure
        return qring, pi

    @property
    def leaves(self) -> tuple[FiniteRing, ...]:
        """The rings this one is the direct product of, nested products
        expanded, in index order: the ring itself unless it is a product."""
        return (self,)

    # -- presentation --------------------------------------------------------

    def element_labels(self) -> list[str]:
        """The label of every element, by index: here the index itself."""
        return list(map(str, range(self.size)))

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
            "structure": None if self.structure is None else [list(t) for t in self.structure],
        }

    def __repr__(self):
        return f"<{type(self).__name__} {self.expr} (size {self.size})>"


class ZmodRing(FiniteRing):
    """Integers modulo n."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameter(f"modulus must be >= 1, got {n}")
        self.modulus = n
        self.size = n
        self.one = 1 % n
        self.expr = f"Z{n}"
        self.structure = [(p, 1) for p, _ in _factorization(n)]

    def _add_row_impl(self, a, cols):
        return (self._indices(cols) + a) % self.modulus

    def _mul_row_impl(self, a, cols):
        return (self._indices(cols) * a) % self.modulus

    def _mul_col_impl(self, b, rows):
        return (self._indices(rows) * b) % self.modulus

    def _compute_units(self):
        return np.flatnonzero(np.gcd(np.arange(self.size), self.modulus) == 1)


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

    def __init__(self, p: int, tensor: np.ndarray, one: int, trace_form: np.ndarray):
        self.p = p
        self.dim = dim = tensor.shape[0]
        self.size = p**dim
        self.one = one
        self.expr = f"algebra of dimension {dim} over GF({p})"
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

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        return (digits % self.p) @ self._pows

    @cached_property
    def _half_sums(self) -> tuple[np.ndarray, np.ndarray]:
        lo_digits = self._digits[: self._low]
        hi_digits = self._digits[:: self._low]
        return (self._encode(lo_digits[:, None] + lo_digits[None]),
                self._encode(hi_digits[:, None] + hi_digits[None]))

    def _image(self, mat: np.ndarray, sel) -> np.ndarray:
        """Indices of digits(x) @ mat for x in sel.

        Element j*low + i has the image of i plus that of j*low, so the
        whole image is the outer sum of the two half images.
        """
        idx = self._indices(sel)
        low = self._low
        if self.dim == 1 or len(idx) < low:  # too few to pay for imaging both halves
            return self._encode(self._digits[idx] @ mat)
        lo_div, lo_mod = np.divmod(self._encode(self._digits[:low] @ mat), low)
        hi_div, hi_mod = np.divmod(self._encode(self._digits[::low] @ mat), low)
        lo_sum, hi_sum = self._half_sums
        image = (lo_sum[hi_mod[:, None], lo_mod] + hi_sum[hi_div[:, None], lo_div]).ravel()
        return image if sel is None else image[idx]

    def _add_row_impl(self, a, cols):
        # a + (j*low + i): the high digits of a and j*low plus the low ones of a and i
        idx = self._indices(cols)
        if self.dim == 1:
            return (idx + a) % self.p  # a lone digit needs no p-by-p table
        lo_sum, hi_sum = self._half_sums
        low = self._low
        row =(hi_sum[a // low][:, None] + lo_sum[a % low]).ravel()
        return row if cols is None else row[idx]

    def _mul_row_impl(self, a, cols):
        return self._image((self._digits[a] @ self._by_left).reshape(self.dim, -1), cols)

    def _mul_col_impl(self, b, rows):
        return self._image((self._digits[b] @ self._by_right).reshape(self.dim, -1), rows)

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

    def __init__(self, q: int):
        factors = _factorization(q)
        if len(factors) != 1:
            raise InvalidParameter(f"{q} is not a prime power")
        p, k = factors[0]
        self.k = k
        self.modulus_poly = self._least_irreducible(p, k)
        powers = self._power_rows(p, self.modulus_poly)
        j = np.arange(k)
        tensor = powers[j[:, None] + j[None, :]]  # x^i * x^j = x^(i+j) mod f
        super().__init__(p, tensor, 1, np.einsum("ijj->i", tensor))
        self.expr = f"GF({q})"
        self.structure = [(q, 1)]

    @staticmethod
    def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
        if k == 1:
            return (0, 1)  # f = x, so GF(p) is Z_p with the same indexing

        def remainder(num, den):  # num mod the monic den
            num = list(num)
            dd = len(den) - 1
            for i in range(len(num) - 1, dd - 1, -1):
                c = num[i]
                if c:
                    for j in range(dd + 1):
                        num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
            while len(num) > 1 and num[-1] == 0:
                num.pop()
            return num

        for tail in iter_product(range(1, p), *[range(p)] * (k - 1)):  # f(0) != 0
            f = (*tail, 1)
            if not any(remainder(f, (*dt, 1)) == [0] for deg in range(1, k // 2 + 1)
                       for dt in iter_product(range(p), repeat=deg)):
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

    def _compute_units(self):
        return np.arange(1, self.size, dtype=np.int64)


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

    def __init__(self, m: int, fld: GaloisField, max_size: int | None = None):
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
                         np.kron(diagonal, fld.trace_form))
        self.m = m
        self.field = fld
        self.expr = f"M({m},{fld.expr})"
        self.structure = [(q, m)]

    def matrix_of(self, a: int) -> np.ndarray:
        return (a // self._weights % self.field.size).reshape(self.m, self.m)

    def rank(self, a: int) -> int:
        return int(self.ranks[a])

    @cached_property
    def ranks(self) -> np.ndarray:
        """Rank of every matrix, by Gaussian elimination over chunks of them.

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

        digits = self._digits.reshape(self.size, m * m, k)[:, ::-1]
        rank = np.zeros(self.size, dtype=np.int64)
        step = max(1, _RANK_CHUNK // (m * m * k * k))
        for i in range(0, self.size, step):
            mats, chunk = digits[i:i + step].reshape(-1, m, m, k).copy(), rank[i:i + step]
            for col in range(m):
                nonzero = mats[:, :, col].any(axis=-1)
                idx = np.flatnonzero(nonzero.any(axis=1))
                rows = mats[idx]
                pivot = rows[np.arange(len(idx)), nonzero[idx].argmax(axis=1)][:, None]
                cleared = times(pivot[:, :, col, None], rows) - times(rows[:, :, col, None], pivot)
                mats[idx] = cleared % self.p
                chunk[idx] += 1
        return rank

    def _compute_units(self):
        return np.flatnonzero(self.ranks == self.m)

    def element_labels(self):
        # index digits run row-major, first entry most significant, as the combinations do
        rows = _bracketed([list(map(str, range(self.field.size)))] * self.m, "[]")
        return _bracketed([rows] * self.m, "[]")


def _bracketed(parts, brackets: str) -> list[str]:
    """Every combination of one label per part, first part most
    significant, joined by commas between the two brackets."""
    form = brackets[0] + "{}" + brackets[1]
    return list(map(form.format, map(",".join, iter_product(*parts))))


def _outer(op, parts) -> np.ndarray:
    """``op`` over one entry per part, for every combination, first part most
    significant: with ``np.add`` the sum of factor values at every product
    element, with ``np.multiply`` their product."""
    return reduce(lambda acc, part: op.outer(acc, part).ravel(), parts)


def _mixed_radix(parts, radices) -> np.ndarray:
    """Every combination of one entry per part, encoded first part most
    significant: the codes of all tuples, in increasing order when each
    part increases.  ``radices[i]`` is the base of part i's digit.
    """
    out = parts[0]
    for part, radix in zip(parts[1:], radices[1:]):
        out = (out[:, None] * radix + part[None, :]).ravel()
    return out


class ProductRing(FiniteRing):
    """Direct product of rings with componentwise operations.

    Element index is the mixed-radix encoding of the component indices,
    first factor most significant.  The encoding is associative: nesting
    products yields the same indexing as one flat product, so every route
    below can run over ``leaves``, the factors with nested products
    expanded.  Units, unit orbits and structure come from the factors
    with no kernel call on the product: its units are U_1 x ... x U_k,
    its unit orbits on either side are the products of the factor
    orbits, its radical and socles are the products of the factors'
    ones, and it is Frobenius iff every factor is, each factor running
    its own checks.
    The other modules take the same route: a character restricts to each
    leaf (``characters.restrictions``), the unit sums are products of the
    factors' sums, and the weight equations are checked on the product
    through the factors' principal-ideal matrices.
    """

    def __init__(self, factors, max_size: int | None = None):
        factors = tuple(factors)
        if len(factors) < 2:
            raise InvalidParameter("ProductRing wants at least two factors")
        size = 1
        for f in factors:
            size *= f.size
        _check_size(size, max_size)
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

    def _compute_unit_orbits(self, side):
        # the least member of U_1x_1 x U_2x_2 is the pair of the factors' least
        # members, and the encoding is lexicographic, so ids follow the reps
        orbits = [f.orbit_index(side)[:2] for f in self.factors]
        reps = _mixed_radix([reps for reps, _ in orbits], self.sizes)
        orbit_of = _mixed_radix([orbit_of for _, orbit_of in orbits],
                                [len(reps) for reps, _ in orbits])
        return OrbitIndex(reps, orbit_of, reps[orbit_of], None)

    @cached_property
    def leaves(self):
        return tuple(leaf for f in self.factors for leaf in f.leaves)

    @cached_property
    def radical(self):
        # rad(R_1 x R_2) = rad R_1 x rad R_2
        return _frozen(_mixed_radix([f.radical for f in self.factors], self.sizes))

    def _compute_socle(self, side):
        return _mixed_radix([f.socle_members(side) for f in self.factors], self.sizes)

    @cached_property
    def is_frobenius(self):
        # a list, not a generator: every factor runs its own consistency checks
        return all([f.is_frobenius for f in self.factors])

    @cached_property
    def characteristic(self):
        return lcm(*(f.characteristic for f in self.factors))

    @cached_property
    def is_commutative(self):
        return all(f.is_commutative for f in self.factors)

    def _compute_units(self):
        return _mixed_radix([f.units for f in self.factors], self.sizes)

    def element_labels(self):
        return _bracketed([f.element_labels() for f in self.factors], "()")


class TableRing(FiniteRing):
    """A ring given by explicit Cayley tables: the only ring that holds
    them, and its kernels index them."""

    def __init__(self, add_table: np.ndarray, mul_table: np.ndarray, one: int,
                 name: str | None = None, char_exponents=None):
        self.size = add_table.shape[0]
        self.one = one
        self.expr = name or f"table ring of size {self.size}"
        self.add_table = add_table
        self.mul_table = mul_table
        self.char_exponents = (
            None if char_exponents is None else np.asarray(char_exponents, dtype=np.int64)
        )

    # a slice, not a gather over every index, when the whole row is wanted
    def _add_row_impl(self, a, cols):
        row = self.add_table[a]
        return (row if cols is None else row[np.asarray(cols)]).astype(np.int64)

    def _mul_row_impl(self, a, cols):
        row = self.mul_table[a]
        return (row if cols is None else row[np.asarray(cols)]).astype(np.int64)

    def _mul_col_impl(self, b, rows):
        col = self.mul_table[:, b]
        return (col if rows is None else col[np.asarray(rows)]).astype(np.int64)

    def _compute_units(self):  # x with xy = yx = 1 for some y, in one pass over the table
        xs, ys = np.nonzero(self.mul_table == self.one)
        return np.unique(xs[self.mul_table[ys, xs] == self.one]).astype(np.int64)


def cayley_tables(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """The addition and multiplication tables of ``ring``, as n x n int32
    arrays stacked from its kernel rows: n^2 memory, built on request."""
    add = np.empty((ring.size, ring.size), dtype=np.int32)
    mul = np.empty_like(add)
    for a in range(ring.size):
        add[a], mul[a] = ring.add_row(a), ring.mul_row(a)
    return add, mul


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


def _first_mismatch_by_rows(count: int, width: int, lhs, rhs) -> tuple[int, int] | None:
    """First (row, column) where two count x width arrays differ, or None.

    ``lhs(rows)`` and ``rhs(rows)`` build the given rows only; a block of
    rows at a time keeps the operands small enough to stay in cache.
    """
    step = max(1, _COMPARE_BLOCK // width)
    for start in range(0, count, step):
        rows = slice(start, start + step)
        bad = _first_mismatch(lhs(rows), rhs(rows))
        if bad:
            return bad[0] + start, bad[1]
    return None


def _grow_span(in_span: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Extend the subgroup H marked in the mask ``in_span`` to H + <g>.

    ``shift`` is the translation x -> x + g.  The cosets H + jg are
    pairwise disjoint until one falls back into H, so the walk marks
    each new coset until it meets a marked one, and returns the m x |H|
    array of the cosets H, H + g, ..., H + (m-1)g it passed, each in
    the order of H.  Sound wherever H and g lie in an associative part
    of the addition; each step marks at least one element, so the walk
    ends on any table.
    """
    if not in_span[1:].any():  # H = {0}: one-element cosets, walked in plain Python
        step, walk, marked = shift.tolist(), [0], {0}
        while step[walk[-1]] not in marked:
            walk.append(step[walk[-1]])
            marked.add(walk[-1])
        in_span[walk] = True
        return np.array(walk)[:, None]
    walk = [np.flatnonzero(in_span)]
    while not in_span[shift[walk[-1][0]]]:
        walk.append(shift[walk[-1]])
        in_span[walk[-1]] = True
    return np.stack(walk)


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
    """Check every ring axiom on the given tables, exactly, in O(n^2).

    Raises InvalidRing with an offending element or element pair or
    triple.  After the O(n^2) checks (0 is neutral, + is commutative,
    ``one`` is a two-sided identity), the other axioms are checked on a
    greedy additive generating set S and the edges x -> x+g of the coset
    walks that grew its spans: the edge into each nonzero element, and
    per g in S the closing edge (m-1)g -> mg = h in the span before g.

    * Associativity of +.  As g joins S, its row must be a permutation
      c_g = (x -> g+x) that commutes with each earlier c_h.  Then each
      span is an orbit of the abelian group the c_g so far generate, so
      the cosets of each walk are disjoint and the spans double: k = |S|
      <= log2 n and n-1+k edges on any table the edge checks reach.
      Every edge gives T_{x+g} = c_g T_x for the translations
      T_y = (z -> y+z), so by induction from T_0 = id every T_y lies in
      the abelian group A the c_g generate.  A is transitive, as
      T_y(0) = y, hence regular: T_y T_x is T_{y+x}, and every row of +
      is a permutation.
      The commutation check bounds that work; it refuses no table the
      edge checks would pass.  For x in the span H before g and
      x' = c_g^j(x), j < m, on its walk, the edges give T_{x'} =
      c_g^j T_x, so c_h(x') = T_{x'}(h) = c_g^j(c_h(x)) for every h in S
      (*).  If H is closed under the earlier c_h and they commute on H,
      then mg, the first point of the walk already marked, lies in H, as
      c_g is injective; the closing edge makes c_g^m = T_{mg} a word in
      the earlier c_h, and with (*) the next span is closed under them
      and c_g, which all commute on it.  The last span is R.
    * Right distributivity (x+g)a = xa+ga for all a, on every edge.  The
      edges give (R,+) the presentation <S | mg = h, commuting>, so for
      fixed a the map x -> xa, additive on every edge, is additive.
    * Left distributivity a(x+g) = ax+ag for a, g in S and all x: for
      fixed a the g are closed under +, and given right distributivity
      so are the a, as (a+b)(x+y) = a(x+y) + b(x+y).
    * Associativity of * on S^3: with both distributive laws the
      associator (xy)z - x(yz) is additive in each argument.

    Cost: O(n^2 + k^2 n + k^3), reading rows only: n^2 per edge check, k^2 n
    for commuting translations and left distributivity, k^3 for the last.
    """
    n = add.shape[0]
    arange = np.arange(n)
    if not np.array_equal(add[0], arange):
        b = int(np.flatnonzero(add[0] != arange)[0])
        raise InvalidRing(f"0 + {b} != {b}", witness=(0, b))
    # a + b against b + a tile by tile: add.T whole is read down its columns
    for r, c in ((r, c) for r in range(0, n, _TILE) for c in range(0, r + 1, _TILE)):
        bad = _first_mismatch(add[r:r + _TILE, c:c + _TILE], add[c:c + _TILE, r:r + _TILE].T)
        if bad:
            a, b = bad[0] + r, bad[1] + c
            raise InvalidRing(f"{a} + {b} != {b} + {a}", witness=(a, b))
    if not (0 <= one < n) or not np.array_equal(mul[one], arange) or not np.array_equal(
        mul[:, one], arange
    ):
        raise InvalidRing(f"element {one} is not a two-sided identity", witness=(one,))
    gens, edges = [], []
    for g, _, walk in _greedy_generators(n, add.__getitem__):
        if np.bincount(add[g], minlength=n).max() > 1:
            raise InvalidRing(f"row {g} of the addition table is not a permutation",
                              witness=(g,))
        for h in gens:
            # g+(h+x) against h+(g+x) at [x]
            bad = _first_mismatch(add[g].take(add[h]), add[h].take(add[g]))
            if bad:
                x = bad[0]
                a, b, c = (x, h, g) if add[add[x, h], g] != add[x, add[h, g]] else (x, g, h)
                raise InvalidRing(f"addition is not associative at ({a},{b},{c})",
                                  witness=(a, b, c))
        gens.append(g)
        # the sources x of the walk's edges x -> x+g, the closing one last
        edges.append(np.concatenate([walk[:-1].ravel(), walk[-1, :1]]))
    s = np.array(gens, dtype=np.intp)
    # s[:0]: no edges on a one-element ring
    xs, gs = np.concatenate([s[:0], *edges]), np.repeat(s, [len(e) for e in edges])
    ys, flat_add = add[xs, gs], add.ravel()
    # y+z against g+(x+z) at [edge x -> y = x+g, z]
    bad = _first_mismatch_by_rows(len(xs), n, lambda rows: add[ys[rows]], lambda rows:
                                  flat_add.take(gs[rows, None] * n + add[xs[rows]]))
    if bad:
        z, x, g = bad[1], int(xs[bad[0]]), int(gs[bad[0]])
        raise InvalidRing(f"addition is not associative at ({z},{x},{g})",
                          witness=(z, x, g))
    # (x+g)a against xa + ga at [edge, a]
    bad = _first_mismatch_by_rows(len(xs), n, lambda rows: mul[ys[rows]],
                                  lambda rows: flat_add.take(
                                      mul[xs[rows]].astype(np.intp) * n + mul[gs[rows]]))
    if bad:
        a, x, g = bad[1], int(xs[bad[0]]), int(gs[bad[0]])
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
    guard = _size_guard(max_size)
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


def build_zmod(n: int, max_size: int | None = None) -> ZmodRing:
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"modulus must be a positive integer, got {n!r}")
    _check_size(n, max_size)
    return ZmodRing(n)


def build_gf(q: int, max_size: int | None = None) -> GaloisField:
    _check_size(q, max_size)
    return GaloisField(q)


def build_matrix_ring(m: int, fld: GaloisField, max_size: int | None = None) -> MatrixRing:
    return MatrixRing(m, fld, max_size=max_size)


def build_product(factors, max_size: int | None = None) -> FiniteRing:
    factors = list(factors)
    if not factors:
        raise InvalidParameter("a product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors, max_size=max_size)


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
        if (not isinstance(exps, (list, tuple)) or len(exps) != size
                or any(type(e) is not int for e in exps)):
            raise InvalidParameter("char_exponents must list one integer per element")
    return TableRing(add, mul, one, name=name, char_exponents=exps)
