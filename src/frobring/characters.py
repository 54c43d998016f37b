"""Additive characters of finite rings.

A character chi: (R,+) -> C* is stored as its exponent map e, with
chi(x) = zeta_N^e(x) where N is the additive exponent of the ring.
A character is *generating* when its kernel contains no nonzero left
ideal and no nonzero right ideal; finite Frobenius rings are exactly
the finite rings admitting one.  Canonical constructions exist per ring
family; arbitrary table rings fall back to a deterministic search.  On a
direct product every character is the sum of its restrictions to the
factors, so additivity and the generating test run on the factors.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import gcd, prod

import numpy as np

from .errors import (CharacterSearchFailed, InternalInconsistency, InvalidParameter,
                     ResourceLimit)
from .rings import (AlgebraRing, FiniteRing, ProductRing, TableRing, ZmodRing,
                    _check_side, _greedy_generators, _grow_span, _outer)


def _additive_generators(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """A generating set of (R,+) and the translation by each member, cached.

    Row i of the array is x -> x + gens[i].  The set is the greedy one
    of ``rings._greedy_generators``, at most log2 |R| members.
    """
    cached = getattr(ring, "_additive_generators", None)
    if cached is not None:
        return cached
    pairs = [(g, shift) for g, shift, _ in _greedy_generators(ring.size, ring.add_row)]
    ring._additive_generators = (
        np.array([g for g, _ in pairs], dtype=np.int64),
        np.array([shift for _, shift in pairs], dtype=np.int64).reshape(-1, ring.size),
    )
    return ring._additive_generators


def _check_hom(ring: FiniteRing, exponents: np.ndarray, order: int) -> bool:
    """Is the exponent map additive?  Checked on an additive generating set.

    With e(0) = 0, e(x + g) = e(x) + e(g) for every x and every
    generator g gives e(x + y) = e(x) + e(y) for all y, by induction on
    the number of generators summing to y.  O(n) per generator.
    Exponents lie in [0, order), so e(x) + e(g) - e(x + g) must be 0 or
    order.  On a product, e is additive iff it is the sum of its values
    on the factors, e(x) = sum_i e(embed_i x_i), and each of those
    restrictions is additive; that is checked on the factors.
    """
    if isinstance(ring, ProductRing):
        parts = [exponents[_embedding(ring, i)] for i in range(len(ring.leaves))]
        return (all(_check_hom(leaf, e, order) for leaf, e in zip(ring.leaves, parts))
                and np.array_equal(_outer(np.add, parts) % order, exponents))
    gens, shifts = _additive_generators(ring)
    d = exponents[gens, None] + exponents - exponents[shifts]
    return bool(((d == 0) | (d == order)).all())


class Character:
    """An additive character, evaluated through its exponent map."""

    def __init__(self, ring: FiniteRing, exponents, order: int | None = None):
        self.ring = ring
        self.order = ring.characteristic if order is None else order
        exps = np.asarray(exponents, dtype=np.int64) % self.order
        if exps.shape != (ring.size,):
            raise InvalidParameter("need one exponent per ring element")
        self.exponents = exps
        if self.exponents[0] != 0:
            raise InvalidParameter("a character must send 0 to exponent 0")
        if not _check_hom(ring, self.exponents, self.order):
            raise InvalidParameter(
                "exponent map is not an additive homomorphism into "
                f"Z_{self.order}"
            )

    def key(self) -> bytes:
        return self.exponents.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.ring is other.ring
            and self.order == other.order
            and np.array_equal(self.exponents, other.exponents)
        )

    def __hash__(self):
        return hash((id(self.ring), self.order, self.key()))

    def __repr__(self):
        return f"<Character of {self.ring.expr} into Z_{self.order}>"


def _embedding(ring: FiniteRing, i: int) -> np.ndarray:
    """Index in the ring of every element of its leaf i, the other components 0."""
    sizes = [leaf.size for leaf in ring.leaves]
    return np.arange(sizes[i], dtype=np.int64) * prod(sizes[i + 1:])


def restrictions(char: Character) -> tuple[Character, ...]:
    """The restriction x_i -> chi(embed_i x_i) to each leaf of the ring.

    On a ring that is not a product this is (chi,).  The restriction to
    a leaf of characteristic c takes values in the roots of unity of
    order g = gcd(order, c), so it is stored in order g.  Every character
    has them, the unit translates included, and chi(x) is the product of
    the restrictions at the components of x.
    """
    cached = getattr(char, "_restrictions", None)
    if cached is not None:
        return cached
    ring = char.ring
    if not isinstance(ring, ProductRing):
        out = (char,)
    else:
        out = []
        for i, leaf in enumerate(ring.leaves):
            order = gcd(char.order, leaf.characteristic)
            exps, scale = char.exponents[_embedding(ring, i)], char.order // order
            if (exps % scale).any():
                raise InternalInconsistency(
                    f"{ring.expr}: the character of order {char.order} takes a value "
                    f"of order above {order} on the factor {leaf.expr}")
            out.append(Character(leaf, exps // scale, order))
        out = tuple(out)
    char._restrictions = out
    return out


def _kernel_holds_ideal(char: Character, side: str) -> bool:
    """Does ker chi contain a nonzero principal ideal Rx (side 'left') or xR?

    Rx = R(ux), so the answer is shared along each unit orbit Ux (xU on
    the right).  An orbit with a member outside the kernel witnesses
    itself, as that member lies in every member's ideal; only orbits
    inside the kernel need one ideal check, at their representative.
    """
    ring = char.ring
    exps = char.exponents
    reps, orbit_of = ring.unit_orbits(side)
    witnessed = np.zeros(len(reps), dtype=bool)
    witnessed[orbit_of[exps != 0]] = True
    witnessed[0] = True  # the orbit of 0 is {0}
    for x in reps[~witnessed].tolist():
        ideal = ring.mul_col(x) if side == "left" else ring.mul_row(x)
        if not exps[ideal].any():
            return True
    return False


def is_generating(char: Character) -> bool:
    """True iff the kernel of chi contains no nonzero one-sided ideal.

    Equivalently: for every x != 0 some left multiple and some right
    multiple of x fall outside the kernel.  Every one-sided ideal of a
    product is a product I_1 x I_2 of the factors' ones, so on a product
    chi is generating iff every restriction is.
    """
    cached = getattr(char, "_generating", None)
    if cached is not None:
        return cached
    if isinstance(char.ring, ProductRing):
        result = all(is_generating(c) for c in restrictions(char))
    else:
        result = not (_kernel_holds_ideal(char, "left") or _kernel_holds_ideal(char, "right"))
    char._generating = result
    return result


def is_symmetric(char: Character) -> bool:
    """True iff chi(ab) = chi(ba) for all pairs, checked exhaustively."""
    ring = char.ring
    exps = char.exponents
    for a in range(ring.size):
        if not np.array_equal(exps[ring.mul_row(a)], exps[ring.mul_col(a)]):
            return False
    return True


def translate(char: Character, r: int, side: str = "left") -> Character:
    """The character x -> chi(x*r) (side 'left') or x -> chi(r*x) ('right')."""
    _check_side(side)
    ring = char.ring
    image = ring.mul_col(r) if side == "left" else ring.mul_row(r)
    return Character(ring, char.exponents[image], char.order)


def canonical_generating_character(ring: FiniteRing) -> Character:
    """The canonical generating character of a structured ring.

    Z_n uses e(a) = a.  F_p-algebras (Galois fields, matrix rings and
    the builtin rings) use their trace form: for fields the absolute
    trace, for matrix rings the field trace of the matrix trace.  A
    product scales each factor character into Z_lcm.  A table ring (user
    tables, a radical quotient) uses its supplied exponents, else falls
    back to the search.
    """
    cached = getattr(ring, "_canonical_char", None)
    if cached is not None:
        return cached
    char = _canonical(ring)
    if not is_generating(char):
        if not ring.is_frobenius:  # then no character is generating
            raise CharacterSearchFailed(f"{ring.expr}: no generating character "
                                        "(ring is not Frobenius)")
        side = "left" if _kernel_holds_ideal(char, "left") else "right"
        raise InternalInconsistency(
            f"{ring.expr}: the kernel of the canonical character of order "
            f"{char.order} holds a nonzero {side} ideal"
        )
    ring._canonical_char = char
    return char


def _canonical(ring: FiniteRing) -> Character:
    if isinstance(ring, ZmodRing):
        return Character(ring, np.arange(ring.size, dtype=np.int64), ring.modulus)
    if isinstance(ring, AlgebraRing):
        return Character(ring, ring.trace_exponents, ring.p)
    if isinstance(ring, ProductRing):
        order = ring.characteristic
        chars = [canonical_generating_character(factor) for factor in ring.factors]
        return Character(ring, _outer(np.add, [c.exponents * (order // c.order)
                                               for c in chars]) % order, order)
    if isinstance(ring, TableRing):
        if ring.char_exponents is not None:
            char = Character(ring, ring.char_exponents, ring.characteristic)
            if not is_generating(char):
                raise InvalidParameter(
                    "supplied char_exponents do not define a generating character"
                )
            return char
        found = search_generating_character(ring)
        if found is None:
            raise CharacterSearchFailed(
                f"{ring.expr}: no generating character (ring is not Frobenius "
                "or the search space was exhausted)"
            )
        return found
    raise InvalidParameter(f"no canonical character rule for {type(ring).__name__}")


def _additive_orders(ring: FiniteRing) -> np.ndarray:
    """Additive order of every element, in one vectorized walk x, 2x, 3x, ...

    Each step adds x to the multiple of x reached so far, over the
    addition table, for the elements whose multiples have not yet
    returned to 0.
    """
    table = ring.add_table
    if table is None:
        raise ResourceLimit(f"{ring.expr}: too large for an addition table")
    orders = np.ones(ring.size, dtype=np.int64)
    acc = np.arange(ring.size)
    live = np.arange(1, ring.size)
    while live.size:
        acc[live] = table[acc[live], live]
        orders[live] += 1
        live = live[acc[live] != 0]
    return orders


def _abelian_basis(ring: FiniteRing) -> list[tuple[int, int]]:
    """Generators and orders with (R,+) the direct sum of the cyclic parts.

    Greedy: take a lowest-index element of maximal order in the current
    complement, then shrink the complement to a maximal subgroup meeting
    the new cyclic part trivially (scanning elements in index order).
    """
    ambient = np.ones(ring.size, dtype=bool)
    orders = _additive_orders(ring).tolist()
    basis: list[tuple[int, int]] = []
    in_taken = np.arange(ring.size) == 0
    while np.count_nonzero(ambient) > 1:
        candidates = np.flatnonzero(ambient).tolist()
        best = max(candidates, key=lambda x: (orders[x], -x))
        basis.append((best, orders[best]))
        _grow_span(in_taken, ring.add_row(best))
        if in_taken.all():  # the complement is {0}
            break
        in_comp = np.arange(ring.size) == 0
        for x in candidates:
            if in_comp[x]:
                continue
            in_cand = in_comp.copy()
            _grow_span(in_cand, ring.add_row(x))
            if np.count_nonzero(in_cand & in_taken) == 1:
                in_comp = in_cand
        ambient = in_comp
    if prod(d for _, d in basis) != ring.size:
        raise InternalInconsistency(f"{ring.expr}: cyclic decomposition does not "
                                    "span the additive group")
    return basis


def search_generating_character(ring: FiniteRing) -> Character | None:
    """Deterministic search for a generating character.

    Decomposes (R,+) into cyclic parts, then walks all homomorphisms
    into Z_N in lexicographic order of their generator images until one
    passes the generating test.  Returns None, without walking, on a
    non-Frobenius ring: only those have no generating character.  The
    ring must be small enough to have an addition table.
    """
    if not ring.is_frobenius:
        return None
    n = ring.size
    order = ring.characteristic
    basis = _abelian_basis(ring)
    dims = [d for _, d in basis]
    # x + j*g_i has the coordinates of x, with j at position i
    coords = np.zeros((n, len(basis)), dtype=np.int64)
    reached = np.zeros(1, dtype=np.int64)
    for i, (g, d) in enumerate(basis):
        shift = ring.add_row(g)
        walk = [reached]
        for j in range(1, d):
            walk.append(shift[walk[-1]])
            coords[walk[-1]] = coords[walk[-2]]
            coords[walk[-1], i] = j
        reached = np.concatenate(walk)
    if len(np.unique(reached)) != n:
        raise InternalInconsistency(f"{ring.expr}: coordinate enumeration for "
                                    f"characters of order {order} missed elements")

    scales = [order // d for d in dims]
    for images in iter_product(*(range(d) for d in dims)):
        weights = np.array([t * s for t, s in zip(images, scales)], dtype=np.int64)
        exps = (coords @ weights) % order
        char = Character(ring, exps, order)
        if is_generating(char):
            return char
    return None


def all_generating_characters(ring: FiniteRing) -> list[Character]:
    """Every generating character: the unit translates of the canonical one.

    Distinct units give distinct translates, so the count equals the
    number of units.  The translates come in lexicographic order of their
    exponent rows, found for all rows at once.
    """
    base = canonical_generating_character(ring)
    rows = np.empty((len(ring.units), ring.size), dtype=np.int64)
    for i, u in enumerate(ring.units):
        rows[i] = base.exponents[ring.mul_col(u)]
    order = np.lexsort(rows.T[::-1]).tolist()
    where = f"{ring.expr}: left unit translates of the character of order {base.order}"
    if any(np.array_equal(rows[i], rows[j]) for i, j in zip(order, order[1:])):
        raise InternalInconsistency(f"{where} must be pairwise distinct")
    chars = [Character(ring, rows[i], base.order) for i in order]
    if not all(is_generating(c) for c in chars):
        raise InternalInconsistency(f"{where} must all be generating")
    return chars

