"""Additive characters of finite rings.

A character chi: (R,+) -> C* is stored as its exponent map e, with
chi(x) = zeta_N^e(x) where N is the additive exponent of the ring.
A character is *generating* when its kernel contains no nonzero left
ideal and no nonzero right ideal; finite Frobenius rings are exactly
the finite rings admitting one.  Canonical constructions exist per ring
family; a table ring without supplied exponents takes the first
generating one among its additive maps, walked along the greedy
generating set of (R,+) that table validation uses.  On a direct
product every character is the sum of its restrictions to the factors,
so additivity and the generating test run on the factors.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np

from .errors import CharacterSearchFailed, InternalInconsistency, InvalidParameter
from .rings import (AlgebraRing, FiniteRing, ProductRing, TableRing, ZmodRing, _check_side,
                    _frozen, _held, _outer, _sides)


def _check_hom(ring: FiniteRing, exponents: np.ndarray, order: int) -> bool:
    """Is the exponent map additive?  Checked on an additive generating set.

    With e(0) = 0, e(x + g) = e(x) + e(g) for every x and every
    generator g gives e(x + y) = e(x) + e(y) for all y, by induction on
    the number of generators summing to y.  O(n) per generator.
    Exponents lie in [0, order), so e(x) + e(g) - e(x + g) must be 0 or
    order.  A product is checked on its leaves (``_leaf_parts``).
    """
    if isinstance(ring, ProductRing):
        return _leaf_parts(ring, exponents, order) is not None
    pres = ring.additive_presentation
    d = exponents[pres.gens, None] + exponents - exponents[pres.shifts]
    return bool(((d == 0) | (d == order)).all())


def _leaf_parts(ring: FiniteRing, exponents: np.ndarray, order: int):
    """The restrictions x_i -> e(embed_i x_i) to the leaves of a product,
    as characters, () on a leaf, or None if e is not additive: it is iff
    each restriction is and e is their sum.  An additive restriction to a
    leaf of characteristic c has c e(x) = e(cx) = 0, so it is checked and
    kept in order g = gcd(order, c); the sum catches any other value."""
    if not isinstance(ring, ProductRing):
        return () if _check_hom(ring, exponents, order) else None
    parts = []
    for i, leaf in enumerate(ring.leaves):
        g = gcd(order, leaf.characteristic)
        exps = exponents[_embedding(ring, i)] // (order // g)
        if not _check_hom(leaf, exps, g):
            return None
        parts.append(Character.__new__(Character)._fill(leaf, exps, g, ()))
    char = _from_parts(ring, parts, order)
    return char._restrictions if np.array_equal(char.exponents, exponents) else None


def _from_parts(ring: ProductRing, parts, order: int) -> Character:
    """The product character summed from checked leaf characters ``parts``."""
    exps = _outer(np.add, [c.exponents * (order // c.order) for c in parts]) % order
    return Character.__new__(Character)._fill(ring, exps, order, tuple(parts))


class Character:
    """An additive character, evaluated through its exponent map, which
    is read-only: the tables and weights cached under ``key()`` rely on it."""

    def __init__(self, ring: FiniteRing, exponents, order: int | None = None):
        order = ring.characteristic if order is None else order
        exps = np.asarray(exponents, dtype=np.int64) % order
        if exps.shape != (ring.size,):
            raise InvalidParameter("need one exponent per ring element")
        if exps[0] != 0:
            raise InvalidParameter("a character must send 0 to exponent 0")
        parts = _leaf_parts(ring, exps, order)
        if parts is None:
            raise InvalidParameter(f"exponent map is not an additive homomorphism into Z_{order}")
        self._fill(ring, exps, order, parts)

    def _fill(self, ring: FiniteRing, exps: np.ndarray, order: int, parts) -> "Character":
        # a checked exponent map; parts: a product's restrictions, () on a leaf
        self.ring, self.order, self.exponents = ring, order, _frozen(exps)
        self._key, self._restrictions = None, parts
        return self

    def key(self) -> bytes:
        if self._key is None:
            self._key = self.exponents.tobytes()
        return self._key

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
    the restrictions at the components of x.  They are the leaf
    characters it was checked on, or built from.
    """
    return char._restrictions or (char,)


def _kernel_holds_ideal(char: Character, side: str) -> bool:
    """Does ker chi contain a nonzero principal ideal Rx (side 'left') or xR?

    Rx = R(ux), so the answer is shared along each unit orbit Ux (xU on
    the right).  An orbit with a member outside the kernel witnesses
    itself, as that member lies in every member's ideal; only orbits
    inside the kernel need one ideal check, on their representative's
    image row from the ring's orbit index.
    """
    exps = char.exponents
    index = char.ring.orbit_index(side)
    witnessed = np.zeros(len(index.reps), dtype=bool)
    witnessed[index.orbit_of[exps != 0]] = True
    witnessed[0] = True  # the orbit of 0 is {0}
    for image in index.images[~witnessed]:
        if not exps[image].any():
            return True
    return False


def is_generating(char: Character) -> bool:
    """True iff the kernel of chi contains no nonzero one-sided ideal.

    Equivalently: for every x != 0 some left multiple and some right
    multiple of x fall outside the kernel.  Every one-sided ideal of a
    product is a product I_1 x I_2 of the factors' ones, so chi is
    generating iff every restriction is, each decided once, on the sides
    its leaf differs on, and cached.
    """
    def leaf(c):
        return _held(c, "_generating",
                     lambda: not any(_kernel_holds_ideal(c, s) for s in _sides(c.ring)))

    return _held(char, "_generating", lambda: all([leaf(c) for c in restrictions(char)]))


def _check_generating(ring: FiniteRing, char: Character) -> None:
    """Refuse a character that is not a generating character of ``ring``."""
    if char.ring is not ring:
        raise InvalidParameter(f"{ring.expr}: the character of order {char.order} "
                               f"lives on a different ring, {char.ring.expr}")
    if not is_generating(char):
        raise InvalidParameter(f"{ring.expr}: the character of order {char.order} "
                               "is not generating")


def is_symmetric(char: Character) -> bool:
    """True iff chi(ab) = chi(ba) for all pairs a, b.

    (a, b) -> e(ab) - e(ba) is biadditive, so it vanishes everywhere iff
    it vanishes on pairs of generators of the additive presentation.  On
    a product chi(ab) is the product of the restrictions at the
    components, and a, b inside one factor see only its restriction, so
    chi is symmetric iff every restriction is.
    """
    ring = char.ring
    if isinstance(ring, ProductRing):
        return all(is_symmetric(c) for c in restrictions(char))
    exps = char.exponents
    gens = ring.additive_presentation.gens
    return all(np.array_equal(exps[ring.mul_row(g, gens)], exps[ring.mul_col(g, gens)])
               for g in gens.tolist())


def translate(char: Character, r: int, side: str = "left") -> Character:
    """The character x -> chi(x*r) (side 'left') or x -> chi(r*x) ('right').

    On a product it is the sum of the restrictions' translates by the
    components r_i of r, each checked on its leaf."""
    _check_side(side)
    ring = char.ring
    if not 0 <= r < ring.size:
        raise InvalidParameter(f"element index {r} out of range 0..{ring.size - 1}")
    if isinstance(ring, ProductRing):
        comps = np.unravel_index(int(r), [leaf.size for leaf in ring.leaves])
        return _from_parts(ring, [translate(c, x, side) for c, x in
                                  zip(restrictions(char), comps)], char.order)
    image = ring.mul_col(r) if side == "left" else ring.mul_row(r)
    return Character(ring, char.exponents[image], char.order)


def canonical_generating_character(ring: FiniteRing) -> Character:
    """The canonical generating character of a structured ring.

    Z_n uses e(a) = a.  F_p-algebras (Galois fields, matrix rings and
    the builtin rings) use their trace form: for fields the absolute
    trace, for matrix rings the field trace of the matrix trace.  A
    product sums its leaves' checked characters, scaled into Z_lcm.  A
    table ring (user tables, a radical quotient) uses its supplied
    exponents, else falls back to the search.
    """
    return _held(ring, "_canonical_char", lambda: _checked_canonical(ring))


def _checked_canonical(ring: FiniteRing) -> Character:
    char = _canonical(ring)
    if not is_generating(char):
        if not ring.is_frobenius:  # then no character is generating
            raise CharacterSearchFailed(f"{ring.expr}: no generating character "
                                        "(ring is not Frobenius)")
        part, side = next((c, s) for c in restrictions(char) for s in _sides(c.ring)
                          if _kernel_holds_ideal(c, s))
        where = "" if part is char else f" of the factor {part.ring.expr}"
        raise InternalInconsistency(
            f"{ring.expr}: the kernel of the canonical character of order "
            f"{char.order} holds a nonzero {side} ideal{where}"
        )
    return char


def _canonical(ring: FiniteRing) -> Character:
    if isinstance(ring, ZmodRing):
        return Character(ring, np.arange(ring.size, dtype=np.int64), ring.modulus)
    if isinstance(ring, AlgebraRing):
        return Character(ring, ring.trace_exponents, ring.p)
    if isinstance(ring, ProductRing):
        return _from_parts(ring, [canonical_generating_character(leaf) for leaf in ring.leaves],
                           ring.characteristic)
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


def _additive_maps(ring: FiniteRing):
    """Yield every additive map (R,+) -> Z_N, N the characteristic, once each.

    Along the additive presentation: a map e additive on the span H
    extends to H + <g>, where mg = h lies in H, exactly by the images t
    of g with mt = e(h) mod N, and then e(x + jg) = e(x) + jt.  As Z_N
    is self-injective, m divides e(h), and the m solutions are
    e(h)/m + sN/m, s < m, taken in increasing order, the first generator
    varying slowest.  The walk is depth first, so one map is held at a time.
    """
    order = ring.characteristic
    pres = ring.additive_presentation
    exps = np.zeros(ring.size, dtype=np.int64)

    def extend(i):
        if i == len(pres.cosets):
            yield exps.copy()
            return
        cosets, h = pres.cosets[i], pres.closing[i]
        m = len(cosets)
        steps = np.arange(1, m, dtype=np.int64)[:, None]
        for t in range(exps[h] // m, order, order // m):
            exps[cosets[1:]] = (exps[cosets[0]] + steps * t) % order
            yield from extend(i + 1)

    return extend(0)


def search_generating_character(ring: FiniteRing) -> Character | None:
    """Deterministic search for a generating character.

    Walks the additive maps into Z_N along the greedy generating set S
    that table validation uses (see ``_additive_maps``) until one passes
    the generating test.  Returns None, without walking, on a
    non-Frobenius ring: only those have no generating character.
    """
    if not ring.is_frobenius:
        return None
    chars = (Character(ring, exps, ring.characteristic) for exps in _additive_maps(ring))
    return next(filter(is_generating, chars), None)


def generating_translates(ring: FiniteRing):
    """Yield every generating character, one at a time: the left unit
    translates x -> chi(x u) of the canonical one, in unit order, each
    checked generating.  They are first checked pairwise distinct at the
    additive generators g (the exponents of g u), which fix them."""
    base = canonical_generating_character(ring)
    units, gens = ring.units.tolist(), ring.additive_presentation.gens
    where = f"{ring.expr}: left unit translates of the character of order {base.order}"
    if len({base.exponents[ring.mul_col(u, gens)].tobytes() for u in units}) < len(units):
        raise InternalInconsistency(f"{where} must be pairwise distinct")
    for u in units:
        char = translate(base, u)
        if not is_generating(char):
            raise InternalInconsistency(f"{where} must all be generating")
        yield char


def all_generating_characters(ring: FiniteRing) -> list[Character]:
    """Every generating character, in lexicographic order of exponents."""
    chars = list(generating_translates(ring))
    order = np.lexsort(np.stack([c.exponents for c in chars]).T[::-1])
    return [chars[i] for i in order.tolist()]
