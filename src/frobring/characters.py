"""Additive characters of finite rings.

A character chi: (R,+) -> C* is stored as its exponent map e, with
chi(x) = zeta_N^e(x) where N is the additive exponent of the ring.
A character is *generating* when its kernel contains no nonzero left
ideal and no nonzero right ideal; finite Frobenius rings are exactly
the finite rings admitting one.  Canonical constructions exist per ring
family; arbitrary table rings fall back to a deterministic search.
"""

from __future__ import annotations

import numpy as np

from . import cyclotomic
from .errors import CharacterSearchFailed, InternalInconsistency, InvalidParameter
from .rings import AlgebraRing, FiniteRing, ProductRing, TableRing, ZmodRing


def _check_hom(ring: FiniteRing, exponents: np.ndarray, order: int) -> bool:
    """Exhaustive check that the exponent map is additive, pair by pair."""
    for a in range(ring.size):
        sums = exponents[ring.add_row(a)]
        if not np.array_equal(sums, (exponents[a] + exponents) % order):
            return False
    return True


class Character:
    """An additive character, evaluated through its exponent map."""

    def __init__(self, ring: FiniteRing, exponents, order: int | None = None,
                 validate: bool = True):
        self.ring = ring
        self.order = ring.characteristic if order is None else order
        exps = np.asarray(exponents, dtype=np.int64) % self.order
        if exps.shape != (ring.size,):
            raise InvalidParameter("need one exponent per ring element")
        self.exponents = exps
        if self.exponents[0] != 0:
            raise InvalidParameter("a character must send 0 to exponent 0")
        if validate and not _check_hom(ring, self.exponents, self.order):
            raise InvalidParameter(
                "exponent map is not an additive homomorphism into "
                f"Z_{self.order}"
            )

    def exponent(self, x: int) -> int:
        return int(self.exponents[x])

    def value(self, x: int) -> cyclotomic.CycInt:
        return cyclotomic.root_power(self.order, self.exponent(x))

    def __call__(self, x: int) -> cyclotomic.CycInt:
        return self.value(x)

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
    multiple of x fall outside the kernel.
    """
    cached = getattr(char, "_generating", None)
    if cached is not None:
        return cached
    result = not (_kernel_holds_ideal(char, "left") or _kernel_holds_ideal(char, "right"))
    object.__setattr__(char, "_generating", result)
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
    """The character x -> chi(x*r) (side 'left') or x -> chi(r*x) ('right').

    Translates of an additive character are additive, so no revalidation
    is needed.
    """
    ring = char.ring
    if side == "left":
        exps = char.exponents[ring.mul_col(r)]
    elif side == "right":
        exps = char.exponents[ring.mul_row(r)]
    else:
        raise InvalidParameter(f"side must be 'left' or 'right', got {side!r}")
    return Character(ring, exps, char.order, validate=False)


def canonical_generating_character(ring: FiniteRing) -> Character:
    """The canonical generating character of a structured ring.

    Z_n uses e(a) = a.  Galois fields and matrix rings use their trace
    form: the absolute trace, and the field trace of the matrix trace.
    A product scales each factor character into Z_lcm.  A table ring uses
    its supplied exponents, else falls back to the search.
    """
    cached = getattr(ring, "_canonical_char", None)
    if cached is not None:
        return cached
    char = _canonical(ring)
    if not is_generating(char):
        raise InternalInconsistency(
            f"canonical character of {ring.expr} failed the generating check"
        )
    ring._canonical_char = char
    return char


def _canonical(ring: FiniteRing) -> Character:
    if isinstance(ring, ZmodRing):
        return Character(ring, np.arange(ring.size, dtype=np.int64), ring.modulus)
    if isinstance(ring, AlgebraRing):
        # the trace form is F_p-linear, so the quadratic additivity check
        # is kept only for fields and for rings small enough to table
        return Character(ring, ring.trace_exponents, ring.p,
                         validate=ring.is_field or ring.size <= 4096)
    if isinstance(ring, ProductRing):
        order = ring.characteristic
        acc = np.zeros(ring.size, dtype=np.int64)
        for i, factor in enumerate(ring.factors):
            fc = canonical_generating_character(factor)
            scale = order // fc.order
            acc += scale * fc.exponents[ring._dec[:, i]]
        # each factor map is validated exhaustively; the scaled sum of
        # additive maps is additive, so skip the quadratic recheck
        return Character(ring, acc % order, order, validate=False)
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


def _additive_order(ring: FiniteRing, x: int) -> int:
    c = 1
    acc = x
    while acc != 0:
        acc = ring.add(acc, x)
        c += 1
    return c


def _closure(ring: FiniteRing, gens) -> frozenset[int]:
    members = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = ring.add(cur, g)
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


def _abelian_basis(ring: FiniteRing) -> list[tuple[int, int]]:
    """Generators and orders with (R,+) the direct sum of the cyclic parts.

    Greedy: take a lowest-index element of maximal order in the current
    complement, then shrink the complement to a maximal subgroup meeting
    the new cyclic part trivially (scanning elements in index order).
    """
    ambient = frozenset(range(ring.size))
    orders = {x: _additive_order(ring, x) for x in range(ring.size)}
    basis: list[tuple[int, int]] = []
    taken: list[int] = []
    while len(ambient) > 1:
        best = max(sorted(ambient), key=lambda x: (orders[x], -x))
        basis.append((best, orders[best]))
        taken.append(best)
        span_taken = _closure(ring, taken)
        comp = frozenset([0])
        comp_gens: list[int] = []
        for x in sorted(ambient):
            if x in comp:
                continue
            cand = _closure(ring, comp_gens + [x])
            if len(cand & span_taken) == 1:
                comp = cand
                comp_gens.append(x)
        ambient = comp
    total = 1
    for _, d in basis:
        total *= d
    if total != ring.size:
        raise InternalInconsistency("cyclic decomposition does not span the group")
    return basis


def search_generating_character(ring: FiniteRing) -> Character | None:
    """Deterministic search for a generating character.

    Decomposes (R,+) into cyclic parts, then walks all homomorphisms
    into Z_N in lexicographic order of their generator images until one
    passes the generating test.  Returns None when the walk finishes
    without a hit, which happens exactly for non-Frobenius rings.
    """
    n = ring.size
    order = ring.characteristic
    basis = _abelian_basis(ring)
    gens = [g for g, _ in basis]
    dims = [d for _, d in basis]
    coords = np.zeros((n, len(basis)), dtype=np.int64)
    from itertools import product as iter_product

    seen = 0
    for combo in iter_product(*(range(d) for d in dims)):
        x = 0
        for g, c in zip(gens, combo):
            for _ in range(c):
                x = ring.add(x, g)
        coords[x] = combo
        seen += 1
    if seen != n:
        raise InternalInconsistency("coordinate enumeration missed elements")

    scales = [order // d for d in dims]
    for images in iter_product(*(range(d) for d in dims)):
        weights = np.array([t * s for t, s in zip(images, scales)], dtype=np.int64)
        exps = (coords @ weights) % order
        char = Character(ring, exps, order, validate=False)
        if is_generating(char):
            if not _check_hom(ring, char.exponents, order):
                raise InternalInconsistency("search produced a non-additive map")
            return char
    return None


def all_generating_characters(ring: FiniteRing) -> list[Character]:
    """Every generating character: the unit translates of the canonical one.

    Distinct units give distinct translates, so the count equals the
    number of units.
    """
    base = canonical_generating_character(ring)
    seen: dict[bytes, Character] = {}
    for u in ring.units:
        cand = translate(base, u, "left")
        seen.setdefault(cand.key(), cand)
    chars = sorted(seen.values(), key=lambda c: tuple(c.exponents))
    if len(chars) != len(ring.units):
        raise InternalInconsistency(
            "unit translates of a generating character must be pairwise distinct"
        )
    for c in chars:
        if not is_generating(c):
            raise InternalInconsistency("a unit translate lost the generating property")
    return chars


def to_json(char: Character) -> dict:
    return {"order": char.order, "exponents": [int(e) for e in char.exponents]}


def from_json(ring: FiniteRing, data: dict) -> Character:
    try:
        order = data["order"]
        exponents = data["exponents"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameter(f"malformed character payload: {data!r}") from exc
    return Character(ring, exponents, order)
