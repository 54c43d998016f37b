"""Command-line front end.

Ring expressions follow the grammar

    ring := term ("x" term)*
    term := "Z" digits | "GF(" digits ")" | "M(" digits "," term ")"
          | identifier | "table:" path

where whitespace is ignored, M's inner term must be a GF term,
identifiers name builtin table rings, and "table:" loads a JSON Cayley
table file.  Subcommands: info, weights, partition, dual, krawtchouk,
verify, reproduce.  Exit codes: 0 success or all checks passed,
1 a check failed, 2 usage or parse error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import duality, partitions, weights
from .characters import (all_generating_characters,
                         canonical_generating_character, is_symmetric)
from .errors import (CharacterSearchFailed, InternalInconsistency,
                     InvalidParameter, InvalidRing, ResourceLimit)
from .rings import (FiniteRing, GaloisField, MatrixRing, ProductRing,
                    TableRing, build_gf, build_matrix_ring, build_product,
                    build_table_ring, build_zmod, builtin_table_spec,
                    load_table_spec)


# -- ring expressions -------------------------------------------------------


class RingSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class ZModExpr:
    n: int

    def unparse(self) -> str:
        return f"Z{self.n}"


@dataclass(frozen=True)
class GFExpr:
    q: int

    def unparse(self) -> str:
        return f"GF({self.q})"


@dataclass(frozen=True)
class MatExpr:
    m: int
    inner: GFExpr

    def unparse(self) -> str:
        return f"M({self.m},{self.inner.unparse()})"


@dataclass(frozen=True)
class ProductExpr:
    terms: tuple

    def unparse(self) -> str:
        return " x ".join(t.unparse() for t in self.terms)


@dataclass(frozen=True)
class BuiltinExpr:
    name: str

    def unparse(self) -> str:
        return self.name


@dataclass(frozen=True)
class TableFileExpr:
    path: str

    def unparse(self) -> str:
        return f"table:{self.path}"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise RingSyntaxError("expected digits", start)
        return int(self.text[start:self.pos])

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise RingSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def term(self):
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest.startswith("GF("):
            self.pos += 3
            self.skip_ws()
            q = self.take_digits()
            self.skip_ws()
            self.expect(")")
            return GFExpr(q)
        if rest.startswith("M("):
            self.pos += 2
            self.skip_ws()
            m = self.take_digits()
            self.skip_ws()
            self.expect(",")
            inner = self.term()
            if not isinstance(inner, GFExpr):
                raise RingSyntaxError("M's entry ring must be a GF term", self.pos)
            self.skip_ws()
            self.expect(")")
            return MatExpr(m, inner)
        if rest.startswith("table:"):
            self.pos += 6
            start = self.pos
            while self.pos < len(self.text) and not self.text[self.pos].isspace():
                self.pos += 1
            if self.pos == start:
                raise RingSyntaxError("expected a file path after table:", start)
            return TableFileExpr(self.text[start:self.pos])
        if rest[:1] == "Z" and rest[1:2].isdigit():
            self.pos += 1
            return ZModExpr(self.take_digits())
        if rest[:1].isalpha() or rest[:1] == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return BuiltinExpr(self.text[start:self.pos])
        raise RingSyntaxError("expected a ring term", self.pos)

    def ring(self):
        terms = [self.term()]
        while True:
            self.skip_ws()
            if self.peek() == "x":
                mark = self.pos
                self.pos += 1
                try:
                    terms.append(self.term())
                except RingSyntaxError:
                    self.pos = mark
                    break
            else:
                break
        self.skip_ws()
        if self.pos != len(self.text):
            raise RingSyntaxError("trailing input", self.pos)
        return terms[0] if len(terms) == 1 else ProductExpr(tuple(terms))


def parse_ring(text: str):
    """Parse a ring expression; parse(unparse(e)) == e."""
    return _Parser(text).ring()


def build_ring(expr, max_size: int | None = None) -> FiniteRing:
    """Construct the ring an expression denotes.

    Structurally equal subexpressions share one ring instance, so the
    factors of "M(2,GF(3)) x M(2,GF(3))" are the same object; the
    symmetrized partition construction relies on that.
    """
    memo: dict = {}

    def rec(node) -> FiniteRing:
        if node in memo:
            return memo[node]
        if isinstance(node, ZModExpr):
            ring = build_zmod(node.n, max_size)
        elif isinstance(node, GFExpr):
            ring = build_gf(node.q, max_size)
        elif isinstance(node, MatExpr):
            ring = build_matrix_ring(node.m, rec(node.inner), max_size)
        elif isinstance(node, ProductExpr):
            ring = build_product([rec(t) for t in node.terms], max_size)
        elif isinstance(node, BuiltinExpr):
            ring = build_table_ring(builtin_table_spec(node.name), max_size)
        elif isinstance(node, TableFileExpr):
            ring = build_table_ring(load_table_spec(node.path), max_size)
        else:
            raise InvalidParameter(f"unknown ring expression node {node!r}")
        memo[node] = ring
        return ring

    return rec(expr)


def _ring_from_args(args) -> FiniteRing:
    if not args.ring:
        raise InvalidParameter("--ring is required for this command")
    return build_ring(parse_ring(args.ring), args.max_size)


def _char_from_args(ring: FiniteRing, args):
    spec = getattr(args, "char", "canonical") or "canonical"
    if spec == "canonical":
        return canonical_generating_character(ring)
    if spec.startswith("index:"):
        try:
            k = int(spec[6:])
        except ValueError:
            raise InvalidParameter(f"bad character index in {spec!r}") from None
        chars = all_generating_characters(ring)
        if not 0 <= k < len(chars):
            raise InvalidParameter(
                f"character index {k} out of range, ring has {len(chars)}"
            )
        return chars[k]
    raise InvalidParameter(f"--char must be canonical or index:<k>, got {spec!r}")


# -- report plumbing --------------------------------------------------------


def _emit(args, payload: dict) -> None:
    if not args.no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: str = "") -> None:
    for key in payload:
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _frac(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}" if w.denominator != 1 else str(w.numerator)


# -- partition selection ----------------------------------------------------


def _natural_factor_partition(ring: FiniteRing) -> partitions.Partition:
    if isinstance(ring, MatrixRing):
        return partitions.rank_partition(ring)
    if isinstance(ring, GaloisField):
        return partitions.hamming_partition(ring)
    return partitions.hom_partition(ring)


def select_partition(ring: FiniteRing, kind: str, char=None) -> partitions.Partition:
    if kind == "hom":
        return partitions.hom_partition(ring, char)
    if kind == "rank":
        return partitions.rank_partition(ring)
    if kind == "hamming":
        return partitions.hamming_partition(ring)
    if kind == "product":
        if not isinstance(ring, ProductRing) or len(ring.factors) != 2:
            raise InvalidParameter("partition 'product' needs a two-factor product ring")
        return partitions.product_partition(
            ring,
            _natural_factor_partition(ring.factors[0]),
            _natural_factor_partition(ring.factors[1]),
        )
    if kind == "sym2":
        if not isinstance(ring, ProductRing) or len(ring.factors) != 2:
            raise InvalidParameter("partition 'sym2' needs a two-factor product ring")
        if ring.factors[0] is not ring.factors[1]:
            raise InvalidParameter("partition 'sym2' needs two equal factors")
        return partitions.symmetrized_power_partition(
            ring, _natural_factor_partition(ring.factors[0])
        )
    if kind == "ex5_5":
        return partitions.ex5_5_partition(ring)
    raise InvalidParameter(f"unknown partition kind {kind!r}")


# -- subcommands ------------------------------------------------------------


def cmd_info(args) -> int:
    ring = _ring_from_args(args)
    payload = {"command": "info"}
    payload.update(ring.describe())
    char = canonical_generating_character(ring) if ring.is_frobenius else None
    payload["canonical_character_order"] = char.order if char else None
    payload["generating_characters"] = len(ring.units) if ring.is_frobenius else 0
    _emit(args, payload)
    return 0


def cmd_weights(args) -> int:
    ring = _ring_from_args(args)
    char = _char_from_args(ring, args)
    table = weights.weight_table(ring, char)
    payload = {
        "command": "weights",
        "ring": ring.expr,
        "character_order": char.order,
        "weights": [
            {"index": i, "element": ring.element_label(i), "weight": _frac(w)}
            for i, w in enumerate(table.weights)
        ],
        "multiset": {
            _frac(w): n for w, n in sorted(table.multiset().items())
        },
    }
    _emit(args, payload)
    return 0


def cmd_partition(args) -> int:
    ring = _ring_from_args(args)
    char = _char_from_args(ring, args) if args.kind == "hom" else None
    part = select_partition(ring, args.kind, char)
    payload = {
        "command": f"partition {args.kind}",
        "num_blocks": part.num_blocks,
        "block_sizes": list(part.block_sizes()),
        "invariant": partitions.is_invariant(part),
    }
    payload.update(part.to_json())
    _emit(args, payload)
    return 0


def _sides(args) -> list[str]:
    side = getattr(args, "side", "left") or "left"
    return ["left", "right"] if side == "both" else [side]


def cmd_dual(args) -> int:
    ring = _ring_from_args(args)
    char = _char_from_args(ring, args)
    part = select_partition(ring, args.partition, char if args.partition == "hom" else None)
    payload = {
        "command": "dual",
        "ring": ring.expr,
        "partition_kind": args.partition,
        "primal_num_blocks": part.num_blocks,
    }
    duals = {}
    for side in _sides(args):
        d = duality.dual_partition(part, char, side)
        duals[side] = d
        payload[side] = {
            "num_blocks": d.num_blocks,
            "block_sizes": list(d.block_sizes()),
            "blocks": [list(b) for b in d.blocks],
        }
    if len(duals) == 2:
        payload["left_equals_right"] = partitions.equals(duals["left"], duals["right"])
    if "left" in duals:
        payload["self_dual"] = partitions.equals(part, duals["left"])
        payload["reflexive"] = duality.is_reflexive(part, char)
    _emit(args, payload)
    return 0


def cmd_krawtchouk(args) -> int:
    ring = _ring_from_args(args)
    char = _char_from_args(ring, args)
    part = select_partition(ring, args.partition, char if args.partition == "hom" else None)
    payload = {
        "command": "krawtchouk",
        "ring": ring.expr,
        "partition_kind": args.partition,
    }
    tables = {}
    for side in _sides(args):
        table = duality.krawtchouk_table(part, char, side)
        tables[side] = table
        payload[side] = table.to_json()
    if len(tables) == 2:
        payload["left_equals_right"] = duality.same_entries(
            tables["left"], tables["right"]
        )
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    checks = SUITES[args.suite]
    results = []
    all_pass = True
    for name, anchor, fn in checks:
        start = time.perf_counter()
        try:
            ok = bool(fn())
            detail = ""
        except (InternalInconsistency, AssertionError) as exc:
            ok = False
            detail = str(exc)
        elapsed = time.perf_counter() - start
        all_pass &= ok
        results.append({
            "check": name,
            "anchor": anchor,
            "pass": ok,
            "seconds": round(elapsed, 3),
            **({"detail": detail} if detail else {}),
        })
    payload = {
        "command": f"verify {args.suite}",
        "checks": results,
        "all_pass": all_pass,
    }
    _emit(args, payload)
    return 0 if all_pass else 1


def cmd_reproduce(args) -> int:
    fn = REPRODUCIBLES[args.id]
    payload, match = fn()
    payload = {"command": f"reproduce {args.id}", **payload, "match": match}
    _emit(args, payload)
    return 0 if match else 1


# -- named example reproductions --------------------------------------------


def _blocks_as_sets(part: partitions.Partition) -> set[frozenset]:
    return {frozenset(b) for b in part.blocks}


def _repro_local() -> tuple[dict, bool]:
    """Local rings: weight q/(q-1) on the nonzero socle, 1 elsewhere."""
    cases = []
    match = True
    for expr in ("Z4", "Z8", "Z9", "GF(4)"):
        ring = build_ring(parse_ring(expr))
        q = ring.quotient_by_radical()[0].size
        table = weights.weight_table(ring)
        soc = set(ring.socle_members("left"))
        expected = {
            x: (Fraction(0) if x == 0 else
                Fraction(q, q - 1) if x in soc else Fraction(1))
            for x in range(ring.size)
        }
        ok = all(table.weights[x] == expected[x] for x in range(ring.size))
        match &= ok
        cases.append({
            "ring": expr,
            "residue_field_size": q,
            "expected_socle_weight": _frac(Fraction(q, q - 1)),
            "computed": [_frac(w) for w in table.weights],
            "match": ok,
        })
    return {"cases": cases}, match


def _ex4_5_rings(q: int):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    ring = build_product([mat, mat])
    return ring, mat


def _repro_ex4_5(q: int) -> tuple[dict, bool]:
    ring, mat = _ex4_5_rings(q)
    hom = partitions.hom_partition(ring)
    sym = partitions.symmetrized_power_partition(ring, partitions.rank_partition(mat))
    table = weights.weight_table(ring)
    block_weights = [table.weights[b[0]] for b in hom.blocks]
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "sym_blocks": sym.num_blocks,
        "block_weights": sorted(_frac(w) for w in block_weights),
    }
    if q > 2:
        match = (partitions.equals(hom, sym)
                 and len(set(block_weights)) == hom.num_blocks == 6)
        payload["expected"] = "hom equals symmetrized rank partition, 6 blocks"
    else:
        sizes = {l: set(b) for l, b in zip(sym.labels, sym.blocks)}
        merged = sizes[(1, 1)] | sizes[(2, 2)]
        match = (
            hom.num_blocks == 5
            and partitions.is_finer(sym, hom)
            and not partitions.equals(sym, hom)
            and frozenset(merged) in _blocks_as_sets(hom)
            and all(table.weights[x] == Fraction(8, 9) for x in merged)
        )
        payload["expected"] = (
            "blocks {{1,1}} and {{2,2}} merge at weight 8/9, 5 blocks"
        )
    return payload, match


def _ex4_6_rings(q: int):
    fld = build_gf(q)
    mat = build_matrix_ring(2, fld)
    ring = build_product([mat, fld])
    return ring, mat, fld


def _ex4_6_expected_blocks(ring, mat, fld, q: int) -> set[frozenset]:
    prod = partitions.product_partition(
        ring, partitions.rank_partition(mat), partitions.hamming_partition(fld)
    )
    lab = {l: set(b) for l, b in zip(prod.labels, prod.blocks)}
    merged_11_20 = lab[(1, (1,))] | lab[(2, (0,))]
    if q == 2:
        return {
            frozenset(lab[(0, (0,))]),
            frozenset(lab[(0, (1,))]),
            frozenset(lab[(1, (0,))] | lab[(2, (1,))]),
            frozenset(merged_11_20),
        }
    return {
        frozenset(lab[(0, (0,))]),
        frozenset(lab[(0, (1,))]),
        frozenset(lab[(1, (0,))]),
        frozenset(lab[(2, (1,))]),
        frozenset(merged_11_20),
    }


def _repro_ex4_6(q: int) -> tuple[dict, bool]:
    ring, mat, fld = _ex4_6_rings(q)
    hom = partitions.hom_partition(ring)
    expected = _ex4_6_expected_blocks(ring, mat, fld, q)
    match = _blocks_as_sets(hom) == expected
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "expected_blocks": len(expected),
        "expected": "rank-weight pairs merged as stated for this q",
    }
    return payload, match


def _repro_ex5_5() -> tuple[dict, bool]:
    ring = build_table_ring(builtin_table_spec("ex5_5"))
    part = partitions.ex5_5_partition(ring)
    char = canonical_generating_character(ring)
    left = duality.dual_partition(part, char, "left")
    right = duality.dual_partition(part, char, "right")
    hom = partitions.hom_partition(ring)
    invariant = partitions.is_invariant(part)
    duals_differ = not partitions.equals(left, right)
    hom_agrees = duality.left_right_agreement(hom, char)
    match = invariant and duals_differ and hom_agrees
    payload = {
        "ring": ring.expr,
        "partition_blocks": [list(b) for b in part.blocks],
        "invariant": invariant,
        "left_dual_sizes": list(left.block_sizes()),
        "right_dual_sizes": list(right.block_sizes()),
        "left_equals_right": not duals_differ,
        "hom_tables_agree": hom_agrees,
        "expected": "invariant partition with distinct one-sided duals; "
                    "weight partition with equal tables",
    }
    return payload, match


def _repro_ex5_10(q: int) -> tuple[dict, bool]:
    ring, mat = _ex4_5_rings(q)
    char = canonical_generating_character(ring)
    hom = partitions.hom_partition(ring)
    dual = duality.dual_partition(hom, char, "left")
    sym = partitions.symmetrized_power_partition(ring, partitions.rank_partition(mat))
    if q > 2:
        match = partitions.equals(dual, hom) and duality.is_reflexive(hom, char)
        expected = "weight partition self-dual"
    else:
        match = (partitions.equals(dual, sym)
                 and not duality.is_reflexive(hom, char))
        expected = "dual equals symmetrized rank partition; not reflexive"
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "dual_blocks": dual.num_blocks,
        "self_dual": partitions.equals(dual, hom),
        "expected": expected,
    }
    return payload, match


def _repro_ex5_11(q: int) -> tuple[dict, bool]:
    ring, mat, fld = _ex4_6_rings(q)
    char = canonical_generating_character(ring)
    hom = partitions.hom_partition(ring)
    dual = duality.dual_partition(hom, char, "left")
    prod = partitions.product_partition(
        ring, partitions.rank_partition(mat), partitions.hamming_partition(fld)
    )
    lab = {l: set(b) for l, b in zip(prod.labels, prod.blocks)}
    if q > 2:
        match = (partitions.equals(dual, prod)
                 and not duality.is_reflexive(hom, char))
        expected = "dual equals the 6-block product partition; not reflexive"
    else:
        stated = {
            frozenset(lab[(0, (0,))]),
            frozenset(lab[(0, (1,))] | lab[(1, (1,))]),
            frozenset(lab[(1, (0,))] | lab[(2, (0,))]),
            frozenset(lab[(2, (1,))]),
        }
        match = (
            _blocks_as_sets(dual) == stated
            and hom.num_blocks == 4 == dual.num_blocks
            and duality.is_reflexive(hom, char)
            and not duality.is_self_dual(hom, char)
        )
        expected = "4-block dual; reflexive but not self-dual"
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "dual_blocks": dual.num_blocks,
        "expected": expected,
    }
    return payload, match


REPRODUCIBLES = {
    "ex2_3_local": _repro_local,
    "ex4_5_q2": lambda: _repro_ex4_5(2),
    "ex4_5_q3": lambda: _repro_ex4_5(3),
    "ex4_6_q2": lambda: _repro_ex4_6(2),
    "ex4_6_q3": lambda: _repro_ex4_6(3),
    "ex5_5": _repro_ex5_5,
    "ex5_10a": lambda: _repro_ex5_10(3),
    "ex5_10b": lambda: _repro_ex5_10(2),
    "ex5_11a": lambda: _repro_ex5_11(3),
    "ex5_11b": lambda: _repro_ex5_11(2),
}


# -- verification suites -----------------------------------------------------


_AXIOM_RING_EXPRS = (
    "Z2", "Z4", "Z6", "Z8", "Z9", "Z12", "GF(4)", "GF(8)", "GF(9)",
    "M(2,GF(2))", "M(2,GF(3))", "ex5_5", "GF(2) x GF(2)", "GF(2) x GF(3)",
    "M(2,GF(2)) x GF(2)",
)


def _check_axioms_ring(expr: str) -> bool:
    from .rings import validate_tables

    ring = build_ring(parse_ring(expr))
    validate_tables(ring.add_table, ring.mul_table, ring.one)
    return ring.is_frobenius


def _check_non_frobenius_detected() -> bool:
    spec = _non_frobenius_spec()
    ring = build_table_ring(spec)
    return not ring.is_frobenius


def _non_frobenius_spec():
    """The 8-element algebra F_2[x,y]/(x^2, y^2, xy, yx): socle not principal."""
    from .rings import TableRingSpec

    size = 8

    def unpack(i):
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    def pack(a, b, c):
        return a * 4 + b * 2 + c

    add = [[pack((a1 + a2) % 2, (b1 + b2) % 2, (c1 + c2) % 2)
            for a2, b2, c2 in map(unpack, range(size))]
           for a1, b1, c1 in map(unpack, range(size))]
    mul = [[pack(a1 * a2, (a1 * b2 + a2 * b1) % 2, (a1 * c2 + a2 * c1) % 2)
            for a2, b2, c2 in map(unpack, range(size))]
           for a1, b1, c1 in map(unpack, range(size))]
    return TableRingSpec(size=size, add=add, mul=mul, one=4,
                         name="non_frobenius_8")


def _check_weight_equations(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    weights.weight_table(ring)  # validation runs inside
    return weights.socle_weight_consistency(ring)


def _check_zero_weight(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    weights.has_zero_weight_nonzero(ring)  # raises on predicate disagreement
    return True


def _check_counting() -> bool:
    for q in (2, 3, 4, 5):
        for r in range(1, 7):
            if not weights.cauchy_identity_check(r, q):
                return False
    for q in (2, 3):
        for m in range(1, 5):
            for r in range(m + 1):
                if sum(weights.s_count(j, m, r, q) for j in range(r + 1)) != q ** (r * m):
                    return False
    return True


def _check_hom_invariant(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    return partitions.is_invariant(partitions.hom_partition(ring))


def _check_rank_equals_hom(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    return partitions.equals(
        partitions.rank_partition(ring), partitions.hom_partition(ring)
    )


def _check_self_dual(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    return duality.is_self_dual(partitions.hom_partition(ring))


def _check_char_independent(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    return duality.character_independence_check(partitions.hom_partition(ring))


def _check_delsarte(m: int, q: int) -> bool:
    ring = build_matrix_ring(m, build_gf(q))
    char = canonical_generating_character(ring)
    table = duality.krawtchouk_table(partitions.rank_partition(ring), char, "left")
    for a in range(ring.size):
        i = ring.rank(a)
        for k in range(m + 1):
            if table.entry(k, a).as_int() != duality.delsarte_rank_krawtchouk(m, q, i, k):
                return False
    return True


def _check_prop_5_6(expr: str, kind: str) -> bool:
    ring = build_ring(parse_ring(expr))
    char = canonical_generating_character(ring)
    part = select_partition(ring, kind)
    dual = duality.dual_partition(part, char, "left")
    if part.num_blocks > dual.num_blocks:
        return False
    return duality.is_reflexive(part, char) == (part.num_blocks == dual.num_blocks)


def _check_symmetric_char(expr: str) -> bool:
    ring = build_ring(parse_ring(expr))
    return is_symmetric(canonical_generating_character(ring))


def _repro_check(example_id: str):
    def run() -> bool:
        return REPRODUCIBLES[example_id]()[1]

    return run


def _suite_axioms() -> list:
    checks = [
        (f"cayley tables and frobenius: {expr}", "thm_2_1",
         lambda e=expr: _check_axioms_ring(e))
        for expr in _AXIOM_RING_EXPRS
    ]
    checks.append(
        ("non-frobenius 8-element algebra detected", "thm_2_1",
         _check_non_frobenius_detected)
    )
    return checks


def _suite_weights() -> list:
    exprs = ("Z2", "Z4", "Z6", "Z8", "Z9", "Z12", "GF(4)", "GF(8)", "GF(9)",
             "M(2,GF(2))", "M(2,GF(3))", "ex5_5", "GF(2) x GF(2)",
             "GF(2) x GF(3)", "M(2,GF(2)) x GF(2)", "M(3,GF(2))")
    checks = [
        (f"defining equations and socle reduction: {expr}", "def_2_2",
         lambda e=expr: _check_weight_equations(e))
        for expr in exprs
    ]
    checks += [
        (f"zero-weight criterion: {expr}", "cor_4_3",
         lambda e=expr: _check_zero_weight(e))
        for expr in ("Z4", "Z6", "GF(2) x GF(2)", "GF(2) x GF(2) x GF(3)",
                     "M(2,GF(2)) x GF(2)")
    ]
    checks.append(("rank counting identities", "lem_3_1", _check_counting))
    checks.append(("local ring weights", "ex_2_3", _repro_check("ex2_3_local")))
    return checks


def _suite_partitions() -> list:
    checks = [
        (f"weight partition invariant: {expr}", "rem_3_7",
         lambda e=expr: _check_hom_invariant(e))
        for expr in ("Z4", "Z12", "M(2,GF(2))", "ex5_5", "M(2,GF(2)) x GF(2)")
    ]
    checks += [
        (f"rank partition equals weight partition: {expr}", "cor_3_5",
         lambda e=expr: _check_rank_equals_hom(e))
        for expr in ("M(2,GF(2))", "M(2,GF(3))", "M(3,GF(2))")
    ]
    checks.append(
        ("16-element example partition invariant", "ex_5_5",
         lambda: partitions.is_invariant(
             partitions.ex5_5_partition(
                 build_table_ring(builtin_table_spec("ex5_5")))))
    )
    checks.append(("block merge structure, q=2", "eq_4_4", _repro_check("ex4_6_q2")))
    checks.append(("block merge structure, q=3", "eq_4_4", _repro_check("ex4_6_q3")))
    checks.append(("symmetrized partition dichotomy, q=2", "ex_4_5",
                   _repro_check("ex4_5_q2")))
    checks.append(("symmetrized partition dichotomy, q=3", "ex_4_5",
                   _repro_check("ex4_5_q3")))
    return checks


def _suite_duality() -> list:
    checks = [
        (f"weight partition self-dual: {expr}", "thm_5_9",
         lambda e=expr: _check_self_dual(e))
        for expr in ("M(2,GF(2))", "M(2,GF(3))", "M(3,GF(2))")
    ]
    checks += [
        (f"character independence of tables: {expr}", "cor_5_4",
         lambda e=expr: _check_char_independent(e))
        for expr in ("Z4", "Z6", "GF(4)", "M(2,GF(2))")
    ]
    checks += [
        (f"symmetric canonical character: {expr}", "thm_5_8",
         lambda e=expr: _check_symmetric_char(e))
        for expr in ("GF(4)", "M(2,GF(2))", "M(2,GF(3))", "M(2,GF(2)) x GF(2)")
    ]
    checks += [
        (f"closed-form rank coefficients, m={m} q={q}", "delsarte_a10",
         lambda m=m, q=q: _check_delsarte(m, q))
        for m, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
    ]
    checks += [
        (f"block-count reflexivity criterion: {expr} ({kind})", "prop_5_6",
         lambda e=expr, k=kind: _check_prop_5_6(e, k))
        for expr, kind in (
            ("Z4", "hom"), ("Z6", "hom"), ("M(2,GF(2))", "hom"),
            ("M(2,GF(2)) x GF(2)", "hom"), ("M(2,GF(2)) x M(2,GF(2))", "hom"),
            ("GF(2) x GF(3)", "hamming"),
        )
    ]
    checks.append(("one-sided duals differ on the 16-element example", "ex_5_5",
                   _repro_check("ex5_5")))
    checks.append(("weight-partition tables agree on both sides", "thm_5_13",
                   lambda: duality.left_right_agreement(
                       partitions.hom_partition(
                           build_table_ring(builtin_table_spec("ex5_5"))))))
    return checks


def _suite_examples() -> list:
    order = ("ex2_3_local", "ex4_5_q2", "ex4_5_q3", "ex4_6_q2", "ex4_6_q3",
             "ex5_5", "ex5_10a", "ex5_10b", "ex5_11a", "ex5_11b")
    anchors = {
        "ex2_3_local": "ex_2_3", "ex4_5_q2": "ex_4_5", "ex4_5_q3": "ex_4_5",
        "ex4_6_q2": "ex_4_6", "ex4_6_q3": "ex_4_6", "ex5_5": "ex_5_5",
        "ex5_10a": "ex_5_10", "ex5_10b": "ex_5_10",
        "ex5_11a": "ex_5_11", "ex5_11b": "ex_5_11",
    }
    return [(f"reproduce {i}", anchors[i], _repro_check(i)) for i in order]


def _build_suites() -> dict:
    suites = {
        "axioms": _suite_axioms(),
        "weights": _suite_weights(),
        "partitions": _suite_partitions(),
        "duality": _suite_duality(),
        "paper-examples": _suite_examples(),
    }
    suites["all"] = [c for name in
                     ("axioms", "weights", "partitions", "duality", "paper-examples")
                     for c in suites[name]]
    return suites


class _LazySuites:
    def __init__(self):
        self._suites = None

    def __getitem__(self, name: str):
        if self._suites is None:
            self._suites = _build_suites()
        return self._suites[name]


SUITES = _LazySuites()


# -- argument parsing --------------------------------------------------------


def _add_common(parser, ring_required: bool = True) -> None:
    parser.add_argument("--ring", help="ring expression, e.g. 'M(2,GF(2)) x GF(2)'")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--char", default="canonical",
                        help="generating character: canonical or index:<k>")
    parser.add_argument("--max-size", type=int, default=None,
                        help="override the ring size guard")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobring",
        description="Exact homogeneous weights, partitions, and dual partitions "
                    "on finite Frobenius rings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", help="ring structure summary")
    _add_common(p)
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("weights", help="homogeneous weight of every element")
    _add_common(p)
    p.set_defaults(handler=cmd_weights)

    p = sub.add_parser("partition", help="build a named partition")
    p.add_argument("kind", choices=["hom", "rank", "hamming", "product",
                                    "sym2", "ex5_5"])
    _add_common(p)
    p.set_defaults(handler=cmd_partition)

    p = sub.add_parser("dual", help="dual partition(s) of a partition")
    p.add_argument("--partition", default="hom",
                   choices=["hom", "rank", "hamming", "product", "sym2", "ex5_5"])
    p.add_argument("--side", default="left", choices=["left", "right", "both"])
    _add_common(p)
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("krawtchouk", help="exact character-sum coefficient tables")
    p.add_argument("--partition", default="hom",
                   choices=["hom", "rank", "hamming", "product", "sym2", "ex5_5"])
    p.add_argument("--side", default="left", choices=["left", "right", "both"])
    _add_common(p)
    p.set_defaults(handler=cmd_krawtchouk)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("suite", choices=["axioms", "weights", "partitions",
                                     "duality", "paper-examples", "all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reproduce", help="recompute a named worked example")
    p.add_argument("id", choices=sorted(REPRODUCIBLES))
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RingSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameter, InvalidRing, CharacterSearchFailed,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
