"""Command-line front end.

Ring expressions follow the grammar

    ring := term ("x" term)*
    term := "Z" digits | "GF(" digits ")" | "M(" digits "," term ")"
          | identifier | "table:" path

where whitespace is ignored, M's inner term must be a GF term,
identifiers name builtin rings, and "table:" loads a JSON Cayley
table file.  Subcommands: info, weights, partition, dual, krawtchouk,
verify, reproduce.  Exit codes: 0 success or all checks passed,
1 a check failed, 2 usage or parse error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import duality, partitions, weights
from .characters import (canonical_generating_character, is_generating,
                         is_symmetric, translate)
from .errors import (CharacterSearchFailed, InternalInconsistency,
                     InvalidParameter, InvalidRing, ResourceLimit)
from .rings import (AlgebraRing, FiniteRing, GaloisField, MatrixRing, ProductRing,
                    build_gf, build_matrix_ring, build_product, build_table_ring,
                    build_zmod, builtin_ring, cayley_tables, load_table_spec,
                    validate_tables)


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
            if self.peek() != "x":
                break
            mark = self.pos
            self.pos += 1
            try:
                terms.append(self.term())
            except RingSyntaxError:
                self.pos = mark
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
            ring = builtin_ring(node.name, max_size)
        elif isinstance(node, TableFileExpr):
            ring = build_table_ring(load_table_spec(node.path, max_size), max_size)
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
        canonical = canonical_generating_character(ring)
        if not 0 <= k < len(ring.units):
            raise InvalidParameter(
                f"character index {k} out of range, ring has {len(ring.units)}"
            )
        unit = ring.units[k]
        char = translate(canonical, unit, "left")
        if not is_generating(char):
            raise InternalInconsistency(
                f"{ring.expr}: the left translate of the character of order "
                f"{char.order} by the unit {unit} is not generating")
        return char
    raise InvalidParameter(f"--char must be canonical or index:<k>, got {spec!r}")


# -- report plumbing --------------------------------------------------------


def _emit(args, payload: dict) -> None:
    if not args.no_timestamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        payload = {**payload, "timestamp": now}
    if args.json:
        print(_json_text(payload))
    else:
        _emit_text(payload)


_encode_str = json.encoder.encode_basestring_ascii
_encode_leaf = json.JSONEncoder().encode


def _json_text(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``.

    The text is rendered as one list of parts, joined once at the end,
    with no Python call per int in a list of ints:
    - a nonempty list of plain ints (a block, ``orbit_of``, a row of
      Krawtchouk sums) is one ``join``;
    - a list whose items are all such lists is one such ``join`` per
      item;
    - a list of dicts with one shared set of str keys, each key's values
      all exactly str or all exactly int, is rendered key by key: one
      ``map`` per key, then each item as one join of key prefixes and
      value texts.
    Everything else takes the general path, where strings, keys and other
    leaves go through json's own encoders.
    """
    parts: list[str] = []
    put = parts.append

    def int_list_text(value, depth: int) -> str | None:
        """The text of a nonempty list of plain ints; None for anything else."""
        if not (isinstance(value, (list, tuple)) and value and type(value[0]) is int
                and {*map(type, value)} == {int}):
            return None
        pad = "\n" + "  " * (depth + 1)
        return "[" + pad + ("," + pad).join(map(str, value)) + pad[:-2] + "]"

    def int_list_texts(value, depth: int) -> list[str] | None:
        """The item texts at ``depth`` if every item is a list of plain ints, else None."""
        texts = [int_list_text(item, depth) for item in value]
        return None if None in texts else texts

    def dict_row_texts(value, depth: int) -> list[str] | None:
        """The item texts at ``depth`` if the items are dicts sharing one
        nonempty set of str keys, each key's values all str or all int;
        else None."""
        first = value[0]
        if not first or {*map(type, value)} != {dict} or {*map(type, first)} != {str} \
                or {*map(len, value)} != {len(first)}:
            return None
        keys = sorted(first)
        try:  # equal sizes, so a missing key is the only way key sets differ
            columns = [list(map(itemgetter(k), value)) for k in keys]
        except KeyError:
            return None
        pad = "\n" + "  " * (depth + 1)
        pieces = []
        for i, (key, column) in enumerate(zip(keys, columns)):
            kinds = {*map(type, column)}
            if kinds not in ({str}, {int}):
                return None
            pieces.append(repeat(("," if i else "{") + pad + _encode_str(key) + ": "))
            pieces.append(map(_encode_str if kinds == {str} else str, column))
        pieces.append(repeat(pad[:-2] + "}"))
        return list(map("".join, zip(*pieces)))

    def render(value, depth: int) -> None:
        if isinstance(value, str):
            put(_encode_str(value))
        elif type(value) is int:
            put(str(value))
        elif not isinstance(value, (list, tuple, dict)):
            put(_encode_leaf(value))
        elif not value:
            put("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            pad = "\n" + "  " * (depth + 1)
            put("{" + pad)
            for k, v in sorted(value.items()):
                put(_encode_str(_key_text(k)) + ": ")
                render(v, depth + 1)
                put("," + pad)
            parts[-1] = pad[:-2] + "}"  # the last separator closes the object
        else:
            text = int_list_text(value, depth)
            if text is not None:
                put(text)
                return
            inner = depth + 1
            pad = "\n" + "  " * inner
            first = value[0]
            texts = (int_list_texts(value, inner) if isinstance(first, (list, tuple))
                     else dict_row_texts(value, inner) if type(first) is dict else None)
            if texts is not None:
                # the item texts between separators, as references: no copy of the block
                items = ["," + pad] * (2 * len(texts) + 1)
                items[0], items[-1], items[1::2] = "[" + pad, pad[:-2] + "]", texts
                parts.extend(items)
            else:
                put("[" + pad)
                for x in value:
                    render(x, inner)
                    put("," + pad)
                parts[-1] = pad[:-2] + "]"

    render(payload, 0)
    return "".join(parts)


def _key_text(key) -> str:
    """A dict key as json writes it: str as is; int, float, bool, None as JSON."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode_leaf(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_text(payload: dict, indent: str = "") -> None:
    """Print the payload one key per line, each value as ``str()`` writes it."""
    for key, value in payload.items():
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


# -- partition selection ----------------------------------------------------


def _natural_factor_partition(ring: FiniteRing) -> partitions.Partition:
    if isinstance(ring, MatrixRing):
        return partitions.rank_partition(ring)
    if isinstance(ring, GaloisField):
        return partitions.hamming_partition(ring)
    return partitions.hom_partition(ring)


PARTITION_KINDS = ("hom", "rank", "hamming", "product", "sym2", "ex5_5")


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
    raise InvalidParameter(f"unknown partition kind {kind!r}, choose from "
                           f"{', '.join(PARTITION_KINDS)}")


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
    # one text per distinct weight; increasing numerators are increasing weights
    values, value_of, counts = np.unique(table.num, return_inverse=True, return_counts=True)
    texts = [str(Fraction(v, table.denom)) for v in values.tolist()]
    payload = {
        "command": "weights",
        "ring": ring.expr,
        "character_order": char.order,
        "weights": [
            {"index": i, "element": label, "weight": text}
            for i, label, text in zip(range(ring.size), ring.element_labels(),
                                      map(texts.__getitem__, value_of.tolist()))
        ],
        "multiset": dict(zip(texts, counts.tolist())),
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


def _requested_sides(args) -> list[str]:
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
    for side in _requested_sides(args):
        d = duals[side] = duality.dual_partition(part, char, side)
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
    payload = {"command": "krawtchouk", "ring": ring.expr, "partition_kind": args.partition}
    tables = {}
    for side in _requested_sides(args):
        tables[side] = duality.krawtchouk_table(part, char, side)
        payload[side] = tables[side].to_json()
    if len(tables) == 2:
        payload["left_equals_right"] = duality.same_entries(tables["left"], tables["right"])
    _emit(args, payload)
    return 0


def _ring_memo():
    """One built ring per expression text, for the life of one command.

    Checks that name the same ring share its unit orbits, characters and
    weight tables.  Each command call makes its own memo, so separate
    ``main()`` calls never share a ring.
    """
    return functools.cache(lambda expr: build_ring(parse_ring(expr)))


def _cases(claim) -> list[tuple]:
    return [case if isinstance(case, tuple) else (case,) for case in claim.cases]


def _run(claim, case: tuple, ring):
    return claim.check(*(ring(a) if isinstance(a, str) else a for a in case))


def _examples() -> dict:
    """Reproduction id -> its paper-examples claim, titled 'reproduce <id>'."""
    return {claim.title.removeprefix("reproduce "): claim
            for claim in CLAIMS if claim.suite == "paper-examples"}


def cmd_verify(args) -> int:
    ring = _ring_memo()
    results = []
    for claim in CLAIMS:
        if args.suite not in ("all", claim.suite):
            continue
        for case in _cases(claim):
            start = time.perf_counter()
            try:
                outcome = _run(claim, case, ring)
                ok = bool(outcome[1] if isinstance(outcome, tuple) else outcome)
                detail = ""
            except (InternalInconsistency, AssertionError) as exc:
                ok = False
                detail = str(exc)
            elapsed = time.perf_counter() - start
            results.append({
                "check": claim.title.format(*case),
                "anchor": claim.anchor,
                "pass": ok,
                "seconds": round(elapsed, 3),
                **({"detail": detail} if detail else {}),
            })
    payload = {
        "command": f"verify {args.suite}",
        "checks": results,
        "all_pass": all(r["pass"] for r in results),
    }
    _emit(args, payload)
    return 0 if payload["all_pass"] else 1


def cmd_reproduce(args) -> int:
    claim = _examples()[args.id]
    (case,) = _cases(claim)
    payload, match = _run(claim, case, _ring_memo())
    payload = {"command": f"reproduce {args.id}", **payload, "match": match}
    _emit(args, payload)
    return 0 if match else 1


# -- paper claims -------------------------------------------------------------


class Claim(NamedTuple):
    """One row of the claim table.

    ``cases`` holds the inputs the check runs on, one verify row each: a
    tuple of arguments, or a lone ring expression.  String arguments are
    ring expressions and reach the check as rings built once per
    command; the title is formatted with the case as written.  A check
    returns its verdict, or a (payload, verdict) pair when it is a
    reproduction.
    """

    suite: str
    anchor: str
    title: str
    check: Callable
    cases: tuple = ((),)


def _blocks_as_sets(part: partitions.Partition) -> set[frozenset]:
    return {frozenset(b) for b in part.blocks}


def _tables_and_frobenius(ring: FiniteRing) -> bool:
    validate_tables(*cayley_tables(ring), ring.one)
    return ring.is_frobenius


def _non_frobenius_ring() -> AlgebraRing:
    """The 8-element algebra F_2[x,y]/(x^2, y^2, xy, yx): socle not principal.

    On the basis e_0, e_1, e_2 = y, x, 1, so the element a + bx + cy has
    index 4a + 2b + c.
    """
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        tensor[2, i, i] = tensor[i, 2, i] = 1  # 1 e_i = e_i 1 = e_i
    ring = AlgebraRing(2, tensor, 4, np.einsum("ijj->i", tensor))
    ring.expr = "non_frobenius_8"
    return ring


def _weight_equations(ring: FiniteRing) -> bool:
    weights.weight_table(ring)  # validation runs inside
    return weights.socle_weight_consistency(ring)


def _zero_weight_criterion(ring: FiniteRing) -> bool:
    weights.has_zero_weight_nonzero(ring)  # raises on predicate disagreement
    return True


def _counting_identities() -> bool:
    return (
        all(weights.cauchy_identity_check(r, q)
            for q in (2, 3, 4, 5) for r in range(1, 7))
        and all(sum(weights.s_count(j, m, r, q) for j in range(r + 1)) == q ** (r * m)
                for q in (2, 3) for m in range(1, 5) for r in range(m + 1))
    )


def _delsarte_coefficients(ring: MatrixRing, m: int, q: int) -> bool:
    char = canonical_generating_character(ring)
    table = duality.krawtchouk_table(partitions.rank_partition(ring), char, "left")
    return all(
        table.entry(k, a).as_int() == duality.delsarte_rank_krawtchouk(m, q, ring.rank(a), k)
        for a in range(ring.size) for k in range(m + 1)
    )


def _block_count_criterion(ring: FiniteRing, kind: str = "hom") -> bool:
    char = canonical_generating_character(ring)
    part = select_partition(ring, kind)
    dual = duality.dual_partition(part, char, "left")
    if part.num_blocks > dual.num_blocks:
        return False
    return duality.is_reflexive(part, char) == (part.num_blocks == dual.num_blocks)


def _local_weights(*rings: FiniteRing) -> tuple[dict, bool]:
    """Local rings: weight q/(q-1) on the nonzero socle, 1 elsewhere."""
    cases = []
    for ring in rings:
        q = ring.size // len(ring.radical)
        table = weights.weight_table(ring)
        soc = np.isin(np.arange(ring.size), ring.socle_members("left"))
        expected = [Fraction(0) if x == 0 else
                    Fraction(q, q - 1) if soc[x] else Fraction(1)
                    for x in range(ring.size)]
        cases.append({
            "ring": ring.expr,
            "residue_field_size": q,
            "expected_socle_weight": str(Fraction(q, q - 1)),
            "computed": [str(w) for w in table.weights],
            "match": list(table.weights) == expected,
        })
    return {"cases": cases}, all(case["match"] for case in cases)


def _symmetrized_square(ring: ProductRing, q: int) -> tuple[dict, bool]:
    """Ex. 4.5 on M_2(F_q)^2: weight versus symmetrized rank partition."""
    hom = partitions.hom_partition(ring)
    sym = partitions.symmetrized_power_partition(
        ring, partitions.rank_partition(ring.factors[0]))
    table = weights.weight_table(ring)
    block_weights = [table.weights[b[0]] for b in hom.blocks]
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "sym_blocks": sym.num_blocks,
        "block_weights": sorted(str(w) for w in block_weights),
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
        payload["expected"] = "blocks {{1,1}} and {{2,2}} merge at weight 8/9, 5 blocks"
    return payload, match


def _rank_hamming_blocks(ring: ProductRing) -> dict:
    """Blocks of M_2(F_q) x F_q by (rank, Hamming weight) label."""
    mat, fld = ring.factors
    prod = partitions.product_partition(ring, partitions.rank_partition(mat),
                                        partitions.hamming_partition(fld))
    return {l: frozenset(b) for l, b in zip(prod.labels, prod.blocks)}


def _matrix_times_field(ring: ProductRing, q: int) -> tuple[dict, bool]:
    """Ex. 4.6 on M_2(F_q) x F_q: which rank-weight blocks merge."""
    hom = partitions.hom_partition(ring)
    lab = _rank_hamming_blocks(ring)
    merged_11_20 = lab[(1, (1,))] | lab[(2, (0,))]
    if q == 2:
        groups = (lab[(0, (0,))], lab[(0, (1,))],
                  lab[(1, (0,))] | lab[(2, (1,))], merged_11_20)
    else:
        groups = (lab[(0, (0,))], lab[(0, (1,))], lab[(1, (0,))],
                  lab[(2, (1,))], merged_11_20)
    expected = set(groups)
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "expected_blocks": len(expected),
        "expected": "rank-weight pairs merged as stated for this q",
    }
    return payload, _blocks_as_sets(hom) == expected


def _one_sided_duals(ring: FiniteRing) -> tuple[dict, bool]:
    """Ex. 5.5: an invariant partition whose one-sided duals differ."""
    part = partitions.ex5_5_partition(ring)
    char = canonical_generating_character(ring)
    left = duality.dual_partition(part, char, "left")
    right = duality.dual_partition(part, char, "right")
    invariant = partitions.is_invariant(part)
    duals_differ = not partitions.equals(left, right)
    hom_agrees = duality.left_right_agreement(partitions.hom_partition(ring), char)
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
    return payload, invariant and duals_differ and hom_agrees


def _square_duality(ring: ProductRing, q: int) -> tuple[dict, bool]:
    """Ex. 5.10 on M_2(F_q)^2: the dual of the weight partition."""
    char = canonical_generating_character(ring)
    hom = partitions.hom_partition(ring)
    dual = duality.dual_partition(hom, char, "left")
    sym = partitions.symmetrized_power_partition(
        ring, partitions.rank_partition(ring.factors[0]))
    if q > 2:
        match = partitions.equals(dual, hom) and duality.is_reflexive(hom, char)
        expected = "weight partition self-dual"
    else:
        match = partitions.equals(dual, sym) and not duality.is_reflexive(hom, char)
        expected = "dual equals symmetrized rank partition; not reflexive"
    payload = {
        "ring": ring.expr,
        "hom_blocks": hom.num_blocks,
        "dual_blocks": dual.num_blocks,
        "self_dual": partitions.equals(dual, hom),
        "expected": expected,
    }
    return payload, match


def _product_duality(ring: ProductRing, q: int) -> tuple[dict, bool]:
    """Ex. 5.11 on M_2(F_q) x F_q: the dual of the weight partition."""
    char = canonical_generating_character(ring)
    hom = partitions.hom_partition(ring)
    dual = duality.dual_partition(hom, char, "left")
    lab = _rank_hamming_blocks(ring)
    if q > 2:
        match = (_blocks_as_sets(dual) == set(lab.values())
                 and not duality.is_reflexive(hom, char))
        expected = "dual equals the 6-block product partition; not reflexive"
    else:
        stated = {lab[(0, (0,))], lab[(0, (1,))] | lab[(1, (1,))],
                  lab[(1, (0,))] | lab[(2, (0,))], lab[(2, (1,))]}
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


_STRUCTURED = ("Z2", "Z4", "Z6", "Z8", "Z9", "Z12", "GF(4)", "GF(8)", "GF(9)",
               "M(2,GF(2))", "M(2,GF(3))", "ex5_5", "GF(2) x GF(2)",
               "GF(2) x GF(3)", "M(2,GF(2)) x GF(2)")
_LOCAL = ("Z4", "Z8", "Z9", "GF(4)")
_SQUARE = {q: (f"M(2,GF({q})) x M(2,GF({q}))", q) for q in (2, 3)}
_MAT_FIELD = {q: (f"M(2,GF({q})) x GF({q})", q) for q in (2, 3)}
_MATRICES = ("M(2,GF(2))", "M(2,GF(3))", "M(3,GF(2))")

CLAIMS = (
    Claim("axioms", "thm_2_1", "cayley tables and frobenius: {}",
          _tables_and_frobenius, _STRUCTURED),
    Claim("axioms", "thm_2_1", "non-frobenius 8-element algebra detected",
          lambda: not _non_frobenius_ring().is_frobenius),
    Claim("weights", "def_2_2", "defining equations and socle reduction: {}",
          _weight_equations, _STRUCTURED + ("M(3,GF(2))",)),
    Claim("weights", "cor_4_3", "zero-weight criterion: {}", _zero_weight_criterion,
          ("Z4", "Z6", "GF(2) x GF(2)", "GF(2) x GF(2) x GF(3)", "M(2,GF(2)) x GF(2)")),
    Claim("weights", "lem_3_1", "rank counting identities", _counting_identities),
    Claim("weights", "ex_2_3", "local ring weights", _local_weights, (_LOCAL,)),
    Claim("partitions", "rem_3_7", "weight partition invariant: {}",
          lambda ring: partitions.is_invariant(partitions.hom_partition(ring)),
          ("Z4", "Z12", "M(2,GF(2))", "ex5_5", "M(2,GF(2)) x GF(2)")),
    Claim("partitions", "cor_3_5", "rank partition equals weight partition: {}",
          lambda ring: partitions.equals(partitions.rank_partition(ring),
                                         partitions.hom_partition(ring)),
          _MATRICES),
    Claim("partitions", "ex_5_5", "16-element example partition invariant",
          lambda ring: partitions.is_invariant(partitions.ex5_5_partition(ring)),
          ("ex5_5",)),
    Claim("partitions", "eq_4_4", "block merge structure, q={1}",
          _matrix_times_field, (_MAT_FIELD[2], _MAT_FIELD[3])),
    Claim("partitions", "ex_4_5", "symmetrized partition dichotomy, q={1}",
          _symmetrized_square, (_SQUARE[2], _SQUARE[3])),
    Claim("duality", "thm_5_9", "weight partition self-dual: {}",
          lambda ring: duality.is_self_dual(partitions.hom_partition(ring)),
          _MATRICES),
    Claim("duality", "cor_5_4", "character independence of tables: {}",
          lambda ring: duality.character_independence_check(
              partitions.hom_partition(ring)),
          ("Z4", "Z6", "GF(4)", "M(2,GF(2))")),
    Claim("duality", "thm_5_8", "symmetric canonical character: {}",
          lambda ring: is_symmetric(canonical_generating_character(ring)),
          ("GF(4)", "M(2,GF(2))", "M(2,GF(3))", "M(2,GF(2)) x GF(2)")),
    Claim("duality", "delsarte_a10", "closed-form rank coefficients, m={1} q={2}",
          _delsarte_coefficients,
          tuple((f"M({m},GF({q}))", m, q)
                for m, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)))),
    Claim("duality", "prop_5_6", "block-count reflexivity criterion: {} (hom)",
          _block_count_criterion,
          ("Z4", "Z6", "M(2,GF(2))", "M(2,GF(2)) x GF(2)", _SQUARE[2][0])),
    Claim("duality", "prop_5_6", "block-count reflexivity criterion: {} (hamming)",
          lambda ring: _block_count_criterion(ring, "hamming"), ("GF(2) x GF(3)",)),
    Claim("duality", "ex_5_5", "one-sided duals differ on the 16-element example",
          _one_sided_duals, ("ex5_5",)),
    Claim("duality", "thm_5_13", "weight-partition tables agree on both sides",
          lambda ring: duality.left_right_agreement(partitions.hom_partition(ring)),
          ("ex5_5",)),
    Claim("paper-examples", "ex_2_3", "reproduce ex2_3_local", _local_weights, (_LOCAL,)),
    Claim("paper-examples", "ex_4_5", "reproduce ex4_5_q2", _symmetrized_square,
          (_SQUARE[2],)),
    Claim("paper-examples", "ex_4_5", "reproduce ex4_5_q3", _symmetrized_square,
          (_SQUARE[3],)),
    Claim("paper-examples", "ex_4_6", "reproduce ex4_6_q2", _matrix_times_field,
          (_MAT_FIELD[2],)),
    Claim("paper-examples", "ex_4_6", "reproduce ex4_6_q3", _matrix_times_field,
          (_MAT_FIELD[3],)),
    Claim("paper-examples", "ex_5_5", "reproduce ex5_5", _one_sided_duals, ("ex5_5",)),
    Claim("paper-examples", "ex_5_10", "reproduce ex5_10a", _square_duality,
          (_SQUARE[3],)),
    Claim("paper-examples", "ex_5_10", "reproduce ex5_10b", _square_duality,
          (_SQUARE[2],)),
    Claim("paper-examples", "ex_5_11", "reproduce ex5_11a", _product_duality,
          (_MAT_FIELD[3],)),
    Claim("paper-examples", "ex_5_11", "reproduce ex5_11b", _product_duality,
          (_MAT_FIELD[2],)),
)


# -- argument parsing --------------------------------------------------------


def _add_common(parser) -> None:
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

    p = sub.add_parser("weights", help="homogeneous weight of every element")
    _add_common(p)

    p = sub.add_parser("partition", help="build a named partition")
    p.add_argument("kind", choices=PARTITION_KINDS)
    _add_common(p)

    p = sub.add_parser("dual", help="dual partition(s) of a partition")
    p.add_argument("--partition", default="hom", choices=PARTITION_KINDS)
    p.add_argument("--side", default="left", choices=["left", "right", "both"])
    _add_common(p)

    p = sub.add_parser("krawtchouk", help="exact character-sum coefficient tables")
    p.add_argument("--partition", default="hom", choices=PARTITION_KINDS)
    p.add_argument("--side", default="left", choices=["left", "right", "both"])
    _add_common(p)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("suite", choices=[*dict.fromkeys(c.suite for c in CLAIMS), "all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("reproduce", help="recompute a named worked example")
    p.add_argument("id", choices=sorted(_examples()))
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()[f"cmd_{args.subcommand}"]  # looked up per call, not per tree
    try:
        return handler(args)
    except (RingSyntaxError, InvalidParameter, InvalidRing, CharacterSearchFailed,
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
