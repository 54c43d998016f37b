"""Command-line surface: the expression parser, subcommands, exit codes."""

import argparse
import collections
import contextlib
import enum
import io
import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring import cli, cyclotomic, duality
from frobring.characters import canonical_generating_character, translate
from frobring.rings import cayley_tables
from frobring.cli import (
    BuiltinExpr,
    GFExpr,
    MatExpr,
    ProductExpr,
    RingSyntaxError,
    TableFileExpr,
    ZModExpr,
    build_ring,
    main,
    parse_ring,
)
from oracles import (emit_text_oracle, expand_orbit_payload, json_text_oracle,
                     krawtchouk_json_by_element)


# -- expression parsing ---------------------------------------------------------


def test_parse_forms():
    assert parse_ring("Z12") == ZModExpr(12)
    assert parse_ring("GF(9)") == GFExpr(9)
    assert parse_ring("M(2,GF(3))") == MatExpr(2, GFExpr(3))
    assert parse_ring("ex5_5") == BuiltinExpr("ex5_5")
    assert parse_ring("table:/tmp/ring.json") == TableFileExpr("/tmp/ring.json")
    assert parse_ring("Z4 x GF(2)") == ProductExpr((ZModExpr(4), GFExpr(2)))
    assert parse_ring("Z2 x Z3 x Z5") == ProductExpr(
        (ZModExpr(2), ZModExpr(3), ZModExpr(5))
    )


def test_parse_tolerates_spacing():
    assert parse_ring("  M( 2 , GF( 4 ) )  x  Z8 ") == ProductExpr(
        (MatExpr(2, GFExpr(4)), ZModExpr(8))
    )


def test_parse_unparse_round_trip():
    for text in [
        "Z12",
        "GF(8)",
        "M(2,GF(2))",
        "M(2,GF(3)) x M(2,GF(3))",
        "Z4 x GF(3) x Z2",
        "ex5_5",
        "table:rings/my_ring.json",
    ]:
        expr = parse_ring(text)
        assert parse_ring(expr.unparse()) == expr


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "GF(7",
        "GF()",
        "M(2)",
        "M(2,Z4)",
        "Z4 )",
        "Z4 junk",
        "x Z4",
        "table:",
        "4Z",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(RingSyntaxError):
        parse_ring(bad)


def test_bare_z_is_an_unknown_builtin_name():
    """Z without digits reads as an identifier, failing at build time."""
    from frobring.errors import InvalidParameter

    assert parse_ring("Z") == BuiltinExpr("Z")
    with pytest.raises(InvalidParameter):
        build_ring(parse_ring("Z"))


def test_parse_error_carries_position():
    with pytest.raises(RingSyntaxError) as err:
        parse_ring("GF(2) y")
    assert err.value.position == 6
    assert "position 6" in str(err.value)


def test_trailing_x_is_not_a_product():
    """A lone trailing x cannot start a factor, so it is trailing input."""
    with pytest.raises(RingSyntaxError):
        parse_ring("Z4 x")


def test_builtin_name_maximal_munch():
    assert parse_ring("ex5_5x") == BuiltinExpr("ex5_5x")


@given(st.integers(min_value=1, max_value=9999))
@settings(max_examples=50, deadline=None)
def test_parse_zmod_accepts_any_modulus_literal(n):
    assert parse_ring(f"Z{n}") == ZModExpr(n)


# -- ring construction from expressions ------------------------------------------


def test_build_ring_shares_equal_subexpressions():
    ring = build_ring(parse_ring("M(2,GF(3)) x M(2,GF(3))"))
    assert ring.factors[0] is ring.factors[1]


def test_build_ring_passes_size_guard():
    from frobring.errors import ResourceLimit

    with pytest.raises(ResourceLimit):
        build_ring(parse_ring("Z20000"))
    assert build_ring(parse_ring("Z20000"), max_size=20000).size == 20000


def test_build_ring_table_file(tmp_path):
    n = 3
    spec = {
        "size": n,
        "add": [[(a + b) % n for b in range(n)] for a in range(n)],
        "mul": [[(a * b) % n for b in range(n)] for a in range(n)],
        "one": 1,
        "name": "tiny",
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    ring = build_ring(parse_ring(f"table:{path}"))
    assert ring.size == 3
    assert ring.is_frobenius


# -- subcommand behavior -----------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_recorded(capsys, *argv):
    """Run the CLI and return its one payload handed to ``_emit`` as well."""
    payloads = []
    emit = cli._emit

    def recording(args, payload):
        payloads.append(payload)
        emit(args, payload)

    with mock.patch.object(cli, "_emit", recording):
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert len(payloads) == 1
    return code, out, err, payloads[0]


def run_json(capsys, *argv):
    """Run with ``--json``; the text must be the oracle's for the payload, byte for byte."""
    code, out, err, payload = run_recorded(capsys, *argv, "--json")
    assert out == json_text_oracle(payload) + "\n"
    return code, json.loads(out), err


def run_text(capsys, *argv):
    """Run in text mode; the text must be the oracle's for the payload, byte for byte."""
    code, out, err, payload = run_recorded(capsys, *argv)
    assert out == text_of_oracle(payload)
    return code, out, err


def text_of_oracle(payload) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        emit_text_oracle(payload)
    return buffer.getvalue()


def test_info_command(capsys):
    code, payload, _ = run_json(capsys, "info", "--ring", "Z12")
    assert code == 0
    assert payload["ring"] == "Z12"
    assert payload["size"] == 12
    assert payload["is_frobenius"] is True
    assert payload["generating_characters"] == 4
    assert payload["structure"] == [[2, 1], [3, 1]]


def test_info_on_the_zero_ring_names_the_empty_product(capsys):
    """Z1 is the empty product: its structure is [], not unknown."""
    code, payload, _ = run_json(capsys, "info", "--ring", "Z1")
    assert code == 0
    assert payload["structure"] == []
    code, out, _ = run_cli(capsys, "info", "--ring", "Z1", "--no-timestamp")
    assert code == 0
    assert "structure: []" in out.splitlines()


def test_info_non_frobenius_table(tmp_path, capsys):
    from frobring.cli import _non_frobenius_ring

    ring = _non_frobenius_ring()
    add, mul = cayley_tables(ring)
    path = tmp_path / "nf.json"
    path.write_text(
        json.dumps(
            {
                "size": ring.size,
                "add": add.tolist(),
                "mul": mul.tolist(),
                "one": ring.one,
            }
        )
    )
    code, payload, _ = run_json(capsys, "info", "--ring", f"table:{path}")
    assert code == 0
    assert payload["is_frobenius"] is False
    assert payload["generating_characters"] == 0


def test_weights_command(capsys):
    code, payload, _ = run_json(capsys, "weights", "--ring", "Z4")
    assert code == 0
    assert payload["multiset"] == {"0": 1, "1": 2, "2": 1}
    by_index = {row["index"]: row["weight"] for row in payload["weights"]}
    assert by_index == {0: "0", 1: "1", 2: "2", 3: "1"}


def test_weights_respects_char_index(capsys):
    base = run_json(capsys, "weights", "--ring", "Z12")
    alt = run_json(
        capsys, "weights", "--ring", "Z12", "--char", "index:3"
    )
    assert base[0] == alt[0] == 0
    assert base[1]["weights"] == alt[1]["weights"]


def test_weights_rejects_bad_char(capsys):
    code, _, err = run_cli(capsys, "weights", "--ring", "Z4", "--char", "index:9")
    assert code == 2
    assert "out of range" in err
    code, _, err = run_cli(capsys, "weights", "--ring", "Z4", "--char", "random")
    assert code == 2


def test_the_cached_parser_keeps_nothing_between_calls(capsys):
    """main() builds its argument tree once; no parsed option leaks into the next call."""
    assert cli._parser() is cli._parser()
    argv = ["krawtchouk", "--ring", "ex5_5", "--side", "both", "--no-timestamp"]
    code, translated, _ = run_cli(capsys, *argv, "--json", "--char", "index:3")
    assert code == 0 and json.loads(translated)
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and plain != translated
    args = cli._parser().parse_args(argv)
    assert not args.json and args.char == "canonical" and args.max_size is None
    cli._parser.cache_clear()  # a fresh tree, as a new process has
    code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0 and plain == fresh


def test_char_index_is_the_left_translate_by_the_kth_unit():
    """On ex5_5 no generating character is symmetric, so the sides differ."""
    ring = build_ring(parse_ring("ex5_5"))
    base = canonical_generating_character(ring)
    chars = [cli._char_from_args(ring, argparse.Namespace(char=f"index:{k}"))
             for k in range(len(ring.units))]
    assert chars == [translate(base, u, "left") for u in ring.units]
    assert chars != [translate(base, u, "right") for u in ring.units]


def test_char_index_reports_a_translate_that_is_not_generating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_generating", lambda char: False)
    code, _, err = run_cli(capsys, "weights", "--ring", "Z9 x Z25", "--char", "index:3")
    assert code == 1
    assert err == ("check failed: Z9 x Z25: the left translate of the character of "
                   "order 225 by the unit 29 is not generating\n")


@pytest.mark.parametrize("command", ["dual", "krawtchouk"])
@pytest.mark.parametrize("expr, kind", [("ex5_5", "ex5_5"), ("Z9 x Z25", "hom")])
def test_every_char_index_gives_the_canonical_output(capsys, expr, kind, command):
    """The partitions are unit-invariant, so by Cor. 5.4 the character does not matter."""
    argv = (command, "--ring", expr, "--partition", kind, "--side", "both", "--json",
            "--no-timestamp")
    code, canonical, _ = run_cli(capsys, *argv)
    assert code == 0
    for k in range(len(build_ring(parse_ring(expr)).units)):
        assert run_cli(capsys, *argv, "--char", f"index:{k}") == (0, canonical, ""), k


def test_partition_command(capsys):
    code, payload, _ = run_json(capsys, "partition", "rank", "--ring", "M(2,GF(2))")
    assert code == 0
    assert payload["num_blocks"] == 3
    assert payload["block_sizes"] == [1, 9, 6]
    assert payload["invariant"] is True
    assert payload["labels"] == [0, 1, 2]


def test_partition_kind_ring_mismatch(capsys):
    code, _, err = run_cli(capsys, "partition", "rank", "--ring", "Z4")
    assert code == 2
    code, _, err = run_cli(capsys, "partition", "sym2", "--ring", "Z4 x GF(2)")
    assert code == 2
    code, _, err = run_cli(capsys, "partition", "ex5_5", "--ring", "Z4")
    assert code == 2


def _table_file(path, ring, name):
    add, mul = cayley_tables(ring)
    path.write_text(json.dumps({"size": ring.size, "add": add.tolist(),
                                "mul": mul.tolist(), "one": ring.one, "name": name}))
    return f"table:{path}"


@pytest.mark.parametrize("expr", ["Z16", "GF(2) x GF(2) x GF(2) x GF(2)"])
def test_ex5_5_partition_refuses_a_look_alike_named_ex5_5(tmp_path, capsys, expr):
    """Another 16-element ring's tables under the name "ex5_5" are refused up front."""
    ring_arg = _table_file(tmp_path / "lookalike.json", build_ring(parse_ring(expr)), "ex5_5")
    for argv in (("partition", "ex5_5"), ("dual", "--partition", "ex5_5")):
        code, out, err = run_cli(capsys, *argv, "--ring", ring_arg)
        assert code == 2
        assert out == ""
        assert err == "error: this partition is defined on the ex5_5 builtin ring\n"


def test_ex5_5_partition_accepts_the_builtin_tables_under_any_name(tmp_path, capsys):
    ring_arg = _table_file(tmp_path / "copy.json", build_ring(parse_ring("ex5_5")), "copy")
    code, payload, _ = run_json(capsys, "partition", "ex5_5", "--ring", ring_arg)
    assert code == 0
    _, builtin, _ = run_json(capsys, "partition", "ex5_5", "--ring", "ex5_5")
    assert payload["blocks"] == builtin["blocks"]


def test_dual_command_both_sides(capsys):
    code, payload, _ = run_json(
        capsys,
        "dual",
        "--ring",
        "ex5_5",
        "--partition",
        "ex5_5",
        "--side",
        "both",
    )
    assert code == 0
    assert payload["primal_num_blocks"] == 4
    assert payload["left"]["num_blocks"] == 6
    assert payload["right"]["num_blocks"] == 6
    assert payload["left_equals_right"] is False
    assert payload["self_dual"] is False
    assert sorted(payload["left"]["block_sizes"]) == [1, 1, 1, 1, 4, 8]
    assert sorted(payload["right"]["block_sizes"]) == [1, 1, 1, 1, 4, 8]
    assert payload["left"]["blocks"] != payload["right"]["blocks"]


def test_dual_command_self_dual_case(capsys):
    code, payload, _ = run_json(capsys, "dual", "--ring", "Z4")
    assert code == 0
    assert payload["self_dual"] is True
    assert payload["reflexive"] is True


def test_krawtchouk_command(capsys):
    code, payload, _ = run_json(
        capsys, "krawtchouk", "--ring", "Z4", "--side", "both"
    )
    assert code == 0
    assert payload["left_equals_right"] is True
    entries, orbit_of = payload["left"]["entries"], payload["left"]["orbit_of"]
    assert entries[1][orbit_of[0]] == 2  # block {1,3} at 0
    assert entries[1][orbit_of[1]] == 0  # chi(1) + chi(3) = 0
    assert payload["left"]["order"] == 4


def test_krawtchouk_matrix_vs_hom_partition(capsys):
    code, payload, _ = run_json(
        capsys,
        "krawtchouk",
        "--ring",
        "M(2,GF(2))",
        "--partition",
        "rank",
        "--side",
        "both",
    )
    assert code == 0
    assert payload["left_equals_right"] is True


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "info", "--ring", "Z4", "--no-timestamp")
    assert code == 0
    assert "ring: Z4" in out
    assert "is_frobenius: True" in out
    assert "{" not in out.splitlines()[0]


def test_json_is_deterministic(capsys):
    first = run_json(capsys, "weights", "--ring", "M(2,GF(2))")
    second = run_json(capsys, "weights", "--ring", "M(2,GF(2))")
    assert first == second


def test_timestamp_appears_by_default(capsys):
    code, out, _ = run_cli(capsys, "info", "--ring", "Z4", "--json")
    assert code == 0
    assert "timestamp" in json.loads(out)


# -- the --json text -------------------------------------------------------------------
#
# ``run_json`` compares every output with ``json.dumps(indent=2, sort_keys=True)``
# byte for byte, so the ``verify`` and ``reproduce`` tests below cover those
# subcommands; the matrix here covers the others.

CHAIN_RINGS = ["Z8 x Z9 x GF(5)", "Z9 x Z25", "Z27 x GF(7)", "GF(3) x GF(9) x Z25", "Z125"]
SUBCOMMANDS = [("info",), ("weights",), ("partition", "hom"), ("dual", "--side", "both"),
               ("krawtchouk", "--side", "both")]


def run_json_expanding_tables(capsys, *argv):
    """``run_json``, and each Krawtchouk table the call writes expands to
    the per-element oracle's payload, byte for byte."""
    written = []
    to_json = duality.KrawtchoukTable.to_json

    def recording(table):
        written.append((table, to_json(table)))
        return written[-1][1]

    with mock.patch.object(duality.KrawtchoukTable, "to_json", recording):
        code, payload, _ = run_json(capsys, *argv)
    assert len(written) == (2 if argv[0] == "krawtchouk" else 0)
    for table, data in written:
        assert payload[table.side] == data
        expanded = expand_orbit_payload(data, cyclotomic.totient(table.char.order))
        same = json_text_oracle(expanded) == json_text_oracle(krawtchouk_json_by_element(table))
        assert same, f"{table.side} table: the expansion is not the per-element payload"
    return code


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("expr", ["Z4", "ex5_5", "M(2,GF(2))", *CHAIN_RINGS])
def test_json_text_is_the_oracle_text(capsys, expr, command):
    assert run_json_expanding_tables(capsys, *command, "--ring", expr) == 0


@pytest.mark.parametrize("argv", [
    ("partition", "rank", "--ring", "M(2,GF(2))"),
    ("krawtchouk", "--ring", "ex5_5", "--partition", "ex5_5", "--side", "both"),
    ("dual", "--ring", "ex5_5", "--partition", "ex5_5", "--side", "right"),
    ("krawtchouk", "--ring", "Z9 x Z25", "--char", "index:7", "--side", "both"),
])
def test_json_text_is_the_oracle_text_on_other_options(capsys, argv):
    assert run_json_expanding_tables(capsys, *argv) == 0


@pytest.mark.parametrize("argv, limit", [
    (("--ring", "Z8 x Z9 x GF(5)", "--side", "both", "--json"), 50_000),
    (("--ring", "Z2310", "--side", "both", "--json"), 200_000),
    (("--ring", "Z2310", "--side", "left"), 200_000),
], ids=["Z8 x Z9 x GF(5) json", "Z2310 json", "Z2310 text"])
def test_krawtchouk_output_is_small(capsys, argv, limit):
    """One int per (block, orbit) plus the orbit of each element, where
    every element used to carry phi(N) coordinates per block (8.2 MB,
    925 MB and 107 MB)."""
    code, out, _ = run_cli(capsys, "krawtchouk", *argv, "--no-timestamp")
    assert code == 0
    assert len(out.encode()) < limit


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("expr", ["Z4", "ex5_5", "M(2,GF(2))", *CHAIN_RINGS])
def test_text_is_the_oracle_text(capsys, expr, command):
    assert run_text(capsys, *command, "--ring", expr)[0] == 0


@pytest.mark.parametrize("argv", [
    ("partition", "rank", "--ring", "M(2,GF(2))"),
    ("krawtchouk", "--ring", "ex5_5", "--partition", "ex5_5", "--side", "both"),
    ("krawtchouk", "--ring", "Z9 x Z25", "--char", "index:7", "--side", "both"),
])
def test_text_is_the_oracle_text_on_other_options(capsys, argv):
    assert run_text(capsys, *argv)[0] == 0


def emit_json(capsys, payload) -> str:
    cli._emit(argparse.Namespace(json=True, no_timestamp=True), payload)
    return capsys.readouterr().out


class Small(enum.IntEnum):
    ONE = 1


_SHARED = [3, 1, 2]
_ROW = [1, 2]

SYNTHETIC = {
    "tuples": {"t": (1, (2, 3), ()), "pairs": [(1, "a"), (2, "b")]},
    "bools in int lists": {"b": [1, True, False, 2], "only": [True, False], "n": [None, 0]},
    "empty containers": {"l": [], "d": {}, "nested": [[], {}, [[]], {"e": []}], "": ""},
    "non-str keys": {10: "ten", 9: "nine", 2.5: "x", -1: [1]},
    "bool keys": {True: 1, False: 0, 3: 2},
    "null key": {None: [None]},
    "non-ascii": {"naïve": "café — ✓", "emoji": ["😀", "\u0000\n\t\"\\"], "ü": {"ß": 1}},
    "floats": {"f": [1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")], "g": 0.1},
    "ints": {"i": [0, -7, 2 ** 70, -(2 ** 70)], "enum": [Small.ONE, 2], "e": Small.ONE},
    "shared list at two depths": {"a": _SHARED, "b": [_SHARED, [_SHARED]], "c": {"d": _SHARED}},
    "top-level list": [[_SHARED], _SHARED, "s", 1],
    "scalar": 5,
    "same-key rows of str and int": [{"element": "(0,1)", "index": 0, "weight": "1/2"},
                                     {"element": "é\n\"", "index": -2 ** 70, "weight": "0"}],
    "same-key rows of other values": {
        "bool": [{"b": True}, {"b": False}],
        "enum": [{"e": Small.ONE, "i": 2}, {"e": 2, "i": Small.ONE}],
        "float": [{"f": 0.1}, {"f": float("nan")}, {"f": -0.0}],
        "none": [{"n": None, "s": "x"}, {"n": None, "s": 1}],
        "nested": [{"l": [1, 2], "d": {"x": [3]}, "t": ()},
                   {"l": _SHARED, "d": {}, "t": (_ROW, [{}])}],
        "int keys": [{2: "b", 1: "a"}, {1: "c", 2: "d"}],
        "keys with braces": [{"{}": 1, "}{": "{0}"}, {"{}": 2, "}{": "}"}],
    },
    "empty dicts in lists": {"one": [{}], "two": [{}, {}], "then keys": [{}, {"a": 1}],
                             "after keys": [{"a": 1}, {}]},
    "key set changes partway": {
        "other key": [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
        "more keys": [{"a": 1}, {"a": 2, "b": 3}],
        "fewer keys": [{"a": 1, "b": 2}, {"b": 3}],
        "not a dict": [{"a": 1}, 5, [1], {"a": 2}],
        "a subclass": [{"a": 1}, collections.OrderedDict(b=2, a=1)],
    },
    "equal int lists, distinct objects": {"rows": [[1, 2], [1, 2], _ROW, list(_ROW), (1, 2)],
                                          "blocks": [[[1, 2], _ROW], [_ROW, [1, 2]]]},
    "one int list at two depths": {"entries": [[_ROW, _ROW, [2, 1]], [[1, 2], _ROW]],
                                   "deeper": [[[_ROW]], _ROW], "row": _ROW},
    "lists of int lists that are not": {"bools": [[1, 2], [True]], "empty": [[1], []],
                                        "mixed": [[1], [1, "a"]], "late": [[1], 2]},
}


@pytest.mark.parametrize("payload", SYNTHETIC.values(), ids=SYNTHETIC.keys())
def test_emit_matches_json_on_edge_cases(capsys, payload):
    assert emit_json(capsys, payload) == json_text_oracle(payload) + "\n"


@pytest.mark.parametrize("payload", [p for p in SYNTHETIC.values() if isinstance(p, dict)],
                         ids=[k for k, p in SYNTHETIC.items() if isinstance(p, dict)])
def test_text_matches_str_on_edge_cases(capsys, payload):
    """Same text, and where the oracle fails (a list of dicts holding a non-dict),
    the same error after the same text."""
    args = argparse.Namespace(json=False, no_timestamp=True)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            emit_text_oracle(payload)
    except AttributeError:
        with pytest.raises(AttributeError):
            cli._emit(args, payload)
    else:
        cli._emit(args, payload)
    assert capsys.readouterr().out == buffer.getvalue()


@pytest.mark.parametrize("payload", [
    {"x": object()}, {(1, 2): 0}, {"n": [1, np.int64(2)]}, {"n": np.int64(2)},
    {1: 0, "a": 1}, {None: 0, 1: 1},
    [{(1, 2): 0}, {(1, 2): 0}], [{1: 0, "a": 1}, {1: 0, "a": 1}],
    [{"a": 1, "b": 2}, {"a": 1, 2: 0}], [{"a": 1}, {"a": object()}],
    [{"a": np.int64(1)}, {"a": 2}], [[1, 2], [1, np.int64(2)]],
])
def test_emit_raises_where_json_raises(capsys, payload):
    with pytest.raises(TypeError):
        json_text_oracle(payload)
    with pytest.raises(TypeError):
        emit_json(capsys, payload)


_json_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())


def _json_containers(children):
    """Lists, tuples and dicts, plus the shapes the renderer takes apart:
    lists of dicts sharing one key set, and lists that repeat one int list."""
    same_key_rows = st.lists(st.text(max_size=2), min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            dict.fromkeys(keys, st.text(max_size=3) | st.integers() | children)),
            min_size=1, max_size=4))
    repeated_rows = st.lists(st.integers(), min_size=1, max_size=3).flatmap(
        lambda row: st.lists(st.sampled_from([row, list(row), []]), min_size=1, max_size=5))
    return (st.lists(children) | st.tuples(children, children)
            | st.dictionaries(st.text(), children)
            | st.dictionaries(st.integers() | st.floats(allow_nan=False), children)
            | same_key_rows | repeated_rows)


_json_values = st.recursive(_json_leaves, _json_containers, max_leaves=20)


@given(_json_values)
@settings(max_examples=80, deadline=None)
def test_emit_matches_json_on_random_payloads(payload):
    assert cli._json_text(payload) == json_text_oracle(payload)


# -- verify and reproduce -----------------------------------------------------------


def test_verify_axioms_suite(capsys):
    code, payload, _ = run_json(capsys, "verify", "axioms")
    assert code == 0
    assert payload["all_pass"] is True
    assert all(check["pass"] for check in payload["checks"])
    assert all("anchor" in check and "seconds" in check for check in payload["checks"])


FROZEN = json.loads((Path(__file__).parent / "cli_frozen.json").read_text())


def _rows(payload):
    return [[c["check"], c["anchor"], c["pass"]] for c in payload["checks"]]


@pytest.fixture
def built_rings(monkeypatch):
    """Record (expression text, ring) for every ring the CLI builds."""
    built = []

    def recording(expr, max_size=None):
        ring = build_ring(expr, max_size)
        built.append((expr.unparse(), ring))
        return ring

    monkeypatch.setattr(cli, "build_ring", recording)
    return built


def test_verify_all_rows_are_frozen(capsys, built_rings):
    """Every claim, in order, with its anchor and verdict, as first recorded.

    The run builds each ring expression the claim table names once.
    """
    code, payload, _ = run_json(capsys, "verify", "all")
    assert code == FROZEN["verify_all_exit"] == 0
    assert _rows(payload) == FROZEN["verify_all_rows"]
    assert len(payload["checks"]) == 86
    assert payload["all_pass"] is True
    texts = [text for text, _ in built_rings]
    named = {arg for claim in cli.CLAIMS for case in cli._cases(claim)
             for arg in case if isinstance(arg, str)}
    assert sorted(texts) == sorted(named)
    assert "M(2,GF(3)) x M(2,GF(3))" in texts


@pytest.mark.parametrize("suite", sorted(FROZEN["suite_slices"]))
def test_verify_suite_is_its_slice_of_all(capsys, suite):
    start, stop = FROZEN["suite_slices"][suite]
    code, payload, _ = run_json(capsys, "verify", suite)
    assert code == 0
    assert _rows(payload) == FROZEN["verify_all_rows"][start:stop]


@pytest.mark.parametrize("example_id", sorted(FROZEN["reproduce"]))
def test_reproduce_payload_is_frozen(capsys, example_id):
    frozen = FROZEN["reproduce"][example_id]
    code, payload, _ = run_json(capsys, "reproduce", example_id)
    assert code == frozen["exit"] == 0
    assert payload == frozen["payload"]


def test_separate_main_calls_share_no_ring(capsys, built_rings):
    assert run_json(capsys, "verify", "axioms")[0] == 0
    calls = len(built_rings)
    assert run_json(capsys, "verify", "axioms")[0] == 0
    first = {id(ring) for _, ring in built_rings[:calls]}  # the list keeps
    second = {id(ring) for _, ring in built_rings[calls:]}  # every ring alive
    assert len(first) == len(second) == calls == 15
    assert first.isdisjoint(second)


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    broken = (cli.Claim("axioms", "anchor_x", "always-fails", lambda: False),)
    monkeypatch.setattr(cli, "CLAIMS", broken)
    code, payload, _ = run_json(capsys, "verify", "axioms")
    assert code == 1
    assert payload["all_pass"] is False
    assert payload["checks"][0]["pass"] is False


def test_verify_captures_check_exceptions(capsys, monkeypatch):
    from frobring.errors import InternalInconsistency

    def boom():
        raise InternalInconsistency("synthetic defect")

    monkeypatch.setattr(cli, "CLAIMS", (cli.Claim("axioms", "anchor_y", "raises", boom),))
    code, payload, _ = run_json(capsys, "verify", "axioms")
    assert code == 1
    assert payload["checks"][0]["pass"] is False
    assert "synthetic defect" in payload["checks"][0]["detail"]


def test_reproduce_known_id(capsys):
    code, payload, _ = run_json(capsys, "reproduce", "ex5_5")
    assert code == 0
    assert payload["match"] is True


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    forced = cli.Claim("paper-examples", "ex_5_5", "reproduce ex5_5",
                       lambda ring: ({"note": ring.expr}, False), ("ex5_5",))
    monkeypatch.setattr(cli, "CLAIMS", (forced,))
    code, payload, _ = run_json(capsys, "reproduce", "ex5_5")
    assert code == 1
    assert payload["match"] is False
    assert payload["note"] == "ex5_5"


def test_unknown_choices_exit_2(capsys):
    for argv in [
        ["verify", "nonsense"],
        ["reproduce", "nonsense"],
        ["partition", "nonsense", "--ring", "Z4"],
        ["nonsense"],
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


# -- exit codes from errors ----------------------------------------------------------


def test_exit_2_on_syntax_error(capsys):
    code, _, err = run_cli(capsys, "info", "--ring", "Z4 )")
    assert code == 2
    assert "error:" in err


def test_exit_2_on_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "info", "--ring", "mystery_ring")
    assert code == 2


def test_exit_2_on_missing_table_file(capsys):
    code, _, err = run_cli(capsys, "info", "--ring", "table:/no/such/file.json")
    assert code == 2


def test_exit_2_on_missing_ring_argument(capsys):
    code, _, err = run_cli(capsys, "weights")
    assert code == 2
    assert "--ring" in err


def test_exit_2_on_a_size_guard_below_one(tmp_path, capsys):
    """A guard below 1 is a bad parameter, for ring expressions and table files."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]],
                                "one": 1}))
    for ring, guard in (("Z4", "-5"), ("Z4", "0"), (f"table:{path}", "-5")):
        code, _, err = run_cli(capsys, "info", "--ring", ring, "--max-size", guard)
        assert code == 2
        assert f"size guard must be at least 1, got {guard}" in err


def test_exit_3_on_size_guard(capsys):
    code, _, err = run_cli(capsys, "info", "--ring", "Z20000")
    assert code == 3
    code, out, _ = run_cli(
        capsys, "info", "--ring", "Z20000", "--max-size", "20000",
        "--json", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["size"] == 20000


def test_exit_3_on_a_runaway_cyclotomic_division(capsys, monkeypatch):
    """Z2 x Z4620 with {0, 1} against the rest, which is not a union of
    unit orbits: order 4620 has radical 2310, so dividing its 9240
    columns would take about 3.2e10 coordinate updates; the table is
    refused before any counting."""
    from frobring.partitions import Partition

    def one_against_the_rest(ring, kind, char=None):
        return Partition(ring, [[0, ring.one],
                                [x for x in range(1, ring.size) if x != ring.one]])

    monkeypatch.setattr(cli, "select_partition", one_against_the_rest)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "krawtchouk", "--ring", "Z2 x Z4620")
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert "Z2 x Z4620" in err and "left table" in err and "order 4620" in err


def test_exit_3_on_table_file_above_byte_budget(capsys, tmp_path):
    """The budget follows the size guard and is checked before parsing."""
    from frobring.errors import ResourceLimit
    from frobring.rings import load_table_spec

    spec = {"size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "one": 1}
    small = tmp_path / "f2.json"
    small.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "info", "--ring", f"table:{small}", "--max-size", "2",
                           "--json", "--no-timestamp")
    assert code == 0 and json.loads(out)["size"] == 2
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps({**spec, "name": "F" * 70000}))
    with pytest.raises(ResourceLimit, match="size guard 2"):
        load_table_spec(str(padded), max_size=2)
    code, _, err = run_cli(capsys, "info", "--ring", f"table:{padded}", "--max-size", "2")
    assert code == 3 and "bytes" in err
    assert load_table_spec(str(padded))["name"] == "F" * 70000  # within the default guard


def test_exit_1_on_internal_inconsistency(capsys, monkeypatch):
    from frobring.errors import InternalInconsistency

    def broken_info(args):
        raise InternalInconsistency("synthetic")

    monkeypatch.setattr(cli, "cmd_info", broken_info)
    code, _, err = run_cli(capsys, "info", "--ring", "Z4")
    assert code == 1
    assert "check failed" in err


def test_weights_on_table_file_round_trip(tmp_path, capsys):
    """A table ring loaded from disk gets the same weights as its builder twin."""
    n = 6
    spec = {
        "size": n,
        "add": [[(a + b) % n for b in range(n)] for a in range(n)],
        "mul": [[(a * b) % n for b in range(n)] for a in range(n)],
        "one": 1,
    }
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(spec))
    code, payload, _ = run_json(capsys, "weights", "--ring", f"table:{path}")
    assert code == 0
    ref_code, ref_payload, _ = run_json(capsys, "weights", "--ring", "Z6")
    assert ref_code == 0
    assert payload["multiset"] == ref_payload["multiset"]
    got = [row["weight"] for row in payload["weights"]]
    ref = [row["weight"] for row in ref_payload["weights"]]
    assert got == ref
