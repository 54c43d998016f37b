"""Table-ring files: the integer-matrix reader against ``json.load``, and
the checks ``build_table_ring`` makes on the values read."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring.cli import main
from frobring.errors import InvalidParameter
from frobring.rings import (build_gf, build_matrix_ring, build_product, build_table_ring,
                            builtin_ring, load_table_spec)

from oracles import load_table_spec_by_json


def _outcome(route, path):
    try:
        return route(str(path))
    except Exception as exc:  # compared by type and message
        return exc


def _assert_same_outcome(path) -> dict:
    """Equal specs, arrays equal to the lists, or the same error."""
    got, ref = _outcome(load_table_spec, path), _outcome(load_table_spec_by_json, path)
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref), (got, ref)
        return {}
    assert isinstance(got, dict) and list(got) == list(ref), (got, ref)
    for key, value in ref.items():
        if isinstance(got[key], np.ndarray):
            assert got[key].dtype == np.int64 and got[key].ndim == 2
            assert got[key].tolist() == value and all(
                type(e) is int for row in value for e in row), (key, got[key], value)
        else:  # json.dumps tells 1 from true and 1.0
            assert json.dumps(got[key]) == json.dumps(value), (key, got[key], value)
    return got


# -- generated documents ----------------------------------------------------------

_INTS = st.integers(0, 600).map(str) | st.integers(0, 10 ** 18 - 1).map(str)
_ODD_TOKENS = st.sampled_from([
    "007", "00", "-3", "-0", "0.5", "1e3", "1E+2", "2.0", "+1", "0x1", "true", "false",
    "null", '"7"', '"]]"', "é", "٣", "", "999999999999999999",
    "1000000000000000000", "9223372036854775807", "9223372036854775808",
    "18446744073709551616", "123456789012345678901234", "NaN", "-Infinity", "[1]", "{}",
])
_JSON_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "\r", "\r\n", "\n    ", " \t\n "])
_ODD_SPACE = st.sampled_from(["\x0b", "\x0c", " ", " "])  # not JSON whitespace


@st.composite
def _array(draw):
    """Rows of entry texts: a matrix, ragged, with empty rows, 1-D or 3-D."""
    odd = draw(st.integers(0, 3)) == 0  # a quarter of the arrays mix in other tokens
    entry = st.one_of(_INTS, _INTS, _INTS, _ODD_TOKENS) if odd else _INTS
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    shape = draw(st.sampled_from(["matrix"] * 5 + ["ragged", "empty row", "empty",
                                                   "flat", "cube"]))
    if shape == "ragged":  # the last row one longer
        value[-1] = value[-1] + [draw(_INTS)]
    elif shape == "empty row":
        value[draw(st.integers(0, rows - 1))] = []
    elif shape == "empty":
        value = []
    elif shape == "flat":
        value = value[0]
    elif shape == "cube":
        value = [value, value] if draw(st.booleans()) else [[row] for row in value]
    return value


def _render(draw, value, layout, depth=0) -> str:
    """JSON text of nested lists of entry texts in one of four layouts."""
    if isinstance(value, str):
        return value
    if layout == "indent":
        if not value:
            return "[]"
        pad = "\n" + "  " * (depth + 1)
        items = [pad + _render(draw, v, layout, depth + 1) for v in value]
        return "[" + ",".join(items) + "\n" + "  " * depth + "]"
    if layout == "odd":
        space = st.one_of(_JSON_SPACE, _JSON_SPACE, _JSON_SPACE, _ODD_SPACE)
        items = [draw(space) + _render(draw, v, layout) + draw(space) for v in value]
        return "[" + ",".join(items) + ("" if value else draw(space)) + "]"
    sep = "," if layout == "compact" else ", "
    return "[" + sep.join(_render(draw, v, layout) for v in value) + "]"


@st.composite
def _documents(draw):
    layout = draw(st.sampled_from(["compact", "spaced", "indent", "odd"]))
    scalar = st.sampled_from(["4", "true", "false", "null", "1.5", "-2", '"ring é"',
                              '"a\\"b"', "{}", '{"k": [[1, 2]]}', "[]"])
    keys = ["size", "add", "mul", "one"] + draw(st.lists(
        st.sampled_from(["name", "char_exponents", "extra", "add", "size"]), max_size=3))
    if draw(st.integers(0, 9)) == 0:
        keys = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
    fields = []
    for key in keys:
        value = draw(_array()) if draw(st.integers(0, 3)) else None
        text = draw(scalar) if value is None else _render(draw, value, layout)
        fields.append(f'"{key}":{draw(_JSON_SPACE)}{text}')
    if layout == "indent":
        doc = "{\n  " + ",\n  ".join(fields) + "\n}"
    else:
        doc = "{" + ("," if layout == "compact" else ", ").join(fields) + "}"
    if draw(st.integers(0, 9)) == 0:  # not an object at the top
        doc = _render(draw, draw(_array()), layout)
    end = draw(st.sampled_from(["", "", "", "\n", " x", " [[1]]", "}", ",", "truncate"]))
    if end == "truncate":
        return doc[:draw(st.integers(0, len(doc)))]
    return doc + end


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "doc.json"


@given(doc=_documents())
@settings(max_examples=400, deadline=None)
def test_reader_matches_json_on_generated_documents(doc_path, doc):
    doc_path.write_text(doc, encoding="utf-8")
    _assert_same_outcome(doc_path)


_READ_AS_ARRAYS = ["[[1,2],[3,4]]", "[[0]]", "[[999999999999999999]]", "[[1 ]]",
                   "[ [ 1 , 2 ] ,\n [3,4] ] ", "[[1\t,\r2]]"]


@pytest.mark.parametrize("value", _READ_AS_ARRAYS + [
    "[[]]", "[]", "[[,1]]",
    "[[,01]]",  # an empty entry and a padded one: the digit counts balance
    "[[01,]]", "[[00]]", "[[1 2]]", "[[1],[2,3]]", "[[[1]]]", "[1,2]", "[[-0]]",
    "[[1.0]]", "[[true]]", "[[null]]", "[[1000000000000000000]]",
    "[[9999999999999999999]]", "[[18446744073709551616]]", "[[1]] [[2]]", "[[1]],,",
    "[[é]]", "[[1\x0b]]", "[[1\xa0]]", '[["x]]"]]', "[[1,]]", "[[1],]", '{"b": [[1]]}',
], ids=repr)
def test_reader_matches_json_on_edge_values(tmp_path, value):
    path = tmp_path / "doc.json"
    path.write_text('{"size": 1, "mul": [[0]], "one": 0, "add": %s}' % value,
                    encoding="utf-8")
    got = _assert_same_outcome(path)
    assert isinstance(got.get("add"), np.ndarray) == (value in _READ_AS_ARRAYS)


@pytest.mark.parametrize("doc", [
    "", "{", '{"add"', '{"add":', '{"add": [[1]],}', '{"add": [[1,2],[3',
    '{"add": [[1]]', '{"add": [[1]]} x', '{"add": [[1]]}}', "[[1]]", " [[1]] x",
    '\ufeff{"add": [[1]]}', '{"add": [[1]], "add": [[3]], "mul": [[0]], "size": 1, "one": 0}',
], ids=repr)
def test_reader_matches_json_on_edge_documents(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    _assert_same_outcome(path)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent=2"])
def test_reader_gives_int64_tables_for_a_512_element_file(tmp_path, indent):
    ring = build_product([builtin_ring("ex5_5"), build_matrix_ring(2, build_gf(2)),
                          build_gf(2)])
    perm = np.concatenate([[0], 1 + np.random.default_rng(3).permutation(511)])
    inv = np.argsort(perm)
    spec = {"size": 512, "add": inv[ring.add_table[np.ix_(perm, perm)]].tolist(),
            "mul": inv[ring.mul_table[np.ix_(perm, perm)]].tolist(),
            "one": int(inv[ring.one]), "name": "relabelled"}
    path = tmp_path / "table512.json"
    path.write_text(json.dumps(spec, indent=indent))
    got = load_table_spec(str(path))
    for key in ("add", "mul"):
        assert got[key].dtype == np.int64 and got[key].shape == (512, 512)
        assert np.array_equal(got[key], spec[key])
    assert {k: v for k, v in got.items() if k not in ("add", "mul")} == \
        {k: v for k, v in spec.items() if k not in ("add", "mul")}
    _assert_same_outcome(path)


# -- values a table file must not pass ----------------------------------------------

_F2 = {"size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "one": 1}


@pytest.mark.parametrize("change, message", [
    ({"size": True, "add": [[0]], "mul": [[0]], "one": 0},
     "size must be a positive integer, got True"),
    ({"char_exponents": [False, True]}, "char_exponents must list one integer per element"),
    ({"one": True}, "one must be an element index"),
    ({"name": [[1, 2]]}, "name must be a string"),
], ids=["size-true", "exponents-booleans", "one-true", "name-matrix"])
def test_table_values_of_the_wrong_type_are_refused(tmp_path, capsys, change, message):
    """A JSON boolean is not an integer, though Python's bool is an int."""
    spec = {**_F2, **change}
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        build_table_ring(spec)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    assert main(["info", "--ring", f"table:{path}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_integer_forms_of_those_values_pass(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({**_F2, "char_exponents": [0, 1], "name": "F2"}))
    ring = build_table_ring(load_table_spec(str(path)))
    assert (ring.size, ring.one, ring.expr) == (2, 1, "F2")
    assert ring.char_exponents.tolist() == [0, 1]
    assert main(["info", "--ring", f"table:{path}"]) == 0
    path.write_text(json.dumps({"size": 1, "add": [[0]], "mul": [[0]], "one": 0}))
    assert build_table_ring(load_table_spec(str(path))).size == 1  # no additive generator
