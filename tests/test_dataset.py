from __future__ import annotations

import dataclasses
import importlib.util
import io
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbalance.dataset as dataset_module
from chainbalance.dataset import (
    Attribute,
    MultiLabelDataset,
    LabelImbalanceStats,
    all_label_stats,
    load_mulan,
    load_mulan_files,
    reduce_features_by_frequency,
    summarize,
)
from chainbalance.errors import (
    AllLabelsDegenerate,
    MalformedArff,
    MissingLabelAttribute,
    NonBinaryLabel,
)
from arff_writer import to_arff_text, to_xml_text
from conftest import SMALL_ARFF, SMALL_XML, make_dataset, write_dataset_files

XML_L1 = '<labels xmlns="http://mulan.sourceforge.net/labels"><label name="L1"/></labels>'

DENSE_ARFF = """\
@relation tiny
@attribute a numeric
@attribute b numeric
@attribute L1 {0,1}
@data
1.5,2.0,1
0.0,3.0,0
"""


def test_dense_load():
    ds = load_mulan(DENSE_ARFF, XML_L1)
    assert (ds.n, ds.d, ds.q) == (2, 2, 1)
    assert ds.labels[:, 0].tolist() == [1, 0]
    assert ds.features.tolist() == [[1.5, 2.0], [0.0, 3.0]]


def test_sparse_row_defaults_to_zero():
    arff = DENSE_ARFF + "{0 2.5, 2 1}\n"
    ds = load_mulan(arff, XML_L1)
    assert ds.features[2].tolist() == [2.5, 0.0]
    assert ds.labels[2, 0] == 1


def test_empty_sparse_row():
    arff = DENSE_ARFF + "{}\n"
    ds = load_mulan(arff, XML_L1)
    assert ds.features[2].tolist() == [0.0, 0.0]
    assert ds.labels[2, 0] == 0


def test_xml_order_defines_label_columns():
    arff = """@relation r
@attribute a numeric
@attribute L1 {0,1}
@attribute L2 {0,1}
@data
1.0,1,0
2.0,0,1
"""
    xml = '<labels><label name="L2"/><label name="L1"/></labels>'
    ds = load_mulan(arff, xml)
    assert ds.label_names == ("L2", "L1")
    assert ds.labels.tolist() == [[0, 1], [1, 0]]


def test_missing_label_attribute():
    xml = '<labels><label name="L9"/></labels>'
    with pytest.raises(MissingLabelAttribute):
        load_mulan(DENSE_ARFF, xml)


def test_header_variants(small_ds):
    # Comments, case-insensitive keywords, nominal feature coding.
    assert small_ds.relation == "demo"
    assert (small_ds.n, small_ds.d, small_ds.q) == (4, 3, 2)
    color = small_ds.feature_kinds[2]
    assert color.categories == ("red", "green", "blue")
    assert small_ds.features[:, 2].tolist() == [0.0, 2.0, 1.0, 0.0]


def test_byte_order_mark_tolerated():
    ds = load_mulan("﻿" + DENSE_ARFF, "﻿" + XML_L1)
    assert (ds.n, ds.d, ds.q) == (2, 2, 1)


def reference_label_names(text: str) -> tuple[str, ...]:
    """Label names read with xml.etree.ElementTree: each element's local tag,
    a nameless label reported as soon as the tree walk meets it, the other
    checks after the walk."""
    try:
        root = ET.fromstring(text.lstrip("\ufeff"))
    except ET.ParseError as exc:
        raise MalformedArff(f"invalid label XML: {exc}") from exc
    names = []
    for elem in root.iter():
        if elem.tag.rsplit("}", 1)[-1] == "label":
            if elem.get("name") is None:
                raise MalformedArff("label element without a name attribute")
            names.append(elem.get("name"))
    if not names:
        raise MalformedArff("label XML declares no labels")
    if len(set(names)) != len(names):
        raise MalformedArff("duplicate label names in XML")
    return tuple(names)


def _label_outcome(read, source) -> tuple[str, ...] | str:
    """The names read from source, or the message of the MalformedArff."""
    try:
        return read(source)
    except MalformedArff as exc:
        return str(exc)


NAMELESS = "label element without a name attribute"

LABEL_XML_CASES = [
    # Nested and namespaced labels, in document order.
    (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<labels xmlns="http://mulan.sourceforge.net/labels" xmlns:m="urn:m">\n'
        '  <label name="A"><label name="B"/></label>\n'
        '  <group><m:label name="C"/></group><label name="D"/>\n'
        "</labels>\n",
        ("A", "B", "C", "D"),
    ),
    ('<labels><label name="é"/><x:label xmlns:x="urn:x" name="b"/></labels>', ("é", "b")),
    ("\ufeff" + '<labels><label name="A"/></labels>', ("A",)),
    ('<!DOCTYPE labels [<!ENTITY e "E">]><labels><label name="&e;&amp;"/></labels>', ("E&",)),
    ('<labels><label name="A"/><label/></labels>', NAMELESS),
    ('<labels xmlns:m="urn:m"><label m:name="A"/></labels>', NAMELESS),
    ('<labels><labels name="A"/></labels>', "label XML declares no labels"),
    ("<labels/>", "label XML declares no labels"),
    ('<labels><label name="A"/><g><label name="A"/></g></labels>', "duplicate label names in XML"),
    ('<labels><label name="A"></labels>', "invalid label XML: mismatched tag: line 1, column 26"),
    ("", "invalid label XML: no element found: line 1, column 0"),
    (
        '<labels><label name="A"/>\n<label name="B" name="C"/></labels>',
        "invalid label XML: duplicate attribute: line 2, column 16",
    ),
    (
        '<labels xmlns="urn:a"><m:label name="A"/></labels>',
        "invalid label XML: unbound prefix: line 1, column 22",
    ),
    ('<labels>&x;<label name="A"/></labels>', "invalid label XML: undefined entity: line 1, column 8"),
    (
        '<!DOCTYPE labels SYSTEM "labels.dtd"><labels>&x;<label name="A"/></labels>',
        "invalid label XML: undefined entity &x;: line 1, column 45",
    ),
    (
        '<!DOCTYPE labels [<!ENTITY e SYSTEM "e.xml">]><labels>&e;<label name="A"/></labels>',
        "invalid label XML: undefined entity &e;: line 1, column 54",
    ),
    ("<labels><![CDATA[&x;]]>&#38;&#x41;<label name='A'/></labels>", ("A",)),
    # A malformed document that also holds a nameless label: the XML error wins.
    ('<labels><label/><label name="A"></labels>', "invalid label XML: mismatched tag: line 1, column 34"),
    ("<labels><label/></labels><x/>", "invalid label XML: junk after document element: line 1, column 25"),
]


@pytest.mark.parametrize("text, expected", LABEL_XML_CASES)
@pytest.mark.parametrize("kind", ["str", "path", "stream"])
def test_label_names_and_errors(text, expected, kind, tmp_path):
    source = text
    if kind == "path":
        source = tmp_path / "labels.xml"
        source.write_bytes(text.encode("utf-8"))
    elif kind == "stream":
        source = io.StringIO(text)
    assert _label_outcome(dataset_module.parse_label_names, source) == expected
    assert _label_outcome(reference_label_names, text) == expected


LABEL_XML_PIECES = [
    '<label name="A"/>', '<label name="B"/>', "<label/>", '<m:label name="C"/>',
    '<label name="A">', "</label>", "<g>", "</g>", "&x;", "&amp;", "<", "text",
    "<!-- note -->", "<?pi x?>", "<![CDATA[&x;]]>", "&#38;",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(LABEL_XML_PIECES), max_size=8),
    st.sampled_from(["", '<!DOCTYPE labels SYSTEM "labels.dtd">', "\ufeff"]),
    st.booleans(),
)
def test_label_names_match_element_tree(pieces, prolog, closed):
    # Any mix of labels, errors and entity references gives the names or
    # the message that an ElementTree walk gives, with the same precedence.
    text = prolog + '<labels xmlns:m="urn:m">' + "".join(pieces) + "</labels>" * closed
    got = _label_outcome(dataset_module.parse_label_names, text)
    assert got == _label_outcome(reference_label_names, text)


def test_quoted_attribute_names():
    arff = """@relation q
@attribute 'my att' numeric
@attribute "L1" {0,1}
@data
3.25,1
"""
    ds = load_mulan(arff, XML_L1)
    assert ds.feature_kinds[0].name == "my att"
    assert ds.features[0, 0] == 3.25


QUOTED_ARFF = (
    "@relation 'quoted rel'\r\n"
    "@attribute a numeric\r\n"
    "@attribute colour {'dark red',\"x,y\",plain}\r\n"
    "@attribute b numeric\r\n"
    "@attribute L1 {0,1}\r\n"
    "@data\r\n"
    "% a comment inside @data\r\n"
    " '1.5' , 'dark red' , 2 , '1' \r\n"
    "\r\n"
    "\"-3\",\"x,y\",4.25,0\r\n"
    "{0 '7', 1 \"x,y\", 3 \"1\"}\r\n"
    "{ 1 'dark red' ,2 '0.5' }\r\n"
    "   \r\n"
    "0,plain,1,1\r\n"
)


def test_quoted_values_dense_and_sparse():
    ds = load_mulan(QUOTED_ARFF, XML_L1)
    assert ds.relation == "quoted rel"
    assert ds.feature_kinds[1].categories == ("dark red", "x,y", "plain")
    assert ds.features.tolist() == [
        [1.5, 0.0, 2.0],
        [-3.0, 1.0, 4.25],
        [7.0, 1.0, 0.0],
        [0.0, 0.0, 0.5],
        [0.0, 2.0, 1.0],
    ]
    assert ds.labels[:, 0].tolist() == [1, 0, 1, 0, 1]


@pytest.mark.parametrize("row", ["'1.5,2.0,1", "1.5,\"2.0,1", "{0 '1, 2 1}"])
def test_unterminated_quote_in_row(row):
    with pytest.raises(MalformedArff, match="unterminated quote"):
        load_mulan(DENSE_ARFF + row + "\n", XML_L1)


def _load_workloads_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["yeast-chains", "scene-wide-2jobs", "flags-protocol"])
def test_benchmark_shapes_load_exactly(name, tmp_path):
    # The benchmark writes its datasets itself; the reader must give back
    # the generated matrices bit for bit.
    workloads = _load_workloads_module()
    w = dataclasses.replace(workloads.WORKLOADS[name], n=200)
    features, labels = workloads.generate(w, seed=3)
    arff, xml = workloads.write_mulan(tmp_path, w.name, features, labels, w.integer_features)
    ds = load_mulan_files(arff, xml)
    assert np.array_equal(ds.features, features)
    assert np.array_equal(ds.labels, labels)
    assert ds.label_names == tuple(f"L{j}" for j in range(w.q))
    assert ds.feature_kinds == tuple(Attribute(f"x{i}") for i in range(w.d))
    assert ds.relation == w.name


@pytest.mark.parametrize(
    "row",
    [
        "1.5,2.0", "1.5,2.0,1,1", "oops,2.0,1", "?,2.0,1", "{5 1}", "{0 1, 0 2, 2 1}",
        "nan,2.0,1", "inf,2.0,1", "1.5,-inf,1", "1e999,2.0,1", "{0 nan, 2 1}",
    ],
)
def test_malformed_rows(row):
    with pytest.raises(MalformedArff):
        load_mulan(DENSE_ARFF + row + "\n", XML_L1)


# Each test_malformed_rows case, with the message the row parser gives it.
MALFORMED_ROW_MESSAGES = [
    ("1.5,2.0", "row has 2 values, expected 3"),
    ("1.5,2.0,1,1", "row has 4 values, expected 3"),
    ("oops,2.0,1", "'a' needs a finite number, got 'oops'"),
    ("?,2.0,1", "missing value ('?') for 'a'"),
    ("{5 1}", "bad sparse index '5'"),
    ("{0 1, 0 2, 2 1}", "duplicate sparse index 0"),
    ("nan,2.0,1", "'a' needs a finite number, got 'nan'"),
    ("inf,2.0,1", "'a' needs a finite number, got 'inf'"),
    ("1.5,-inf,1", "'b' needs a finite number, got '-inf'"),
    ("1e999,2.0,1", "'a' needs a finite number, got '1e999'"),
    ("{0 nan, 2 1}", "'a' needs a finite number, got 'nan'"),
]


@pytest.mark.parametrize("row, message", MALFORMED_ROW_MESSAGES)
def test_malformed_row_inside_a_numeric_block(row, message):
    # DENSE_ARFF's two rows end on line 7; 148 more valid rows, then the bad
    # one on line 156, then 150 valid rows: one block that numpy would parse
    # but for this row.
    valid = "1.5,2.0,1\n0.0,3.0,0\n" * 74
    arff = DENSE_ARFF + valid + row + "\n" + valid + "1.5,2.0,1\n" * 2
    assert arff.splitlines()[155] == row
    with pytest.raises(MalformedArff) as caught:
        load_mulan(arff, XML_L1)
    assert str(caught.value) == f"line 156: {message}"


def test_dense_numeric_blocks_skip_the_row_parser():
    arff = DENSE_ARFF + "-1,1e3,1\n.5, 7 ,0\n" * 200

    def no_rows(*args):
        raise AssertionError("a dense numeric row went through the row parser")

    with mock.patch.object(dataset_module, "_parse_row", no_rows):
        ds = load_mulan(arff, XML_L1)
    assert ds.n == 402
    assert ds.features[-2:].tolist() == [[-1.0, 1000.0], [0.5, 7.0]]
    assert ds.labels[-2:, 0].tolist() == [1, 0]


# Tokens that numpy and float() may read differently from the row parser:
# numpy reads the label tokens as 1 but only "0" and "1" are labels, numpy
# refuses "1_000" and "" and reads "nan", "inf" and "1e999" as numbers that
# are not finite.
_ODD_LABELS = ["1.0", "+1", "01", "1e0", " 1", "0 ", "2", "-0", "nan", ""]
_ODD_VALUES = ["nan", "inf", "-inf", "1e999", "1_000", ".5", "-0", " 2.5 ", "\t3", "", "x"]
_VALUES = st.one_of(
    st.integers(-100, 100).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.6f}"),
)


def _load_outcome(arff: str, xml: str):
    try:
        ds = load_mulan(arff, xml)
    except (MalformedArff, NonBinaryLabel) as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_numpy_blocks_equal_the_row_parser(data):
    d = data.draw(st.integers(0, 4))
    q = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 12))
    # Labels anywhere among the attributes, and the XML in any order.
    labels = [f"L{j}" for j in range(q)]
    names = data.draw(st.permutations([f"x{i}" for i in range(d)] + labels))
    order = data.draw(st.permutations(labels))
    xml = "<labels>" + "".join(f'<label name="{name}"/>' for name in order) + "</labels>"
    rows = [
        [data.draw(st.sampled_from("01") if name in labels else _VALUES) for name in names]
        for _ in range(n)
    ]
    for _ in range(data.draw(st.integers(0, 2))):
        r = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, len(names) - 1))
        odd = _ODD_LABELS if names[c] in labels else _ODD_VALUES
        rows[r][c] = data.draw(st.sampled_from(odd))
    header = [f"@attribute {name} " + ("{0,1}" if name in labels else "numeric") for name in names]
    arff = "\n".join(["@relation r", *header, "@data", *(",".join(row) for row in rows)]) + "\n"
    cells = data.draw(st.sampled_from([1, len(names) * 2, 1 << 16]))
    with mock.patch.object(dataset_module, "PARSE_CELLS", cells):
        blocks = _load_outcome(arff, xml)
        with mock.patch.object(dataset_module, "_parse_dense", lambda *args: None):
            rows_only = _load_outcome(arff, xml)
    assert blocks == rows_only


def _write_dense_file(tmp_path, n: int, d: int, q: int) -> tuple[Path, Path]:
    gen = np.random.default_rng(0)
    ds = MultiLabelDataset(
        features=gen.normal(size=(n, d)).round(6),
        labels=gen.integers(0, 2, size=(n, q)),
        label_names=tuple(f"L{j}" for j in range(q)),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(d)),
        relation="wide",
    )
    return tuple(map(Path, write_dataset_files(ds, tmp_path)))


def test_load_memory_is_bounded_per_value(tmp_path):
    # The blocks' matrices and their concatenation take 16 bytes per value,
    # and one block's text and temporaries stay near a megabyte. Holding
    # the file's text and its list of lines took about 33 bytes.
    n, d, q = 1200, 300, 6
    arff, xml = _write_dense_file(tmp_path, n, d, q)
    tracemalloc.start()
    try:
        ds = load_mulan_files(arff, xml)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ds.n, ds.d, ds.q) == (n, d, q)
    assert peak < 3 * n * (d + q) * 8


def test_streamed_non_utf8_error_names_the_byte_offset(tmp_path):
    # The bad byte sits far past the first buffer the reader decodes.
    arff, xml = _write_dense_file(tmp_path, 200, 30, 2)
    data = arff.read_bytes()
    at = data.index(b"\n", len(data) // 2) + 3
    arff.write_bytes(data[:at] + b"\xe9" + data[at + 1 :])
    with pytest.raises(MalformedArff) as caught:
        load_mulan_files(arff, xml)
    assert str(caught.value) == f"{arff}: not UTF-8: byte 0xe9 at offset {at}"


# A BOM, then CRLF, bare CR and form feed breaks. str.splitlines() splits
# at all of them; a form feed inside a row splits the row.
SPLIT_ARFF = (
    "\ufeff@relation tiny\r\n@attribute a numeric\r\n@attribute b numeric\r"
    "@attribute L1 {0,1}\n@data\r\n1.5,2.0,1\r0.0,3.0,0\f\r\n2.5,1.0,1\r\n"
)


@pytest.mark.parametrize("source", ["text", "path", "stream", "cr-stream"])
@pytest.mark.parametrize("tail, message", [("", None), ("0.5,\f1.0,0\r\n", "row has 2 values")])
def test_lines_split_and_number_as_splitlines(tmp_path, source, tail, message):
    text = SPLIT_ARFF + tail
    path = tmp_path / "split.arff"
    path.write_bytes(text.encode("utf-8"))
    expected = len(text.splitlines()) - 1  # the bad row's line number

    def load():
        if source == "text":
            return load_mulan(text, XML_L1)
        if source == "path":
            return load_mulan(path, XML_L1)
        if source == "stream":
            return load_mulan(io.StringIO(text), XML_L1)
        # Lines end only at "\r" here, so the "\r\n"s straddle two lines.
        with path.open(encoding="utf-8", newline="\r") as stream:
            return load_mulan(stream, XML_L1)

    if message is None:
        ds = load()
        assert ds.features.tolist() == [[1.5, 2.0], [0.0, 3.0], [2.5, 1.0]]
        assert ds.labels[:, 0].tolist() == [1, 0, 1]
        return
    with pytest.raises(MalformedArff) as caught:
        load()
    assert str(caught.value) == f"line {expected}: {message}, expected 3"


def test_malformed_headers():
    cases = [
        ("@relation r\n@attribute a numeric\n@attribute L1 {0,1}\n", "no @data section found"),
        # A data row before any @data line is not a header line.
        ("@attribute a numeric\n1.0\n", "line 2: unrecognized header line '1.0'"),
        ("@relation r\n@attribute a widget\n@data\n1\n",
         "line 2: unsupported attribute type 'widget' "
         "(only numeric and nominal attributes are accepted)"),
        ("@relation r\n@data\n1\n", "@data before any @attribute declaration"),
    ]
    for arff, message in cases:
        with pytest.raises(MalformedArff) as caught:
            load_mulan(arff, XML_L1)
        assert str(caught.value) == message


_HEAD = "@relation r\n@attribute a numeric\n@attribute L1 {0,1}\n@data\n"


@pytest.mark.parametrize(
    "arff, message",
    [("@attribute\n@data\n", "line 1: empty @attribute declaration"),
     ("@attribute 'a numeric\n@data\n", "line 1: unterminated attribute name"),
     ("@attribute a\n@data\n", "line 1: attribute needs a name and a type"),
     ("@attribute '' numeric\n@data\n", "line 1: empty attribute name"),
     ("@attribute a {0,1\n@data\n", "line 1: unterminated nominal value list"),
     ("@attribute a {}\n@data\n", "line 1: empty nominal value list"),
     ("@attribute a {x,x}\n@data\n", "line 1: duplicate nominal values"),
     ("@attribute a numeric\n@attribute a numeric\n@data\n",
      "duplicate attribute names in header"),
     (_HEAD, "empty @data section"),
     (_HEAD + "{0 1.0, 1 1\n", "line 5: unterminated sparse row"),
     (_HEAD + "{0}\n", "line 5: bad sparse entry '0'"),
     (_HEAD + "{x 1}\n", "line 5: bad sparse index 'x'")],
    ids=["empty-attribute", "unterminated-name", "no-type", "empty-name",
         "unterminated-nominal", "empty-nominal", "duplicate-nominal",
         "duplicate-attribute", "empty-data", "unterminated-sparse",
         "bad-sparse-entry", "non-integer-sparse-index"],
)
def test_arff_errors_name_the_fault(arff, message):
    with pytest.raises(MalformedArff) as caught:
        load_mulan(arff, XML_L1)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [({"features": np.zeros(3)}, "features and labels must be 2-D matrices"),
     ({"labels": np.zeros((2, 1))}, "features and labels disagree on row count"),
     ({"features": np.zeros((0, 1)), "labels": np.zeros((0, 1))},
      "dataset needs at least one row"),
     ({"labels": np.zeros((3, 0)), "label_names": ()}, "dataset needs at least one label"),
     ({"label_names": ("A", "B")}, "label_names length must equal label column count"),
     ({"feature_kinds": ()}, "feature_kinds length must equal feature column count")],
    ids=["not-2d", "row-counts", "no-rows", "no-labels", "label-names", "feature-kinds"],
)
def test_dataset_shape_checks(changes, message):
    fields = dict(features=np.zeros((3, 1)), labels=np.zeros((3, 1)),
                  label_names=("A",), feature_kinds=(Attribute("x"),))
    with pytest.raises(ValueError) as caught:
        MultiLabelDataset(**(fields | changes))
    assert str(caught.value) == message


def test_non_binary_label():
    arff = """@relation r
@attribute a numeric
@attribute L1 {yes,no}
@data
1.0,yes
"""
    with pytest.raises(NonBinaryLabel):
        load_mulan(arff, XML_L1)
    arff_numeric_label = """@relation r
@attribute a numeric
@attribute L1 numeric
@data
1.0,1
"""
    with pytest.raises(NonBinaryLabel):
        load_mulan(arff_numeric_label, XML_L1)


def test_label_value_outside_binary():
    arff = """@relation r
@attribute a numeric
@attribute L1 {0,1}
@data
1.0,2
"""
    with pytest.raises(NonBinaryLabel):
        load_mulan(arff, XML_L1)


def test_label_stats_examples():
    labels = np.zeros((10, 3), dtype=np.int8)
    labels[:3, 0] = 1  # three ones
    labels[:5, 1] = 1  # five ones, tie
    ds = MultiLabelDataset(
        features=np.zeros((10, 1)),
        labels=labels,
        label_names=("A", "B", "C"),
        feature_kinds=(Attribute("x"),),
    )
    s0, s1, s2 = all_label_stats(ds)
    assert [s.label_index for s in (s0, s1, s2)] == [0, 1, 2]
    assert (s0.minority_count, s0.majority_count, s0.minority_class) == (3, 7, 1)
    assert s0.imr == pytest.approx(7 / 3)
    assert (s1.minority_count, s1.majority_count, s1.minority_class) == (5, 5, 1)
    assert s1.imr == 1.0
    assert (s2.minority_count, s2.majority_count) == (0, 10)
    assert s2.imr is None


def _column_stats(ds: MultiLabelDataset, j: int) -> LabelImbalanceStats:
    """The per-column formula all_label_stats replaced, as the reference."""
    ones = int(ds.labels[:, j].sum())
    zeros = ds.n - ones
    m = min(ones, zeros)
    big = max(ones, zeros)
    return LabelImbalanceStats(
        label_index=j,
        minority_count=m,
        majority_count=big,
        minority_class=1 if ones <= zeros else 0,
        imr=big / m if m > 0 else None,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_all_label_stats_equal_the_per_column_formula(data):
    n = data.draw(st.integers(1, 12), label="n")
    q = data.draw(st.integers(1, 5), label="q")
    # Each column is all 0, all 1, an exact tie (even n) or any mix.
    columns = []
    for _ in range(q):
        kind = data.draw(st.sampled_from(["zeros", "ones", "tie", "mixed"]))
        if kind == "mixed" or (kind == "tie" and n % 2):
            column = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        elif kind == "tie":
            column = data.draw(st.permutations([0, 1] * (n // 2)))
        else:
            column = [int(kind == "ones")] * n
        columns.append(column)
    ds = MultiLabelDataset(
        features=np.zeros((n, 1)),
        labels=np.array(columns, dtype=np.int8).T,
        label_names=tuple(f"L{j}" for j in range(q)),
        feature_kinds=(Attribute("x"),),
    )
    stats = all_label_stats(ds)
    assert stats == [_column_stats(ds, j) for j in range(q)]
    for stat in stats:
        assert type(stat.minority_count) is int and type(stat.majority_count) is int


def test_minority_majority_sum_invariant():
    ds = make_dataset(57, [0.1, 0.4, 0.8], seed=3)
    for stat in all_label_stats(ds):
        assert stat.minority_count + stat.majority_count == ds.n
        if stat.imr is not None:
            assert stat.imr >= 1.0


def test_summary_label_cardinality():
    ds = MultiLabelDataset(
        features=np.zeros((2, 1)),
        labels=np.array([[1, 0], [1, 1]], dtype=np.int8),
        label_names=("A", "B"),
        feature_kinds=(Attribute("x"),),
    )
    assert summarize(ds).label_cardinality == pytest.approx(1.5)


def test_summary_imr_aggregates():
    labels = np.zeros((10, 2), dtype=np.int8)
    labels[:5, 0] = 1  # 5/5 -> ImR 1
    labels[:2, 1] = 1  # 2/8 -> ImR 4
    ds = MultiLabelDataset(
        features=np.zeros((10, 1)),
        labels=labels,
        label_names=("A", "B"),
        feature_kinds=(Attribute("x"),),
    )
    # Mean 2.5, max 4, population std 1.5 -> cv 0.6.
    summary = summarize(ds)
    assert summary.mean_imr == pytest.approx(2.5)
    assert summary.max_imr == pytest.approx(4.0)
    assert summary.cv_imr == pytest.approx(0.6)


def test_summary_cv_from_stated_formula():
    # Two labels with ImR 2 and 4: population std 1 over mean 3.
    labels = np.zeros((15, 2), dtype=np.int8)
    labels[:5, 0] = 1  # 5/10 -> ImR 2
    labels[:3, 1] = 1  # 3/12 -> ImR 4
    ds = MultiLabelDataset(
        features=np.zeros((15, 1)),
        labels=labels,
        label_names=("A", "B"),
        feature_kinds=(Attribute("x"),),
    )
    summary = summarize(ds)
    assert summary.mean_imr == pytest.approx(3.0)
    assert summary.max_imr == pytest.approx(4.0)
    assert summary.cv_imr == pytest.approx(1 / 3)


def test_summary_all_degenerate():
    ds = MultiLabelDataset(
        features=np.zeros((4, 1)),
        labels=np.zeros((4, 1), dtype=np.int8),
        label_names=("A",),
        feature_kinds=(Attribute("x"),),
    )
    with pytest.raises(AllLabelsDegenerate):
        summarize(ds)


def test_summary_permutation_invariant():
    ds = make_dataset(40, [0.2, 0.5], seed=9)
    perm = np.random.default_rng(1).permutation(ds.n)
    shuffled = ds.take_rows(perm)
    assert summarize(ds) == summarize(shuffled)


def _counts_dataset(columns: list[list[float]]) -> MultiLabelDataset:
    features = np.array(columns, dtype=np.float64).T
    labels = np.ones((features.shape[0], 1), dtype=np.int8)
    labels[0, 0] = 0
    return MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=("L",),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(features.shape[1])),
    )


def test_reduce_by_frequency_tie_break():
    # Non-zero counts per column: 5, 1, 3, 3.
    cols = [
        [1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1],
    ]
    ds = _counts_dataset(cols)
    reduced = reduce_features_by_frequency(ds, 0.5)
    assert [a.name for a in reduced.feature_kinds] == ["x0", "x2"]
    assert reduced.features.tolist() == np.array(cols, dtype=float).T[:, [0, 2]].tolist()


def test_reduce_identity_and_all_ties():
    cols = [[1, 0], [1, 0], [1, 0], [1, 0]]
    ds = _counts_dataset(cols)
    assert reduce_features_by_frequency(ds, 1.0) is ds
    reduced = reduce_features_by_frequency(ds, 0.25)
    assert [a.name for a in reduced.feature_kinds] == ["x0"]


def _sorted_rule(ds: MultiLabelDataset, keep_fraction: float) -> list[int]:
    """The columns of the Python sort that reduce_features_by_frequency
    replaced, as the reference."""
    nonzero = (ds.features != 0).sum(axis=0)
    ranked = sorted(range(ds.d), key=lambda j: (-int(nonzero[j]), j))
    return sorted(ranked[:math.ceil(keep_fraction * ds.d)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_by_frequency_keeps_the_sorted_rule_columns(data):
    n = data.draw(st.integers(1, 8), label="n")
    d = data.draw(st.integers(1, 10), label="d")
    # Few distinct values, so that non-zero counts tie often; -0.0 is zero.
    cells = data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]), min_size=n * d, max_size=n * d
    ))
    features = np.array(cells, dtype=np.float64).reshape(n, d)
    ds = MultiLabelDataset(
        features=features,
        labels=np.zeros((n, 1), dtype=np.int8),
        label_names=("L",),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(d)),
    )
    for keep_fraction in (0.01, 0.25, 0.37, 0.5, 0.99, 1.0):
        reduced = reduce_features_by_frequency(ds, keep_fraction)
        kept = _sorted_rule(ds, keep_fraction)
        assert [a.name for a in reduced.feature_kinds] == [f"x{j}" for j in kept]
        assert np.array_equal(reduced.features, features[:, kept])
        assert np.array_equal(np.signbit(reduced.features), np.signbit(features[:, kept]))


def test_reduce_preserves_labels():
    ds = make_dataset(30, [0.3, 0.6], noise_features=6, seed=5)
    reduced = reduce_features_by_frequency(ds, 0.4)
    assert reduced.n == ds.n and reduced.q == ds.q
    assert np.array_equal(reduced.labels, ds.labels)


def test_subsets_of_a_dataset_are_not_validated_again(monkeypatch):
    ds = make_dataset(30, [0.3, 0.6], noise_features=6, seed=5)
    calls = []
    validate = MultiLabelDataset.__post_init__

    def counted(self):
        calls.append(1)
        validate(self)

    monkeypatch.setattr(MultiLabelDataset, "__post_init__", counted)
    ds.take_rows(np.arange(10))
    reduce_features_by_frequency(ds, 0.5)
    assert len(calls) == 0


def _same_dataset(got: MultiLabelDataset, want: MultiLabelDataset) -> None:
    for name in ("features", "labels", "ranks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert a.flags.c_contiguous and not a.flags.writeable
    assert got.label_names == want.label_names
    assert got.feature_kinds == want.feature_kinds
    assert got.relation == want.relation


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subsets_equal_their_validated_construction(data):
    n = data.draw(st.integers(1, 8), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    q = data.draw(st.integers(1, 3), label="q")
    values = st.sampled_from([0.0, 1.0, -2.5, 3.0])
    features = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * q, max_size=n * q)))
    ds = MultiLabelDataset(
        features=features.reshape(n, d),
        labels=labels.reshape(n, q).astype(np.int8),
        label_names=tuple(f"L{j}" for j in range(q)),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(d)),
        relation="drawn",
    )
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)))
    want = MultiLabelDataset(
        features=ds.features[rows],
        labels=ds.labels[rows],
        label_names=ds.label_names,
        feature_kinds=ds.feature_kinds,
        relation=ds.relation,
    )
    # Taken rows gather their parent's codes; ranking them anew could differ.
    object.__setattr__(want, "ranks", ds.ranks[rows])
    _same_dataset(ds.take_rows(rows), want)
    keep_fraction = data.draw(st.sampled_from([0.2, 0.5, 0.9]), label="keep_fraction")
    reduced = reduce_features_by_frequency(ds, keep_fraction)
    kept = [int(a.name[1:]) for a in reduced.feature_kinds]
    want = MultiLabelDataset(
        features=ds.features[:, kept],
        labels=ds.labels,
        label_names=ds.label_names,
        feature_kinds=tuple(ds.feature_kinds[j] for j in kept),
        relation=ds.relation,
    )
    _same_dataset(reduced, want)


def test_round_trip_dense_serialization(small_ds):
    text = to_arff_text(small_ds)
    xml = to_xml_text(small_ds)
    again = load_mulan(text, xml)
    assert np.array_equal(again.features, small_ds.features)
    assert np.array_equal(again.labels, small_ds.labels)
    assert again.label_names == small_ds.label_names
    assert again.feature_kinds == small_ds.feature_kinds


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(1, 3), st.integers(0, 10_000))
def test_round_trip_random(n, q, seed):
    ds = make_dataset(n, [0.4] * q, seed=seed, ensure_both_classes=False)
    again = load_mulan(to_arff_text(ds), to_xml_text(ds))
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)


def test_dataset_invariant_enforcement():
    # Checked before the int8 cast, which would turn 0.5 and 256.0 into 0.
    for bad in (2, 0.5, 0.9, 256.0, -1):
        with pytest.raises(ValueError, match="0/1"):
            MultiLabelDataset(
                features=np.zeros((2, 1)),
                labels=np.array([[bad], [0]]),
                label_names=("A",),
                feature_kinds=(Attribute("x"),),
            )
    with pytest.raises(ValueError):
        MultiLabelDataset(
            features=np.zeros((2, 1)),
            labels=np.array([[1, 0], [0, 1]], dtype=np.int8),
            label_names=("A", "A"),
            feature_kinds=(Attribute("x"),),
        )
    # The dataset's arrays are read-only; the caller's stay writable, even
    # when no copy was needed.
    X = np.zeros((2, 1))
    labs = np.array([[1], [0]], dtype=np.int8)
    ds = MultiLabelDataset(X, labs, ("A",), (Attribute("x"),))
    assert X.flags.writeable and labs.flags.writeable
    assert not ds.features.flags.writeable and not ds.labels.flags.writeable
    assert ds.labels is not labs and ds.features is not X


# to_arff_text refuses an empty name, a name with blanks around it or with
# both quote characters (see test_to_arff_text_refuses_unreadable_names).
_CATEGORY = st.text(alphabet="ab ,'\"{}%", min_size=1, max_size=4).filter(
    lambda s: s == s.strip() and not ("'" in s and '"' in s)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CATEGORY, min_size=1, max_size=4, unique=True), st.data())
def test_round_trip_nominal_category_names(categories, data):
    n = data.draw(st.integers(1, 6))
    codes = data.draw(st.lists(st.integers(0, len(categories) - 1), min_size=n, max_size=n))
    ds = MultiLabelDataset(
        features=np.column_stack([np.array(codes, dtype=float), np.arange(n) / 4]),
        labels=np.arange(n).reshape(n, 1) % 2,
        label_names=("L1",),
        feature_kinds=(Attribute("colour", tuple(categories)), Attribute("x")),
        relation=categories[0],
    )
    again = load_mulan(to_arff_text(ds), to_xml_text(ds))
    assert again.feature_kinds == ds.feature_kinds
    assert again.relation == ds.relation
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)


@pytest.mark.parametrize("name", ["", " a", "a ", "b\t", "it's \"x\""])
@pytest.mark.parametrize("place", ["category", "attribute", "label", "relation"])
def test_to_arff_text_refuses_unreadable_names(name, place):
    def at(here: str, default: str) -> str:
        return name if place == here else default

    ds = MultiLabelDataset(
        features=np.array([[0.0], [1.0]]),
        labels=np.array([[0], [1]]),
        label_names=(at("label", "L1"),),
        feature_kinds=(Attribute(at("attribute", "c"), (at("category", "x"), "y")),),
        relation=at("relation", "r"),
    )
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        to_arff_text(ds)
