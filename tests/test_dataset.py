from __future__ import annotations

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalance.dataset import (
    Attribute,
    MultiLabelDataset,
    all_label_stats,
    compute_label_stats,
    load_mulan,
    load_mulan_files,
    reduce_features_by_frequency,
    summarize,
    to_arff_text,
    to_xml_text,
)
from chainbalance.errors import (
    AllLabelsDegenerate,
    MalformedArff,
    MissingLabelAttribute,
    NonBinaryLabel,
)
from conftest import SMALL_ARFF, SMALL_XML, make_dataset

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


def test_malformed_headers():
    with pytest.raises(MalformedArff):
        load_mulan("@attribute a numeric\n1.0\n", XML_L1)  # no @data
    with pytest.raises(MalformedArff):
        load_mulan("@relation r\n@attribute a widget\n@data\n1\n", XML_L1)
    with pytest.raises(MalformedArff):
        load_mulan("@relation r\n@data\n1\n", XML_L1)


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
    s0 = compute_label_stats(ds, 0)
    assert (s0.minority_count, s0.majority_count, s0.minority_class) == (3, 7, 1)
    assert s0.imr == pytest.approx(7 / 3)
    s1 = compute_label_stats(ds, 1)
    assert (s1.minority_count, s1.majority_count, s1.minority_class) == (5, 5, 1)
    assert s1.imr == 1.0
    s2 = compute_label_stats(ds, 2)
    assert (s2.minority_count, s2.majority_count) == (0, 10)
    assert s2.imr is None


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


def test_reduce_preserves_labels():
    ds = make_dataset(30, [0.3, 0.6], noise_features=6, seed=5)
    reduced = reduce_features_by_frequency(ds, 0.4)
    assert reduced.n == ds.n and reduced.q == ds.q
    assert np.array_equal(reduced.labels, ds.labels)


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
