"""Mulan-format dataset handling: ARFF + XML parsing, matrices, imbalance stats.

A multi-label dataset arrives as an ARFF file holding both features and
labels, plus an XML header that names which attributes are labels. Loading
produces a pair of matrices: real-valued features (nominal attributes are
integer-coded) and a binary label matrix whose column order follows the XML.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    AllLabelsDegenerate,
    ConfigError,
    MalformedArff,
    MissingLabelAttribute,
    NonBinaryLabel,
)

NUMERIC_TYPES = {"numeric", "real", "integer"}


@dataclass(frozen=True)
class Attribute:
    """One ARFF attribute: numeric, or nominal with an ordered category list."""

    name: str
    categories: tuple[str, ...] | None = None  # None means numeric

    @property
    def is_nominal(self) -> bool:
        return self.categories is not None


@dataclass(frozen=True)
class MultiLabelDataset:
    """Immutable feature/label matrices with attribute metadata.

    features: (n, d) float64 matrix; nominal attributes hold category codes.
    labels:   (n, q) int8 matrix restricted to {0, 1}.
    label_names and feature_kinds preserve declaration order.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]
    feature_kinds: tuple[Attribute, ...]
    relation: str = "dataset"

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int8))
        if feats.ndim != 2 or labs.ndim != 2:
            raise ValueError("features and labels must be 2-D matrices")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError("features and labels disagree on row count")
        if feats.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if labs.shape[1] < 1:
            raise ValueError("dataset needs at least one label")
        if not np.isin(labs, (0, 1)).all():
            raise ValueError("label matrix must contain only 0/1 values")
        if len(self.label_names) != labs.shape[1]:
            raise ValueError("label_names length must equal label column count")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("label names must be unique")
        if len(self.feature_kinds) != feats.shape[1]:
            raise ValueError("feature_kinds length must equal feature column count")
        # Shared read-only across concurrent training tasks.
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "label_names", tuple(self.label_names))
        object.__setattr__(self, "feature_kinds", tuple(self.feature_kinds))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def q(self) -> int:
        return self.labels.shape[1]

    def take_rows(self, indices: np.ndarray) -> "MultiLabelDataset":
        """New dataset holding the given rows (indices may repeat)."""
        return MultiLabelDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            label_names=self.label_names,
            feature_kinds=self.feature_kinds,
            relation=self.relation,
        )


@dataclass(frozen=True)
class LabelImbalanceStats:
    """Minority/majority counts and imbalance ratio for one label column.

    imr is None when the label is single-class (no minority examples).
    """

    label_index: int
    minority_count: int
    majority_count: int
    minority_class: int
    imr: float | None

    @property
    def defined(self) -> bool:
        return self.imr is not None


@dataclass(frozen=True)
class DatasetSummary:
    """Whole-dataset statistics: sizes, label cardinality, ImR aggregates."""

    n: int
    d: int
    q: int
    label_cardinality: float
    mean_imr: float
    max_imr: float
    cv_imr: float
    degenerate_labels: int


# ---------------------------------------------------------------------------
# ARFF / XML parsing
# ---------------------------------------------------------------------------


def _as_lines(source: str | Path | TextIO) -> Iterable[str]:
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    return text.lstrip("﻿").splitlines()


def _split_respecting_quotes(text: str, sep: str = ",") -> list[str]:
    """Split on sep outside single/double quotes; strip quotes and whitespace."""
    parts: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote is not None:
            if ch == quote:
                quote = None
            else:
                buf.append(ch)
        elif ch in "'\"":
            quote = ch
        elif ch == sep:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote is not None:
        raise MalformedArff(f"unterminated quote in: {text!r}")
    parts.append("".join(buf).strip())
    return parts


def _strip_quotes(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _parse_attribute_line(line: str, lineno: int) -> Attribute:
    body = line[len("@attribute") :].strip()
    if not body:
        raise MalformedArff(f"line {lineno}: empty @attribute declaration")
    # Name may be quoted and may contain spaces; type is the remainder.
    if body[0] in "'\"":
        quote = body[0]
        end = body.find(quote, 1)
        if end < 0:
            raise MalformedArff(f"line {lineno}: unterminated attribute name")
        name = body[1:end]
        type_part = body[end + 1 :].strip()
    else:
        pieces = body.split(None, 1)
        if len(pieces) != 2:
            raise MalformedArff(f"line {lineno}: attribute needs a name and a type")
        name, type_part = pieces[0], pieces[1].strip()
    if not name:
        raise MalformedArff(f"line {lineno}: empty attribute name")
    if type_part.startswith("{"):
        if not type_part.endswith("}"):
            raise MalformedArff(f"line {lineno}: unterminated nominal value list")
        values = _split_respecting_quotes(type_part[1:-1])
        values = tuple(v for v in values if v != "")
        if not values:
            raise MalformedArff(f"line {lineno}: empty nominal value list")
        if len(set(values)) != len(values):
            raise MalformedArff(f"line {lineno}: duplicate nominal values")
        return Attribute(name=name, categories=values)
    if type_part.lower() in NUMERIC_TYPES:
        return Attribute(name=name)
    raise MalformedArff(
        f"line {lineno}: unsupported attribute type {type_part!r} "
        "(only numeric and nominal attributes are accepted)"
    )


def _parse_arff(source: str | Path | TextIO) -> tuple[str, list[Attribute], list[list[str] | dict[int, str]]]:
    """Parse an ARFF stream into (relation, attributes, raw rows).

    Dense rows come back as token lists, sparse rows as {column: token}.
    """
    relation = "dataset"
    attributes: list[Attribute] = []
    rows: list[list[str] | dict[int, str]] = []
    in_data = False
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if not in_data:
            if lowered.startswith("@relation"):
                relation = _strip_quotes(line[len("@relation") :].strip()) or relation
            elif lowered.startswith("@attribute"):
                attributes.append(_parse_attribute_line(line, lineno))
            elif lowered.startswith("@data"):
                if not attributes:
                    raise MalformedArff("@data before any @attribute declaration")
                in_data = True
            else:
                raise MalformedArff(f"line {lineno}: unrecognized header line {line!r}")
            continue
        if line.startswith("{"):
            if not line.endswith("}"):
                raise MalformedArff(f"line {lineno}: unterminated sparse row")
            body = line[1:-1].strip()
            entries: dict[int, str] = {}
            if body:
                for item in _split_respecting_quotes(body):
                    pieces = item.split(None, 1)
                    if len(pieces) != 2:
                        raise MalformedArff(f"line {lineno}: bad sparse entry {item!r}")
                    try:
                        col = int(pieces[0])
                    except ValueError:
                        raise MalformedArff(f"line {lineno}: bad sparse index {pieces[0]!r}") from None
                    if not 0 <= col < len(attributes):
                        raise MalformedArff(f"line {lineno}: sparse index {col} out of range")
                    if col in entries:
                        raise MalformedArff(f"line {lineno}: duplicate sparse index {col}")
                    entries[col] = _strip_quotes(pieces[1])
            rows.append(entries)
        else:
            tokens = [_strip_quotes(t) for t in _split_respecting_quotes(line)]
            if len(tokens) != len(attributes):
                raise MalformedArff(
                    f"line {lineno}: row has {len(tokens)} values, expected {len(attributes)}"
                )
            rows.append(tokens)
    if not in_data:
        raise MalformedArff("no @data section found")
    if not rows:
        raise MalformedArff("empty @data section")
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise MalformedArff("duplicate attribute names in header")
    return relation, attributes, rows


def parse_label_names(xml_source: str | Path | TextIO) -> tuple[str, ...]:
    """Label names from a Mulan XML header, in declaration order."""
    if isinstance(xml_source, Path):
        text = xml_source.read_text()
    elif isinstance(xml_source, str):
        text = xml_source
    else:
        text = xml_source.read()
    text = text.lstrip("﻿")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedArff(f"invalid label XML: {exc}") from exc
    names: list[str] = []
    for elem in root.iter():
        tag = elem.tag.rsplit("}", 1)[-1]
        if tag == "label":
            name = elem.get("name")
            if name is None:
                raise MalformedArff("label element without a name attribute")
            names.append(name)
    if not names:
        raise MalformedArff("label XML declares no labels")
    if len(set(names)) != len(names):
        raise MalformedArff("duplicate label names in XML")
    return tuple(names)


def _feature_value(attr: Attribute, token: str, lineno_hint: str) -> float:
    if token == "?":
        raise MalformedArff(f"{lineno_hint}: missing values ('?') are not supported")
    if attr.is_nominal:
        try:
            return float(attr.categories.index(token))
        except ValueError:
            raise MalformedArff(
                f"{lineno_hint}: value {token!r} not in categories of {attr.name!r}"
            ) from None
    try:
        return float(token)
    except ValueError:
        raise MalformedArff(f"{lineno_hint}: unparseable numeric value {token!r}") from None


def _label_value(attr: Attribute, token: str, lineno_hint: str) -> int:
    if token == "?":
        raise MalformedArff(f"{lineno_hint}: missing values ('?') are not supported")
    if token not in ("0", "1"):
        raise NonBinaryLabel(f"{lineno_hint}: label {attr.name!r} has value {token!r}")
    return int(token)


def load_mulan(
    arff_source: str | Path | TextIO, xml_source: str | Path | TextIO
) -> MultiLabelDataset:
    """Load an ARFF file plus Mulan XML label header into matrices.

    Attributes named in the XML become label columns in XML order; the rest
    become feature columns in declaration order. Nominal features are encoded
    as integer category codes. Sparse rows fill unlisted columns with zero.
    """
    relation, attributes, rows = _parse_arff(arff_source)
    label_names = parse_label_names(xml_source)
    index_by_name = {a.name: i for i, a in enumerate(attributes)}
    for name in label_names:
        if name not in index_by_name:
            raise MissingLabelAttribute(f"label {name!r} has no ARFF attribute")
    label_cols = [index_by_name[name] for name in label_names]
    label_set = set(label_cols)
    for col in label_cols:
        attr = attributes[col]
        if not attr.is_nominal or not set(attr.categories) <= {"0", "1"}:
            raise NonBinaryLabel(
                f"label attribute {attr.name!r} must be nominal with values in {{0,1}}"
            )
    feature_cols = [i for i in range(len(attributes)) if i not in label_set]
    feature_kinds = tuple(attributes[i] for i in feature_cols)

    n = len(rows)
    features = np.zeros((n, len(feature_cols)), dtype=np.float64)
    labels = np.zeros((n, len(label_cols)), dtype=np.int8)
    feat_pos = {col: j for j, col in enumerate(feature_cols)}
    label_pos = {col: j for j, col in enumerate(label_cols)}

    for r, row in enumerate(rows):
        hint = f"data row {r + 1}"
        if isinstance(row, dict):
            # Sparse: defaults are 0.0 for numeric, category 0 for nominal
            # features, and label value 0.
            for col, token in row.items():
                attr = attributes[col]
                if col in label_pos:
                    labels[r, label_pos[col]] = _label_value(attr, token, hint)
                else:
                    features[r, feat_pos[col]] = _feature_value(attr, token, hint)
        else:
            for col, token in enumerate(row):
                attr = attributes[col]
                if col in label_pos:
                    labels[r, label_pos[col]] = _label_value(attr, token, hint)
                else:
                    features[r, feat_pos[col]] = _feature_value(attr, token, hint)

    return MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=label_names,
        feature_kinds=feature_kinds,
        relation=relation,
    )


def load_mulan_files(arff_path: str | Path, xml_path: str | Path) -> MultiLabelDataset:
    """Convenience wrapper taking file paths."""
    return load_mulan(Path(arff_path), Path(xml_path))


# ---------------------------------------------------------------------------
# Serialization (dense ARFF + XML header)
# ---------------------------------------------------------------------------


def _format_value(attr: Attribute, value: float) -> str:
    if attr.is_nominal:
        code = int(round(value))
        if not 0 <= code < len(attr.categories):
            raise ValueError(f"category code {code} out of range for {attr.name!r}")
        return _quote_if_needed(attr.categories[code])
    return repr(float(value))


def _quote_if_needed(token: str) -> str:
    if any(ch in token for ch in ", '\"{}%"):
        return "'" + token + "'"
    return token


def to_arff_text(ds: MultiLabelDataset) -> str:
    """Serialize as dense ARFF: features first, labels after, in order."""
    out: list[str] = [f"@relation {_quote_if_needed(ds.relation)}", ""]
    for attr in ds.feature_kinds:
        if attr.is_nominal:
            cats = ",".join(_quote_if_needed(c) for c in attr.categories)
            out.append(f"@attribute {_quote_if_needed(attr.name)} {{{cats}}}")
        else:
            out.append(f"@attribute {_quote_if_needed(attr.name)} numeric")
    for name in ds.label_names:
        out.append(f"@attribute {_quote_if_needed(name)} {{0,1}}")
    out.append("")
    out.append("@data")
    for r in range(ds.n):
        feat_part = [_format_value(a, ds.features[r, j]) for j, a in enumerate(ds.feature_kinds)]
        label_part = [str(int(v)) for v in ds.labels[r]]
        out.append(",".join(feat_part + label_part))
    return "\n".join(out) + "\n"


def to_xml_text(ds: MultiLabelDataset) -> str:
    """Serialize the label header in Mulan's XML format."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>']
    lines.append('<labels xmlns="http://mulan.sourceforge.net/labels">')
    for name in ds.label_names:
        escaped = (
            name.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        )
        lines.append(f'  <label name="{escaped}"></label>')
    lines.append("</labels>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def compute_label_stats(ds: MultiLabelDataset, j: int) -> LabelImbalanceStats:
    """Minority/majority counts and imbalance ratio for label column j.

    The minority class is the less frequent value; on a tie the positive
    class counts as minority.
    """
    if not 0 <= j < ds.q:
        raise IndexError(f"label index {j} out of range [0, {ds.q})")
    ones = int(ds.labels[:, j].sum())
    zeros = ds.n - ones
    minority_class = 1 if ones <= zeros else 0
    m = min(ones, zeros)
    big = max(ones, zeros)
    imr = big / m if m > 0 else None
    return LabelImbalanceStats(
        label_index=j,
        minority_count=m,
        majority_count=big,
        minority_class=minority_class,
        imr=imr,
    )


def all_label_stats(ds: MultiLabelDataset) -> list[LabelImbalanceStats]:
    return [compute_label_stats(ds, j) for j in range(ds.q)]


def summarize(ds: MultiLabelDataset) -> DatasetSummary:
    """Dataset-level statistics; ImR aggregates skip single-class labels.

    cv_imr is the population standard deviation of the defined ImR values
    divided by their mean.
    """
    stats = all_label_stats(ds)
    imrs = np.array([s.imr for s in stats if s.imr is not None], dtype=np.float64)
    if imrs.size == 0:
        raise AllLabelsDegenerate("every label is single-class")
    lc = float(ds.labels.sum(axis=1).mean())
    mean_imr = float(imrs.mean())
    cv_imr = float(imrs.std(ddof=0) / mean_imr)
    return DatasetSummary(
        n=ds.n,
        d=ds.d,
        q=ds.q,
        label_cardinality=lc,
        mean_imr=mean_imr,
        max_imr=float(imrs.max()),
        cv_imr=cv_imr,
        degenerate_labels=len(stats) - int(imrs.size),
    )


def reduce_features_by_frequency(
    ds: MultiLabelDataset, keep_fraction: float
) -> MultiLabelDataset:
    """Keep the ceil(keep_fraction * d) features with the most non-zero values.

    Ties break toward the lower original column index; retained columns keep
    their original relative order. Labels are untouched.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError("keep_fraction must be in (0, 1]")
    if keep_fraction == 1.0:
        return ds
    keep = math.ceil(keep_fraction * ds.d)
    if keep < 1:
        raise ValueError("keep_fraction retains no features")
    nonzero = (ds.features != 0).sum(axis=0)
    ranked = sorted(range(ds.d), key=lambda j: (-int(nonzero[j]), j))
    retained = sorted(ranked[:keep])
    return MultiLabelDataset(
        features=ds.features[:, retained],
        labels=ds.labels,
        label_names=ds.label_names,
        feature_kinds=tuple(ds.feature_kinds[j] for j in retained),
        relation=ds.relation,
    )
