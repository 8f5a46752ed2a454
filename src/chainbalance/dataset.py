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
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .errors import (
    AllLabelsDegenerate,
    ConfigError,
    MalformedArff,
    MissingLabelAttribute,
    NonBinaryLabel,
)

NUMERIC_TYPES = {"numeric", "real", "integer"}
# Most values in one block of ARFF data rows. numpy parses a block of dense
# numeric rows at once; its text and temporaries stay near a megabyte.
PARSE_CELLS = 1 << 16
Converter = Callable[[str, int], float]  # (token, line number) -> cell value


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

    features: (n, d) float64 matrix without NaN, which no split can order;
              nominal attributes hold category codes.
    labels:   (n, q) int8 matrix restricted to {0, 1}.
    label_names and feature_kinds preserve declaration order.
    ranks:    rank_codes(features), computed on first use and then cached.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]
    feature_kinds: tuple[Attribute, ...]
    relation: str = "dataset"

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or labs.ndim != 2:
            raise ValueError("features and labels must be 2-D matrices")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError("features and labels disagree on row count")
        if np.isnan(feats).any():
            raise ValueError("features must not be NaN")
        if feats.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if labs.shape[1] < 1:
            raise ValueError("dataset needs at least one label")
        if not ((labs == 0) | (labs == 1)).all():
            raise ValueError("label matrix must contain only 0/1 values")
        labs = np.ascontiguousarray(labs, dtype=np.int8)
        if len(self.label_names) != labs.shape[1]:
            raise ValueError("label_names length must equal label column count")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("label names must be unique")
        if len(self.feature_kinds) != feats.shape[1]:
            raise ValueError("feature_kinds length must equal feature column count")
        # Shared read-only across concurrent training tasks. The views keep
        # the caller's own arrays writable.
        feats = feats.view()
        labs = labs.view()
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

    @cached_property
    def ranks(self) -> np.ndarray:
        codes = rank_codes(self.features)
        codes.setflags(write=False)
        return codes

    def take_rows(self, indices: np.ndarray) -> "MultiLabelDataset":
        """New dataset holding the given rows (indices may repeat).

        Codes already ranked here are gathered, not ranked again: rows taken
        from a superset still compare like their values.
        """
        arrays = {"features": self.features[indices], "labels": self.labels[indices]}
        if "ranks" in self.__dict__:
            arrays["ranks"] = self.ranks[indices]
        return self._gathered(self.feature_kinds, **arrays)

    def _gathered(
        self, feature_kinds: tuple[Attribute, ...], **arrays: np.ndarray
    ) -> "MultiLabelDataset":
        """A dataset of rows or columns gathered from this validated one, built
        without __post_init__, which would check and copy them again.

        arrays holds C-ordered features and labels, and ranks when known; each
        is set read-only.
        """
        for values in arrays.values():
            values.setflags(write=False)
        taken = object.__new__(MultiLabelDataset)
        vars(taken).update(arrays, feature_kinds=feature_kinds)
        vars(taken).update(label_names=self.label_names, relation=self.relation)
        return taken


def rank_codes(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of X: codes[i, f] counts the distinct values of
    column f below X[i, f].

    Equal codes mean equal values, and codes order like the values, so a
    stable argsort of a column's codes equals one of its values. The dtype is
    uint16 up to 65,536 rows, whose stable sort numpy runs as a radix sort,
    and uint32 above. Columns are ranked one at a time, so beyond the codes
    the temporaries stay within a column.
    """
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint16 if n <= 1 << 16 else np.uint32)
    for f in range(d):
        codes[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    return codes


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


def _read_text(source: str | Path | TextIO) -> str:
    """The text of a path, which must be UTF-8, of a stream, or the text
    itself, without a BOM."""
    if isinstance(source, Path):
        data = source.read_bytes()
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedArff(
                f"{source}: not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
            ) from exc
    elif not isinstance(source, str):
        source = source.read()
    return source.lstrip("\ufeff")


def _lines(pieces: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a
    comment, in the text that pieces ending at line breaks make up. Lines
    are split and numbered as str.splitlines() splits the whole text, after
    a leading BOM is dropped."""
    lineno, cr = 0, False
    for i, piece in enumerate(pieces):
        if cr and piece.startswith("\n"):  # a "\r\n" that two pieces share
            piece = piece[1:]
        cr = piece.endswith("\r")
        for line in (piece.lstrip("\ufeff") if i == 0 else piece).splitlines():
            lineno, line = lineno + 1, line.strip()
            if line and not line.startswith("%"):
                yield lineno, line


def _split_values(text: str) -> list[str]:
    """Split on commas outside single/double quotes; unquote and strip each value.

    Only the comma-separated pieces that hold a quote character, or that lie
    inside an open quote, are scanned character by character.
    """
    values: list[str] = []
    held = ""  # start of a value whose quotes span a comma
    quote = ""
    for piece in text.split(","):
        if quote or "'" in piece or '"' in piece:
            kept: list[str] = []
            for ch in piece:
                if ch == quote:
                    quote = ""
                elif not quote and ch in "'\"":
                    quote = ch
                else:
                    kept.append(ch)
            piece = "".join(kept)
        if quote:
            held += piece + ","
        else:
            values.append((held + piece).strip())
            held = ""
    if quote:
        raise MalformedArff(f"unterminated quote in: {text!r}")
    return values


def _parse_attribute_line(line: str, lineno: int) -> Attribute:
    body = line[len("@attribute") :].strip()
    if not body:
        raise MalformedArff(f"line {lineno}: empty @attribute declaration")
    # Name may be quoted and may contain spaces; type is the remainder.
    if body[0] in "'\"":
        end = body.find(body[0], 1)
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
        values = tuple(v for v in _split_values(type_part[1:-1]) if v != "")
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


def parse_label_names(xml_source: str | Path | TextIO) -> tuple[str, ...]:
    """Label names from a Mulan XML header, in declaration order."""
    try:
        root = ET.fromstring(_read_text(xml_source))
    except ET.ParseError as exc:
        raise MalformedArff(f"invalid label XML: {exc}") from exc
    names: list[str] = []
    for elem in root.iter():
        if elem.tag.rsplit("}", 1)[-1] == "label":
            name = elem.get("name")
            if name is None:
                raise MalformedArff("label element without a name attribute")
            names.append(name)
    if not names:
        raise MalformedArff("label XML declares no labels")
    if len(set(names)) != len(names):
        raise MalformedArff("duplicate label names in XML")
    return tuple(names)


def _converter(attr: Attribute, is_label: bool) -> Converter:
    """(token, line number) -> float for one column: 0/1 for a label, the
    category code for a nominal feature, a finite number for a numeric one."""
    error, codes, wanted = MalformedArff, None, "a finite number"
    if is_label:
        error, codes, wanted = NonBinaryLabel, {"0": 0.0, "1": 1.0}, "0 or 1"
    elif attr.is_nominal:
        # '?' marks a missing value even where it is declared as a category.
        codes = {c: float(i) for i, c in enumerate(attr.categories) if c != "?"}
        wanted = f"one of {attr.categories}"

    def convert(token: str, lineno: int) -> float:
        if codes is None:
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                return value
        elif token in codes:
            return codes[token]
        if token == "?":
            raise MalformedArff(f"line {lineno}: missing value ('?') for {attr.name!r}")
        raise error(f"line {lineno}: {attr.name!r} needs {wanted}, got {token!r}")

    return convert


def _parse_row(line: str, lineno: int, converters: list[Converter]) -> list[float]:
    """One dense or sparse data row as floats; unlisted sparse columns are 0."""
    width = len(converters)
    if not line.startswith("{"):
        tokens = _split_values(line)
        if len(tokens) != width:
            raise MalformedArff(f"line {lineno}: row has {len(tokens)} values, expected {width}")
        return [convert(token, lineno) for convert, token in zip(converters, tokens)]
    if not line.endswith("}"):
        raise MalformedArff(f"line {lineno}: unterminated sparse row")
    # Sparse defaults: 0.0 for numeric, category 0 for nominal, label 0.
    row = [0.0] * width
    body = line[1:-1].strip()
    seen: set[int] = set()
    for item in _split_values(body) if body else ():
        pieces = item.split(None, 1)
        if len(pieces) != 2:
            raise MalformedArff(f"line {lineno}: bad sparse entry {item!r}")
        try:
            col = int(pieces[0])
        except ValueError:
            col = -1
        if not 0 <= col < width:
            raise MalformedArff(f"line {lineno}: bad sparse index {pieces[0]!r}")
        if col in seen:
            raise MalformedArff(f"line {lineno}: duplicate sparse index {col}")
        seen.add(col)
        row[col] = converters[col](pieces[1], lineno)
    return row


def _parse_dense(lines: list[str], width: int, label_cols: list[int]) -> np.ndarray | None:
    """A block of dense numeric rows as a (rows, width) table, parsed by numpy,
    or None unless every value is finite and every label token is "0" or "1".
    Sparse and quoted rows do not parse as numbers, so they give None too."""
    try:
        table = np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    labels = table[:, label_cols]
    if not ((labels == 0) | (labels == 1)).all():
        return None
    # A token that reads as 0 or 1 is "0" or "1" exactly when it is one
    # character long, as in "1" but not "1.0", "+1" or " 1".
    text = np.frombuffer(",".join(lines).encode(), dtype=np.uint8)
    ends = np.append(np.flatnonzero(text == ord(",")), text.size)
    lengths = np.diff(ends, prepend=-1).reshape(table.shape) - 1
    return table if (lengths[:, label_cols] == 1).all() else None


def load_mulan(
    arff_source: str | Path | TextIO, xml_source: str | Path | TextIO
) -> MultiLabelDataset:
    """Load an ARFF file plus Mulan XML label header into matrices.

    Attributes named in the XML become label columns in XML order; the rest
    become feature columns in declaration order. Nominal features are encoded
    as integer category codes. Sparse rows fill unlisted columns with zero.
    The ARFF source is read one line at a time, in blocks of rows.
    """
    if isinstance(arff_source, Path):
        try:
            with arff_source.open(encoding="utf-8", newline="") as stream:
                return load_mulan(stream, xml_source)
        except UnicodeDecodeError:
            _read_text(arff_source)  # raises the error that names the first bad byte
            raise
    if isinstance(arff_source, str):
        arff_source = arff_source.splitlines(keepends=True)
    relation = "dataset"
    attributes: list[Attribute] = []
    rows = _lines(arff_source)
    for lineno, line in rows:
        lowered = line.lower()
        if lowered.startswith("@relation"):
            name = line[len("@relation") :].strip()
            if len(name) >= 2 and name[0] == name[-1] and name[0] in "'\"":
                name = name[1:-1]
            relation = name or relation
        elif lowered.startswith("@attribute"):
            attributes.append(_parse_attribute_line(line, lineno))
        elif lowered.startswith("@data"):
            break
        else:
            raise MalformedArff(f"line {lineno}: unrecognized header line {line!r}")
    else:
        raise MalformedArff("no @data section found")
    if not attributes:
        raise MalformedArff("@data before any @attribute declaration")
    if len({a.name for a in attributes}) != len(attributes):
        raise MalformedArff("duplicate attribute names in header")
    label_names = parse_label_names(xml_source)
    converters = [_converter(a, a.name in label_names) for a in attributes]
    index_by_name = {a.name: i for i, a in enumerate(attributes)}
    label_cols = [index_by_name[name] for name in label_names if name in index_by_name]
    feature_cols = [i for i, a in enumerate(attributes) if a.name not in label_names]
    # Nominal features hold category codes, which only the row parser gives.
    numeric = not any(attributes[i].is_nominal for i in feature_cols)
    # Each block is split into its feature and label columns at once. A
    # block that numpy cannot parse exactly goes through the row parser,
    # which gives the same values or raises the error of its first bad row.
    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    width = len(attributes)
    size = max(1, PARSE_CELLS // width)
    for block in iter(lambda: list(islice(rows, size)), []):
        table = _parse_dense([line for _, line in block], width, label_cols) if numeric else None
        if table is None:
            table = np.array(
                [_parse_row(line, lineno, converters) for lineno, line in block],
                dtype=np.float64,
            )
        features.append(table.take(feature_cols, axis=1))  # C order, as the dataset keeps it
        labels.append(table.take(label_cols, axis=1).astype(np.int8))
    if not features:
        raise MalformedArff("empty @data section")

    # Label declarations are checked after the rows: a malformed row wins.
    for name in label_names:
        if name not in index_by_name:
            raise MissingLabelAttribute(f"label {name!r} has no ARFF attribute")
    for col in label_cols:
        attr = attributes[col]
        if not attr.is_nominal or not set(attr.categories) <= {"0", "1"}:
            raise NonBinaryLabel(
                f"label attribute {attr.name!r} must be nominal with values in {{0,1}}"
            )
    return MultiLabelDataset(
        features=np.concatenate(features),
        labels=np.concatenate(labels),
        label_names=label_names,
        feature_kinds=tuple(attributes[i] for i in feature_cols),
        relation=relation,
    )


def load_mulan_files(arff_path: str | Path, xml_path: str | Path) -> MultiLabelDataset:
    """Convenience wrapper taking file paths."""
    return load_mulan(Path(arff_path), Path(xml_path))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def all_label_stats(ds: MultiLabelDataset) -> list[LabelImbalanceStats]:
    """Minority/majority counts and imbalance ratio of every label column.

    The minority class is the less frequent value; on a tie the positive
    class counts as minority.
    """
    stats = []
    for j, ones in enumerate(ds.labels.sum(axis=0).tolist()):
        m, big = sorted((ones, ds.n - ones))
        stats.append(LabelImbalanceStats(
            label_index=j, minority_count=m, majority_count=big,
            minority_class=int(ones == m), imr=big / m if m > 0 else None,
        ))
    return stats


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
    ranked = np.argsort(-np.count_nonzero(ds.features, axis=0), kind="stable")
    retained = np.sort(ranked[:keep])
    return ds._gathered(
        tuple(ds.feature_kinds[j] for j in retained),
        features=np.ascontiguousarray(ds.features[:, retained]),
        labels=ds.labels,
    )
