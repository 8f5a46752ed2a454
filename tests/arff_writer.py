"""Dense ARFF and Mulan XML writers for test fixtures.

The reader under test is chainbalance.dataset.load_mulan; these write what it
reads back, so tests can round-trip datasets through files and text.
"""

from __future__ import annotations

from chainbalance.dataset import Attribute, MultiLabelDataset


def _format_value(attr: Attribute, value: float) -> str:
    if attr.is_nominal:
        code = int(round(value))
        if not 0 <= code < len(attr.categories):
            raise ValueError(f"category code {code} out of range for {attr.name!r}")
        return _quote_if_needed(attr.categories[code])
    return repr(float(value))


def _quote_if_needed(token: str) -> str:
    """The token as ARFF reads it back: quoted if it holds a special
    character, in double quotes if it holds a single one."""
    if not token:
        raise ValueError(f"cannot write {token!r} to ARFF: an empty value is not read back")
    if token != token.strip():
        raise ValueError(
            f"cannot write {token!r} to ARFF: blanks around a value are dropped on reading"
        )
    if "'" in token and '"' in token:
        raise ValueError(f"cannot write {token!r} to ARFF: it holds both quote characters")
    if any(ch in token for ch in ", '\"{}%"):
        quote = '"' if "'" in token else "'"
        return quote + token + quote
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
