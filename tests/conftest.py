from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from chainbalance.dataset import Attribute, MultiLabelDataset


def make_dataset(
    n: int,
    pos_fracs: list[float],
    noise_features: int = 2,
    seed: int = 0,
    signal: float = 2.0,
    noise_scale: float = 1.0,
    ensure_both_classes: bool = True,
    relation: str = "synthetic",
) -> MultiLabelDataset:
    """Synthetic dataset with one informative feature per label plus noise."""
    gen = np.random.default_rng(seed)
    q = len(pos_fracs)
    labels = (gen.random((n, q)) < np.asarray(pos_fracs)).astype(np.int8)
    if ensure_both_classes:
        for j in range(q):
            col = labels[:, j]
            if col.sum() == 0:
                labels[gen.integers(n), j] = 1
            elif col.sum() == n:
                labels[gen.integers(n), j] = 0
    informative = labels * signal + gen.normal(0.0, noise_scale, (n, q))
    noise = gen.normal(0.0, 1.0, (n, noise_features))
    features = np.hstack([informative, noise])
    return MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=tuple(f"L{j}" for j in range(q)),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(features.shape[1])),
        relation=relation,
    )


def model_payload(model):
    """A fitted model as nested JSON-ready lists and dicts, one key per field.

    Walks dataclasses.fields, so comparing or hashing payloads sees every
    field of BinaryModel, ChainModel and EnsembleModel without a key list to
    keep in step with them. Arrays and tuples become lists.
    """
    if dataclasses.is_dataclass(model):
        return {
            f.name: model_payload(getattr(model, f.name)) for f in dataclasses.fields(model)
        }
    if isinstance(model, np.ndarray):
        return model.tolist()
    if isinstance(model, (tuple, list)):
        return [model_payload(value) for value in model]
    if isinstance(model, dict):
        return {key: model_payload(value) for key, value in model.items()}
    return model


def dataset_with_label_counts(
    n: int, ones_per_label: list[int], seed: int = 0, noise_features: int = 3
) -> MultiLabelDataset:
    """Dataset whose label columns hold exactly the requested number of ones."""
    gen = np.random.default_rng(seed)
    q = len(ones_per_label)
    labels = np.zeros((n, q), dtype=np.int8)
    for j, ones in enumerate(ones_per_label):
        rows = gen.choice(n, size=ones, replace=False)
        labels[rows, j] = 1
    features = labels * 2.0 + gen.normal(0.0, 1.0, (n, q))
    features = np.hstack([features, gen.normal(0.0, 1.0, (n, noise_features))])
    return MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=tuple(f"L{j}" for j in range(q)),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(features.shape[1])),
        relation="counted",
    )


SMALL_ARFF = """\
% toy data
@RELATION demo

@ATTRIBUTE a NUMERIC
@attribute b real
@attribute color {red,green,blue}
@attribute L1 {0,1}
@attribute L2 {0,1}

@DATA
1.5,2.0,red,1,0
0.0,3.0,blue,0,1
2.5,1.0,green,1,1
0.5,0.5,red,0,0
"""

SMALL_XML = (
    '<labels xmlns="http://mulan.sourceforge.net/labels">'
    '<label name="L1"/><label name="L2"/></labels>'
)


@pytest.fixture
def small_ds():
    from chainbalance.dataset import load_mulan

    return load_mulan(SMALL_ARFF, SMALL_XML)


def write_dataset_files(ds: MultiLabelDataset, directory) -> tuple[str, str]:
    from arff_writer import to_arff_text, to_xml_text

    arff_path = directory / f"{ds.relation}.arff"
    xml_path = directory / f"{ds.relation}.xml"
    arff_path.write_text(to_arff_text(ds))
    xml_path.write_text(to_xml_text(ds))
    return str(arff_path), str(xml_path)
