"""Classifier chains: plain chains and undersampled chains.

A chain trains one binary model per label along a fixed label order, feeding
each model the base features plus one extra column per earlier link. Plain
chains (the bagged-ensemble baseline) append the true values of earlier
labels during training; undersampled chains balance every link's fitting set
and append the link's own predictions over all rows instead, so removed
majority rows receive out-of-sample predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import MultiLabelDataset
from .errors import ArityMismatch, SingleClassLabel
from .learner import (
    BinaryModel,
    TreeSpec,
    append_order,
    fit_tree,
    predict_batch,
    sort_order,
    tree_to_dict,
)
from .sampling import BinaryDataset, RngStream, random_undersample


@dataclass(frozen=True)
class ChainSpec:
    """An ordered run of distinct label indices."""

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = tuple(int(j) for j in self.sequence)
        if len(seq) == 0:
            raise ValueError("chain must contain at least one label")
        if len(set(seq)) != len(seq):
            raise ValueError("chain labels must be distinct")
        if any(j < 0 for j in seq):
            raise ValueError("label indices must be non-negative")
        object.__setattr__(self, "sequence", seq)

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class ChainModel:
    """Fitted links in chain order; link j has input arity base_arity + j.

    fit_class_counts records the (positives, negatives) of each link's
    fitting set, for budget accounting and balance checks.
    """

    links: tuple[tuple[int, BinaryModel], ...]
    base_arity: int
    fit_class_counts: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        for offset, (_, model) in enumerate(self.links):
            if model.n_features != self.base_arity + offset:
                raise ValueError(
                    f"link {offset} has arity {model.n_features}, "
                    f"expected {self.base_arity + offset}"
                )

    @property
    def label_sequence(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.links)


def _check_chain(ds: MultiLabelDataset, chain: ChainSpec) -> None:
    if any(j >= ds.q for j in chain.sequence):
        raise ValueError("chain references a label outside the dataset")


def _train_chain(
    ds: MultiLabelDataset,
    chain: ChainSpec,
    spec: TreeSpec,
    rng: RngStream | None,
) -> ChainModel:
    """The link loop of both chain kinds; rng=None trains a plain chain.

    A plain chain sorts the base features once and extends that order by one
    0/1 column per link. A balanced link fits on its own kept rows, which
    fit_tree sorts.
    """
    _check_chain(ds, chain)
    links = []
    counts = []
    X_aug = ds.features
    order = sort_order(X_aug) if rng is None else None
    for offset, label in enumerate(chain.sequence):
        targets = ds.labels[:, label]
        if rng is None:
            bd = BinaryDataset(X_aug, targets)
        else:
            if not targets.any() or targets.all():
                raise SingleClassLabel(
                    f"label {label} is single-class in this training set"
                )
            kept = random_undersample(targets, rng.child(offset))
            bd = BinaryDataset(X_aug[kept], targets[kept])
        model = fit_tree(bd, spec, order)
        links.append((label, model))
        counts.append((bd.positive_count, bd.negative_count))
        if offset < len(chain) - 1:
            column = targets if rng is None else predict_batch(model, X_aug)
            X_aug = np.hstack([X_aug, column.astype(np.float64)[:, None]])
            if order is not None:
                order = append_order(order, column)
    return ChainModel(
        links=tuple(links),
        base_arity=ds.d,
        fit_class_counts=tuple(counts),
    )


def train_cc(ds: MultiLabelDataset, chain: ChainSpec, spec: TreeSpec) -> ChainModel:
    """Train a plain chain: link j sees the true values of earlier labels."""
    return _train_chain(ds, chain, spec, None)


def train_ccru(
    ds: MultiLabelDataset,
    chain: ChainSpec,
    spec: TreeSpec,
    rng: RngStream,
) -> ChainModel:
    """Train an undersampled chain.

    Each link fits on a balanced subset (majority rows removed at random) and
    then predicts every row, balanced or not, to produce the next augmented
    column. Every chained label must have both classes present.
    """
    return _train_chain(ds, chain, spec, rng)


def predict_chain_batch(model: ChainModel, X: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """One 0/1 vote vector per chained label for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.base_arity:
        raise ArityMismatch(
            f"expected {model.base_arity} features, got shape {X.shape}"
        )
    votes = []
    X_aug = X
    for offset, (label, link) in enumerate(model.links):
        preds = predict_batch(link, X_aug)
        votes.append((label, preds))
        if offset < len(model.links) - 1:
            X_aug = np.hstack([X_aug, preds.astype(np.float64)[:, None]])
    return votes


def chain_to_dict(model: ChainModel) -> dict:
    return {
        "base_arity": model.base_arity,
        "links": [
            {"label": label, "tree": tree_to_dict(tree)} for label, tree in model.links
        ],
        "fit_class_counts": [list(c) for c in model.fit_class_counts],
    }
