"""Classifier chains: plain chains and undersampled chains.

A chain trains one binary model per label along a fixed label order, feeding
each model the base features plus one extra column per earlier link. Plain
chains (the bagged-ensemble baseline) append the true values of earlier
labels during training; undersampled chains balance every link's fitting set
and append the link's own predictions over all rows instead, so removed
majority rows receive out-of-sample predictions.

A chain may train on a resample given as row ids, such as a bootstrap: it
gathers those rows into its own feature and rank-code buffers, once, so no
copy of the resample lives beside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import MultiLabelDataset
from .errors import ArityMismatch, SingleClassInput
from .learner import BinaryModel, TreeSpec, fit_tree, predict_batch
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


def _with_chain_columns(
    base: np.ndarray, links: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """One buffer for a whole chain: the base rows (all of them, or base[rows])
    followed by a column for each link but the last. Link j reads the prefix
    of the first d + j columns and writes its output into column d + j."""
    if rows is not None:
        base = base[rows]
    if links <= 1:
        return base
    return np.hstack([base, np.empty((base.shape[0], links - 1), dtype=base.dtype)])


def train_chain(
    ds: MultiLabelDataset,
    chain: ChainSpec,
    spec: TreeSpec,
    streams: list[RngStream] | None = None,
    rows: np.ndarray | None = None,
) -> ChainModel:
    """Train one chain, plain or undersampled: the link loop of every method.

    With streams=None the chain is plain: every link fits on all rows, and
    the column after it holds that link's true labels. Otherwise there must
    be one stream per link: link j fits on a balanced subset drawn from
    streams[j] (majority rows removed at random), so its label must have
    both classes, and the column after it holds the link's predictions for
    every row, balanced or not.

    The chain trains on ds.take_rows(rows), or on ds when rows is None, but
    gathers those rows itself: its features and rank codes each get one
    buffer, filled from ds once. A 0/1 column is its own rank code, so each
    link's output extends both the same way.
    """
    if any(j >= ds.q for j in chain.sequence):
        raise ValueError("chain references a label outside the dataset")
    if streams is not None and len(streams) != len(chain):
        raise ValueError(f"{len(streams)} streams for a chain of {len(chain)} links")
    links = []
    counts = []
    features = _with_chain_columns(ds.features, len(chain), rows)
    ranks = _with_chain_columns(ds.ranks, len(chain), rows)
    labels = ds.labels if rows is None else ds.labels[rows]
    for offset, label in enumerate(chain.sequence):
        width = ds.d + offset
        targets = labels[:, label]
        X, R, y = features[:, :width], ranks[:, :width], targets
        positives = int(np.count_nonzero(targets))
        fitted = (positives, targets.shape[0] - positives)
        if streams is not None:
            if 0 in fitted:
                raise SingleClassInput(
                    f"label {label} is single-class in this training set"
                )
            kept = random_undersample(targets, streams[offset])
            X, R, y = X[kept], R[kept], y[kept]
            # Balanced: the minority class and as many majority rows.
            fitted = (min(fitted),) * 2
        model = fit_tree(BinaryDataset._of_checked(X, y), spec, R)
        links.append((label, model))
        counts.append(fitted)
        if offset < len(chain) - 1:
            column = targets if streams is None else predict_batch(model, features[:, :width])
            features[:, width] = column
            ranks[:, width] = column
    return ChainModel(links=tuple(links), base_arity=ds.d, fit_class_counts=tuple(counts))


def predict_chain_batch(model: ChainModel, X: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """One 0/1 vote vector per chained label for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.base_arity:
        raise ArityMismatch(
            f"expected {model.base_arity} features, got shape {X.shape}"
        )
    votes = []
    features = _with_chain_columns(X, len(model.links))
    for offset, (label, link) in enumerate(model.links):
        width = model.base_arity + offset
        preds = predict_batch(link, features[:, :width])
        votes.append((label, preds))
        if offset < len(model.links) - 1:
            features[:, width] = preds
    return votes

