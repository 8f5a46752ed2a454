"""Seeded resampling primitives: substreams, bootstrap, undersampling, folds.

Every random operation takes an RngStream, a (master seed, path) pair that
deterministically identifies an independent substream. Work items derive
their own child streams, so parallel and sequential execution draw identical
random sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import MultiLabelDataset
from .errors import ConfigError, SingleClassInput


@dataclass(frozen=True)
class RngStream:
    """A reproducible random substream identified by (master_seed, path).

    Identical pairs yield identical sequences; distinct paths yield
    statistically independent streams (numpy SeedSequence spawn keys).
    """

    master_seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if any(p < 0 for p in self.path):
            raise ValueError("path entries must be non-negative")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, *steps: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(int(s) for s in steps))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def derive_seed(master_seed: int, *path: int) -> int:
    """A 64-bit seed derived from a master seed and a path, stable across runs."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    words = seq.generate_state(2, dtype=np.uint32)
    return int(words[0]) << 32 | int(words[1])


@dataclass(frozen=True)
class BinaryDataset:
    """Feature matrix without NaN plus a single binary target column."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self._settle(self.features, self.targets, checked=False)

    @classmethod
    def _of_checked(cls, features: np.ndarray, targets: np.ndarray) -> "BinaryDataset":
        """A dataset whose features and targets come from an already
        validated dataset, such as a chain's buffers, built without checking
        again for NaN features or targets other than 0/1."""
        bd = object.__new__(cls)
        bd._settle(features, targets, checked=True)
        return bd

    def _settle(self, features, targets, checked: bool) -> None:
        feats = np.asarray(features, dtype=np.float64)
        targs = np.asarray(targets)
        if feats.ndim != 2 or targs.ndim != 1:
            raise ValueError("features must be 2-D and targets 1-D")
        if feats.shape[0] != targs.shape[0]:
            raise ValueError("features and targets disagree on row count")
        if not checked and not ((targs == 0) | (targs == 1)).all():
            raise ValueError("targets must be 0/1")
        if not checked and np.isnan(feats).any():
            raise ValueError("features must not be NaN")
        targs = targs.astype(np.int8, copy=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n(self) -> int:
        return self.targets.shape[0]


def bootstrap(ds: MultiLabelDataset, rng: RngStream) -> np.ndarray:
    """The row ids of a resample of n rows drawn uniformly with replacement,
    in draw order. Callers gather the rows they need, so a bagged round
    holds no copy of the dataset beside its chain buffers."""
    gen = rng.generator()
    return gen.integers(0, ds.n, size=ds.n)


def random_undersample(targets: np.ndarray, rng: RngStream) -> np.ndarray:
    """The row ids that balance a 0/1 target vector, in increasing order.

    Majority rows are dropped uniformly at random until both classes are
    equal; every minority row is kept. Requires both classes present, and
    integer or boolean targets.
    """
    n = targets.shape[0]
    counts = np.bincount(targets, minlength=2)
    if counts.size != 2:
        raise ValueError("targets must be 0/1")
    neg, pos = counts.tolist()
    if pos == 0 or neg == 0:
        raise SingleClassInput(
            f"undersampling needs both classes, got {pos} positives / {neg} negatives"
        )
    if pos == neg:
        return np.arange(n)
    majority_rows = np.flatnonzero(targets == (1 if pos > neg else 0))
    gen = rng.generator()
    removed = gen.choice(majority_rows, size=abs(pos - neg), replace=False)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep)


def iterative_stratified_kfold(
    ds: MultiLabelDataset, k: int, rng: RngStream
) -> np.ndarray:
    """Split rows into k folds preserving per-label positive proportions.

    Iterative stratification (Sechidis, Tsoumakas and Vlahavas, 2011):
    repeatedly take the label with the fewest unplaced positives and hand
    each of its rows to the fold that still wants the most positives of that
    label, breaking ties by remaining fold capacity and then by a seeded
    draw. Rows without a positive label go by capacity alone. Fold sizes
    differ by at most one. Returns fold_of, an int64 array where fold_of[i]
    is row i's fold in [0, k).
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if ds.n < k:
        raise ConfigError("cannot split fewer rows than folds")
    gen = rng.generator()
    n = ds.n
    labels = ds.labels
    capacity = np.full(k, n // k, dtype=np.int64)
    capacity[: n % k] += 1
    # desire[f, l]: how many positives of label l fold f still wants.
    desire = np.tile(labels.sum(axis=0).astype(np.float64) / k, (k, 1))
    fold_of = np.full(n, -1, dtype=np.int64)

    while (unplaced := fold_of < 0).any():
        counts = labels[unplaced].sum(axis=0)
        positive_labels = np.flatnonzero(counts > 0)
        if positive_labels.size:
            label = int(positive_labels[np.argmin(counts[positive_labels])])
            rows = np.flatnonzero(unplaced & (labels[:, label] == 1))
        else:
            label = None
            rows = np.flatnonzero(unplaced)
        for row in rows:
            candidates = np.flatnonzero(capacity > 0)
            if label is not None:
                want = desire[candidates, label]
                candidates = candidates[want == want.max()]
            if candidates.size > 1:
                caps = capacity[candidates]
                candidates = candidates[caps == caps.max()]
            fold = int(candidates[0]) if candidates.size == 1 else int(gen.choice(candidates))
            fold_of[row] = fold
            capacity[fold] -= 1
            desire[fold] -= labels[row]
    return fold_of
