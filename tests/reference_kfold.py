"""The stratified fold splitter as it was before it returned fold ids: the
reference that tests compare chainbalance.sampling.iterative_stratified_kfold
against.

Kept unchanged: an assignment array, a mask of unplaced rows and per-fold
row lists, with one placement loop for rows that hold a positive label and
a second one for the rows left without any. Returns k sorted row index
arrays.
"""

from __future__ import annotations

import numpy as np

from chainbalance.dataset import MultiLabelDataset
from chainbalance.errors import ConfigError
from chainbalance.sampling import RngStream


def iterative_stratified_kfold(
    ds: MultiLabelDataset, k: int, rng: RngStream
) -> list[np.ndarray]:
    """Split rows into k folds preserving per-label positive proportions.

    Greedy assignment: repeatedly take the label with the fewest unassigned
    positives and hand each of its rows to the fold that still wants the most
    positives of that label, breaking ties by remaining fold capacity and
    then at random. Fold sizes differ by at most one. Returns sorted row
    index arrays that partition [0, n).
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if ds.n < k:
        raise ConfigError("cannot split fewer rows than folds")
    gen = rng.generator()
    n, q = ds.n, ds.q
    labels = ds.labels
    capacity = np.full(k, n // k, dtype=np.int64)
    capacity[: n % k] += 1
    # desire[f, l]: how many positives of label l fold f still wants.
    desire = np.tile(labels.sum(axis=0).astype(np.float64) / k, (k, 1))
    assigned = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    folds: list[list[int]] = [[] for _ in range(k)]

    def place(row: int, fold: int) -> None:
        assigned[row] = fold
        remaining[row] = False
        capacity[fold] -= 1
        desire[fold] -= labels[row]
        folds[fold].append(row)

    while remaining.any():
        counts = labels[remaining].sum(axis=0)
        positive_labels = np.flatnonzero(counts > 0)
        if positive_labels.size == 0:
            # Rows with no positive labels left: balance by capacity.
            for row in np.flatnonzero(remaining):
                open_folds = np.flatnonzero(capacity > 0)
                best = open_folds[capacity[open_folds] == capacity[open_folds].max()]
                fold = int(best[0]) if best.size == 1 else int(gen.choice(best))
                place(int(row), fold)
            break
        rarest = int(positive_labels[np.argmin(counts[positive_labels])])
        rows = np.flatnonzero(remaining & (labels[:, rarest] == 1))
        for row in rows:
            open_folds = np.flatnonzero(capacity > 0)
            want = desire[open_folds, rarest]
            candidates = open_folds[want == want.max()]
            if candidates.size > 1:
                caps = capacity[candidates]
                candidates = candidates[caps == caps.max()]
            fold = int(candidates[0]) if candidates.size == 1 else int(gen.choice(candidates))
            place(int(row), fold)

    return [np.array(sorted(rows), dtype=np.int64) for rows in folds]
