"""The tree kernel as it was before presorted feature-major lists: the
reference that tests compare chainbalance.learner.fit_tree against.

Kept unchanged: a row-major (n_node x d) order gathered at every node, a
search over (n_node x d) float temporaries, and one argsort per fit.
"""

from __future__ import annotations

import numpy as np

from chainbalance.learner import BinaryDataset, BinaryModel, TreeSpec


def _best_split(
    sorted_vals: np.ndarray, sorted_y: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Exhaustive search over all feature/threshold pairs.

    Takes per-feature value-sorted views of the node's rows and returns
    (feature, threshold), or None when no admissible split exists. Ties
    prefer the lowest feature index, then the lowest threshold.
    """
    n = sorted_vals.shape[0]
    if n < 2 * min_leaf:
        return None
    cum_pos = np.cumsum(sorted_y, axis=0, dtype=np.float64)
    total_pos = cum_pos[-1]

    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_pos = cum_pos[:-1]
    right_pos = total_pos[None, :] - left_pos

    admissible = (
        (sorted_vals[:-1] != sorted_vals[1:])
        & (left_n >= min_leaf)
        & (right_n >= min_leaf)
    )
    if not admissible.any():
        return None

    p_left = left_pos / left_n
    p_right = right_pos / right_n
    weighted = (
        left_n * 2.0 * p_left * (1.0 - p_left)
        + right_n * 2.0 * p_right * (1.0 - p_right)
    ) / n
    weighted[~admissible] = np.inf

    # Column-major argmin: lowest feature index wins ties, then lowest
    # split position (and the positions are sorted by value).
    flat = int(np.argmin(weighted.T))
    feat, pos = divmod(flat, n - 1)
    threshold = float((sorted_vals[pos, feat] + sorted_vals[pos + 1, feat]) / 2.0)
    if threshold == sorted_vals[pos + 1, feat]:
        # Adjacent doubles can round the midpoint up to the right value,
        # which would desynchronize the <= partition from the evaluated
        # boundary; clamp to the left value instead.
        threshold = float(sorted_vals[pos, feat])
    return feat, threshold


def fit_tree(bd: BinaryDataset, spec: TreeSpec) -> BinaryModel:
    """Grow a tree on a binary dataset.

    The search is exhaustive and deterministic. Feature orderings are sorted
    once at the root and partitioned stably at each split, so no node
    re-sorts its rows.
    """
    if bd.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    X = bd.features
    y = bd.targets.astype(np.int8)
    d = X.shape[1]
    col_index = np.arange(d)[None, :]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[int] = []
    max_depth_seen = 0

    def new_node(pos: int, n: int) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_value.append(1 if 2 * pos >= n else 0)
        return idx

    # order holds, per feature column, the node's row ids sorted by that
    # feature's value; every column contains the same row set.
    root_order = np.argsort(X, axis=0, kind="stable").astype(np.int32)
    root = new_node(int(y.sum()), bd.n)
    # Explicit stack: unlimited-depth trees can exceed the recursion limit.
    stack: list[tuple[int, np.ndarray, int]] = [(root, root_order, 0)]
    while stack:
        node, order, depth = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        n_node = order.shape[0]
        sorted_y = y[order]
        pos = int(sorted_y[:, 0].sum())
        if pos == 0 or pos == n_node:
            continue
        if spec.max_depth is not None and depth >= spec.max_depth:
            continue
        sorted_vals = X[order, col_index]
        found = _best_split(sorted_vals, sorted_y, spec.min_samples_leaf)
        if found is None:
            continue
        feat, thr = found
        go_left = X[:, feat] <= thr
        keep = go_left[order]  # (n_node, d); column sums are all equal
        left_n = int(keep[:, 0].sum())
        left_order = order.T[keep.T].reshape(d, left_n).T
        right_order = order.T[~keep.T].reshape(d, n_node - left_n).T
        feature[node] = feat
        threshold[node] = thr
        lpos = int(y[left_order[:, 0]].sum())
        rpos = pos - lpos
        lchild = new_node(lpos, left_n)
        rchild = new_node(rpos, n_node - left_n)
        left[node] = lchild
        right[node] = rchild
        stack.append((lchild, left_order, depth + 1))
        stack.append((rchild, right_order, depth + 1))

    return BinaryModel(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_value=np.array(leaf_value, dtype=np.int8),
        n_features=X.shape[1],
        depth=max_depth_seen,
    )


def predict_row(model: BinaryModel, row) -> int:
    """The vote for one row, walking from the root one node at a time: left
    when the value is <= the threshold, right otherwise (NaN included)."""
    node = 0
    while model.feature[node] >= 0:
        if row[model.feature[node]] <= model.threshold[node]:
            node = model.left[node]
        else:
            node = model.right[node]
    return int(model.leaf_value[node])
