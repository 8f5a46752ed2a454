"""Binary CART-style decision tree minimizing Gini impurity.

The tree is grown greedily with an exhaustive split search: candidate
thresholds are the midpoints between consecutive distinct sorted values of
each feature. An impure node splits whenever an admissible candidate exists,
even at zero impurity reduction (otherwise parity-style patterns could never
be separated); growth stops on purity, the depth limit, or when every
candidate would starve a child below min_samples_leaf. Fitting is fully
deterministic; ties between equally good splits resolve to the lowest
feature index and then the lowest threshold, so row order never affects the
result.

The search works on presorted feature-major lists, as in SLIQ and SPRINT
(Mehta et al. 1996; Shafer et al. 1996), of integer rank codes
(dataset.rank_codes) instead of values. Codes order like the values and are
equal exactly where the values are, so sorting codes gives the same lists,
ties included. A dataset ranks its features when built, its subsets and a
chain's links gather those codes, and a fit sorts its BinaryDataset's 16-bit
codes, which numpy radix-sorts, instead of doubles. Every list entry of a
node is one record of the row's id, code and target, so a split partitions
the records stably with one gather per side, and no node sorts again.
Values are read only at the chosen split, for its threshold.

Memory is bounded as in those designs. A node is searched, and split, in
blocks of consecutive features that hold at most SEARCH_CELLS list entries,
and each block makes its own temporaries, so they are sized by the block,
not by d x n. At its peak a fit holds the root's 8-byte records, those of
its children and one block's temporaries: 18.6 bytes per (feature, row) on
1,200 rows x 300 features, 22.8 on 1,208 x 110, where a block is a larger
share of the whole. Searching every feature at once held about 60 bytes.

A wide block (more than two features, at least EXTREMES_CELLS entries, at
most 65,536 rows) evaluates two candidates per position instead of one per
feature. At the split after a position the children's sizes ln and rn are
fixed, and m*ln*rn times the weighted Gini is an integer that is strictly
concave in the left-positive count lp. So at that position any count
between the smallest and the largest admissible one is worse than one of
those two by at least 1/(m*ln*rn) >= 4/m**3, which at 65,536 rows is
1.4e-14, about ten times the float formula's worst rounding: its float Gini
is never at or below the block's float minimum. The two extremes get the
same floats as the full scan gives them, so taking the lowest feature, then
the lowest position, among the entries that equal the minimum chooses the
same split, and the trees are the same as from the full scan.

Small nodes read the Gini from a table. Any other block of a node of at
most GINI_TABLE_ROWS rows gathers each child's term ((c/s)*2s)*(1-c/s), for
c positives of s rows, from one table that the process builds on first use
by the operations weighted_gini applies to each entry: divide, subtract
from 1, multiply by 2s, multiply. It then adds the two children's terms and
divides by m, as weighted_gini does. The same operations on the same
operands give the same IEEE doubles, so every candidate gets the same float
as from weighted_gini, and the argmin and the tree are the same; the block
takes 6 numpy calls instead of 11.

Prediction walks a routing table derived once per model, in which both
children of a leaf are the leaf itself. Every row takes model.depth steps
from the root, each a gather of its node's feature and threshold, the
comparison value <= threshold and a gather of the child, and a row that
reaches a leaf early stays there. The comparison is the one a walk of a
single row makes, NaN going right, so the votes are the same, without
keeping a set of the rows still moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dataset import rank_codes
from .errors import ArityMismatch, ConfigError


@dataclass(frozen=True)
class TreeSpec:
    """Tree growth limits. max_depth=None grows until no admissible split."""

    max_depth: int | None = None
    min_samples_leaf: int = 2

    def __post_init__(self) -> None:
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError("max_depth must be None or >= 0")


@dataclass(frozen=True)
class BinaryDataset:
    """A feature matrix without NaN, a 0/1 target column and the rank codes
    that fit_tree sorts. Built, it keeps read-only copies and ranks them, so
    no later write puts the codes out of step; _of_checked takes a chain's."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64)
        targs = np.asarray(self.targets)
        if feats.ndim != 2 or targs.ndim != 1:
            raise ValueError("features must be 2-D and targets 1-D")
        if feats.shape[0] != targs.shape[0]:
            raise ValueError("features and targets disagree on row count")
        if not ((targs == 0) | (targs == 1)).all():
            raise ValueError("targets must be 0/1")
        if np.isnan(feats).any():
            raise ValueError("features must not be NaN")
        targs = targs.astype(np.int8)
        ranks = rank_codes(feats)
        for values in (feats, targs, ranks):
            values.setflags(write=False)
        vars(self).update(features=feats, targets=targs, ranks=ranks)

    @classmethod
    def _of_checked(
        cls, features: np.ndarray, targets: np.ndarray, ranks: np.ndarray
    ) -> "BinaryDataset":
        """A dataset of float64 features, int8 0/1 targets and their rank
        codes, such as a chain's buffers, built without checking or ranking
        them again. The codes may be ranked on these rows or on any superset:
        each column need only order like its feature and be equal where it is."""
        bd = object.__new__(cls)
        vars(bd).update(features=features, targets=targets, ranks=ranks)
        return bd

    @property
    def n(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True)
class BinaryModel:
    """A fitted tree stored as parallel node arrays.

    feature[i] < 0 marks node i as a leaf. Internal nodes route a sample left
    when value <= threshold. Leaves carry the majority vote (ties predict 1).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    n_features: int
    depth: int

    @property
    def node_count(self) -> int:
        return self.feature.shape[0]

    @cached_property
    def _route(self) -> tuple:
        """predict_batch's (feature, threshold, child, value) over node ids
        doubled: a row at 2i goes to child[2i + (x[feature[2i]] <=
        threshold[2i])]. Both children of a leaf are the leaf itself, so a
        row that reaches it stays, whatever its comparison of the last
        column (feature -1) gives."""
        child = np.empty((self.node_count, 2), dtype=np.intp)
        child[:, 0] = self.right
        child[:, 1] = self.left
        leaf = (self.feature < 0)[:, None]
        np.copyto(child, np.arange(self.node_count)[:, None], where=leaf)
        child *= 2
        return (
            self.feature.repeat(2),
            self.threshold.repeat(2),
            child.ravel(),
            self.leaf_value.repeat(2),
        )


# Most list entries that one step of the search works on. A node's features
# are searched, and a split partitions them, in blocks of consecutive
# features holding at most this many (feature, row) entries, so the
# search's temporaries are sized by the block and not by the width of the
# data. Smaller blocks cost numpy calls per node; larger ones cost memory
# per fit. At 2**16, a fit on 1,200 rows x 300 features peaks at 18.6 bytes
# per entry (21.5 at 2**17, 24.0 at 2**18) and takes as long as at either.
SEARCH_CELLS = 1 << 16

# Fewest list entries for which a search block of three or more features
# takes each position's extreme left-positive counts and evaluates the Gini
# of those alone. The extreme counts cost five integer passes over the block
# and a few calls to find the winning feature, which save more than they
# cost from about this size on: on a root search of 24 or 110 features, in
# two runs, extremes over all-entries time was 1.00-1.26 at 4,096 entries,
# 0.87-0.95 at 6,144 and 0.81-0.93 at 8,192.
EXTREMES_CELLS = 6144

# Most rows of a node whose narrow search blocks read the children's Gini
# terms from _gini_terms' table instead of computing them. The table takes
# (GINI_TABLE_ROWS + 1)**2 doubles, 0.53 MB at 256; its build peaks at 1.13 MB.
GINI_TABLE_ROWS = 256

@cache
def _gini_terms(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat table T with T[s * (rows + 1) + c] = ((c/s)*2s)*(1-c/s), a
    child's term of the weighted Gini for c positives of s rows, by the same
    float operations as fit_tree's weighted_gini; and the row offsets
    s * (rows + 1). Built once per process, on first use, in place."""
    sizes = np.arange(rows + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # row 0 is unused
        terms = np.divide(sizes, sizes[:, None])
        rest = 1.0 - terms
        terms *= (2.0 * sizes)[:, None]
        terms *= rest
    terms.flags.writeable = False
    return terms.ravel(), np.arange(0, (rows + 1) ** 2, rows + 1)


def _presort(ranks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The root's (d, n) lists of (id, code, tgt) records, row f sorted by
    feature f. Features are sorted a block at a time, straight into the
    records, so the temporaries stay within a block."""
    n, d = ranks.shape
    record = np.dtype([("id", np.int32), ("code", ranks.dtype), ("tgt", np.int16)], align=True)
    lists = np.empty((d, n), dtype=record)
    step = max(1, SEARCH_CELLS // n)
    for f0 in range(0, d, step):
        block = lists[f0 : f0 + step]
        columns = np.ascontiguousarray(ranks[:, f0 : f0 + step].T)
        ids = columns.argsort(axis=1, kind="stable")
        block["id"] = ids
        block["tgt"] = y.take(ids)
        ids += np.arange(0, columns.size, n)[:, None]
        block["code"] = columns.take(ids)
    return lists


def _split_lists(lists: np.ndarray, goes_left: np.ndarray, left_n: int, sides: tuple) -> tuple:
    """The left and right children's lists, None for a side that sides[0]
    or sides[1] does not ask for. A child keeps the records of its rows in
    list order, so its lists stay sorted."""
    nf, m = lists.shape
    mask = goes_left.take(lists["id"]).ravel()
    left = lists.take(mask.nonzero()[0]).reshape(nf, left_n) if sides[0] else None
    right = lists.take((~mask).nonzero()[0]).reshape(nf, m - left_n) if sides[1] else None
    return left, right


def _partition(
    lists: np.ndarray, goes_left: np.ndarray, left_n: int, sides: tuple, step: int
) -> tuple:
    """_split_lists of a node of several blocks of step features: it fills
    its children's lists in place block by block, so the temporaries stay
    within a block."""
    d, m = lists.shape
    children = tuple(
        np.empty((d, size), dtype=lists.dtype) if wanted else None
        for wanted, size in zip(sides, (left_n, m - left_n))
    )
    for f0 in range(0, d, step):
        block = lists[f0 : f0 + step]
        mask = goes_left.take(block["id"]).ravel()
        for child, keep in zip(children, (mask, ~mask)):
            if child is not None:
                # keep is in range; "clip" writes into out, where "raise" buffers.
                out = child[f0 : f0 + step].reshape(-1)
                block.take(keep.nonzero()[0], out=out, mode="clip")
    return children


def fit_tree(bd: BinaryDataset, spec: TreeSpec) -> BinaryModel:
    """Grow a tree on a binary dataset.

    The root's lists sort bd.ranks, the dataset's rank codes. Each node
    carries a (d, m) array of (id, code, tgt) records of its rows, row f
    sorted by feature f. The search scans the prefix sums of positives along
    the rows of one feature block at a time (see SEARCH_CELLS), and every
    temporary it makes is sized by its block. A block of more than two
    features, at least EXTREMES_CELLS entries and at most 65,536 rows
    evaluates the Gini only at each position's largest and smallest
    admissible left-positive count, where alone the minimum can lie, since
    the weighted Gini is strictly concave in that count; the bound on the
    rows keeps the concavity margin above the formula's rounding (see the
    module docstring). A split partitions the records stably, so the
    children need no sort and no gather from the full matrix. A record takes
    8 bytes (an int32 id, a 16-bit code and an int16 target), 12 with 32-bit
    codes; a split holds its node's and its children's, so a fit peaks near
    16 bytes per (feature, row) plus one block's temporaries.
    """
    if bd.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    X = bd.features
    y = bd.targets
    n, d = X.shape
    min_leaf = spec.min_samples_leaf
    # A tree of n rows is less than n deep, so n stands for no limit.
    max_depth = n if spec.max_depth is None else spec.max_depth
    pos = int(np.count_nonzero(y))

    # Node i is a leaf while feature[i] is -1; the root is node 0.
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    leaf_value = [int(2 * pos >= n)]
    max_depth_seen = 0

    counts = np.arange(n + 1, dtype=np.float64)
    twice = 2.0 * counts
    # Left-positive counts, with the wide search's penalty m + 2 added, stay
    # below 2n + 3, so int16 holds them up to 16,382 rows, the targets' own
    # type, and halves the bytes the count passes move.
    count_type = np.int16 if 2 * n + 2 < 1 << 15 else np.int32
    goes_left = np.empty(n, dtype=bool)
    table_rows = GINI_TABLE_ROWS
    terms, row_base = _gini_terms(table_rows)
    stride = table_rows + 1

    def weighted_gini(left_pos: np.ndarray, pos: int, m: int, lo: int, hi: int) -> np.ndarray:
        """The weighted Gini of the split after each position lo..hi-1 of a
        node of m rows and pos positives, for each row of left-positive
        counts, operation for operation as (ln*2*pl*(1-pl) + rn*2*pr*(1-pr))
        / m, so that equal inputs give equal floats."""
        share = left_pos / counts[lo + 1 : hi + 1]
        gini = share * twice[lo + 1 : hi + 1]
        gini *= 1.0 - share
        share = (pos - left_pos) / counts[hi:lo:-1]
        other = share * twice[hi:lo:-1]
        other *= 1.0 - share
        gini += other
        gini /= m
        return gini

    # Explicit stack: unlimited-depth trees can exceed the recursion limit.
    # Only an impure node above the depth limit with rows for two leaves
    # grows; one pushed without lists is a leaf.
    grows = 0 < pos < n and 0 < max_depth and n >= 2 * min_leaf
    stack = [(0, _presort(bd.ranks, y) if grows else None, 0, pos)]
    while stack:
        node, lists, depth, pos = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        if lists is None:
            continue
        ids, codes, tgt = lists["id"], lists["code"], lists["tgt"]
        m = lists.shape[1]
        # The split after position i leaves i+1 rows left and m-i-1 right,
        # both >= min_leaf, so the candidates are positions lo..hi-1.
        lo, hi = min_leaf - 1, m - min_leaf
        k = hi - lo
        # The running best starts at 1.0, which no candidate reaches. A later
        # block must be strictly better, so ties keep the lowest feature.
        best_gini = 1.0
        # Features per block: as many lists as SEARCH_CELLS entries hold.
        step = max(1, SEARCH_CELLS // m)
        for f0 in range(0, d, step):
            nf = min(step, d - f0)
            # ufunc.accumulate is what the cumsum method calls, minus about
            # 1 us of lookup per call.
            cum = np.add.accumulate(tgt[f0 : f0 + nf], axis=1, dtype=count_type)
            left_pos = cum[:, lo:hi]
            # A split between equal codes is not a candidate.
            tie = codes[f0 : f0 + nf, lo:hi] == codes[f0 : f0 + nf, lo + 1 : hi + 1]
            wide = nf > 2 and nf * m >= EXTREMES_CELLS and m <= 1 << 16
            if wide:
                # Only a position's largest and smallest admissible count can
                # hold the minimum (see the module docstring). pen = m + 2 at
                # equal codes moves their count below 0 for the max and above
                # m for the min, so it wins neither.
                pen = tie * count_type(m + 2)
                ends = np.stack(((left_pos - pen).max(axis=0), (left_pos + pen).min(axis=0)))
                gini = weighted_gini(ends, pos, m, lo, hi)
                # A position with no admissible feature got penalised counts,
                # whose Ginis can be negative: overwrite them with 1.
                np.copyto(gini, 1.0, where=ends[0] < 0)
            else:
                if m <= table_rows:
                    # Each child's term ln*2*pl*(1-pl) is read from the table,
                    # which holds the floats that weighted_gini computes for
                    # it, so the sum and quotient are the same too (see the
                    # module docstring). The left child's entry is ln * stride
                    # + lp; the right child's, rn * stride + pos - lp, is
                    # m * stride + pos minus the left's.
                    cell = left_pos + row_base[lo + 1 : hi + 1]
                    gini = terms.take(cell)
                    gini += terms.take(m * stride + pos - cell)
                    gini /= m
                else:
                    gini = weighted_gini(left_pos, pos, m, lo, hi)
                # Add 1 at equal codes, above any weighted Gini (at most
                # 0.5), leaving the others exact.
                gini += tie
            i = int(gini.argmin())
            value = gini.flat[i]
            if value < best_gini:
                best_gini = value
                if wide:
                    # The winner is the lowest feature, then the lowest
                    # position, among the admissible entries whose count is
                    # an extreme that reaches the minimum.
                    rows, cols = (gini == value).nonzero()
                    ok = left_pos[:, cols] == ends[rows, cols]
                    ok &= ~tie[:, cols]
                    feat, at = min(zip(ok.argmax(axis=0).tolist(), cols.tolist()))
                else:
                    # C-order argmin: lowest feature first, then lowest position.
                    feat, at = divmod(i, k)
                at += lo
                lpos = int(cum[feat, at])
                feat += f0
        if best_gini >= 1.0:
            continue
        # The codes differ across the boundary, so the values do: low < high.
        low = float(X[ids[feat, at], feat])
        high = float(X[ids[feat, at + 1], feat])
        thr = (low + high) / 2.0
        if not low <= thr < high:
            # Adjacent doubles can round the midpoint up to the right value,
            # and huge ones overflow it, which would desynchronize the <=
            # partition from the evaluated boundary; clamp to the left value.
            thr = low
        # The left child is the prefix of feature feat's list up to the boundary.
        left_n = at + 1
        right_n = m - left_n
        rpos = pos - lpos
        lchild = len(feature)
        feature[node] = feat
        threshold[node] = thr
        left[node] = lchild
        right[node] = lchild + 1
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        right += (-1, -1)
        leaf_value += (int(2 * lpos >= left_n), int(2 * rpos >= right_n))
        # Children that will be leaves get no lists.
        sides = tuple(
            0 < p < s and depth + 1 < max_depth and s >= 2 * min_leaf
            for p, s in ((lpos, left_n), (rpos, right_n))
        )
        left_lists = right_lists = None
        if any(sides):
            goes_left.put(ids[feat, :left_n], True)
            goes_left.put(ids[feat, left_n:], False)
            # One block splits faster with _split_lists than with _partition's
            # preallocated fill. Routing every node through _partition took
            # the 3,736 fits of a flags-protocol seed-3 run_cv, refitted
            # alone, from 1.88 to 2.02 s (medians of 10 alternating pairs on
            # a 2-core VM; slower in 9/10).
            if step >= d:
                left_lists, right_lists = _split_lists(lists, goes_left, left_n, sides)
            else:
                left_lists, right_lists = _partition(lists, goes_left, left_n, sides, step)
        stack.append((lchild, left_lists, depth + 1, lpos))
        stack.append((lchild + 1, right_lists, depth + 1, rpos))

    return BinaryModel(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_value=np.array(leaf_value, dtype=np.int8),
        n_features=d,
        depth=max_depth_seen,
    )


def feature_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    """X as float64 rows of n_features columns; ArityMismatch otherwise."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ArityMismatch(f"expected {n_features} features, got shape {X.shape}")
    return X


def predict_batch(model: BinaryModel, X: np.ndarray) -> np.ndarray:
    """Predict a 0/1 vector for every row of X."""
    X = feature_rows(X, model.n_features)
    feature, threshold, child, value = model._route
    rows = np.arange(X.shape[0])
    # Every row walks model.depth steps; one that reaches a leaf early stays.
    at = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(model.depth):
        at = child.take(at + (X[rows, feature.take(at)] <= threshold.take(at)))
    return value.take(at)

