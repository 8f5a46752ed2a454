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
ties included. A dataset ranks its features when built, and its subsets gather
those codes, so a fit sorts 16-bit codes, which numpy radix-sorts, instead
of doubles. Every list entry of a node is one record of the row's id,
code and target, so a split partitions the records stably with one gather
per side, and no node sorts again. Values are read only at the chosen
split, for its threshold.

Memory is bounded as in those designs. A node is searched, and split, in
blocks of consecutive features that hold at most SEARCH_CELLS list entries,
so the search's float temporaries and the partition's index arrays are
sized by the block, not by d x n. At its peak a fit holds about 16 bytes
per (feature, row), the root's 8-byte records and those of its children,
plus about 2 MB of block buffers; searching every feature at once held
about 60 bytes.

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
from .sampling import BinaryDataset


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
# features holding at most this many (feature, row) entries, so the work
# buffers are sized by the block and not by the width of the data. Smaller
# blocks cost numpy calls per node; larger ones cost memory per fit. At
# 2**16, a fit on 1,200 rows x 300 features peaks at 23 bytes per entry
# (33 at 2**17, 46 at 2**18) and takes no longer than at 2**17 or 2**18.
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
    record = np.dtype([("id", np.int32), ("code", ranks.dtype), ("tgt", np.int8)], align=True)
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


def fit_tree(
    bd: BinaryDataset, spec: TreeSpec, ranks: np.ndarray | None = None
) -> BinaryModel:
    """Grow a tree on a binary dataset.

    ranks is an (n, d) integer matrix whose columns order like those of
    bd.features and are equal where they are, such as rank_codes of these
    rows or of any superset; it is computed here when not given. Each node
    carries a (d, m) array of (id, code, tgt) records of its rows, row f
    sorted by feature f. The search scans the prefix sums of positives along
    the rows of one feature block at a time (see SEARCH_CELLS). A block of
    more than two features, at least EXTREMES_CELLS entries and at most
    65,536 rows evaluates the Gini only at each position's largest and
    smallest admissible left-positive count, where alone the minimum can
    lie, since the weighted Gini is strictly concave in that count; the
    bound on the rows keeps the concavity margin above the formula's
    rounding (see the module docstring). A split partitions the records
    stably, so the children need no sort and no gather from the full matrix.
    A record takes 8 bytes (an int32 id, a 16-bit code and an int8 target,
    aligned), 12 with 32-bit codes; a split holds its node's and its
    children's, so a fit peaks near 16 bytes per (feature, row) plus the
    block-sized buffers.
    """
    if bd.n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    X = bd.features
    y = bd.targets
    n, d = X.shape
    if ranks is None:
        ranks = rank_codes(X)
    elif ranks.shape != (n, d):
        raise ValueError(f"ranks has shape {ranks.shape}, expected {(n, d)}")
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

    # Work buffers for one block of the search: a block of the root holds at
    # most max(SEARCH_CELLS, n) list entries, and no node has more rows. A
    # node of m rows has k = m - 2*min_leaf + 1 candidate positions
    # lo..hi-1: the split after position i leaves i+1 rows left and m-i-1
    # right, both >= min_leaf.
    counts = np.arange(n + 1, dtype=np.float64)
    twice = 2.0 * counts
    size = min(d * n, max(SEARCH_CELLS, n))
    # Left-positive counts, with the wide search's penalty m + 2 added, stay
    # below 2n + 3, so int16 holds them up to 16,382 rows and halves the bytes
    # the count passes move.
    count_type = np.int16 if 2 * n + 2 < 1 << 15 else np.int32
    cum_buf = np.empty(size, dtype=count_type)
    gini_buf = np.empty(size)
    other_buf = np.empty(size)
    tmp_buf = np.empty(size)
    tie_buf = np.empty(size, dtype=bool)
    goes_left = np.empty(n, dtype=bool)
    table_rows = GINI_TABLE_ROWS
    terms, row_base = _gini_terms(table_rows)
    stride = table_rows + 1

    def splittable(pos: int, m: int, depth: int) -> bool:
        return 0 < pos < m and d > 0 and depth < max_depth and m >= 2 * min_leaf

    def weighted_gini(left_pos: np.ndarray, pos: int, m: int, lo: int, hi: int) -> np.ndarray:
        """The weighted Gini of the split after each position lo..hi-1 of a
        node of m rows and pos positives, for each row of left-positive
        counts, operation for operation as (ln*2*pl*(1-pl) + rn*2*pr*(1-pr))
        / m, so that equal inputs give equal floats."""
        rows, k = left_pos.shape[0], hi - lo
        gini = gini_buf[: rows * k].reshape(rows, k)
        other = other_buf[: rows * k].reshape(rows, k)
        tmp = tmp_buf[: rows * k].reshape(rows, k)
        np.divide(left_pos, counts[lo + 1 : hi + 1], out=gini)
        np.subtract(1.0, gini, out=tmp)
        np.multiply(gini, twice[lo + 1 : hi + 1], out=gini)
        np.multiply(gini, tmp, out=gini)
        np.subtract(pos, left_pos, out=other)
        np.divide(other, counts[hi:lo:-1], out=other)
        np.subtract(1.0, other, out=tmp)
        np.multiply(other, twice[hi:lo:-1], out=other)
        np.multiply(other, tmp, out=other)
        np.add(gini, other, out=gini)
        np.divide(gini, m, out=gini)
        return gini

    def table_gini(left_pos: np.ndarray, pos: int, m: int, lo: int, hi: int) -> np.ndarray:
        """weighted_gini of a node of at most table_rows rows: each child's
        term ln*2*pl*(1-pl) is read from the table, which holds the floats
        that weighted_gini computes for it, so the sum and quotient are the
        same too (see the module docstring)."""
        # The left child's entry is ln * stride + lp; the right child's,
        # rn * stride + pos - lp, is m * stride + pos minus the left's.
        at = left_pos + row_base[lo + 1 : hi + 1]
        gini = terms.take(at)
        np.subtract(m * stride + pos, at, out=at)
        gini += terms.take(at)
        gini /= m
        return gini

    # Explicit stack: unlimited-depth trees can exceed the recursion limit.
    # A node pushed without lists is a leaf.
    stack = [(0, _presort(ranks, y) if splittable(pos, n, 0) else None, 0, pos)]
    while stack:
        node, lists, depth, pos = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        if lists is None:
            continue
        ids, codes, tgt = lists["id"], lists["code"], lists["tgt"]
        m = lists.shape[1]
        lo, hi = min_leaf - 1, m - min_leaf
        k = hi - lo
        # The running best starts at 1.0, which no candidate reaches. A later
        # block must be strictly better, so ties keep the lowest feature.
        best_gini = 1.0
        # Features per block: as many lists as SEARCH_CELLS entries hold.
        step = max(1, SEARCH_CELLS // m)
        narrow_gini = table_gini if m <= table_rows else weighted_gini
        for f0 in range(0, d, step):
            nf = min(step, d - f0)
            # ufunc.accumulate is what the cumsum method calls, minus about
            # 1 us of lookup per call.
            cum = np.add.accumulate(
                tgt[f0 : f0 + nf], axis=1, dtype=count_type, out=cum_buf[: nf * m].reshape(nf, m)
            )
            left_pos = cum[:, lo:hi]
            # A split between equal codes is not a candidate. The block's
            # records are C-contiguous, so its codes flatten to one strided
            # view and the comparison is one pass; the pairs that straddle
            # two features' lists fall outside the candidate columns.
            flat = codes[f0 : f0 + nf].reshape(-1)
            np.equal(flat[:-1], flat[1:], out=tie_buf[: nf * m - 1])
            tie = tie_buf[: nf * m].reshape(nf, m)[:, lo:hi]
            wide = nf > 2 and nf * m >= EXTREMES_CELLS and m <= 1 << 16
            if wide:
                # Only a position's largest and smallest admissible count can
                # hold the minimum (see the module docstring). The count
                # scratch lives in the float buffers: pen and work in tmp's
                # and other's bytes, the (2, k) extremes at the end of gini's,
                # past the (2, k) floats written below.
                pen = tmp_buf.view(count_type)[: nf * k].reshape(nf, k)
                work = other_buf.view(count_type)[: nf * k].reshape(nf, k)
                ends = gini_buf.view(count_type)[-2 * k :].reshape(2, k)
                # pen = m + 2 at equal codes moves their count below 0 for
                # the max and above m for the min, so it wins neither.
                np.multiply(tie, count_type(m + 2), out=pen)
                np.subtract(left_pos, pen, out=work)
                work.max(axis=0, out=ends[0])
                np.add(left_pos, pen, out=work)
                work.min(axis=0, out=ends[1])
                gini = weighted_gini(ends, pos, m, lo, hi)
                # A position with no admissible feature got penalised counts,
                # whose Ginis can be negative: overwrite them with 1.
                np.copyto(gini, 1.0, where=ends[0] < 0)
            else:
                gini = narrow_gini(left_pos, pos, m, lo, hi)
                # Add 1 at equal codes, above any weighted Gini (at most
                # 0.5), leaving the others exact.
                np.add(gini, tie, out=gini)
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
        sides = (splittable(lpos, left_n, depth + 1), splittable(rpos, right_n, depth + 1))
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

