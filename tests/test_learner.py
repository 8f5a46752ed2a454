from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainbalance.learner as learner_module
from chainbalance.dataset import (
    Attribute,
    MultiLabelDataset,
    rank_codes,
    reduce_features_by_frequency,
)
from chainbalance.errors import ArityMismatch
from chainbalance.learner import TreeSpec, fit_tree, predict_batch
from chainbalance.sampling import BinaryDataset
from conftest import model_payload
from reference_tree import fit_tree as reference_fit_tree
from reference_tree import predict_row as reference_predict_row

UNLIMITED = TreeSpec(max_depth=None, min_samples_leaf=1)


def _bd(values, targets) -> BinaryDataset:
    X = np.asarray(values, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return BinaryDataset(X, np.asarray(targets, dtype=np.int8))


def _predict_row(model, row) -> int:
    return int(predict_batch(model, np.array([row], dtype=np.float64))[0])


def test_pure_input_single_leaf():
    model = fit_tree(_bd([1.0, 2.0, 3.0], [1, 1, 1]), TreeSpec())
    assert model.node_count == 1
    assert model.feature[0] == -1
    assert _predict_row(model, [99.0]) == 1
    assert _predict_row(model, [-5.0]) == 1


def test_no_features_single_leaf():
    # Without features there is no candidate split: one leaf, the majority.
    bd = BinaryDataset(np.empty((5, 0)), np.array([1, 0, 1, 1, 0], dtype=np.int8))
    model = fit_tree(bd, UNLIMITED)
    assert model.node_count == 1 and model.depth == 0
    assert model.n_features == 0
    assert predict_batch(model, np.empty((3, 0))).tolist() == [1, 1, 1]


def test_depth_one_split():
    model = fit_tree(_bd([0, 1, 2, 3], [0, 0, 1, 1]), TreeSpec())
    assert model.depth == 1
    assert model.feature[0] == 0
    assert model.threshold[0] == pytest.approx(1.5)
    assert predict_batch(model, np.array([[0.0], [1.0], [2.0], [3.0]])).tolist() == [0, 0, 1, 1]
    assert _predict_row(model, [0.0]) == 0
    assert _predict_row(model, [3.0]) == 1


def test_xor_shattered():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
    y = np.array([0, 1, 1, 0], dtype=np.int8)
    model = fit_tree(BinaryDataset(X, y), TreeSpec(max_depth=2, min_samples_leaf=1))
    assert np.array_equal(predict_batch(model, X), y)


def test_arity_mismatch():
    model = fit_tree(_bd([0, 1], [0, 1]), UNLIMITED)
    with pytest.raises(ArityMismatch, match=r"^expected 1 features, got shape \(1, 2\)$"):
        predict_batch(model, np.array([[0.0, 1.0]]))
    with pytest.raises(ArityMismatch, match=r"^expected 1 features, got shape \(3, 2\)$"):
        predict_batch(model, np.zeros((3, 2)))


def test_leaf_tie_predicts_one():
    # Constant feature, one example of each class: no split possible.
    model = fit_tree(_bd([5.0, 5.0], [0, 1]), UNLIMITED)
    assert model.node_count == 1
    assert _predict_row(model, [5.0]) == 1


def test_min_samples_leaf_blocks_small_children():
    model = fit_tree(_bd([0, 1, 2, 3], [0, 0, 1, 1]), TreeSpec(min_samples_leaf=3))
    assert model.node_count == 1


def test_max_depth_zero_is_stump():
    model = fit_tree(_bd([0, 1, 2, 3], [0, 0, 1, 1]), TreeSpec(max_depth=0))
    assert model.node_count == 1


def test_tie_breaks_prefer_lower_feature_index():
    # Identical columns: the split must land on feature 0.
    X = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=np.float64)
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    model = fit_tree(BinaryDataset(X, y), TreeSpec())
    assert model.feature[0] == 0


def test_deterministic_fit():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(80, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int8)
    a = fit_tree(BinaryDataset(X, y), UNLIMITED)
    b = fit_tree(BinaryDataset(X, y), UNLIMITED)
    assert model_payload(a) == model_payload(b)


def test_row_permutation_invariance():
    gen = np.random.default_rng(1)
    X = gen.normal(size=(60, 3))
    y = (X[:, 2] > 0.2).astype(np.int8)
    perm = gen.permutation(60)
    a = fit_tree(BinaryDataset(X, y), UNLIMITED)
    b = fit_tree(BinaryDataset(X[perm], y[perm]), UNLIMITED)
    assert model_payload(a) == model_payload(b)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_unlimited_tree_memorizes_consistent_data(n, d, seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    # Distinct rows are almost sure with continuous features; targets arbitrary.
    y = gen.integers(0, 2, size=n).astype(np.int8)
    model = fit_tree(BinaryDataset(X, y), UNLIMITED)
    assert np.array_equal(predict_batch(model, X), y)


def test_adjacent_double_values_split_cleanly():
    # Midpoints of consecutive doubles can round up to the right value; the
    # split must still separate the two groups without empty children.
    a = 1.0
    b = np.nextafter(a, 2.0)
    model = fit_tree(_bd([a, a, b, b], [0, 0, 1, 1]), UNLIMITED)
    assert model.node_count == 3
    assert predict_batch(model, np.array([[a], [b]])).tolist() == [0, 1]


def test_huge_values_split_cleanly():
    # The midpoint of two huge doubles overflows to infinity; the threshold
    # must still separate the two groups.
    for a, b in ((1e308, 1.7e308), (-1.7e308, -1e308), (-np.inf, np.inf)):
        model = fit_tree(_bd([a, b, a, b], [0, 1, 0, 1]), UNLIMITED)
        assert model.node_count == 3
        assert a <= model.threshold[0] < b
        assert predict_batch(model, np.array([[a], [b]])).tolist() == [0, 1]


def test_nan_features_refused():
    # Rank codes give every NaN a code of its own, so a search would split
    # between NaNs at threshold nan, which no row can follow. Both dataset
    # constructors refuse NaN features.
    X = np.array([[0.0], [1.0], [np.nan], [np.nan], [np.nan], [np.nan]])
    y = np.array([0, 0, 1, 0, 1, 0], dtype=np.int8)
    with pytest.raises(ValueError, match="NaN"):
        BinaryDataset(X, y)
    with pytest.raises(ValueError, match="NaN"):
        MultiLabelDataset(
            features=X, labels=y[:, None], label_names=("A",), feature_kinds=(Attribute("x"),)
        )


def test_infinite_features_predict_as_partitioned():
    # +-inf order like any other value: a grown tree sends each of its rows
    # to the leaf its partition put it in, so it predicts every target.
    x = [0.0, 1.0, np.inf, 2.0, -np.inf, np.inf]
    y = [0, 1, 1, 0, 1, 1]
    model = fit_tree(_bd(x, y), UNLIMITED)
    # In value order the targets form five runs: one leaf each, the first cut
    # at the midpoint -inf.
    assert (model.feature < 0).sum() == 5
    assert -np.inf in model.threshold.tolist()
    assert predict_batch(model, np.array(x)[:, None]).tolist() == y


def test_empty_dataset_refused():
    with pytest.raises(ValueError) as caught:
        fit_tree(_bd(np.empty((0, 1)), []), TreeSpec())
    assert str(caught.value) == "cannot fit a tree on an empty dataset"


def test_leaf_class_proportions_recorded():
    model = fit_tree(_bd([0, 1, 2, 3], [0, 0, 1, 1]), TreeSpec())
    root_children = [int(model.left[0]), int(model.right[0])]
    assert [int(model.leaf_value[i]) for i in root_children] == [0, 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        TreeSpec(min_samples_leaf=0)
    with pytest.raises(ValueError):
        TreeSpec(max_depth=-1)


def _features(kind: str, n: int, d: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "continuous":
        return gen.normal(size=(n, d))
    if kind == "integer":
        return gen.integers(0, 4, size=(n, d)).astype(np.float64)
    if kind == "bootstrap":
        return gen.normal(size=(n, d))[gen.integers(0, n, size=n)]
    # Adjacent doubles: every feature takes two consecutive values.
    low = gen.normal(size=d)
    return np.where(gen.random((n, d)) < 0.5, low, np.nextafter(low, np.inf))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["continuous", "integer", "bootstrap", "adjacent"]),
    st.integers(1, 60),
    st.integers(1, 5),
    st.integers(1, 4),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.sampled_from([None, "own", "superset"]),
    st.sampled_from([None, 0, 1 << 10]),
    st.integers(0, 2**32 - 1),
)
def test_fit_tree_matches_reference_kernel(kind, n, d, min_leaf, max_depth, codes, table, seed):
    # GINI_TABLE_ROWS 0 sends every narrow block through weighted_gini; the
    # default and 1,024 read every node of these sizes from the table.
    gen = np.random.default_rng(seed)
    X = _features(kind, n, d, gen)
    ranks = None
    if codes == "own":
        ranks = rank_codes(X)
    elif codes == "superset":
        # As a bootstrap gathers its training half's codes: rows drawn with
        # repeats from a larger matrix, with that matrix's codes.
        pool = np.vstack([X, _features(kind, n, d, gen)])
        rows = gen.integers(0, 2 * n, size=n)
        X, ranks = pool[rows], rank_codes(pool)[rows]
    y = (gen.random(n) < gen.random()).astype(np.int8)
    bd = BinaryDataset(X, y)
    spec = TreeSpec(max_depth=max_depth, min_samples_leaf=min_leaf)
    table = learner_module.GINI_TABLE_ROWS if table is None else table
    with mock.patch.object(learner_module, "GINI_TABLE_ROWS", table):
        model = fit_tree(bd, spec, ranks)
    assert model_payload(model) == model_payload(reference_fit_tree(bd, spec))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["continuous", "integer", "bootstrap", "adjacent"]),
    st.sampled_from([1, 7, 64, None]),
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from([None, 0, 1, 2, 4]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_search_matches_reference_kernel(kind, cells, n, d, min_leaf, max_depth, seed):
    # Blocks of one feature (1 and 7 list entries), of several (64) and the
    # default: the running best must keep the reference's lowest-feature,
    # lowest-threshold choice across blocks.
    gen = np.random.default_rng(seed)
    X = _features(kind, n, d, gen)
    if d > 2:
        X[:, d - 1] = X[:, gen.integers(0, d - 1)]  # an equal split in a later block
    y = (gen.random(n) < gen.random()).astype(np.int8)
    bd = BinaryDataset(X, y)
    spec = TreeSpec(max_depth=max_depth, min_samples_leaf=min_leaf)
    cells = learner_module.SEARCH_CELLS if cells is None else cells
    with mock.patch.object(learner_module, "SEARCH_CELLS", cells):
        model = fit_tree(bd, spec, rank_codes(X))
    assert model_payload(model) == model_payload(reference_fit_tree(bd, spec))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["continuous", "integer", "bootstrap", "adjacent"]),
    st.sampled_from([1, 64, None]),
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from([None, 0, 1, 2, 4]),
    st.integers(0, 2**32 - 1),
)
def test_fit_on_32_bit_codes_matches_16_bit(kind, cells, n, d, min_leaf, max_depth, seed):
    # rank_codes widens to 32 bits past 65,536 rows. Blocks of one feature
    # (1), of several (64) and the default send the 12-byte records through
    # both _partition and _split_lists.
    gen = np.random.default_rng(seed)
    X = _features(kind, n, d, gen)
    y = (gen.random(n) < gen.random()).astype(np.int8)
    bd = BinaryDataset(X, y)
    spec = TreeSpec(max_depth=max_depth, min_samples_leaf=min_leaf)
    codes = rank_codes(X)
    wide = codes.astype(np.uint32)
    assert learner_module._presort(wide, y).dtype.itemsize == 12
    cells = learner_module.SEARCH_CELLS if cells is None else cells
    with mock.patch.object(learner_module, "SEARCH_CELLS", cells):
        model = fit_tree(bd, spec, wide)
        assert model_payload(model) == model_payload(fit_tree(bd, spec, codes))


def test_root_spanning_several_blocks_matches_reference():
    # 600 rows x 250 features is about 2.3 blocks of SEARCH_CELLS entries at
    # the root. The signal column is copied into the second and third
    # blocks, so the best split appears three times: the lowest copy wins.
    n, d = 600, 250
    per_block = learner_module.SEARCH_CELLS // n
    assert d > 2 * per_block
    gen = np.random.default_rng(3)
    X = gen.normal(size=(n, d)).round(3)
    y = (X[:, 0] + 0.3 * gen.normal(size=n) > 0.4).astype(np.int8)
    first, second = per_block + 10, 2 * per_block + 5
    X[:, first] = X[:, second] = X[:, 0] * 10.0
    X[:, 0] = gen.normal(size=n)
    bd = BinaryDataset(X, y)
    spec = TreeSpec(max_depth=3)
    model = fit_tree(bd, spec, rank_codes(X))
    assert model.feature[0] == first
    assert model_payload(model) == model_payload(reference_fit_tree(bd, spec))


def _node_features(kind: str, n: int, d: int, levels: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "levels":
        return gen.integers(0, levels, size=(n, d)).astype(np.float64)
    X = gen.normal(size=(n, d))
    return X.round(1) if kind == "rounded" else X


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["levels", "rounded", "normal"]),
    st.integers(4, 59),
    st.integers(1, 9),
    st.integers(2, 11),
    st.integers(1, 3),
    st.sampled_from([None, 1, 3]),
    st.sampled_from([0, 1 << 30]),
    st.sampled_from([64, 256, None]),
    st.integers(0, 2**32 - 1),
)
def test_extremes_search_matches_reference_kernel(
    kind, n, d, levels, min_leaf, max_depth, extremes, cells, seed
):
    # EXTREMES_CELLS 0 sends every block of three or more features through
    # the extreme counts, 2**30 none; small SEARCH_CELLS split the node into
    # several blocks of either kind.
    gen = np.random.default_rng(seed)
    X = _node_features(kind, n, d, levels, gen)
    y = (gen.random(n) < gen.random()).astype(np.int8)
    bd = BinaryDataset(X, y)
    spec = TreeSpec(max_depth=max_depth, min_samples_leaf=min_leaf)
    cells = learner_module.SEARCH_CELLS if cells is None else cells
    with mock.patch.object(learner_module, "EXTREMES_CELLS", extremes), mock.patch.object(
        learner_module, "SEARCH_CELLS", cells
    ):
        model = fit_tree(bd, spec, rank_codes(X))
    assert model_payload(model) == model_payload(reference_fit_tree(bd, spec))


def _fit_extremes(X, y, spec=UNLIMITED):
    bd = _bd(X, y)
    with mock.patch.object(learner_module, "EXTREMES_CELLS", 0):
        model = fit_tree(bd, spec)
    assert model_payload(model) == model_payload(reference_fit_tree(bd, spec))
    return model


def test_extremes_both_tie_at_one_position():
    # Features 1 and 2 split the same position perfectly, with no positives
    # left and with all of them: the position's smallest and largest counts
    # both reach Gini 0, and the lower feature of the two wins.
    y = [1, 1, 1, 1, 0, 0, 0, 0]
    X = np.array(
        [[0, 4, 0], [4, 5, 1], [1, 6, 2], [5, 7, 3], [2, 0, 4], [6, 1, 5], [3, 2, 6], [7, 3, 7]]
    )
    model = _fit_extremes(X, y, TreeSpec(max_depth=1))
    assert (model.feature[0], model.threshold[0]) == (1, 3.5)


def test_extremes_equal_minima_at_two_positions():
    # Feature 0 splits perfectly after five rows, feature 1 after three: the
    # minimum sits at two positions, and the lower feature at the later
    # position wins over the earlier position.
    y = [1, 1, 1, 0, 0, 0, 0, 0]
    X = np.array(
        [[5, 0, 3], [6, 1, 7], [7, 2, 0], [0, 3, 4], [1, 4, 1], [2, 5, 5], [3, 6, 2], [4, 7, 6]]
    )
    model = _fit_extremes(X, y, TreeSpec(max_depth=1))
    assert (model.feature[0], model.threshold[0]) == (0, 4.5)


def test_extremes_position_without_admissible_feature():
    # Every feature pairs its values, so every other position lies between
    # equal codes in all of them. Those positions must lose, though the
    # penalised counts there give negative Ginis.
    gen = np.random.default_rng(7)
    X = np.repeat(gen.permutation(12 * 3).reshape(12, 3) % 12, 2, axis=0)
    y = [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0]
    model = _fit_extremes(X, y)
    assert model.node_count > 3


def test_extremes_search_with_int32_counts():
    # From 16,383 rows the counts plus the penalty m + 2 outgrow int16, and
    # the root's blocks of three features take the extremes in int32.
    n, d = 16_400, 4
    gen = np.random.default_rng(11)
    X = gen.integers(0, 40, size=(n, d)).astype(np.float64)
    y = (X[:, 1] + 8 * gen.normal(size=n) > 25).astype(np.int8)
    spec = TreeSpec(max_depth=2)
    model = fit_tree(BinaryDataset(X, y), spec)
    with mock.patch.object(learner_module, "EXTREMES_CELLS", 1 << 30):
        full = fit_tree(BinaryDataset(X, y), spec)
    assert model.node_count == 7
    assert model_payload(model) == model_payload(full)
    assert model_payload(model) == model_payload(reference_fit_tree(BinaryDataset(X, y), spec))


def test_gini_table_holds_weighted_gini_terms():
    # Each entry is the float that weighted_gini's operations give one
    # child of s rows and c positives: divide, 1 - p, times 2s, times (1 - p).
    rows = learner_module.GINI_TABLE_ROWS
    terms, row_base = learner_module._gini_terms(rows)
    assert terms.nbytes <= 0.6e6 and not terms.flags.writeable
    assert row_base.tolist() == [s * (rows + 1) for s in range(rows + 1)]
    for s in range(1, rows + 1):
        c = np.arange(s + 1, dtype=np.int16)
        share = np.divide(c, np.full(s + 1, float(s)))
        rest = np.subtract(1.0, share)
        expected = np.multiply(np.multiply(share, np.full(s + 1, 2.0 * s)), rest)
        got = terms[row_base[s] : row_base[s] + s + 1]
        assert got.tobytes() == expected.tobytes(), s


def test_gini_table_build_holds_two_tables():
    # The build fills the table in place, so besides it it holds only one
    # more table (1 - c/s) and numpy's broadcast buffers.
    rows = learner_module.GINI_TABLE_ROWS
    tracemalloc.start()
    try:
        terms, _ = learner_module._gini_terms.__wrapped__(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms.nbytes == (rows + 1) ** 2 * 8
    assert peak <= 2.2 * terms.nbytes


def _views(X: np.ndarray, kind: str) -> np.ndarray:
    """X itself, or equal values laid out as a view that predict_batch
    must read through: the prefix columns of a wider buffer, reversed
    rows and columns of a copy, or Fortran order."""
    if kind == "prefix":
        wide = np.hstack([X, np.full((X.shape[0], 3), np.nan)])
        return wide[:, : X.shape[1]]
    if kind == "reversed":
        return X[::-1, ::-1].copy()[::-1, ::-1]
    if kind == "fortran":
        return np.asfortranarray(X)
    return X


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(0, 30),
    st.sampled_from([None, 0, 1, 3]),
    st.sampled_from(["c", "prefix", "reversed", "fortran"]),
    st.integers(0, 2**32 - 1),
)
def test_predict_batch_matches_row_walk(n, d, rows, max_depth, view, seed):
    # Trees of one leaf (pure targets, depth 0) and deeper ones, scored on
    # zero or more rows that mix seen values, NaN and +-inf.
    gen = np.random.default_rng(seed)
    X = gen.integers(0, 4, size=(n, d)).astype(np.float64)
    y = (gen.random(n) < gen.random()).astype(np.int8)
    model = fit_tree(BinaryDataset(X, y), TreeSpec(max_depth=max_depth, min_samples_leaf=1))
    Q = gen.choice([1.5, np.nan, np.inf, -np.inf], size=(rows, d))
    seen = gen.random((rows, d)) < 0.6
    Q[seen] = X[gen.integers(0, n, size=rows)][seen]
    Q = _views(Q, view)
    preds = predict_batch(model, Q)
    assert preds.dtype == np.int8 and preds.shape == (rows,)
    assert preds.tolist() == [reference_predict_row(model, row) for row in Q]


def test_fit_memory_is_bounded_per_feature_row():
    # The root's lists (8 bytes per feature and row), its children's (8
    # more) and one search or partition block's temporaries, which weigh
    # more at 110 features (the shape of a yeast ECC link) than at 300; a
    # search over all features at once held about 60. The Gini table is
    # built once per process, not per fit, so it is built before tracing.
    learner_module._gini_terms(learner_module.GINI_TABLE_ROWS)
    for n, d, bound in ((1200, 300, 20.5), (1208, 110, 25)):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(n, d)).round(6)
        y = (X[:, 0] + X[:, 3] + gen.normal(size=n) > 1.0).astype(np.int8)
        bd, ranks = BinaryDataset(X, y), rank_codes(X)
        tracemalloc.start()
        try:
            model = fit_tree(bd, TreeSpec(), ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.node_count > 100
        assert peak < bound * n * d, (n, d, peak / (n * d))


def test_presort_memory_is_bounded_per_feature_row():
    # A root of 1,200 x 300 spans six blocks. Its records take 8 bytes per
    # (feature, row), and a block's sort temporaries about 3 more; joining
    # the blocks' own lists at the end peaked at 14.8.
    n, d = 1200, 300
    gen = np.random.default_rng(0)
    ranks = rank_codes(gen.normal(size=(n, d)).round(6))
    y = (gen.random(n) < 0.4).astype(np.int8)
    assert d > learner_module.SEARCH_CELLS // n
    tracemalloc.start()
    try:
        lists = learner_module._presort(ranks, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lists.shape == (d, n) and lists.dtype.itemsize == 8
    assert lists["id"].dtype == np.int32 and lists["tgt"].dtype == np.int16
    assert peak < 13 * n * d


def _stable_order(X: np.ndarray) -> np.ndarray:
    return np.argsort(X, axis=0, kind="stable").T


def _same_ties(codes: np.ndarray, values: np.ndarray) -> bool:
    """Per column, codes are equal exactly where the values are."""
    return all(
        np.array_equal(c[:, None] == c[None, :], v[:, None] == v[None, :])
        for c, v in zip(codes.T, values.T)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_rank_codes_order_like_values(n, d, seed):
    gen = np.random.default_rng(seed)
    X = gen.choice([-1.0, -0.0, 0.0, 2.5], size=(n, d))  # many ties, signed zeros
    ds = MultiLabelDataset(
        features=X,
        labels=np.zeros((n, 1), dtype=np.int8),
        label_names=("L0",),
        feature_kinds=tuple(Attribute(f"x{f}") for f in range(d)),
    )
    codes = ds.ranks
    rows = gen.integers(0, n, size=n)
    taken = ds.take_rows(rows)
    reduced = reduce_features_by_frequency(ds, 0.5)
    kept = [int(a.name[1:]) for a in reduced.feature_kinds]
    # Subsets gather their parent's codes instead of ranking their own values.
    assert np.array_equal(taken.ranks, codes[rows])
    assert np.array_equal(reduced.ranks, codes[:, kept])
    for codes, values in ((ds.ranks, X), (taken.ranks, X[rows]), (reduced.ranks, X[:, kept])):
        assert codes.dtype == np.uint16
        assert np.array_equal(_stable_order(codes), _stable_order(values))
        assert _same_ties(codes, values)


def test_rank_codes_widen_past_65536_rows():
    X = np.arange(65_537, dtype=np.float64)[::-1, None]
    codes = rank_codes(X)
    assert codes.dtype == np.uint32
    assert codes[0, 0] == 65_536 and codes[-1, 0] == 0
    narrow = rank_codes(X[1:])
    assert narrow.dtype == np.uint16
    assert narrow[0, 0] == 65_535


def _brute_dense_ranks(X: np.ndarray) -> np.ndarray:
    """codes[i, f] = number of distinct values of column f below X[i, f]; a
    Python set holds -0.0 and 0.0 as one value."""
    codes = np.zeros(X.shape, dtype=np.int64)
    for f, column in enumerate(X.T):
        for v in set(column.tolist()):
            codes[:, f] += v < column
    return codes


_RANK_VALUES = st.sampled_from([-np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 3.0, np.inf])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda d: st.lists(st.lists(_RANK_VALUES, min_size=d, max_size=d), max_size=30).map(
            lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), d)
        )
    )
)
# One column past 65,536 rows widens the codes to 32 bits.
@example(np.tile([np.inf, -0.0, 2.0, 0.0, -np.inf, 2.0, 7.0], 9363)[:65_537, None])
@example(np.tile([np.inf, -0.0, 2.0, 0.0, -np.inf, 2.0, 7.0], 9363)[:65_536, None])
@example(np.empty((5, 0)))
def test_rank_codes_are_dense_ranks(X):
    codes = rank_codes(X)
    assert codes.shape == X.shape and codes.flags.c_contiguous
    assert codes.dtype == (np.uint16 if X.shape[0] <= 1 << 16 else np.uint32)
    assert np.array_equal(codes, _brute_dense_ranks(X))


def test_rank_codes_memory_is_bounded_per_feature_row():
    # The codes take 2 bytes per (feature, row) and the temporaries a column's
    # worth; ranking every column at once took about 30 bytes.
    n, d = 1200, 600
    X = np.random.default_rng(0).normal(size=(n, d)).round(3)
    tracemalloc.start()
    try:
        codes = rank_codes(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (n, d)
    assert peak < 10 * n * d


def test_rank_codes_of_no_rows():
    codes = rank_codes(np.empty((0, 3)))
    assert codes.shape == (0, 3) and codes.dtype == np.uint16


def test_fit_tree_rejects_ranks_of_wrong_shape():
    bd = _bd([[0, 1], [1, 0], [2, 2]], [0, 1, 1])
    with pytest.raises(ValueError, match="ranks has shape"):
        fit_tree(bd, TreeSpec(), rank_codes(bd.features[:2]))
    with pytest.raises(ValueError, match="ranks has shape"):
        fit_tree(bd, TreeSpec(), rank_codes(bd.features).T)
