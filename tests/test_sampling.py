from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalance.dataset import Attribute, MultiLabelDataset
from chainbalance.errors import ConfigError, SingleClassInput
from chainbalance.learner import BinaryDataset
from chainbalance.sampling import (
    RngStream,
    bootstrap,
    derive_seed,
    iterative_stratified_kfold,
    random_undersample,
)
from conftest import make_dataset
from reference_kfold import iterative_stratified_kfold as reference_kfold


def test_rng_stream_reproducible():
    a = RngStream(123, (1, 2)).generator().integers(0, 1_000_000, 10)
    b = RngStream(123, (1, 2)).generator().integers(0, 1_000_000, 10)
    assert np.array_equal(a, b)


def test_rng_stream_paths_differ():
    a = RngStream(123).child(0).generator().integers(0, 1_000_000, 10)
    b = RngStream(123).child(1).generator().integers(0, 1_000_000, 10)
    assert not np.array_equal(a, b)


def test_rng_stream_child_composition():
    assert RngStream(5).child(1).child(2, 3).path == (1, 2, 3)
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, (-2,))


def test_derive_seed_stable():
    assert derive_seed(99, 1, 2) == derive_seed(99, 1, 2)
    assert derive_seed(99, 1, 2) != derive_seed(99, 2, 1)
    assert 0 <= derive_seed(99, 1, 2) < 2**64


def test_bootstrap_single_row():
    ds = make_dataset(1, [1.0], ensure_both_classes=False)
    rows = bootstrap(ds, RngStream(0))
    assert rows.tolist() == [0]
    out = ds.take_rows(rows)
    assert out.n == 1
    assert np.array_equal(out.features, ds.features)


def test_bootstrap_deterministic():
    ds = make_dataset(50, [0.3], seed=2)
    stream = RngStream(7, (4,))
    a = bootstrap(ds, stream)
    b = bootstrap(ds, stream)
    assert np.array_equal(a, b)
    assert np.array_equal(ds.take_rows(a).features, ds.take_rows(b).features)
    assert np.array_equal(ds.take_rows(a).labels, ds.take_rows(b).labels)


def test_bootstrap_returns_row_ids_in_draw_order():
    # n draws with replacement, neither sorted nor deduplicated.
    ds = make_dataset(40, [0.3], seed=3)
    stream = RngStream(11, (2, 0))
    rows = bootstrap(ds, stream)
    assert np.array_equal(rows, stream.generator().integers(0, ds.n, size=ds.n))
    assert rows.shape == (ds.n,) and rows.dtype == np.int64
    assert rows.min() >= 0 and rows.max() < ds.n
    assert np.unique(rows).size < ds.n and (np.diff(rows) < 0).any()


def test_bootstrap_distinct_fraction():
    # Mean fraction of distinct original rows over many bootstraps approaches
    # 1 - (1 - 1/n)^n; checked by simulation at n=1000.
    n = 1000
    ds = MultiLabelDataset(
        features=np.arange(n, dtype=np.float64)[:, None],
        labels=np.array([[i % 2] for i in range(n)], dtype=np.int8),
        label_names=("L",),
        feature_kinds=(Attribute("x"),),
    )
    root = RngStream(2024)
    total = 0.0
    runs = 10_000
    for i in range(runs):
        rows = bootstrap(ds, root.child(i))
        total += np.unique(ds.features[rows, 0]).size / n
    expected = 1.0 - (1.0 - 1.0 / n) ** n
    assert abs(total / runs - expected) < 0.01
    assert abs(total / runs - 0.632) < 0.01


def test_undersample_balances():
    targets = np.array([1] * 10 + [0] * 90, dtype=np.int8)
    kept = random_undersample(targets, RngStream(5))
    assert np.bincount(targets[kept]).tolist() == [10, 10]
    # All original positives retained, in their original order (first ten rows).
    assert np.array_equal(kept[targets[kept] == 1], np.arange(10))


def test_undersample_balanced_input_unchanged():
    targets = np.array([1, 0, 1, 0], dtype=np.int8)
    kept = random_undersample(targets, RngStream(0))
    assert len(kept) == 4
    assert np.array_equal(targets[kept], targets)


def test_undersample_deterministic():
    targets = np.array([1] * 12 + [0] * 48, dtype=np.int8)
    stream = RngStream(17, (5,))
    a = random_undersample(targets, stream)
    b = random_undersample(targets, stream)
    assert np.array_equal(a, b)
    assert np.array_equal(targets[a], targets[b])


def test_undersample_single_class():
    with pytest.raises(SingleClassInput):
        random_undersample(np.zeros(100, dtype=np.int8), RngStream(0))
    with pytest.raises(ValueError, match="0/1"):
        random_undersample(np.array([0, 2, 1, 0]), RngStream(0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_undersample_properties(pos, neg, seed):
    gen = np.random.default_rng(seed)
    targets = np.array([1] * pos + [0] * neg, dtype=np.int8)
    gen.shuffle(targets)
    kept = random_undersample(targets, RngStream(seed))
    m = min(pos, neg)
    assert np.bincount(targets[kept], minlength=2).tolist() == [m, m]
    # Row order is preserved: the kept row ids are strictly increasing.
    assert np.all(np.diff(kept) > 0)
    # Minority rows all survive.
    minority_value = 1 if pos <= neg else 0
    original = set(np.flatnonzero(targets == minority_value))
    surviving = set(kept[targets[kept] == minority_value])
    assert original == surviving


def _parent_undersample(targets: np.ndarray, rng: RngStream) -> np.ndarray:
    """random_undersample as it was before it counted classes with one call."""
    n = targets.shape[0]
    pos = int(np.count_nonzero(targets == 1))
    neg = int(np.count_nonzero(targets == 0))
    if pos == neg:
        return np.arange(n)
    majority_rows = np.flatnonzero(targets == (1 if pos > neg else 0))
    gen = rng.generator()
    removed = gen.choice(majority_rows, size=abs(pos - neg), replace=False)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 80),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 2**16), max_size=4),
    st.sampled_from([np.int8, np.int64, bool]),
)
def test_undersample_draws_as_before(n, rate, seed, path, dtype):
    # The same ids as the parent's formulation, draw for draw: the class
    # counts changed, the generator call did not.
    gen = np.random.default_rng(seed)
    targets = (gen.random(n) < rate).astype(dtype)
    targets[gen.choice(n, size=2, replace=False)] = [0, 1]  # both classes
    stream = RngStream(seed % 1000, tuple(path))
    kept = random_undersample(targets, stream)
    assert kept.dtype == np.intp
    assert np.array_equal(kept, _parent_undersample(targets, stream))


def test_binary_dataset_targets():
    bd = BinaryDataset(np.zeros((3, 1)), [0.0, 1.0, 1.0])
    assert bd.targets.dtype == np.int8 and bd.targets.tolist() == [0, 1, 1]
    # Checked before the int8 cast, which would turn 0.5 and 256.0 into 0.
    for bad in (0.5, 0.9, 256.0, -1, 2):
        with pytest.raises(ValueError, match="0/1"):
            BinaryDataset(np.zeros((3, 1)), [0.0, 1.0, bad])


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: BinaryDataset(np.zeros(3), np.zeros(3)), ValueError,
      "features must be 2-D and targets 1-D"),
     (lambda: BinaryDataset(np.zeros((3, 1)), np.zeros(2)), ValueError,
      "features and targets disagree on row count"),
     (lambda: iterative_stratified_kfold(make_dataset(6, [0.5], seed=1), 1, RngStream(0)),
      ConfigError, "k must be at least 2")],
    ids=["not-2d", "row-counts", "one-fold"],
)
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def _folds(fold_of: np.ndarray, k: int) -> list[np.ndarray]:
    """The sorted row ids of each fold."""
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def test_kfold_two_positives_two_folds():
    labels = np.array([[1], [0], [1], [0]], dtype=np.int8)
    ds = MultiLabelDataset(
        features=np.arange(4, dtype=np.float64)[:, None],
        labels=labels,
        label_names=("L",),
        feature_kinds=(Attribute("x"),),
    )
    folds = _folds(iterative_stratified_kfold(ds, 2, RngStream(3)), 2)
    for fold in folds:
        assert labels[fold, 0].sum() == 1


def test_kfold_singletons():
    ds = make_dataset(6, [0.5], seed=1)
    folds = _folds(iterative_stratified_kfold(ds, 6, RngStream(0)), 6)
    assert sorted(len(f) for f in folds) == [1] * 6
    assert sorted(int(f[0]) for f in folds) == list(range(6))


def test_kfold_exact_proportional_split():
    labels = np.zeros((100, 1), dtype=np.int8)
    labels[:10, 0] = 1
    ds = MultiLabelDataset(
        features=np.random.default_rng(0).normal(size=(100, 2)),
        labels=labels,
        label_names=("L",),
        feature_kinds=(Attribute("a"), Attribute("b")),
    )
    folds = _folds(iterative_stratified_kfold(ds, 5, RngStream(11)), 5)
    for fold in folds:
        assert labels[fold, 0].sum() == 2
        assert len(fold) == 20


def test_kfold_deterministic():
    ds = make_dataset(37, [0.2, 0.5], seed=8)
    a = iterative_stratified_kfold(ds, 3, RngStream(42, (1,)))
    b = iterative_stratified_kfold(ds, 3, RngStream(42, (1,)))
    assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(5, 60),
    st.integers(1, 4),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_kfold_partition_property(n, q, k, seed):
    if n < k:
        n = k
    ds = make_dataset(n, [0.3] * q, seed=seed, ensure_both_classes=False)
    fold_of = iterative_stratified_kfold(ds, k, RngStream(seed))
    assert fold_of.dtype == np.int64
    assert fold_of.shape == (n,)
    assert ((fold_of >= 0) & (fold_of < k)).all()
    folds = _folds(fold_of, k)
    merged = np.concatenate(folds)
    assert len(merged) == n
    assert len(np.unique(merged)) == n
    sizes = [len(f) for f in folds]
    assert min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1


def _labels_dataset(labels: np.ndarray) -> MultiLabelDataset:
    n = labels.shape[0]
    return MultiLabelDataset(
        features=np.zeros((n, 1)),
        labels=labels.astype(np.int8),
        label_names=tuple(f"L{j}" for j in range(labels.shape[1])),
        feature_kinds=(Attribute("x"),),
    )


def _assert_matches_reference(labels: np.ndarray, k: int, seed: int) -> None:
    ds = _labels_dataset(labels)
    folds = _folds(iterative_stratified_kfold(ds, k, RngStream(seed)), k)
    expected = reference_kfold(ds, k, RngStream(seed))
    assert len(folds) == len(expected) == k
    for got, want in zip(folds, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def _label_matrices(draw):
    """Label columns with 0, 1, some or all rows positive, and extra rows
    that hold no positive label."""
    k = draw(st.integers(2, 8))
    n = draw(st.integers(k, 150))
    q = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros((n, q), dtype=np.int8)
    for j in range(q):
        kind = draw(st.sampled_from(["none", "one", "some", "all"]))
        if kind == "one":
            labels[gen.integers(n), j] = 1
        elif kind == "some":
            labels[:, j] = gen.random(n) < draw(st.floats(0.01, 0.99))
        elif kind == "all":
            labels[:, j] = 1
    blank = draw(st.integers(0, n))
    labels[gen.choice(n, size=blank, replace=False)] = 0
    return labels, k


@settings(max_examples=200, deadline=None)
@given(_label_matrices(), st.integers(0, 2**32 - 1))
def test_kfold_matches_reference(case, seed):
    labels, k = case
    _assert_matches_reference(labels, k, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "labels, k",
    [
        (np.eye(5, 2, dtype=np.int8), 5),  # k == n
        (np.ones((7, 3), dtype=np.int8), 7),  # k == n, every row positive
        (np.zeros((40, 3), dtype=np.int8), 4),  # no positive anywhere
        (np.zeros((9, 1), dtype=np.int8), 9),  # both at once
    ],
    ids=["k-eq-n", "k-eq-n-all-positive", "all-zero", "all-zero-k-eq-n"],
)
def test_kfold_matches_reference_edges(labels, k, seed):
    _assert_matches_reference(labels, k, seed)
