from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbalance.chain as chain_module
from chainbalance.chain import ChainModel, ChainSpec, predict_chain_batch, train_chain
from chainbalance.dataset import Attribute, MultiLabelDataset
from chainbalance.ensemble import EnsembleSpec, train_ensemble
from chainbalance.errors import ArityMismatch, SingleClassInput
from chainbalance.learner import TreeSpec, fit_tree, predict_batch
from chainbalance.sampling import BinaryDataset, RngStream
from conftest import dataset_with_label_counts, make_dataset, model_payload

UNLIMITED = TreeSpec(max_depth=None, min_samples_leaf=1)


def _predict_row(chain: ChainModel, x) -> list[tuple[int, int]]:
    row = np.asarray(x, dtype=np.float64)[None, :]
    return [(label, int(preds[0])) for label, preds in predict_chain_batch(chain, row)]


def _link_streams(root: RngStream, links: int) -> list[RngStream]:
    return [root.child(j) for j in range(links)]


def _dataset(features, labels, q_names=None) -> MultiLabelDataset:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    return MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=tuple(q_names or (f"L{j}" for j in range(labels.shape[1]))),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(features.shape[1])),
    )


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(())
    with pytest.raises(ValueError):
        ChainSpec((0, 0))
    with pytest.raises(ValueError):
        ChainSpec((-1,))
    assert len(ChainSpec((2, 0, 1))) == 3


def test_train_cc_single_label_matches_plain_tree():
    ds = make_dataset(40, [0.4], seed=3)
    chain = train_chain(ds, ChainSpec((0,)), UNLIMITED)
    assert tuple(label for label, _ in chain.links) == (0,)
    plain = fit_tree(BinaryDataset(ds.features, ds.labels[:, 0]), UNLIMITED)
    assert model_payload(chain.links[0][1]) == model_payload(plain)


def test_train_cc_arity_progression():
    ds = make_dataset(30, [0.3, 0.5], seed=4)
    chain = train_chain(ds, ChainSpec((0, 1)), UNLIMITED)
    assert chain.links[0][1].n_features == ds.d
    assert chain.links[1][1].n_features == ds.d + 1


def test_train_cc_uses_true_labels_for_augmentation():
    # Label 1 copies label 0; features are pure noise, so only the augmented
    # column can explain link 2's target.
    gen = np.random.default_rng(5)
    y0 = gen.integers(0, 2, size=60).astype(np.int8)
    ds = _dataset(gen.normal(size=(60, 3)), np.column_stack([y0, y0]))
    chain = train_chain(ds, ChainSpec((0, 1)), UNLIMITED)
    link2 = chain.links[1][1]
    assert link2.feature[0] == ds.d  # splits on the augmented column
    augmented = np.hstack([ds.features, y0[:, None].astype(np.float64)])
    assert np.array_equal(predict_batch(link2, augmented), y0)


def test_train_ccru_links_balanced():
    ds = dataset_with_label_counts(100, [10, 20], seed=6)
    chain = train_chain(ds, ChainSpec((0, 1)), UNLIMITED, _link_streams(RngStream(1), 2))
    assert chain.fit_class_counts[0] == (10, 10)
    assert chain.fit_class_counts[1] == (20, 20)
    assert chain.links[0][1].n_features == ds.d
    assert chain.links[1][1].n_features == ds.d + 1


def test_train_ccru_single_class_label_rejected():
    labels = np.zeros((20, 2), dtype=np.int8)
    labels[:5, 0] = 1
    ds = _dataset(np.random.default_rng(0).normal(size=(20, 2)), labels)
    with pytest.raises(SingleClassInput):
        train_chain(ds, ChainSpec((0, 1)), UNLIMITED, _link_streams(RngStream(0), 2))


@pytest.mark.parametrize("links", [1, 3])
def test_train_ccru_needs_one_stream_per_link(links):
    ds = dataset_with_label_counts(40, [10, 15], seed=6)
    with pytest.raises(ValueError, match="streams for a chain of 2 links"):
        train_chain(ds, ChainSpec((0, 1)), UNLIMITED, _link_streams(RngStream(0), links))


def test_train_ccru_out_of_sample_augmentation():
    # Majority rows removed from link 1's fit still receive an augmented
    # value: link 2 trains on all rows, so its fitting pool is the full set.
    ds = dataset_with_label_counts(100, [10, 50], seed=7)
    chain = train_chain(ds, ChainSpec((0, 1)), UNLIMITED, _link_streams(RngStream(2), 2))
    # Link 1 fit on 20 of 100 rows; the other 80 were out-of-sample.
    assert sum(chain.fit_class_counts[0]) == 20
    # Link 2's balanced fit drew from the full 100-row pool.
    assert chain.fit_class_counts[1] == (50, 50)


def test_predict_chain_single_link():
    ds = make_dataset(30, [0.5], seed=8)
    chain = train_chain(ds, ChainSpec((0,)), UNLIMITED, _link_streams(RngStream(3), 1))
    votes = _predict_row(chain, ds.features[0])
    assert len(votes) == 1 and votes[0][0] == 0 and votes[0][1] in (0, 1)


def test_predict_chain_constant_second_link():
    # Label 0 is x > 0.5, label 1 is constant zero: the plain chain tolerates
    # a single-class link and always votes 0 for it.
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    labels = np.array([[0, 0], [1, 0], [0, 0], [1, 0]], dtype=np.int8)
    ds = _dataset(X, labels)
    chain = train_chain(ds, ChainSpec((0, 1)), UNLIMITED)
    assert _predict_row(chain, np.array([1.0])) == [(0, 1), (1, 0)]
    assert _predict_row(chain, np.array([0.0])) == [(0, 0), (1, 0)]


def test_partial_chain_votes_subset():
    ds = make_dataset(50, [0.3, 0.4, 0.5], seed=9)
    chain = train_chain(ds, ChainSpec((2, 0)), UNLIMITED, _link_streams(RngStream(4), 2))
    votes = _predict_row(chain, ds.features[0])
    assert [label for label, _ in votes] == [2, 0]


def test_chain_arity_mismatch():
    ds = make_dataset(20, [0.5], seed=10)
    chain = train_chain(ds, ChainSpec((0,)), UNLIMITED, _link_streams(RngStream(5), 1))
    with pytest.raises(ArityMismatch):
        predict_chain_batch(chain, np.zeros((1, ds.d + 1)))
    with pytest.raises(ArityMismatch):
        predict_chain_batch(chain, np.zeros((3, ds.d + 2)))


def test_chain_model_arity_law_enforced():
    ds = make_dataset(20, [0.5], seed=11)
    tree = fit_tree(BinaryDataset(ds.features, ds.labels[:, 0]), UNLIMITED)
    with pytest.raises(ValueError):
        ChainModel(links=((0, tree),), base_arity=ds.d + 3)


def test_train_ccru_deterministic():
    ds = make_dataset(60, [0.2, 0.4], seed=12)
    a = train_chain(ds, ChainSpec((1, 0)), UNLIMITED, _link_streams(RngStream(6, (2,)), 2))
    b = train_chain(ds, ChainSpec((1, 0)), UNLIMITED, _link_streams(RngStream(6, (2,)), 2))
    assert model_payload(a) == model_payload(b)


def test_copied_labels_vote_identically():
    # Every label equals label 0 and the single feature separates it cleanly,
    # so all links vote the same way on every training row.
    gen = np.random.default_rng(13)
    y0 = gen.integers(0, 2, size=40).astype(np.int8)
    X = y0.astype(np.float64)[:, None]
    ds = _dataset(X, np.column_stack([y0, y0, y0]))
    chain = train_chain(ds, ChainSpec((0, 1, 2)), UNLIMITED, _link_streams(RngStream(7), 3))
    votes = predict_chain_batch(chain, ds.features)
    stacked = np.vstack([preds for _, preds in votes])
    assert (stacked == stacked[0]).all()
    assert np.array_equal(stacked[0], y0)


@pytest.mark.parametrize("method", ["ECC", "ECCRU"])
def test_chain_links_fit_on_presorted_orders(method, monkeypatch):
    # Bootstrapped rows (duplicates) and 0/1 chain columns make many ties.
    ds = make_dataset(120, [0.5, 0.3, 0.2, 0.1], noise_features=3, seed=5)
    real_fit = chain_module.fit_tree
    fitted = []

    def checked_fit(bd, spec, ranks=None):
        # Every link's codes, the chain columns too, order like its features.
        assert ranks is not None
        stable = np.argsort(bd.features, axis=0, kind="stable")
        assert np.array_equal(np.argsort(ranks, axis=0, kind="stable"), stable)
        for codes, values in zip(ranks.T, bd.features.T):
            assert np.array_equal(codes[:, None] == codes, values[:, None] == values)
        model = real_fit(bd, spec, ranks)
        assert model_payload(model) == model_payload(real_fit(bd, spec))
        fitted.append(bd.n)
        return model

    monkeypatch.setattr(chain_module, "fit_tree", checked_fit)
    train_ensemble(ds, EnsembleSpec(method=method, c=3, seed=2))
    assert len(fitted) == 3 * ds.q
    if method == "ECCRU":
        assert min(fitted) < ds.n


def test_predict_chain_batch_matches_hstack_reference():
    ds = make_dataset(120, [0.5, 0.3, 0.2, 0.1], noise_features=3, seed=6)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=3, seed=4))
    X = make_dataset(50, [0.5, 0.3, 0.2, 0.1], noise_features=3, seed=7).features
    for chain in model.chains:
        expected = []
        augmented = X
        for label, link in chain.links:
            preds = predict_batch(link, augmented)
            expected.append((label, preds.tolist()))
            augmented = np.hstack([augmented, preds.astype(np.float64)[:, None]])
        got = [(label, preds.tolist()) for label, preds in predict_chain_batch(chain, X)]
        assert got == expected
    assert max(len(chain.links) for chain in model.chains) == ds.q


@pytest.mark.parametrize("undersampled", [False, True])
def test_chain_from_row_ids_equals_chain_on_taken_rows(undersampled):
    # A bagged round hands its chains bootstrap row ids; each chain gathers
    # them into its own buffers instead of training on a bootstrap copy.
    ds = make_dataset(90, [0.5, 0.3, 0.2], noise_features=3, seed=8)
    ds.ranks
    rows = np.random.default_rng(9).integers(0, ds.n, size=ds.n)
    taken = ds.take_rows(rows)
    for chain in (ChainSpec((2, 0, 1)), ChainSpec((1,))):
        if undersampled:
            streams = _link_streams(RngStream(4, (1,)), len(chain))
            got = train_chain(ds, chain, UNLIMITED, streams, rows)
            want = train_chain(taken, chain, UNLIMITED, streams)
        else:
            got = train_chain(ds, chain, UNLIMITED, rows=rows)
            want = train_chain(taken, chain, UNLIMITED)
        assert model_payload(got) == model_payload(want)
        assert got.base_arity == ds.d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_train_chain_links_follow_the_chain_and_balance(data):
    # Few integer feature values, so split thresholds tie often.
    n = data.draw(st.integers(2, 16), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    q = data.draw(st.integers(1, 4), label="q")
    features = data.draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n * q, max_size=n * q))
    ds = _dataset(np.reshape(features, (n, d)), np.reshape(labels, (n, q)))
    rows = None
    if data.draw(st.booleans(), label="bootstrap"):
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    taken = ds if rows is None else ds.take_rows(rows)
    positives = taken.labels.sum(axis=0)
    undersampled = data.draw(st.booleans(), label="undersampled")
    # An undersampled link needs both classes of its label on the chain's rows.
    allowed = [j for j in range(q) if not undersampled or 0 < positives[j] < taken.n]
    if not allowed:
        return
    order = data.draw(st.permutations(allowed), label="order")
    chain = ChainSpec(tuple(order[: data.draw(st.integers(1, len(order)), label="length")]))
    streams = None
    if undersampled:
        streams = _link_streams(RngStream(data.draw(st.integers(0, 99), label="seed")), len(chain))
    spec = TreeSpec(max_depth=data.draw(st.sampled_from([None, 0, 2]), label="depth"))

    model = train_chain(ds, chain, spec, streams, rows)
    assert model.base_arity == d
    for j, ((label, link), counts) in enumerate(zip(model.links, model.fit_class_counts)):
        assert label == chain.sequence[j]
        assert link.n_features == d + j
        ones = int(positives[label])
        zeros = taken.n - ones
        assert counts == ((min(ones, zeros),) * 2 if undersampled else (ones, zeros))
    assert len(model.links) == len(model.fit_class_counts) == len(chain)
    assert model_payload(model) == model_payload(train_chain(taken, chain, spec, streams))
