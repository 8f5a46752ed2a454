from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbalance.dataset import Attribute, MultiLabelDataset, all_label_stats
from chainbalance.chain import ChainModel
from chainbalance.ensemble import (
    METHODS,
    EnsembleModel,
    EnsembleSpec,
    chain_label_sets,
    compute_classifier_budget,
    predict_relevance_batch,
    train_ensemble,
)
from chainbalance.errors import (
    ArityMismatch,
    ConfigError,
    ZeroMinorityCount,
)
from chainbalance.learner import BinaryModel, TreeSpec, fit_tree, predict_batch
from chainbalance.sampling import BinaryDataset, RngStream, bootstrap
from conftest import dataset_with_label_counts, make_dataset, model_payload


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnsembleSpec(method="COCOA")
    with pytest.raises(ConfigError):
        EnsembleSpec(method="ECC", c=0)
    with pytest.raises(ConfigError):
        EnsembleSpec(method="ECC", theta_max=0.5)
    for theta_max in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            EnsembleSpec(method="ECCRU2", theta_max=theta_max)
    with pytest.raises(ConfigError):
        EnsembleSpec(method="ECCRU3", c=2, theta_max=1e308)  # c * theta_max is inf
    with pytest.raises(ConfigError):
        EnsembleSpec(method="BR", c=10**400)
    with pytest.raises(ConfigError):
        EnsembleSpec(method="ECC", theta_min=0.5)
    with pytest.raises(ConfigError):
        EnsembleSpec(method="ECCRU3", c=10, theta_min=0.05)


def test_budget_worked_example():
    budget = compute_classifier_budget([10, 20, 30], EnsembleSpec(method="ECCRU2"))
    assert budget.raw == (20, 10, 6)
    assert budget.targets == (20, 10, 6)
    assert budget.total_minority == 60


def test_budget_uniform_case():
    for c in (1, 7, 10):
        budget = compute_classifier_budget([13, 13, 13, 13], EnsembleSpec(method="ECCRU2", c=c))
        assert budget.targets == (c, c, c, c)


def test_budget_eccru3_default_floor_is_half_c():
    # Without theta_min, ECCRU3 lifts each label to at least ceil(c / 2).
    for c in (1, 5, 10):
        budget = compute_classifier_budget([1, 1, 1000], EnsembleSpec(method="ECCRU3", c=c))
        assert budget.raw[2] < math.ceil(c / 2)
        assert budget.targets[2] == math.ceil(c / 2)


def test_budget_eccru3_clamps():
    spec = EnsembleSpec(method="ECCRU3", c=10, theta_min=0.5, theta_max=10.0)
    budget = compute_classifier_budget([10, 15, 200], spec)
    assert budget.raw == (75, 50, 3)
    assert budget.targets == (75, 50, 5)


def test_budget_cap_applies():
    spec = EnsembleSpec(method="ECCRU2", c=10, theta_max=10.0)
    budget = compute_classifier_budget([1, 100, 100], spec)
    assert budget.raw[0] == 670
    assert budget.targets[0] == 100


def test_budget_zero_raw_lifted():
    # One dominant minority count with many labels can floor to zero; the
    # target is lifted to one so the label still gets a classifier.
    spec = EnsembleSpec(method="ECCRU2", c=10)
    counts = [1] * 11 + [1000]
    budget = compute_classifier_budget(counts, spec)
    assert budget.raw[-1] == 0
    assert budget.targets[-1] == 1


def test_budget_zero_minority_rejected():
    with pytest.raises(ZeroMinorityCount):
        compute_classifier_budget([5, 0], EnsembleSpec(method="ECCRU2"))
    with pytest.raises(ZeroMinorityCount):
        compute_classifier_budget([], EnsembleSpec(method="ECCRU2"))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 500), min_size=2, max_size=12), st.integers(1, 20))
def test_budget_inequality_pre_clamp(counts, c):
    budget = compute_classifier_budget(counts, EnsembleSpec(method="ECCRU2", c=c))
    assert sum(r * m for r, m in zip(budget.raw, counts)) <= c * sum(counts)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 500), min_size=2, max_size=12),
    st.integers(2, 20),
    st.floats(0.1, 1.0),
    st.floats(1.0, 12.0),
)
def test_budget_eccru3_bounds(counts, c, theta_min, theta_max):
    if c * theta_min < 1.0:
        theta_min = 1.0 / c
    spec = EnsembleSpec(
        method="ECCRU3", c=c, theta_min=theta_min, theta_max=theta_max
    )
    budget = compute_classifier_budget(counts, spec)
    for target in budget.targets:
        assert c * theta_min - 1e-6 <= target <= c * theta_max + 1e-6


def test_chain_label_sets_worked_example():
    rounds = chain_label_sets((20, 10, 6))
    assert len(rounds) == 10
    assert Counter(len(r) for r in rounds) == {3: 6, 2: 4}
    # Nesting: each round's label set contains the next round's.
    for a, b in zip(rounds, rounds[1:]):
        assert set(b) <= set(a)
        assert len(b) <= len(a)
    assert len(rounds[-1]) >= 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=2, max_size=8))
def test_chain_label_sets_nested(targets):
    rounds = chain_label_sets(tuple(targets))
    for a, b in zip(rounds, rounds[1:]):
        assert set(b) <= set(a)
        assert len(b) <= len(a)
    for r in rounds:
        assert len(r) >= 2


def test_chain_label_sets_lone_label():
    # One label still gets a round per count; no labels get no rounds.
    assert chain_label_sets((3,)) == [[0], [0], [0]]
    assert chain_label_sets((0,)) == []
    assert chain_label_sets(()) == []


def test_eccru2_build_matches_worked_example():
    ds = dataset_with_label_counts(100, [10, 20, 30], seed=1)
    spec = EnsembleSpec(method="ECCRU2", c=10, seed=5)
    model = train_ensemble(ds, spec)
    sizes = Counter(len(chain.links) for chain in model.chains)
    assert sizes == {3: 6, 2: 4}
    assert model.vote_counts.tolist() == [10, 10, 6]
    # Trained chains nest: each chain's label set contains the next one's.
    label_sets = [{label for label, _ in chain.links} for chain in model.chains]
    for a, b in zip(label_sets, label_sets[1:]):
        assert b <= a
    assert all(len(s) >= 2 for s in label_sets)


def test_ecc_single_chain_votes_are_binary():
    ds = make_dataset(40, [0.3, 0.5], seed=2)
    model = train_ensemble(ds, EnsembleSpec(method="ECC", c=1, seed=1))
    scores = predict_relevance_batch(model, ds.features)
    assert set(np.unique(scores)) <= {0.0, 1.0}


def test_eccru_vote_counts_equal_c():
    ds = make_dataset(60, [0.2, 0.4, 0.6], seed=3)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=10, seed=2))
    assert model.vote_counts.tolist() == [10, 10, 10]


def test_br_family_structure():
    ds = make_dataset(50, [0.3, 0.5], seed=4)
    br = train_ensemble(ds, EnsembleSpec(method="BR", seed=0))
    assert br.vote_counts.tolist() == [1, 1]
    assert all(len(chain.links) == 1 for chain in br.chains)
    brus = train_ensemble(ds, EnsembleSpec(method="BRUS", seed=0))
    for chain in brus.chains:
        pos, neg = chain.fit_class_counts[0]
        assert pos == neg
    ebrus = train_ensemble(ds, EnsembleSpec(method="EBRUS", c=5, seed=0))
    assert ebrus.vote_counts.tolist() == [5, 5]
    for chain in ebrus.chains:
        pos, neg = chain.fit_class_counts[0]
        assert pos == neg


def test_relevance_unanimity_and_quantization():
    ds = dataset_with_label_counts(80, [20, 30], seed=5)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=4, seed=3))
    scores = predict_relevance_batch(model, ds.features)
    assert scores.shape == (80, 2)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    # Every score is an integer multiple of 1/cc_k.
    for k in range(2):
        steps = scores[:, k] * model.vote_counts[k]
        assert np.allclose(steps, np.round(steps))


def test_relevance_unanimous_votes_hit_one():
    # The single feature equals the label, so every chain votes correctly and
    # positive rows score exactly 1.0.
    gen = np.random.default_rng(20)
    y = gen.integers(0, 2, size=40).astype(np.int8)
    ds = MultiLabelDataset(
        features=y.astype(np.float64)[:, None],
        labels=np.column_stack([y, 1 - y]),
        label_names=("A", "B"),
        feature_kinds=(Attribute("x"),),
    )
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=4, seed=0))
    scores = predict_relevance_batch(model, ds.features)
    assert np.array_equal(scores[:, 0], y.astype(float))
    assert np.array_equal(scores[:, 1], (1 - y).astype(float))


def test_relevance_normalizes_by_label_counter():
    # Hand-built ensemble: label 0 is targeted by three constant trees voting
    # 1, 1, 0; label 1 by two trees voting 1, 0. Scores are vote fractions
    # over each label's own counter, not the chain count.
    from chainbalance.chain import ChainModel

    def constant_tree(value: int):
        return fit_tree(
            BinaryDataset(np.zeros((2, 1)), np.array([value, value], dtype=np.int8)),
            TreeSpec(),
        )

    def link(label: int, value: int) -> ChainModel:
        return ChainModel(links=((label, constant_tree(value)),), base_arity=1)

    model = EnsembleModel(
        method="ECCRU2",
        chains=(link(0, 1), link(0, 1), link(0, 0), link(1, 1), link(1, 0)),
        vote_counts=np.array([3, 2]),
        q=2,
        base_arity=1,
        skipped_labels={},
        instance_budget=0,
    )
    scores = predict_relevance_batch(model, np.array([[0.0]]))[0]
    assert scores.tolist() == [2 / 3, 0.5]


def test_skipped_label_constant_prediction():
    labels = np.zeros((30, 2), dtype=np.int8)
    labels[:12, 0] = 1  # label 1 stays all-zero
    gen = np.random.default_rng(6)
    features = np.hstack([labels[:, :1] * 2.0 + gen.normal(size=(30, 1)), gen.normal(size=(30, 2))])
    ds = MultiLabelDataset(
        features=features,
        labels=labels,
        label_names=("A", "B"),
        feature_kinds=tuple(Attribute(f"x{i}") for i in range(3)),
    )
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=3, seed=4))
    assert model.skipped_labels == {1: 0}
    assert model.vote_counts.tolist()[1] == 0
    scores = predict_relevance_batch(model, ds.features)
    assert (scores[:, 1] == 0.0).all()
    single = predict_relevance_batch(model, ds.features[:1])[0]
    assert single[1] == 0.0


def test_no_trainable_labels():
    ds = MultiLabelDataset(
        features=np.zeros((5, 1)),
        labels=np.zeros((5, 1), dtype=np.int8),
        label_names=("A",),
        feature_kinds=(Attribute("x"),),
    )
    # Every label is served by its constant, so the model holds no chains.
    for method in METHODS:
        model = train_ensemble(ds, EnsembleSpec(method=method))
        assert model.chains == (), method
        assert model.skipped_labels == {0: 0}, method
        assert model.vote_counts.tolist() == [0], method
        assert (predict_relevance_batch(model, ds.features) == 0.0).all(), method


def _budget(ds: MultiLabelDataset, **spec) -> int:
    return train_ensemble(ds, EnsembleSpec(**spec)).instance_budget


def test_instance_budget_formulas():
    ds = dataset_with_label_counts(100, [10, 20, 30], seed=7)
    assert _budget(ds, method="ECCRU", c=10) == 1200
    assert _budget(ds, method="ECCRU2", c=10) == 960
    assert _budget(ds, method="BR") == 3 * 100
    assert _budget(ds, method="ECC", c=10) == 10 * 3 * 100
    assert _budget(ds, method="BRUS") == 120
    assert _budget(ds, method="EBRUS", c=10) == 1200


def test_instance_budget_single_label_reports_uniform_value():
    ds = dataset_with_label_counts(50, [10], seed=8)
    eccru = _budget(ds, method="ECCRU", c=10)
    eccru2 = _budget(ds, method="ECCRU2", c=10)
    assert eccru == eccru2 == 10 * 2 * 10


def _reference_budget(ds: MultiLabelDataset, model: EnsembleModel) -> int:
    """The nominal budget counted again from the training set: n rows per
    plain fit and 2*m_k per balanced fit of label k, for each classifier
    the model holds."""
    undersampled = model.method not in ("BR", "ECC")
    stats = all_label_stats(ds)
    return sum(
        int(count) * (2 * stats[k].minority_count if undersampled else ds.n)
        for k, count in enumerate(model.vote_counts)
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 40),
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(0, 2**16),
)
@example(n=12, ones=[0, 1, 11, 12, 4], c=3, seed=0)
def test_model_records_the_nominal_budget(n, ones, c, seed):
    # Counts past n make all-positive labels; 0, 1 and n - 1 make
    # single-class and one-minority-row labels.
    ds = dataset_with_label_counts(n, [min(k, n) for k in ones], seed=seed)
    for method in METHODS:
        model = train_ensemble(ds, EnsembleSpec(method=method, c=c, seed=seed))
        assert model.instance_budget == _reference_budget(ds, model), method


def test_eccru2_single_label_degrades_to_uniform_build():
    ds = dataset_with_label_counts(50, [10], seed=9)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU2", c=4, seed=1))
    assert model.vote_counts.tolist() == [4]


def test_rare_labels_leave_rounds_instead_of_failing():
    # Every undersampled draw would have to keep all 20 singleton labels at
    # once; instead, a label missing from a round's bootstrap leaves it.
    ds = dataset_with_label_counts(300, [1] * 20 + [60], seed=1)
    for method in METHODS:
        model = train_ensemble(ds, EnsembleSpec(method=method, c=2, seed=0))
        assert model.vote_counts[-1] > 0, method
    ebrus = train_ensemble(ds, EnsembleSpec(method="EBRUS", c=2, seed=0))
    dropped = ebrus.vote_counts == 0
    assert dropped.any()
    assert (predict_relevance_batch(ebrus, ds.features)[:, dropped] == 0.0).all()


def test_round_with_no_labels_left_trains_nothing():
    ds = dataset_with_label_counts(50, [1, 1], seed=4)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=6, seed=0))
    assert 0 < len(model.chains) < 6
    assert model.vote_counts.tolist() == [4, 3]


def test_every_method_trains_without_features():
    # Only a chain's later links have features (the earlier labels); the
    # base trees are single leaves.
    gen = np.random.default_rng(2)
    ds = MultiLabelDataset(
        features=np.empty((30, 0)),
        labels=(gen.random((30, 2)) < [0.3, 0.5]).astype(np.int8),
        label_names=("A", "B"),
        feature_kinds=(),
    )
    for method in METHODS:
        model = train_ensemble(ds, EnsembleSpec(method=method, c=3, seed=0))
        scores = predict_relevance_batch(model, ds.features)
        assert scores.shape == (30, 2), method
        assert ((scores >= 0.0) & (scores <= 1.0)).all(), method


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=20),
    st.booleans(),
    st.integers(1, 4),
    st.integers(0, 2**16),
)
@example(rare=[1, 1], common=False, c=4, seed=4)
@example(rare=[1] * 20, common=True, c=2, seed=1)
def test_rare_label_property(rare, common, c, seed):
    # Rare labels are single-class in many bootstraps; with only singletons,
    # whole rounds come out empty.
    ds = dataset_with_label_counts(40, rare + [15] * common, seed=seed)
    for method in METHODS:
        spec = EnsembleSpec(method=method, c=c, seed=seed)
        model = train_ensemble(ds, spec)
        if method not in ("BR", "ECC"):
            for chain in model.chains:
                assert all(pos == neg for pos, neg in chain.fit_class_counts), method
        parallel = train_ensemble(ds, spec, n_jobs=2)
        assert model_payload(model) == model_payload(parallel), method


def test_parallel_training_matches_sequential():
    ds = make_dataset(70, [0.15, 0.4, 0.6], seed=10)
    spec = EnsembleSpec(method="ECCRU3", c=6, seed=11)
    serial = train_ensemble(ds, spec, n_jobs=1)
    parallel = train_ensemble(ds, spec, n_jobs=4)
    assert model_payload(serial) == model_payload(parallel)
    probe = make_dataset(10, [0.5, 0.5, 0.5], seed=99).features
    assert np.array_equal(
        predict_relevance_batch(serial, probe), predict_relevance_batch(parallel, probe)
    )


def test_training_deterministic_across_runs():
    ds = make_dataset(50, [0.2, 0.5], seed=12)
    for method in ("BRUS", "EBRUS", "ECC", "ECCRU", "ECCRU2", "ECCRU3"):
        spec = EnsembleSpec(method=method, c=4, seed=13)
        a = train_ensemble(ds, spec)
        b = train_ensemble(ds, spec)
        assert model_payload(a) == model_payload(b), method


def test_ecc_single_label_equals_bagged_trees():
    # With one label, each chain is a bagged tree on a bootstrap resample;
    # rebuild that by hand with the same substreams and compare votes.
    ds = make_dataset(45, [0.4], seed=14)
    c, seed = 5, 21
    model = train_ensemble(ds, EnsembleSpec(method="ECC", c=c, seed=seed))
    probe = make_dataset(25, [0.5], seed=15).features
    expected = np.zeros(25)
    for i in range(c):
        sample = ds.take_rows(bootstrap(ds, RngStream(seed).child(i, 0, 0)))
        tree = fit_tree(BinaryDataset(sample.features, sample.labels[:, 0]), TreeSpec())
        expected += predict_batch(tree, probe)
    expected /= c
    assert np.allclose(predict_relevance_batch(model, probe)[:, 0], expected)


def test_relevance_arity_checks():
    ds = make_dataset(30, [0.5], seed=16)
    model = train_ensemble(ds, EnsembleSpec(method="BR"))
    with pytest.raises(ArityMismatch):
        predict_relevance_batch(model, np.zeros((1, ds.d + 1)))
    with pytest.raises(ArityMismatch):
        predict_relevance_batch(model, np.zeros((2, ds.d + 1)))


# sha256 of json.dumps(model_payload(model), sort_keys=True) and the
# instance budget, for every method with c=4 and seed=5. "one_eligible" has a
# single trainable label next to a single-class one, so ECCRU2/3 fall back to
# the uniform build.
PINNED_MODELS = {
    "three_labels": {
        "BR": ("6d48257f535f13f26e36424971235e6342f31e691dba6f876fec78b1668732b9", 180),
        "BRUS": ("86df914dd212b609b5fdfb29d088a53392a93f5fceaa1babca1675f831659f39", 96),
        "EBRUS": ("efca34ab6423d831ef62e743bcdf017ff1dac92d5ee1247ba8afa632c806184a", 384),
        "ECC": ("7008a13541e1449244f3f8ef72b620549e354c07ecfba01aca66619799fb26d5", 720),
        "ECCRU": ("621244af919a6be8fcfc74eea1c0b811d97f00cea72792f8bf86a12425edd3a5", 384),
        "ECCRU2": ("a7557037c51f3d083dd47a056792e7d21683eaae1a88a894bb34d1a3a0861782", 284),
        "ECCRU3": ("29b3df94d8e42db60a96e61b4c30e47cec62371f8e737629e3271045efe9a603", 284),
    },
    "one_eligible": {
        "BR": ("2f139f4a6e457258ef2b5f617982fc3583698b828410f14d1971bd850adbaede", 40),
        "BRUS": ("8698bf6ce69f514ee0743e45545daeedb94cda088c192cce5b17762a59b599c9", 18),
        "EBRUS": ("1e0320586447b2669cc8d82be8d44693effb4a57b09f2ad3480f5f5431560877", 72),
        "ECC": ("45a9b2cd47071c2af4e2b0a8f9a9ffb66eb13213fc1a9aa00032af6a4dfc7a93", 160),
        "ECCRU": ("238cd60930212ef791ef5aafaf84fad056703f820f37e005da015e81fd320c0a", 72),
        "ECCRU2": ("742d4c18cefb06284f45e7f1a71e21073f9224e8c81bab4a495988d3a303eaa3", 72),
        "ECCRU3": ("f3a74b70bfc165f1d61a1abe71de719c217a559d4ad0d00c6dbad31052303d31", 72),
    },
}


def test_models_and_budgets_pinned():
    fixtures = {
        "three_labels": make_dataset(60, [0.08, 0.3, 0.55], seed=31),
        "one_eligible": dataset_with_label_counts(40, [9, 0], seed=32),
    }
    for name, ds in fixtures.items():
        for method, (digest, budget) in PINNED_MODELS[name].items():
            spec = EnsembleSpec(method=method, c=4, seed=5)
            model = train_ensemble(ds, spec)
            payload = json.dumps(model_payload(model), sort_keys=True)
            assert hashlib.sha256(payload.encode()).hexdigest() == digest, (name, method)
            assert model.instance_budget == budget, (name, method)


def _replaced(obj, name: str):
    """obj with field name set to a different value of the same kind."""
    value = getattr(obj, name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[0] += 1
    elif isinstance(value, tuple):
        value = value[:-1]
    elif isinstance(value, dict):
        value = {} if value else {0: 1}
    elif isinstance(value, str):
        value += "x"
    else:
        value += 1
    return dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize(
    "cls, name",
    [
        (cls, f.name)
        for cls in (BinaryModel, ChainModel, EnsembleModel)
        for f in dataclasses.fields(cls)
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_model_payload_sees_every_field(cls, name, monkeypatch):
    # Changing any one field of the ensemble, of its first chain or of that
    # chain's first tree changes the payload, so model comparisons and the
    # pin above cannot miss a field. The arity checks would refuse some of
    # these changes, so __post_init__ is skipped.
    ds = make_dataset(40, [0.2, 0.5], seed=17)
    model = train_ensemble(ds, EnsembleSpec(method="ECCRU", c=2, seed=3))
    for owner in (ChainModel, EnsembleModel):
        monkeypatch.setattr(owner, "__post_init__", lambda self: None)
    chain = model.chains[0]
    if cls is BinaryModel:
        (label, tree), *rest = chain.links
        chain = dataclasses.replace(chain, links=((label, _replaced(tree, name)), *rest))
    elif cls is ChainModel:
        chain = _replaced(chain, name)
    if cls is EnsembleModel:
        changed = _replaced(model, name)
    else:
        changed = dataclasses.replace(model, chains=(chain, *model.chains[1:]))
    assert model_payload(changed) != model_payload(model)
