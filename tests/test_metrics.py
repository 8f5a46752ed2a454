from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainbalance.metrics as metrics_module
from chainbalance.errors import LengthMismatch
from chainbalance.experiment import ExperimentConfig, run_cv
from chainbalance.metrics import (
    IMR_BUCKETS,
    POINT_METRICS,
    THRESHOLD_GRID,
    BinaryConfusion,
    ThresholdChoice,
    auc_pr,
    auc_roc,
    average_ranks,
    build_report,
    imr_bucket_report,
    mean_defined,
    point_metric,
    select_threshold,
)
from conftest import make_dataset, write_dataset_files


def brute_force_auc(scores, truth):
    """Pair-counting oracle: wins plus half-ties over all (pos, neg) pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int8)
    pos = np.flatnonzero(truth == 1)
    neg = np.flatnonzero(truth == 0)
    if pos.size == 0 or neg.size == 0:
        return None
    credit = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                credit += 1.0
            elif scores[i] == scores[j]:
                credit += 0.5
    return credit / (pos.size * neg.size)


def reference_point_metric(conf, kind):
    """The three-branch formula that point_metric ran before it read all
    three objectives off one confusion: the oracles below use it, so they do
    not test the library against itself."""
    if kind == "F":
        denom = 2 * conf.tp + conf.fp + conf.fn
        return None if denom == 0 else 2 * conf.tp / denom
    tpr = conf.tp / (conf.tp + conf.fn) if conf.tp + conf.fn > 0 else None
    tnr = conf.tn / (conf.tn + conf.fp) if conf.tn + conf.fp > 0 else None
    if tpr is None or tnr is None:
        return None
    if kind == "G":
        return math.sqrt(tpr * tnr)
    return (tpr + tnr) / 2


def grid_scan_oracle(scores, truth, kind):
    """Independent exhaustive evaluation of all 21 grid thresholds."""
    best_t, best_v = None, None
    for t in THRESHOLD_GRID:
        conf = BinaryConfusion.from_predictions(np.asarray(truth), np.asarray(scores) >= t)
        value = reference_point_metric(conf, kind)
        if value is None:
            continue
        if best_v is None or value > best_v:
            best_t, best_v = t, value
    return best_t, best_v


def test_point_metric_perfect():
    conf = BinaryConfusion(tp=4, fp=0, tn=6, fn=0)
    assert point_metric(conf, "F") == 1.0
    assert point_metric(conf, "G") == 1.0
    assert point_metric(conf, "B") == 1.0


def test_point_metric_hand_values():
    conf = BinaryConfusion(tp=8, fn=2, tn=25, fp=25)
    assert point_metric(conf, "B") == pytest.approx(0.65)
    assert point_metric(conf, "G") == pytest.approx(math.sqrt(0.4))
    assert point_metric(conf, "F") == pytest.approx(2 * 8 / (16 + 25 + 2))


def test_point_metric_undefined_cases():
    all_tn = BinaryConfusion(tp=0, fp=0, tn=10, fn=0)
    for kind in ("F", "G", "B"):
        assert point_metric(all_tn, kind) is None
    # tp=0 with errors present: F is 0, not undefined.
    conf = BinaryConfusion(tp=0, fp=3, tn=5, fn=2)
    assert point_metric(conf, "F") == 0.0
    # No negatives: G and B undefined, F fine.
    no_neg = BinaryConfusion(tp=3, fp=0, tn=0, fn=1)
    assert point_metric(no_neg, "G") is None
    assert point_metric(no_neg, "B") is None
    assert point_metric(no_neg, "F") == pytest.approx(6 / 7)


_COUNTS = st.tuples(*[st.integers(0, 50)] * 4)


@settings(max_examples=300, deadline=None)
@given(_COUNTS)
# Every zero denominator: no row at all, no positives, no negatives, and
# F's 2tp + fp + fn = 0 with negatives present.
@example((0, 0, 0, 0))
@example((0, 3, 5, 0))
@example((4, 0, 0, 2))
@example((0, 0, 7, 0))
def test_point_metric_equals_reference_formula(counts):
    conf = BinaryConfusion(*counts)
    for kind in POINT_METRICS:
        expected = reference_point_metric(conf, kind)
        actual = point_metric(conf, kind)
        assert (actual is None) == (expected is None)
        # Equal bits, not just close: the formulas run operation for operation.
        assert actual is None or actual.hex() == expected.hex()


@settings(max_examples=200, deadline=None)
@given(_COUNTS)
def test_gmean_never_exceeds_balanced_accuracy(counts):
    conf = BinaryConfusion(*counts)
    g = point_metric(conf, "G")
    b = point_metric(conf, "B")
    if g is not None and b is not None:
        assert g <= b + 1e-12
        assert 0.0 <= g <= 1.0 and 0.0 <= b <= 1.0


def test_auc_roc_examples():
    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0
    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auc_roc([0.1, 0.2], [1, 1]) is None
    with pytest.raises(LengthMismatch):
        auc_roc([0.1, 0.2], [1])
    # Truth other than 0/1 is refused, not cast: 0.5 would read as 0.
    for truth in ([2, 0, 0], [0.5, 1, 0], [1, 0, -1]):
        with pytest.raises(ValueError, match="0/1"):
            auc_roc([0.9, 0.1, 0.5], truth)


_TIED_SCORES = (-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf)


def test_auc_roc_matches_pair_counting():
    gen = np.random.default_rng(0)
    for _ in range(300):
        n = int(gen.integers(2, 13))
        scores = np.round(gen.random(n), 2)  # coarse grid forces ties
        truth = gen.integers(0, 2, n)
        expected = brute_force_auc(scores, truth)
        actual = auc_roc(scores, truth)
        assert actual == expected
    # Up to 200 rows over few values: -0.0 ties with 0.0, and the
    # infinities are ordinary scores at the ends.
    pool = np.array(_TIED_SCORES)
    for _ in range(40):
        n = int(gen.integers(2, 201))
        scores = pool[gen.integers(0, pool.size, n)]
        truth = gen.integers(0, 2, n)
        assert auc_roc(scores, truth) == brute_force_auc(scores, truth)
    for scores, truth in (([-0.0, 0.0, 0.0, -0.0], [1, 0, 0, 1]),
                          ([math.inf, -math.inf, math.inf], [1, 0, 0])):
        assert auc_roc(scores, truth) == brute_force_auc(scores, truth)


def test_auc_roc_complement_property():
    gen = np.random.default_rng(1)
    for _ in range(50):
        n = int(gen.integers(3, 12))
        scores = gen.permutation(n).astype(float)  # distinct scores, no ties
        truth = gen.integers(0, 2, n)
        if truth.sum() in (0, n):
            continue
        assert auc_roc(scores, truth) == pytest.approx(1.0 - auc_roc(scores, 1 - truth))


def test_auc_roc_monotone_transform_invariance():
    gen = np.random.default_rng(2)
    for _ in range(50):
        n = int(gen.integers(2, 13))
        scores = gen.random(n)
        truth = gen.integers(0, 2, n)
        if truth.sum() in (0, n):
            continue
        transformed = np.exp(3.0 * scores) + 1.0
        assert auc_roc(scores, truth) == pytest.approx(auc_roc(transformed, truth))
        assert auc_roc(scores, truth) == brute_force_auc(scores, truth)


def test_auc_pr_examples():
    assert auc_pr([0.9, 0.8, 0.3], [1, 1, 1]) == 1.0
    assert auc_pr([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(5 / 6)
    # Constant scores: one block, precision equals prevalence.
    assert auc_pr([0.4] * 8, [1, 0, 0, 0, 1, 0, 0, 0]) == pytest.approx(0.25)
    assert auc_pr([0.9, 0.1], [0, 0]) is None
    with pytest.raises(LengthMismatch):
        auc_pr([0.1], [1, 0])
    for truth in ([2, 0], [0.5, 1], [256, 0]):
        with pytest.raises(ValueError, match="0/1"):
            auc_pr([0.9, 0.1], truth)


def per_block_auc_pr(scores, truth):
    """Reference: walk the distinct scores from the highest down, and at the
    end of each block of ties add recall gain times precision."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int8)
    pos = int(truth.sum())
    if pos == 0:
        return None
    total, seen, hits = 0.0, 0, 0
    for value in sorted(set(scores.tolist()), reverse=True):
        block = scores == value
        block_pos = int(truth[block].sum())
        seen += int(block.sum())
        hits += block_pos
        total += (block_pos / pos) * (hits / seen)
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from(_TIED_SCORES) | st.floats(-2.0, 2.0), min_size=n,
                     max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_auc_pr_matches_per_block_loop(pair):
    scores, truth = pair
    expected = per_block_auc_pr(scores, truth)
    actual = auc_pr(scores, truth)
    if expected is None:
        assert actual is None
    else:
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_nan_scores_are_refused_and_infinities_accepted():
    scores, truth = [0.1, math.nan, 0.9, 0.4], [0, 1, 1, 0]
    for metric in (auc_roc, auc_pr, select_threshold):
        with pytest.raises(ValueError, match="NaN"):
            metric(scores, truth)
    matrix = np.array(scores)[:, None]
    labels = np.array(truth)[:, None]
    with pytest.raises(ValueError, match="NaN"):
        build_report(matrix, labels, np.zeros((4, 1)), labels)
    with pytest.raises(ValueError, match="NaN"):
        build_report(np.zeros((4, 1)), labels, matrix, labels)
    infinite = [math.inf, -math.inf, math.inf, 0.4]
    assert auc_roc(infinite, truth) == brute_force_auc(infinite, truth) == 0.375
    assert auc_pr(infinite, truth) == pytest.approx(per_block_auc_pr(infinite, truth))
    f, _, _ = select_threshold(infinite, truth)
    assert f.threshold == 0.45 and f.value == 0.5


def test_auc_pr_perfect_ranking_any_prevalence():
    gen = np.random.default_rng(3)
    for pos in (1, 3, 5):
        neg = 7
        scores = np.concatenate([gen.random(pos) + 2.0, gen.random(neg)])
        truth = np.array([1] * pos + [0] * neg)
        assert auc_pr(scores, truth) == pytest.approx(1.0)


def test_select_threshold_examples():
    f, _, _ = select_threshold([0.0, 0.3, 0.7, 1.0], [0, 0, 1, 1])
    assert f.threshold == pytest.approx(0.35)
    assert f.value == 1.0
    assert not f.fallback

    f, _, _ = select_threshold([0.5, 0.5, 0.5], [1, 1, 0])
    assert f.threshold == 0.0
    assert f.value == pytest.approx(0.8)

    # Perfect separation: smallest maximizing grid point is returned.
    _, _, b = select_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert b.threshold == pytest.approx(0.25)


def test_select_threshold_fallbacks():
    choices = select_threshold([0.1, 0.9], [0, 0])
    assert len(choices) == len(POINT_METRICS)
    for choice in choices:
        assert choice.fallback and choice.threshold == 0.5 and choice.value is None
    # All-positive truth leaves G and B undefined at every grid point; F is
    # defined and perfect at the smallest threshold.
    f, g, b = select_threshold([0.1, 0.9], [1, 1])
    assert g.fallback and g.threshold == 0.5
    assert b.fallback and b.threshold == 0.5
    assert not f.fallback and f.threshold == 0.0 and f.value == 1.0


def test_select_threshold_matches_grid_oracle():
    gen = np.random.default_rng(4)
    for _ in range(300):
        n = int(gen.integers(2, 30))
        scores = np.round(gen.random(n), 2)
        truth = gen.integers(0, 2, n)
        if truth.sum() == 0:
            continue
        for kind, choice in zip(POINT_METRICS, select_threshold(scores, truth)):
            expected_t, expected_v = grid_scan_oracle(scores, truth, kind)
            if expected_v is None:
                assert choice.fallback
            else:
                assert choice.value == expected_v
                assert choice.threshold == expected_t


def single_objective_scan(scores, truth, objective):
    """Reference: the grid scan for one objective, as select_threshold ran it
    once per objective before it read all three off one count."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int8)
    pos = int(truth.sum())
    if pos == 0:
        return ThresholdChoice(threshold=0.5, value=None, fallback=True)
    predicted = scores >= np.array(THRESHOLD_GRID)[:, None]
    tps = np.count_nonzero(predicted & (truth == 1), axis=1)
    fps = np.count_nonzero(predicted, axis=1) - tps
    neg = truth.shape[0] - pos
    best_t, best_v = None, -1.0
    for t, tp, fp in zip(THRESHOLD_GRID, tps.tolist(), fps.tolist()):
        value = reference_point_metric(BinaryConfusion(tp, fp, neg - fp, pos - tp), objective)
        if value is not None and value > best_v:
            best_t, best_v = t, value
    if best_t is None:
        return ThresholdChoice(threshold=0.5, value=None, fallback=True)
    return ThresholdChoice(threshold=best_t, value=best_v, fallback=False)


# Grid-exact scores, a few values that tie often, and scores off the grid.
_SCORES = (
    st.sampled_from(THRESHOLD_GRID)
    | st.sampled_from([0.3, 0.7])
    | st.floats(-0.5, 1.5, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 25).flatmap(
        lambda n: st.tuples(
            st.lists(_SCORES, min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
@example(([0.35], [1]))
@example(([0.35], [0]))
@example(([0.1, 0.5, 0.5, 0.9], [0, 0, 0, 0]))
@example(([0.1, 0.5, 0.5, 0.9], [1, 1, 1, 1]))
def test_select_threshold_equals_one_scan_per_objective(pair):
    scores, truth = pair
    assert select_threshold(scores, truth) == tuple(
        single_objective_scan(scores, truth, kind) for kind in POINT_METRICS
    )


def test_threshold_policy_validation():
    conf = BinaryConfusion(tp=1, fp=1, tn=1, fn=1)
    with pytest.raises(ValueError):
        point_metric(conf, "accuracy")
    # Only the canonical names are accepted.
    with pytest.raises(ValueError):
        point_metric(conf, "f")
    # Truth other than 0/1 is refused, before the no-positives early return
    # too (0.5 and 256 would cast to 0).
    for truth in ([0, 2], [0, 0.5], [0, 256]):
        with pytest.raises(ValueError, match="0/1"):
            select_threshold([0.2, 0.8], truth)


def test_macro_average():
    assert mean_defined([0.5, None, 1.0]) == pytest.approx(0.75)
    assert mean_defined([0.7, 0.7, 0.7]) == pytest.approx(0.7)
    assert mean_defined([None, None]) is None
    assert mean_defined([]) is None


def test_average_ranks_examples():
    dominance = np.array([[0.9, 0.8], [0.5, 0.6]])
    assert average_ranks(dominance).tolist() == [1.0, 2.0]
    tie = np.array([[0.7], [0.7]])
    assert average_ranks(tie).tolist() == [1.5, 1.5]
    three = np.array([[0.9, 0.7], [0.8, 0.9], [0.7, 0.8]])
    assert average_ranks(three).tolist() == [2.0, 1.5, 2.5]


def brute_force_ranks(results):
    """Rank oracle: 1 + the methods strictly higher + half the others tied."""
    n_methods, n_datasets = results.shape
    ranks = np.zeros((n_methods, n_datasets))
    for col in range(n_datasets):
        for i in range(n_methods):
            mine = results[i, col]
            others = [results[k, col] for k in range(n_methods) if k != i]
            better = sum(o > mine for o in others)
            tied = sum(o == mine for o in others)
            ranks[i, col] = 1.0 + better + 0.5 * tied
    return ranks.mean(axis=1)


# Few distinct small values make ties common; 0.0 and -0.0 tie.
_RANK_CELL = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(_RANK_CELL, min_size=m, max_size=m), min_size=1, max_size=4
        )
    ),
)
def test_average_ranks_match_pair_counting(columns):
    results = np.array(columns).T
    assert average_ranks(results).tolist() == brute_force_ranks(results).tolist()


def test_imr_buckets():
    report = imr_bucket_report([5.0, 100.0, 2.0, 4.9], [0.5, 0.7, 0.9, None])
    assert len(report) == len(IMR_BUCKETS)
    by_bounds = {(b.lower, b.upper): b for b in report}
    assert by_bounds[(5.0, 10.0)].label_count == 1
    assert by_bounds[(100.0, math.inf)].label_count == 1
    assert by_bounds[(1.0, 5.0)].label_count == 2
    assert by_bounds[(1.0, 5.0)].mean_value == pytest.approx(0.9)
    assert by_bounds[(10.0, 15.0)].label_count == 0
    assert by_bounds[(10.0, 15.0)].mean_value is None


def test_imr_buckets_all_low():
    report = imr_bucket_report([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert report[0].label_count == 3
    assert report[0].label_percent == pytest.approx(100.0)
    assert all(b.label_count == 0 for b in report[1:])


def test_build_report_shapes_and_macro():
    gen = np.random.default_rng(5)
    n_tr, n_te, q = 40, 20, 3
    train_truth = gen.integers(0, 2, (n_tr, q))
    test_truth = gen.integers(0, 2, (n_te, q))
    train_scores = train_truth * 0.6 + gen.random((n_tr, q)) * 0.4
    test_scores = test_truth * 0.6 + gen.random((n_te, q)) * 0.4
    report = build_report(train_scores, train_truth, test_scores, test_truth, 1)
    assert len(report["per_label"]) == q
    assert report["skipped_label_count"] == 1
    for key, value in report["macro"].items():
        assert value is None or 0.0 <= value <= 1.0
    for row in report["per_label"]:
        assert row["threshold_f"] in THRESHOLD_GRID
        assert row["threshold_g"] in THRESHOLD_GRID
        assert row["threshold_b"] in THRESHOLD_GRID
    # A test truth of 256 would read as 0 after an int8 cast; 2 in the
    # training truth would count as a positive.
    bad_test = test_truth.copy()
    bad_test[0, 0] = 256
    with pytest.raises(ValueError, match="0/1"):
        build_report(train_scores, train_truth, test_scores, bad_test)
    bad_train = train_truth.copy()
    bad_train[0, 0] = 2
    with pytest.raises(ValueError, match="0/1"):
        build_report(train_scores, bad_train, test_scores, test_truth)


def test_build_report_builds_one_tie_table_per_label(monkeypatch):
    gen = np.random.default_rng(7)
    n_tr, n_te, q = 30, 16, 4
    train_truth = gen.integers(0, 2, (n_tr, q))
    test_truth = gen.integers(0, 2, (n_te, q))
    test_truth[:2] = [[0], [1]]  # both classes in every test column
    train_scores = gen.random((n_tr, q)).round(1)
    test_scores = gen.random((n_te, q)).round(1)  # rounded, so scores tie
    tables = []
    tie_blocks = metrics_module._tie_blocks

    def counted(scores, truth):
        tables.append(scores.shape)
        return tie_blocks(scores, truth)

    monkeypatch.setattr(metrics_module, "_tie_blocks", counted)
    report = build_report(train_scores, train_truth, test_scores, test_truth)
    assert tables == [(n_te,)] * q
    for j, row in enumerate(report["per_label"]):
        assert row["auc_roc"] == auc_roc(test_scores[:, j], test_truth[:, j])
        assert row["auc_pr"] == auc_pr(test_scores[:, j], test_truth[:, j])


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: build_report(np.zeros((4, 2)), np.zeros((4, 1)), np.zeros((2, 2)),
                           np.zeros((2, 2))),
      LengthMismatch, "scores and truth matrices differ in shape"),
     (lambda: build_report(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((2, 1)),
                           np.zeros((2, 1))),
      LengthMismatch, "train and test disagree on label count"),
     (lambda: average_ranks(np.zeros(3)), ValueError,
      "results must be a methods x datasets matrix"),
     (lambda: average_ranks(np.array([[0.5, np.nan], [0.4, 0.3]])), ValueError,
      "results must not contain missing cells"),
     (lambda: imr_bucket_report([1.0, 2.0], [0.5]), LengthMismatch,
      "imrs and values differ in length"),
     (lambda: BinaryConfusion.from_predictions(np.zeros(3), np.zeros(2)), LengthMismatch,
      "truth and predictions differ in length")],
    ids=["report-shape", "report-labels", "ranks-not-2d", "ranks-missing", "imr-lengths",
         "confusion-lengths"],
)
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_report_flat_csv_rows(tmp_path):
    ds = make_dataset(40, [0.3, 0.5], seed=6)
    arff, xml = write_dataset_files(ds, tmp_path)
    run_cv(
        ExperimentConfig(
            arff_path=arff, xml_path=xml, out_dir=tmp_path / "out",
            methods=("BR",), repeats=1, folds=2, seed=6,
        )
    )
    with open(tmp_path / "out" / "per_label.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 2 * 5  # one row per fold per label per metric
    assert {r["label_index"] for r in rows} == {"0", "1"}
    assert {r["metric"] for r in rows} == {
        "f_measure", "g_mean", "balanced_accuracy", "auc_roc", "auc_pr"
    }


def test_build_report_macro_excludes_undefined():
    # Second label has no positives anywhere: F/G/B/AUCs undefined on test.
    train_truth = np.array([[1, 0], [0, 0], [1, 0], [0, 0]])
    test_truth = np.array([[1, 0], [0, 0]])
    train_scores = np.array([[0.9, 0.1], [0.2, 0.1], [0.8, 0.1], [0.1, 0.1]])
    test_scores = np.array([[0.9, 0.2], [0.1, 0.2]])
    report = build_report(train_scores, train_truth, test_scores, test_truth)
    assert report["excluded"]["auc_roc"] == 1
    assert report["macro"]["auc_roc"] == pytest.approx(1.0)
    assert report["per_label"][1]["auc_roc"] is None
