"""Imbalance-aware evaluation: point metrics, ranking metrics, thresholds.

All metric functions return None where a required denominator is zero, and
aggregation skips undefined values while reporting how many were skipped.
Binary predictions use the rule score >= threshold, with the threshold picked
per label and point metric from a fixed 21-point grid to maximize that metric
on training scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch

THRESHOLD_GRID: tuple[float, ...] = tuple(i / 20 for i in range(21))
_GRID = np.array(THRESHOLD_GRID)

POINT_METRICS = ("F", "G", "B")

# Report keys for the five metrics, in presentation order; the first three
# are the keys of POINT_METRICS, in order.
METRIC_KEYS = ("f_measure", "g_mean", "balanced_accuracy", "auc_roc", "auc_pr")

IMR_BUCKETS: tuple[tuple[float, float], ...] = (
    (1.0, 5.0),
    (5.0, 10.0),
    (10.0, 15.0),
    (15.0, 25.0),
    (25.0, 50.0),
    (50.0, 100.0),
    (100.0, math.inf),
)


@dataclass(frozen=True)
class BinaryConfusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, truth: np.ndarray, pred: np.ndarray) -> "BinaryConfusion":
        truth = np.asarray(truth).astype(bool)
        pred = np.asarray(pred).astype(bool)
        if truth.shape != pred.shape:
            raise LengthMismatch("truth and predictions differ in length")
        return cls(
            tp=int((truth & pred).sum()),
            fp=int((~truth & pred).sum()),
            tn=int((~truth & ~pred).sum()),
            fn=int((truth & ~pred).sum()),
        )


def _objectives(tp: int, fp: int, tn: int, fn: int) -> tuple[float | None, ...]:
    """F, G and B of one confusion in POINT_METRICS order; None if undefined."""
    denom = 2 * tp + fp + fn
    f = None if denom == 0 else 2 * tp / denom
    if tp + fn == 0 or tn + fp == 0:
        return f, None, None
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    return f, math.sqrt(tpr * tnr), (tpr + tnr) / 2


def point_metric(conf: BinaryConfusion, kind: str) -> float | None:
    """F-measure, G-mean, or balanced accuracy from a confusion matrix.

    Returns None when a needed rate is undefined: F needs at least one of
    tp/fp/fn, G and B need both a positive and a negative example. An F of
    zero (tp=0 with errors present) is a defined value, not None.
    """
    if kind not in POINT_METRICS:
        raise ValueError(f"unknown point metric {kind!r}; valid: {POINT_METRICS}")
    return _objectives(conf.tp, conf.fp, conf.tn, conf.fn)[POINT_METRICS.index(kind)]


def _check_pair(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scores as float64 and truth as int8, both flat. Truth is checked before
    the cast, which would turn 0.5 and 256 into 0."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if not ((truth == 0) | (truth == 1)).all():
        raise ValueError("truth must contain only 0/1 values")
    if scores.shape[0] != truth.shape[0]:
        raise LengthMismatch("scores and truth differ in length")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    return scores, truth.astype(np.int8)


def _midranks(counts: np.ndarray) -> np.ndarray:
    """Ranks of ascending groups of tied values, given each group's size:
    a group gets the mean of the 1-based positions it spans."""
    return np.cumsum(counts) - counts + 1 + (counts - 1) / 2.0


def _tie_blocks(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block of tied scores, ascending: its size and its positives."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return counts, np.bincount(inverse, weights=truth)


def _aucs(scores: np.ndarray, truth: np.ndarray) -> tuple[float | None, float | None]:
    """auc_roc and auc_pr of one column, from one check and one tie table."""
    scores, truth = _check_pair(scores, truth)
    pos = int(truth.sum())
    neg = truth.shape[0] - pos
    if pos == 0:
        return None, None
    counts, pos_per_value = _tie_blocks(scores, truth)
    roc = None
    if neg > 0:
        # Mid-ranks are multiples of 1/2, so this sum is exact below 2**53.
        rank_sum = float((_midranks(counts) * pos_per_value).sum())
        u = rank_sum - pos * (pos + 1) / 2.0
        roc = u / (pos * neg)
    # Descending score order.
    block_pos = pos_per_value[::-1]
    block_n = counts[::-1].astype(np.float64)
    cum_tp = np.cumsum(block_pos)
    cum_n = np.cumsum(block_n)
    precision = cum_tp / cum_n
    recall_gain = block_pos / pos
    return roc, float((recall_gain * precision).sum())


def auc_roc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Probability a random positive outscores a random negative.

    Computed as the normalized rank-sum statistic; tied pairs count half.
    None when either class is absent.
    """
    return _aucs(scores, truth)[0]


def auc_pr(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Average precision over descending score blocks.

    Tied scores form one block evaluated at the block end. None when there
    are no positives.
    """
    return _aucs(scores, truth)[1]


@dataclass(frozen=True)
class ThresholdChoice:
    threshold: float
    value: float | None
    fallback: bool


def select_threshold(
    train_scores: np.ndarray, train_truth: np.ndarray
) -> tuple[ThresholdChoice, ...]:
    """Scan THRESHOLD_GRID once and return, for each of POINT_METRICS in
    order, the smallest threshold maximizing that objective.

    Prediction rule is score >= t. An objective falls back to 0.5 (flagged)
    when the training column has no positives, or when it is undefined at
    every grid point. One comparison counts the predicted positives and true
    positives at every grid point (the one-pass count of Fawcett 2006), and
    all three objectives are read off those counts.
    """
    scores, truth = _check_pair(train_scores, train_truth)
    fallback = ThresholdChoice(threshold=0.5, value=None, fallback=True)
    pos = int(truth.sum())
    if pos == 0:
        return (fallback,) * len(POINT_METRICS)
    predicted = scores >= _GRID[:, None]
    tps = np.count_nonzero(predicted & (truth == 1), axis=1)
    fps = np.count_nonzero(predicted, axis=1) - tps
    neg = truth.shape[0] - pos
    objectives = [
        _objectives(tp, fp, neg - fp, pos - tp) for tp, fp in zip(tps.tolist(), fps.tolist())
    ]
    choices = []
    for column in zip(*objectives):
        best_t: float | None = None
        best_v = -1.0
        for t, value in zip(THRESHOLD_GRID, column):
            if value is not None and value > best_v:
                best_t, best_v = t, value
        choices.append(
            fallback if best_t is None else ThresholdChoice(best_t, best_v, fallback=False)
        )
    return tuple(choices)


def mean_defined(values: list[float | None]) -> float | None:
    """Mean over the defined entries; None when every entry is undefined."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def average_ranks(results: np.ndarray) -> np.ndarray:
    """Mean rank of each method across datasets (rank 1 = highest, ties mid-ranked).

    results is a methods x datasets matrix with no missing cells.
    """
    results = np.asarray(results, dtype=np.float64)
    if results.ndim != 2:
        raise ValueError("results must be a methods x datasets matrix")
    if np.isnan(results).any():
        raise ValueError("results must not contain missing cells")
    ranks = np.empty_like(results)
    for col, column in enumerate(results.T):
        _, inverse, counts = np.unique(-column, return_inverse=True, return_counts=True)
        ranks[:, col] = _midranks(counts)[inverse]
    return ranks.mean(axis=1)


@dataclass(frozen=True)
class ImrBucket:
    lower: float
    upper: float
    label_count: int
    label_percent: float
    mean_value: float | None


def imr_bucket_report(
    imrs: list[float], values: list[float | None]
) -> list[ImrBucket]:
    """Aggregate a per-label metric into the seven half-open ImR intervals."""
    if len(imrs) != len(values):
        raise LengthMismatch("imrs and values differ in length")
    total = len(imrs)
    report = []
    for lower, upper in IMR_BUCKETS:
        members = [v for r, v in zip(imrs, values) if lower <= r < upper]
        report.append(
            ImrBucket(
                lower=lower,
                upper=upper,
                label_count=len(members),
                label_percent=100.0 * len(members) / total if total else 0.0,
                mean_value=mean_defined(members),
            )
        )
    return report


# ---------------------------------------------------------------------------
# Per-model evaluation reports
# ---------------------------------------------------------------------------


def build_report(
    train_scores: np.ndarray,
    train_truth: np.ndarray,
    test_scores: np.ndarray,
    test_truth: np.ndarray,
    skipped_label_count: int = 0,
) -> dict:
    """Select per-label thresholds on training scores and evaluate on test.

    Each point metric gets its own threshold, all three read off one grid
    count per label. The ranking metrics use the raw test scores. Matrices
    are instances x labels. Returns the record that cv_results.json stores
    per fold: "per_label" rows holding the METRIC_KEYS values, the three
    thresholds and a fallback flag, "macro" means over the labels where each
    metric is defined, "excluded" counts of the labels where it is not, and
    "skipped_label_count".
    """
    train_scores = np.asarray(train_scores, dtype=np.float64)
    test_scores = np.asarray(test_scores, dtype=np.float64)
    # Every column of truth and scores is checked by the metric functions.
    train_truth = np.asarray(train_truth)
    test_truth = np.asarray(test_truth)
    if train_scores.shape != train_truth.shape or test_scores.shape != test_truth.shape:
        raise LengthMismatch("scores and truth matrices differ in shape")
    if train_scores.shape[1] != test_scores.shape[1]:
        raise LengthMismatch("train and test disagree on label count")

    rows = []
    for j in range(train_scores.shape[1]):
        tr_s, tr_t = train_scores[:, j], train_truth[:, j]
        te_s, te_t = test_scores[:, j], test_truth[:, j]
        row = {"label_index": j, "threshold_fallback": False}
        choices = select_threshold(tr_s, tr_t)
        for kind, key, choice in zip(POINT_METRICS, METRIC_KEYS, choices):
            conf = BinaryConfusion.from_predictions(te_t, te_s >= choice.threshold)
            row[key] = point_metric(conf, kind)
            row[f"threshold_{kind.lower()}"] = choice.threshold
            row["threshold_fallback"] |= choice.fallback
        row["auc_roc"], row["auc_pr"] = _aucs(te_s, te_t)
        rows.append(row)

    return {
        "macro": {key: mean_defined([row[key] for row in rows]) for key in METRIC_KEYS},
        "excluded": {
            key: sum(row[key] is None for row in rows) for key in METRIC_KEYS
        },
        "skipped_label_count": skipped_label_count,
        "per_label": rows,
    }
