"""Ensemble trainers: binary-relevance baselines and chain ensembles.

Seven methods share one model shape, one round builder and one chain
trainer, and differ only in four switches (see _METHOD_TABLE). BR fits a
one-label chain per label on the full data; BRUS balances each binary set
first; EBRUS bags BRUS over bootstrap rounds. ECC bags plain chains over
bootstrap resamples and random label orders; ECCRU does the same with
undersampled chains. ECCRU2 redistributes the training budget by building
more classifiers for rarer labels, producing nested partial chains, and
ECCRU3 adds a lower bound so that full chains are still built. Predictions
are per-label vote fractions, normalized by how many classifiers actually
target each label.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .chain import ChainModel, ChainSpec, predict_chain_batch
# One trainer under two names: perfbench/spans.py wraps each of them.
from .chain import train_chain as train_cc
from .chain import train_chain as train_ccru
from .dataset import MultiLabelDataset, all_label_stats
from .errors import (
    ArityMismatch,
    ConfigError,
    ZeroMinorityCount,
)
from .learner import TreeSpec
from .learner import fit_tree  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .sampling import RngStream, bootstrap
from .sampling import random_undersample  # noqa: F401  (unused; perfbench/spans.py wraps it)


@dataclass(frozen=True)
class _Method:
    """The switches that tell the seven methods apart.

    bagged: c bootstrap rounds over all labels, instead of one unsampled
        round per label.
    chained: a round's labels form one chain in random order, instead of
        one single-link chain per label.
    undersampled: every link fits on a balanced subset.
    budgeted: with two or more labels, the rounds follow the classifier
        budget (ECCRU2/3) instead of c uniform rounds.
    """

    bagged: bool
    chained: bool
    undersampled: bool
    budgeted: bool


_METHOD_TABLE = {
    "BR": _Method(bagged=False, chained=False, undersampled=False, budgeted=False),
    "BRUS": _Method(bagged=False, chained=False, undersampled=True, budgeted=False),
    "EBRUS": _Method(bagged=True, chained=False, undersampled=True, budgeted=False),
    "ECC": _Method(bagged=True, chained=True, undersampled=False, budgeted=False),
    "ECCRU": _Method(bagged=True, chained=True, undersampled=True, budgeted=False),
    "ECCRU2": _Method(bagged=True, chained=True, undersampled=True, budgeted=True),
    "ECCRU3": _Method(bagged=True, chained=True, undersampled=True, budgeted=True),
}
METHODS = tuple(_METHOD_TABLE)

# Substream layout under a per-round stream: the bootstrap at child(0, 0),
# chain permutation at child(1), link training at child(2, link), where link
# counts the labels left after the bootstrap. Fixed so parallel and
# sequential builds are identical.
_BOOT = 0
_PERMUTE = 1
_TRAIN = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Training configuration for any of the seven methods."""

    method: str
    c: int = 10
    theta_max: float = 10.0
    theta_min: float | None = None
    tree: TreeSpec = field(default_factory=TreeSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; valid: {METHODS}")
        if self.c < 1:
            raise ConfigError("ensemble size c must be >= 1")
        if self.theta_max < 1.0:
            raise ConfigError("theta_max must be >= 1 (budget cap below c)")
        try:
            cap = self.c * self.theta_max
        except OverflowError:  # c too large for a float
            cap = math.inf
        if not math.isfinite(cap):
            raise ConfigError("the budget cap c * theta_max must be finite")
        if self.theta_min is not None:
            if self.method != "ECCRU3":
                raise ConfigError("theta_min applies only to ECCRU3")
            if not (1.0 / self.c) <= self.theta_min <= 1.0:
                raise ConfigError("theta_min must lie in [1/c, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class ClassifierBudget:
    """Per-label classifier counts allocated inversely to minority counts."""

    targets: tuple[int, ...]
    raw: tuple[int, ...]
    total_minority: int


@dataclass(frozen=True)
class EnsembleModel:
    """Chains plus per-label vote counters and constant fallbacks.

    vote_counts[k] is the number of fitted binary classifiers whose target is
    label k; it normalizes the vote sums at prediction time, and is 0 for a
    label that every round dropped. Labels that were single-class at training
    time are served by their constant class. instance_budget is the paper's
    nominal training budget: n rows per plain fit and 2*m_k per balanced fit
    of label k, for the n rows and minority counts m_k of the training set.
    Bootstrap draws are not counted, so it is not the number of rows fitted.
    """

    method: str
    chains: tuple[ChainModel, ...]
    vote_counts: np.ndarray
    q: int
    base_arity: int
    skipped_labels: dict[int, int]
    instance_budget: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.vote_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "vote_counts", counts)


def _int_floor(value: float) -> int:
    return int(math.floor(value + 1e-9))


def _int_ceil(value: float) -> int:
    return int(math.ceil(value - 1e-9))


def compute_classifier_budget(
    minority_counts: list[int] | tuple[int, ...] | np.ndarray,
    spec: EnsembleSpec,
) -> ClassifierBudget:
    """Allocate per-label classifier counts from minority counts.

    The raw count for label j is floor(c * sum(m) / (q * m_j)), so labels
    with fewer minority examples get more classifiers at the same total row
    budget. ECCRU2 caps counts at c*theta_max (and lifts zeros to one);
    ECCRU3 also raises them to at least c*theta_min. Other methods get the
    raw counts.
    """
    counts = [int(m) for m in minority_counts]
    if not counts:
        raise ZeroMinorityCount("no labels given")
    if any(m <= 0 for m in counts):
        raise ZeroMinorityCount("minority counts must all be positive")
    q = len(counts)
    total = sum(counts)
    raw = tuple((spec.c * total) // (q * m) for m in counts)
    if spec.method == "ECCRU2":
        cap = _int_floor(spec.c * spec.theta_max)
        targets = tuple(min(max(r, 1), cap) for r in raw)
    elif spec.method == "ECCRU3":
        cap = _int_floor(spec.c * spec.theta_max)
        floor_ = _int_ceil(spec.c * (0.5 if spec.theta_min is None else spec.theta_min))
        targets = tuple(min(max(r, floor_), cap) for r in raw)
    else:
        targets = raw
    return ClassifierBudget(targets=targets, raw=raw, total_minority=total)


def chain_label_sets(targets: list[int] | tuple[int, ...]) -> list[list[int]]:
    """Nested label subsets, one per round, from per-label classifier counts.

    Each round collects the labels whose remaining counter is positive and
    decrements them; building stops at the first round that would hold
    fewer than two labels (with a single target, at the first empty round).
    So a lone label gets one round per count, and two or more labels never
    form a one-label round. Entries are positions into the targets list, in
    ascending order.
    """
    counters = [int(t) for t in targets]
    need = 2 if len(counters) >= 2 else 1
    rounds: list[list[int]] = []
    while True:
        selected = [j for j, cn in enumerate(counters) if cn > 0]
        if len(selected) < need:
            return rounds
        for j in selected:
            counters[j] -= 1
        rounds.append(selected)


def _permute(labels: tuple[int, ...], stream: RngStream) -> ChainSpec:
    gen = stream.generator()
    order = gen.permutation(len(labels))
    return ChainSpec(tuple(labels[i] for i in order))


def _train_round(
    ds: MultiLabelDataset,
    labels: tuple[int, ...],
    stream: RngStream,
    method: _Method,
    tree: TreeSpec,
) -> list[ChainModel]:
    """Build one round: an optional bootstrap, then one chain over the labels
    in random order or one single-link chain per label.

    The bootstrap is drawn once, as row ids that each chain gathers into its
    own buffers. An undersampled round drops the labels that are
    single-class in it, and a round left with no labels trains nothing.
    """
    rows = None
    if method.bagged:
        rows = bootstrap(ds, stream.child(_BOOT, 0))
        if method.undersampled:
            column_sums = ds.labels[rows].sum(axis=0)
            labels = tuple(j for j in labels if 0 < column_sums[j] < ds.n)
            if not labels:
                return []
    if method.chained:
        chains = [_permute(labels, stream.child(_PERMUTE))]
    else:
        chains = [ChainSpec((label,)) for label in labels]
    if not method.undersampled:
        return [train_cc(ds, chain, tree, rows=rows) for chain in chains]
    # Link k of a bagged round, counting across its chains, undersamples from
    # child(_TRAIN, k). An unbagged round holds one label, which undersamples
    # from the substream a bootstrap would have drawn.
    if method.bagged:
        streams = [stream.child(_TRAIN, k) for k in range(len(labels))]
    else:
        streams = [stream.child(_BOOT)]
    models = []
    for chain in chains:
        models.append(train_ccru(ds, chain, tree, streams[: len(chain)], rows))
        streams = streams[len(chain) :]
    return models


def _run_tasks(tasks: list[Callable[[], list[ChainModel]]], n_jobs: int) -> list[ChainModel]:
    if n_jobs == 1 or len(tasks) <= 1:
        results = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(lambda t: t(), tasks))
    return [model for group in results for model in group]


def train_ensemble(
    ds: MultiLabelDataset, spec: EnsembleSpec, n_jobs: int = 1
) -> EnsembleModel:
    """Train the configured method on a dataset.

    Single-class labels are excluded from every chain and served by constant
    predictions; when every label is, the model holds no chains. The
    method's switches turn into a list of rounds, each a tuple of labels:
    one round per label when unbagged, else the
    chain_label_sets of per-label classifier counts, which are c for every
    label or, for ECCRU2/3 with two or more labels, the classifier budget.
    Rounds may run concurrently, and each derives its own substream from
    (seed, round index), so the result is independent of n_jobs. In an
    undersampled bagged round, a label that is single-class in the round's
    bootstrap gets no link there; a label left without a link in every
    round scores 0.0.
    """
    stats = all_label_stats(ds)
    skipped = {
        s.label_index: int(ds.labels[0, s.label_index])
        for s in stats
        if s.minority_count == 0
    }
    eligible = [s.label_index for s in stats if s.minority_count > 0]
    method = _METHOD_TABLE[spec.method]
    if not method.bagged:
        rounds = [(label,) for label in eligible]
    else:
        # c classifiers per label, unless the budget redistributes them;
        # partial chains need two labels, so a lone label keeps c rounds.
        targets = [spec.c] * len(eligible)
        if method.budgeted and len(eligible) >= 2:
            targets = compute_classifier_budget(
                [stats[j].minority_count for j in eligible], spec
            ).targets
        rounds = [
            tuple(eligible[p] for p in positions)
            for positions in chain_label_sets(targets)
        ]
    # Rank the features before the rounds: the threads share these codes,
    # and every bootstrap and balanced subset gathers them instead of sorting.
    ds.ranks
    root = RngStream(spec.seed)
    tasks = [
        partial(_train_round, ds, labels, root.child(i), method, spec.tree)
        for i, labels in enumerate(rounds)
    ]
    chains = _run_tasks(tasks, n_jobs)
    vote_counts = np.zeros(ds.q, dtype=np.int64)
    budget = 0
    for chain in chains:
        for label, _ in chain.links:
            vote_counts[label] += 1
            budget += 2 * stats[label].minority_count if method.undersampled else ds.n
    return EnsembleModel(
        method=spec.method,
        chains=tuple(chains),
        vote_counts=vote_counts,
        q=ds.q,
        base_arity=ds.d,
        skipped_labels=skipped,
        instance_budget=budget,
    )


def predict_relevance_batch(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Per-label relevance degrees in [0, 1] for every row of X.

    Each label's score is its positive votes divided by the number of
    classifiers that target it; constant labels yield 0.0 or 1.0, and a
    label that no classifier targets yields 0.0.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.base_arity:
        raise ArityMismatch(
            f"expected {model.base_arity} features, got shape {X.shape}"
        )
    votes = np.zeros((X.shape[0], model.q), dtype=np.float64)
    for chain in model.chains:
        for label, preds in predict_chain_batch(chain, X):
            votes[:, label] += preds
    counted = model.vote_counts > 0
    votes[:, counted] /= model.vote_counts[counted]
    for label, constant in model.skipped_labels.items():
        votes[:, label] = float(constant)
    return votes
