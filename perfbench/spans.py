"""Span and counter recorder for the traced benchmark run.

The recorder wraps the public functions of each chainbalance module where
their callers look them up (module globals and class attributes), so the
program itself is not modified. Spans are kept in memory; per-layer metrics
are derived from them when the run ends.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import chainbalance.chain as chain_mod
import chainbalance.ensemble as ensemble_mod
import chainbalance.experiment as experiment_mod
import chainbalance.metrics as metrics_mod
from chainbalance.dataset import MultiLabelDataset

LAYERS = ("dataset", "sampling", "learner", "chain", "ensemble", "metrics", "experiment")


@dataclass
class Span:
    name: str  # "<layer>.<what>"
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    thread: int
    n_jobs: int = 0  # set on ensemble.train spans

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans (name, start, end, parent, thread) and counters.

    A span opened on a thread with no open span of its own, such as a task
    run by the ensemble's thread pool, takes the innermost open span of the
    thread that installed the recorder as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.add_calls = 0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += int(value)
            self.add_calls += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        thread = threading.get_ident()
        stack = self._stacks[thread]
        outer = stack or self._stacks[self._main]
        span = Span(name, 0.0, 0.0, outer[-1] if outer else None, thread)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def install(self) -> None:
        """Wrap the layer boundaries of chainbalance in this process."""
        rec = self
        spanned = partial(_spanned, rec)
        counted = partial(_counted, rec)

        def loaded(ds, arff_path, xml_path):
            rec.add("dataset.load_bytes", Path(arff_path).stat().st_size)
            rec.add("dataset.load_bytes", Path(xml_path).stat().st_size)

        def fitted(model, bd, *args, **kwargs):
            rec.add("learner.fits", 1)
            rec.add("learner.nodes", model.node_count)
            rec.add("learner.fit_cells", bd.features.shape[0] * bd.features.shape[1])
            with rec._lock:
                rec.counts["learner.max_depth"] = max(
                    rec.counts["learner.max_depth"], model.depth
                )

        def predicted(preds, model, X):
            rec.add("learner.predict_rows", np.shape(X)[0])

        def chained(model, *args, **kwargs):
            rec.add("chain.links", len(model.links))

        def ensembled(model, *args, **kwargs):
            rec.add("ensemble.chains", len(model.chains))
            rec.add(
                "ensemble.model_nodes",
                sum(tree.node_count for chain in model.chains for _, tree in chain.links),
            )

        spanned(experiment_mod, "load_mulan_files", "dataset.load", loaded)
        spanned(experiment_mod, "iterative_stratified_kfold", "sampling.split")
        spanned(experiment_mod, "train_ensemble", "ensemble.train", ensembled)
        spanned(experiment_mod, "predict_relevance_batch", "ensemble.predict")
        spanned(experiment_mod, "build_report", "metrics.report")
        spanned(MultiLabelDataset, "take_rows", "dataset.take_rows")
        spanned(ensemble_mod, "bootstrap", "sampling.bootstrap")
        for module in (ensemble_mod, chain_mod):
            spanned(module, "random_undersample", "sampling.undersample")
            spanned(module, "fit_tree", "learner.fit", fitted)
        spanned(ensemble_mod, "train_cc", "chain.train", chained)
        spanned(ensemble_mod, "train_ccru", "chain.train", chained)
        spanned(chain_mod, "predict_batch", "learner.predict", predicted)
        spanned(ensemble_mod, "predict_chain_batch", "chain.predict")
        counted(metrics_mod, "select_threshold", "metrics.threshold_scans")
        counted(metrics_mod.BinaryConfusion, "from_predictions", "metrics.confusions")
        # The chain module's hstack calls are the augmented-feature copies.
        chain_mod.np = _HstackCounter(rec)

        # The one private hook: the ensemble's task runner, so that each work
        # item becomes a span and pool utilisation can be measured.
        run_tasks = ensemble_mod._run_tasks

        def run_tasks_traced(tasks, n_jobs):
            rec.add("ensemble.tasks", len(tasks))
            train = rec.spans[rec._stacks[rec._main][-1]]
            train.n_jobs = n_jobs
            return run_tasks(
                [lambda task=task: rec.call("ensemble.task", task) for task in tasks],
                n_jobs,
            )

        ensemble_mod._run_tasks = run_tasks_traced


def _spanned(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    """Replace owner.attr by a wrapper that records a span per call."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = rec.call(name, original, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    setattr(owner, attr, wrapper)


def _counted(rec: Recorder, owner, attr: str, name: str) -> None:
    """Replace owner.attr by a wrapper that counts its calls."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        rec.add(name, 1)
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)


def recorder_cost() -> tuple[float, float]:
    """Seconds the tracer adds per span and per counter increment.

    Times a no-op function wrapped as install() wraps the program's
    functions, against the bare no-op, and returns the medians over five
    batches of 2000 calls.
    """
    calls = 2000

    def noop() -> None:
        return None

    def per_call(fn: Callable) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - started) / calls

    span_costs, add_costs = [], []
    for _ in range(5):
        rec = Recorder()
        spanned, counted = SimpleNamespace(noop=noop), SimpleNamespace(noop=noop)
        _spanned(rec, spanned, "noop", "calibrate.span")
        _counted(rec, counted, "noop", "calibrate.count")
        bare = per_call(noop)
        span_costs.append(per_call(spanned.noop) - bare)
        add_costs.append(per_call(counted.noop) - bare)
    return statistics.median(span_costs), statistics.median(add_costs)


class _HstackCounter:
    """Stands in for numpy inside chainbalance.chain, counting hstack bytes."""

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    def __getattr__(self, name: str):
        return getattr(np, name)

    def hstack(self, arrays, *args, **kwargs):
        out = np.hstack(arrays, *args, **kwargs)
        self._rec.add("chain.augment_bytes", out.nbytes)
        return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time per layer, attributed to the innermost open spans.

    Every instant of the root span is split equally among the open spans
    that have no open child on any thread, so a layer's self time excludes
    its children and the layer totals add up to the root's duration even
    when a thread pool runs spans concurrently.
    """
    events = []
    for index, span in enumerate(spans):
        events.append((span.start, 1, index))
        events.append((span.end, 0, index))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    totals = dict.fromkeys(LAYERS, 0.0)
    previous = None
    for when, is_start, index in events:
        if leaves:
            share = (when - previous) / len(leaves)
            for leaf in leaves:
                totals[spans[leaf].layer] += share
        previous = when
        parent = spans[index].parent
        if is_start:
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
            leaves.add(index)
        else:
            leaves.discard(index)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return totals


def check_spans(spans: list[Span]) -> list[str]:
    """Structural checks of one trace; returns up to five failures.

    Every span must lie inside its parent's interval and must not overlap a
    sibling on its own thread. When the whole trace ran on one thread, each
    span's exclusive time (its duration minus its children's) must be
    non-negative and, summed per layer, must equal self_times().
    """
    problems = []
    children: dict[int, list[Span]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is None:
            continue
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end:
            problems.append(f"span {index} {span.name} lies outside its parent {parent.name}")
        children[span.parent].append(span)
    for kids in children.values():
        by_thread: dict[int, list[Span]] = defaultdict(list)
        for kid in kids:
            by_thread[kid.thread].append(kid)
        for run in by_thread.values():
            run.sort(key=lambda s: s.start)
            for before, after in zip(run, run[1:]):
                if after.start < before.end:
                    problems.append(f"sibling spans {before.name} and {after.name} overlap")
    if len({span.thread for span in spans}) == 1:
        exclusive = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(spans):
            own = (span.end - span.start) - sum(k.end - k.start for k in children[index])
            if own < 0:
                problems.append(f"span {index} {span.name} has exclusive time {own}")
            exclusive[span.layer] += own
        swept = self_times(spans)
        tolerance = 1e-6 * (spans[0].end - spans[0].start)
        for layer in LAYERS:
            if abs(exclusive[layer] - swept[layer]) > tolerance:
                problems.append(
                    f"{layer}: exclusive time {exclusive[layer]} differs from self time {swept[layer]}"
                )
    return problems[:5]


def _accepted_draws(spans: list[Span]) -> int:
    """Bootstrap draws whose task moved on to training instead of redrawing."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    accepted = 0
    for siblings in children.values():
        names = [s.name for s in sorted(siblings, key=lambda s: s.start)]
        accepted += sum(
            1
            for here, after in zip(names, names[1:] + [None])
            if here == "sampling.bootstrap" and after != "sampling.bootstrap"
        )
    return accepted


def layer_metrics(rec: Recorder) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer times and ratios, and the counts, of one traced run.

    Times are "<span name>_s", summed over every span of that name (on a
    thread pool, busy time on all threads), plus "<layer>.self_s". Counts
    must repeat exactly between runs on the same input.
    """
    spans = rec.spans
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span.name] += span.end - span.start
        calls[span.name] += 1
    counts = dict(rec.counts)
    for name in ("dataset.take_rows", "sampling.bootstrap", "sampling.undersample"):
        counts[f"{name}_calls"] = calls[name]
    counts["sampling.bootstrap_accepted"] = _accepted_draws(spans)

    times = {f"{name}_s": t for name, t in busy.items()}
    times.update({f"{layer}.self_s": t for layer, t in self_times(spans).items()})
    pool_capacity = sum(
        (s.end - s.start) * s.n_jobs for s in spans if s.name == "ensemble.train"
    )
    times["ensemble.pool_busy_frac"] = busy["ensemble.task"] / pool_capacity
    times["sampling.bootstrap_accept_ratio"] = (
        counts["sampling.bootstrap_accepted"] / counts["sampling.bootstrap_calls"]
    )
    times["learner.fit_us_per_node"] = 1e6 * busy["learner.fit"] / counts["learner.nodes"]
    return times, counts
