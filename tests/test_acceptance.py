"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 6 need the flags, scene, and yeast benchmark files (ARFF plus
XML label headers). Point CHAINBALANCE_DATA at a directory holding
<name>.arff / <name>.xml, or place them under <repo>/data; otherwise those
two tests skip. scripts/fetch_datasets.py downloads them on a networked
machine.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from chainbalance.dataset import load_mulan_files, summarize
from chainbalance.ensemble import (
    EnsembleSpec,
    compute_classifier_budget,
    train_ensemble,
)
from chainbalance.experiment import ExperimentConfig, run_cv
from chainbalance.metrics import POINT_METRICS, THRESHOLD_GRID, auc_roc, select_threshold
from chainbalance.sampling import RngStream
from chainbalance.simulate import ExploitationQuery, exploitation_probability, sweep
from conftest import dataset_with_label_counts, make_dataset, write_dataset_files
from test_metrics import brute_force_auc, grid_scan_oracle

DATA_DIR = Path(os.environ.get("CHAINBALANCE_DATA", Path(__file__).parent.parent / "data"))

# Published statistics: name -> (n, d, q, LC, MeanImR, MaxImR, CVImR).
PUBLISHED_STATS = {
    "flags": (194, 19, 7, 3.392, 2.753, 6.462, 0.711),
    "scene": (2407, 144, 6, 1.074, 4.662, 5.613, 0.148),
    "yeast": (2417, 103, 14, 4.237, 8.954, 70.088, 1.997),
}


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        elapsed = time.perf_counter() - started
        outcome = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[criterion {number}] {outcome} ({elapsed:.1f}s) {description}")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"[criterion {number}] PASS ({elapsed:.1f}s) {description}")


def _benchmark_files(name: str) -> tuple[Path, Path]:
    arff = DATA_DIR / f"{name}.arff"
    xml = DATA_DIR / f"{name}.xml"
    if not arff.exists() or not xml.exists():
        pytest.skip(
            f"benchmark dataset {name!r} not found under {DATA_DIR} "
            "(see scripts/fetch_datasets.py)"
        )
    return arff, xml


def test_criterion_1_budget_worked_example():
    with criterion(1, "budget allocation and partial-chain build"):
        started = time.perf_counter()
        spec = EnsembleSpec(method="ECCRU2", c=10, theta_max=10.0, seed=3)
        budget = compute_classifier_budget([10, 20, 30], spec)
        assert budget.targets == (20, 10, 6)
        ds = dataset_with_label_counts(100, [10, 20, 30], seed=3)
        model = train_ensemble(ds, spec)
        sizes = Counter(len(chain.links) for chain in model.chains)
        assert len(model.chains) == 10
        assert sizes == {3: 6, 2: 4}
        assert time.perf_counter() - started < 1.0


def test_criterion_2_probability_sweep():
    with criterion(2, "exploitation probability: closed form vs Monte Carlo"):
        started = time.perf_counter()
        rows = sweep(range(20, 401, 20), n=1000, c=10, runs=10_000, rng=RngStream(42))
        assert len(rows) == 20
        closed = [r.p_closed for r in rows]
        assert all(a < b for a, b in zip(closed, closed[1:]))
        # The 0.5 crossing sits between 58 and 63 minority examples.
        low = exploitation_probability(ExploitationQuery(58, 1000 - 58, 10))
        high = exploitation_probability(ExploitationQuery(63, 1000 - 63, 10))
        assert low < 0.5 < high
        for row in rows:
            assert abs(row.p_mc - row.p_closed) <= 0.02
        assert time.perf_counter() - started < 10.0


def test_criterion_3_published_dataset_statistics():
    with criterion(3, "published dataset statistics (flags, scene, yeast)"):
        started = time.perf_counter()
        for name, expected in PUBLISHED_STATS.items():
            arff, xml = _benchmark_files(name)
            summary = summarize(load_mulan_files(arff, xml))
            n, d, q, lc, mean_imr, max_imr, cv_imr = expected
            assert summary.n == n, name
            assert summary.d == d, name
            assert summary.q == q, name
            assert summary.label_cardinality == pytest.approx(lc, abs=5e-4), name
            assert summary.mean_imr == pytest.approx(mean_imr, abs=5e-4), name
            assert summary.max_imr == pytest.approx(max_imr, abs=5e-4), name
            assert summary.cv_imr == pytest.approx(cv_imr, abs=0.01), name
        assert time.perf_counter() - started < 5.0


def test_criterion_4_balance_and_budget_invariants():
    with criterion(4, "balance and budget invariants over randomized datasets"):
        started = time.perf_counter()
        gen = np.random.default_rng(99)
        for trial in range(100):
            n = int(gen.integers(24, 61))
            q = int(gen.integers(2, 5))
            ds = make_dataset(
                n,
                list(gen.uniform(0.15, 0.6, q)),
                noise_features=2,
                seed=int(gen.integers(0, 2**31)),
            )
            for method in ("BRUS", "EBRUS", "ECCRU", "ECCRU2", "ECCRU3"):
                model = train_ensemble(
                    ds, EnsembleSpec(method=method, c=2, seed=trial)
                )
                for chain in model.chains:
                    for pos, neg in chain.fit_class_counts:
                        assert pos == neg, f"unbalanced fitting set in {method}"

            minority = [int(gen.integers(1, 300)) for _ in range(q)]
            c = int(gen.integers(1, 15))
            theta_max = float(gen.uniform(1.0, 12.0))
            theta_min = float(gen.uniform(1.0 / c, 1.0))
            b2 = compute_classifier_budget(
                minority, EnsembleSpec(method="ECCRU2", c=c, theta_max=theta_max)
            )
            assert sum(r * m for r, m in zip(b2.raw, minority)) <= c * sum(minority)
            b3 = compute_classifier_budget(
                minority,
                EnsembleSpec(
                    method="ECCRU3", c=c, theta_max=theta_max, theta_min=theta_min
                ),
            )
            for target in b3.targets:
                assert c * theta_min - 1e-9 <= target <= c * theta_max + 1e-9
        assert time.perf_counter() - started < 30.0


def test_criterion_5_metric_oracles():
    with criterion(5, "AUC pair-counting and threshold grid oracles"):
        started = time.perf_counter()
        gen = np.random.default_rng(7)
        for _ in range(1000):
            n = int(gen.integers(2, 13))
            scores = np.round(gen.random(n), 2)
            truth = gen.integers(0, 2, n)
            assert auc_roc(scores, truth) == brute_force_auc(scores, truth)
        for _ in range(1000):
            n = int(gen.integers(2, 25))
            scores = np.round(gen.random(n), 2)
            truth = gen.integers(0, 2, n)
            if truth.sum() == 0:
                continue
            k = int(gen.integers(0, 3))
            expected_t, expected_v = grid_scan_oracle(scores, truth, POINT_METRICS[k])
            choice = select_threshold(scores, truth)[k]
            if expected_v is None:
                assert choice.fallback
            else:
                assert choice.value == expected_v
                assert choice.threshold == expected_t
                assert choice.threshold in THRESHOLD_GRID
        assert time.perf_counter() - started < 30.0


def _cv_macro(payload: dict, method: str, key: str) -> float:
    value = payload["methods"][method]["overall"]["macro"][key]
    assert value is not None
    return value


def test_criterion_6_directional_reproduction_on_benchmarks(tmp_path):
    with criterion(6, "directional comparison on flags, scene, yeast"):
        started = time.perf_counter()
        methods = ("BR", "ECC", "ECCRU", "ECCRU2", "ECCRU3")
        undersampled = ("ECCRU", "ECCRU2", "ECCRU3")
        payloads = {}
        for name in ("flags", "scene", "yeast"):
            arff, xml = _benchmark_files(name)
            config = ExperimentConfig(
                arff_path=arff,
                xml_path=xml,
                out_dir=tmp_path / name,
                methods=methods,
                c=10,
                theta_max=10.0,
                theta_min=0.5,
                repeats=5,
                folds=2,
                seed=7,
                n_jobs=4,
            )
            payloads[name] = run_cv(config)
        # (a) Every undersampled variant beats BR on macro balanced accuracy
        # and macro G-mean, on every dataset.
        for name, payload in payloads.items():
            for method in undersampled:
                assert _cv_macro(payload, method, "balanced_accuracy") > _cv_macro(
                    payload, "BR", "balanced_accuracy"
                ), (name, method)
                assert _cv_macro(payload, method, "g_mean") > _cv_macro(
                    payload, "BR", "g_mean"
                ), (name, method)
        # (b) On yeast labels with ImR >= 15, the best undersampled variant
        # beats both BR and ECC on balanced accuracy.
        arff, xml = _benchmark_files("yeast")
        ds = load_mulan_files(arff, xml)
        from chainbalance.dataset import all_label_stats

        high_imr = [
            s.label_index
            for s in all_label_stats(ds)
            if s.imr is not None and s.imr >= 15.0
        ]
        assert high_imr, "yeast should contain labels with ImR >= 15"

        def bucket_mean(method: str) -> float:
            rows = payloads["yeast"]["methods"][method]["overall"]["per_label"]
            values = [
                rows[j]["balanced_accuracy"]
                for j in high_imr
                if rows[j]["balanced_accuracy"] is not None
            ]
            assert values
            return float(np.mean(values))

        best = max(bucket_mean(m) for m in undersampled)
        assert best > bucket_mean("BR")
        assert best > bucket_mean("ECC")
        assert time.perf_counter() - started < 600.0


def test_criterion_7_cv_determinism(tmp_path):
    with criterion(7, "byte-identical cv output, serial and parallel"):
        started = time.perf_counter()
        ds = make_dataset(60, [0.15, 0.3, 0.5], seed=6)
        arff, xml = write_dataset_files(ds, tmp_path)

        def run(tag: str, n_jobs: int) -> bytes:
            config = ExperimentConfig(
                arff_path=Path(arff),
                xml_path=Path(xml),
                out_dir=tmp_path / tag,
                methods=("BR", "BRUS", "EBRUS", "ECC", "ECCRU", "ECCRU2", "ECCRU3"),
                c=3,
                theta_min=0.5,
                repeats=5,
                folds=2,
                seed=13,
                n_jobs=n_jobs,
            )
            run_cv(config)
            return (tmp_path / tag / "cv_results.json").read_bytes()

        serial = run("serial", 1)
        serial_again = run("serial_again", 1)
        parallel = run("parallel", 4)
        assert serial == serial_again
        assert serial == parallel
        payload = json.loads(serial)
        assert all(
            len(payload["methods"][m]["folds"]) == 10 for m in payload["methods"]
        )
        assert time.perf_counter() - started < 600.0
