"""Cross-validated experiment runner.

Repeats a stratified k-fold split, trains every configured method on each
training half, picks per-label thresholds on that same half, and evaluates
the five metrics on the held-out half. Metric output is fully deterministic
for a fixed config and seed; wall times go to a separate file so the metric
payload stays byte-stable.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .dataset import MultiLabelDataset, load_mulan_files, reduce_features_by_frequency
from .ensemble import EnsembleSpec, predict_relevance_batch, train_ensemble
from .errors import ConfigError, DataError
from .learner import TreeSpec
from .metrics import METRIC_KEYS, build_report, mean_defined
from .sampling import RngStream, derive_seed, iterative_stratified_kfold

RESULTS_SCHEMA = "chainbalance.cv.v1"

# Substream tags under the master seed.
_FOLD_SPLIT = 0
_METHOD_SEED = 1


@dataclass(frozen=True)
class ExperimentConfig:
    arff_path: Path
    xml_path: Path
    out_dir: Path
    methods: tuple[str, ...]
    c: int = 10
    theta_max: float = 10.0
    theta_min: float | None = None
    tree: TreeSpec = field(default_factory=TreeSpec)
    repeats: int = 5
    folds: int = 2
    feature_keep_fraction: float | None = None
    seed: int = 0
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("at least one method is required")
        # The specs the run will build check the method names, c, theta_max,
        # theta_min and seed, so bad values fail before any data is loaded.
        for method in self.methods:
            self.ensemble_spec(method, self.seed)
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method names")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.theta_min is not None and "ECCRU3" not in self.methods:
            raise ConfigError("theta_min applies only to ECCRU3")
        if self.feature_keep_fraction is not None and not (
            0.0 < self.feature_keep_fraction <= 1.0
        ):
            raise ConfigError("feature_keep_fraction must be in (0, 1]")
        if self.n_jobs < 1:
            raise ConfigError("n_jobs must be >= 1")

    def ensemble_spec(self, method: str, seed: int) -> EnsembleSpec:
        return EnsembleSpec(
            method=method,
            c=self.c,
            theta_max=self.theta_max,
            theta_min=self.theta_min if method == "ECCRU3" else None,
            tree=self.tree,
            seed=seed,
        )


def _means(reports: list[dict]) -> dict:
    """Fold reports averaged per metric: the macro values, and each label's
    values, each over the folds where it is defined."""
    q = len(reports[0]["per_label"])
    return {
        "macro": {
            key: mean_defined([r["macro"][key] for r in reports]) for key in METRIC_KEYS
        },
        "per_label": [
            {"label_index": j}
            | {
                key: mean_defined([r["per_label"][j][key] for r in reports])
                for key in METRIC_KEYS
            }
            for j in range(q)
        ],
    }


def _method_entry(fold_records: list[dict], repeats: int) -> dict:
    """A method's entry in cv_results.json: its fold records and their means."""
    return {
        "folds": fold_records,
        "repeat_means": [
            {"repeat": repeat}
            | _means([rec["report"] for rec in fold_records if rec["repeat"] == repeat])
            for repeat in range(repeats)
        ],
        "overall": _means([rec["report"] for rec in fold_records]),
        "instance_budget_mean": mean_defined(
            [float(rec["instance_budget"]) for rec in fold_records]
        ),
    }


def run_cell(ds: MultiLabelDataset, fold_of: np.ndarray, config: ExperimentConfig,
             repeat: int, fold: int, method_idx: int) -> tuple[dict, float]:
    """One (repeat, fold, method) cell: train config.methods[method_idx] on
    the rows outside fold (fold_of holds that repeat's fold id of each row),
    score every row and report on both halves. Returns the cell's fold
    record and its training seconds. A cell reads only its arguments, so
    cells may be computed in any order.
    """
    test_rows = np.flatnonzero(fold_of == fold)
    train_rows = np.flatnonzero(fold_of != fold)
    train_ds = ds.take_rows(train_rows)
    seed = derive_seed(config.seed, _METHOD_SEED, repeat, fold, method_idx)
    spec = config.ensemble_spec(config.methods[method_idx], seed)
    started = time.perf_counter()
    model = train_ensemble(train_ds, spec, n_jobs=config.n_jobs)
    elapsed = time.perf_counter() - started
    # Trees predict row by row, so one call scores both halves.
    scores = predict_relevance_batch(model, ds.features)
    report = build_report(
        scores[train_rows], train_ds.labels, scores[test_rows], ds.labels[test_rows],
        skipped_label_count=len(model.skipped_labels),
    )
    return {
        "repeat": repeat,
        "fold": fold,
        "train_rows": int(train_ds.n),
        "test_rows": len(test_rows),
        "instance_budget": model.instance_budget,
        "classifier_counts": model.vote_counts.tolist(),
        "report": report,
    }, elapsed


def run_cv(config: ExperimentConfig) -> dict:
    """Run the experiment and write result files into config.out_dir.

    Writes cv_results.json (deterministic), per_label.csv, and timings.json.
    Returns the cv_results payload. The directory is made first, so a path
    that cannot hold it fails before any training. Every repeat's folds are
    split, and the dataset ranked, before any cell runs.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = load_mulan_files(config.arff_path, config.xml_path)
    if config.feature_keep_fraction is not None:
        ds = reduce_features_by_frequency(ds, config.feature_keep_fraction)
    master = RngStream(config.seed)
    fold_ofs = [
        iterative_stratified_kfold(ds, config.folds, master.child(_FOLD_SPLIT, repeat))
        for repeat in range(config.repeats)
    ]
    # Codes ranked on all rows order each training half like its own codes,
    # so every cell gathers these instead of ranking its half again.
    ds.ranks
    n_methods = len(config.methods)
    cells = product(range(config.repeats), range(config.folds), range(n_methods))
    outcomes = [run_cell(ds, fold_ofs[r], config, r, f, m) for r, f, m in cells]
    # A method's cells are every n_methods-th outcome, in (repeat, fold) order.
    per_method = {
        method: outcomes[i::n_methods] for i, method in enumerate(config.methods)
    }
    folds = {method: [rec for rec, _ in done] for method, done in per_method.items()}

    # The echo leaves out n_jobs and out_dir, which do not change the results,
    # and holds what json.loads would give back.
    echo = asdict(config) | {
        "arff": str(config.arff_path),
        "xml": str(config.xml_path),
        "methods": list(config.methods),
    }
    for name in ("arff_path", "xml_path", "out_dir", "n_jobs"):
        del echo[name]
    payload = {
        "schema": RESULTS_SCHEMA,
        "config": echo,
        "dataset": {"n": ds.n, "d": ds.d, "q": ds.q, "relation": ds.relation},
        "methods": {m: _method_entry(recs, config.repeats) for m, recs in folds.items()},
    }

    write_json(out_dir / "cv_results.json", payload, indent=2, sort_keys=True)
    timings = {
        method: [
            {"repeat": rec["repeat"], "fold": rec["fold"], "train_seconds": seconds}
            for rec, seconds in done
        ]
        for method, done in per_method.items()
    }
    write_json(out_dir / "timings.json", {"methods": timings}, indent=2)
    _write_per_label_csv(out_dir / "per_label.csv", folds)
    return payload


def write_json(path: Path, obj, *, indent: int | None = None,
               sort_keys: bool = False) -> None:
    """Write the bytes of json.dumps(obj, indent=indent, sort_keys=sort_keys)
    plus a newline to path.

    The encoder writes into the open file as it goes. json.dumps with an
    indent runs the pure-Python encoder and holds every chunk and then their
    join, about five times the file.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")


def _write_per_label_csv(path: Path, folds: dict[str, list[dict]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "repeat", "fold", "label_index", "metric", "value"])
        for method, fold_records in folds.items():
            for rec in fold_records:
                for row in rec["report"]["per_label"]:
                    head = [method, rec["repeat"], rec["fold"], row["label_index"]]
                    for key in METRIC_KEYS:
                        writer.writerow(head + [key, "" if row[key] is None else row[key]])


def collect_rank_matrix(
    result_paths: list[Path], metric: str
) -> tuple[list[str], list[str], np.ndarray]:
    """Build a methods x datasets matrix of overall macro values.

    Every results file must contain the same method set. Returns (methods,
    dataset names, matrix).
    """
    if not result_paths:
        raise ConfigError("no result files given")
    if metric not in METRIC_KEYS:
        raise ConfigError(f"unknown metric {metric!r}; valid: {METRIC_KEYS}")
    methods: list[str] | None = None
    names = []
    columns = []
    for path in result_paths:
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"{path}: not a JSON results file: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != RESULTS_SCHEMA:
            raise ConfigError(f"{path}: unsupported results schema")
        try:
            file_methods = sorted(payload["methods"].keys())
            name = payload["dataset"].get("relation")
            values = [payload["methods"][m]["overall"]["macro"][metric] for m in file_methods]
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed results file: {exc!r}") from exc
        if methods is None:
            methods = file_methods
        elif methods != file_methods:
            raise ConfigError(f"{path}: method set differs from earlier files")
        names.append(name or Path(path).stem)
        for m, value in zip(methods, values):
            if value is None:
                raise ConfigError(f"{path}: macro {metric} undefined for {m}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"{path}: macro {metric} for {m} is not a number: {value!r}")
            # False for NaN, infinities and integers past the float range.
            if not abs(value) <= sys.float_info.max:
                raise DataError(f"{path}: macro {metric} for {m} is not a finite float: {value!r}")
        columns.append(values)
    assert methods is not None
    matrix = np.array(columns, dtype=np.float64).T
    if len(methods) < 2:
        raise ConfigError("ranking needs at least two methods")
    return methods, names, matrix
