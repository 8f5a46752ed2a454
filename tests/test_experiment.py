from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import chainbalance
import chainbalance.dataset as dataset_mod
import chainbalance.learner as learner_mod
from chainbalance.dataset import load_mulan_files, reduce_features_by_frequency
from chainbalance.ensemble import (
    METHODS,
    EnsembleSpec,
    predict_relevance_batch,
    train_ensemble,
)
from chainbalance.errors import ConfigError
from chainbalance.experiment import (
    _FOLD_SPLIT,
    ExperimentConfig,
    collect_rank_matrix,
    run_cell,
    run_cv,
    write_json,
)
from chainbalance.learner import TreeSpec
from chainbalance.metrics import build_report
from chainbalance.sampling import RngStream, iterative_stratified_kfold
from conftest import dataset_with_label_counts, make_dataset, write_dataset_files


def _config(arff, xml, out_dir, **overrides) -> ExperimentConfig:
    defaults = dict(
        arff_path=arff,
        xml_path=xml,
        out_dir=out_dir,
        methods=("BR", "ECCRU"),
        c=3,
        repeats=2,
        folds=2,
        seed=4,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def files(tmp_path):
    ds = make_dataset(60, [0.2, 0.45], seed=1)
    return write_dataset_files(ds, tmp_path)


def test_config_validation(files, tmp_path):
    arff, xml = files
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, methods=())
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, methods=("BR", "BR"))
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, methods=("NOPE",))
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, repeats=0)
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, folds=1)
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, theta_min=0.5)  # no ECCRU3 configured
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, feature_keep_fraction=0.0)
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, c=0)
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, theta_max=float("nan"))
    with pytest.raises(ConfigError):
        _config(arff, xml, tmp_path, seed=-1)


def test_run_cv_payload_structure(files, tmp_path):
    arff, xml = files
    out = tmp_path / "out"
    payload = run_cv(_config(arff, xml, out))
    assert payload["dataset"]["n"] == 60
    for method in ("BR", "ECCRU"):
        record = payload["methods"][method]
        assert len(record["folds"]) == 4
        assert len(record["repeat_means"]) == 2
        assert all(len(r["per_label"]) == 2 for r in record["repeat_means"])
        assert set(record["overall"]["macro"]) == {
            "f_measure", "g_mean", "balanced_accuracy", "auc_roc", "auc_pr"
        }
        assert len(record["overall"]["per_label"]) == 2
        for rec in record["folds"]:
            assert rec["train_rows"] + rec["test_rows"] == 60
            assert rec["instance_budget"] > 0
    on_disk = json.loads((out / "cv_results.json").read_text())
    assert on_disk == json.loads(json.dumps(payload))


# sha256 of the two deterministic result files of one all-method run. Label 0
# has a single positive, so folds see a skipped label, threshold fallbacks,
# undefined metrics and undersampled rounds whose bootstrap misses the
# positive and so drop the label. cv_results.json echoes the input paths, so
# the run uses relative ones. A change of these constants is a change of the
# results.
_PINNED_CV_SHA256 = {
    "cv_results.json": "03886c0a83c247469f427d3b14f19b8294792c3f1bbe8ee0d3118758398bb963",
    "per_label.csv": "0131b011291e8f45494120acd556ba64b1ba92c2b85c5a12339e0ec516ed62ba",
}


def test_run_cv_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ds = make_dataset(80, [0.0, 0.15, 0.4], seed=9, relation="pinned")
    arff, xml = write_dataset_files(ds, Path("."))
    run_cv(
        ExperimentConfig(
            arff_path=Path(arff),
            xml_path=Path(xml),
            out_dir=Path("out"),
            methods=METHODS,
            c=2,
            theta_min=0.5,
            repeats=2,
            folds=2,
            seed=3,
        )
    )
    digests = {
        name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
        for name in _PINNED_CV_SHA256
    }
    assert digests == _PINNED_CV_SHA256


def test_cells_computed_alone_in_reverse_order_equal_run_cv_folds(tmp_path, monkeypatch):
    # The inputs of test_run_cv_outputs_pinned. Each cell runs on its own, on
    # a dataset loaded again, after the cells that follow it in run_cv's
    # order, and must still give run_cv's fold record.
    monkeypatch.chdir(tmp_path)
    ds = make_dataset(80, [0.0, 0.15, 0.4], seed=9, relation="pinned")
    arff, xml = write_dataset_files(ds, Path("."))
    config = ExperimentConfig(
        arff_path=Path(arff),
        xml_path=Path(xml),
        out_dir=Path("out"),
        methods=METHODS,
        c=2,
        theta_min=0.5,
        repeats=2,
        folds=2,
        seed=3,
    )
    payload = run_cv(config)
    loaded = load_mulan_files(config.arff_path, config.xml_path)
    fold_ofs = [
        iterative_stratified_kfold(
            loaded, config.folds, RngStream(config.seed).child(_FOLD_SPLIT, repeat)
        )
        for repeat in range(config.repeats)
    ]
    cells = list(product(range(config.repeats), range(config.folds), range(len(METHODS))))
    for repeat, fold, m in reversed(cells):
        record, times = run_cell(loaded, fold_ofs[repeat], config, repeat, fold, m)
        assert list(times) == [
            "repeat", "fold", "train_seconds", "predict_seconds", "report_seconds"
        ]
        assert (times["repeat"], times["fold"]) == (repeat, fold)
        assert all(times[key] >= 0.0 for key in list(times)[2:])
        expected = payload["methods"][METHODS[m]]["folds"][repeat * config.folds + fold]
        assert record == expected


def test_run_cv_ranks_the_dataset_once(files, tmp_path, monkeypatch):
    arff, xml = files
    shapes = []
    rank_codes = dataset_mod.rank_codes

    def counted(X):
        shapes.append(X.shape)
        return rank_codes(X)

    monkeypatch.setattr(dataset_mod, "rank_codes", counted)
    payload = run_cv(_config(arff, xml, tmp_path, repeats=2, folds=3))
    # Once, on every row: no training half is ranked again.
    assert shapes == [(payload["dataset"]["n"], payload["dataset"]["d"])]


def test_a_dataset_is_ranked_when_built_and_never_again(tmp_path, monkeypatch):
    # Subsets of rows or columns, cells and trainers at one or two jobs all
    # gather the codes ranked when the dataset was built.
    shapes = []
    rank_codes = dataset_mod.rank_codes

    def counted(X):
        shapes.append(X.shape)
        return rank_codes(X)

    monkeypatch.setattr(dataset_mod, "rank_codes", counted)
    monkeypatch.setattr(learner_mod, "rank_codes", counted)
    ds = make_dataset(60, [0.2, 0.45], noise_features=4, seed=1)
    assert shapes == [(ds.n, ds.d)]
    reduced = reduce_features_by_frequency(ds.take_rows(np.arange(0, ds.n, 2)), 0.5)
    assert reduced.d < ds.d
    reduced.take_rows(np.arange(10))
    fold_of = iterative_stratified_kfold(ds, 2, RngStream(0))
    for n_jobs in (1, 2):
        config = _config("unused.arff", "unused.xml", tmp_path, methods=METHODS, n_jobs=n_jobs)
        for m in range(len(METHODS)):
            run_cell(ds, fold_of, config, 0, 1, m)
            train_ensemble(reduced, config.ensemble_spec(METHODS[m], seed=m), n_jobs=n_jobs)
    assert shapes == [(ds.n, ds.d)]


def test_run_cv_timings_layout(files, tmp_path):
    arff, xml = files
    run_cv(_config(arff, xml, tmp_path))
    text = (tmp_path / "timings.json").read_text()
    timings = json.loads(text)
    # Insertion order and an indent of 2, as json.dumps(timings, indent=2).
    assert text == json.dumps(timings, indent=2) + "\n"
    assert list(timings) == [
        "load_seconds", "split_seconds", "write_seconds", "methods"
    ]
    assert all(timings[key] >= 0.0 for key in list(timings)[:-1])
    assert list(timings["methods"]) == ["BR", "ECCRU"]
    cell_keys = ["repeat", "fold", "train_seconds", "predict_seconds", "report_seconds"]
    for records in timings["methods"].values():
        assert [(r["repeat"], r["fold"]) for r in records] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert all(list(r) == cell_keys for r in records)
        assert all(r[key] >= 0.0 for r in records for key in cell_keys[2:])


def test_write_json_matches_dumps(tmp_path):
    obj = {
        "z": [1, 2.5, -0.0, 1e-300, None, True, False, float("nan")],
        "a": {"é": "ünïcode", "nested": [[], {}, [{"k": 3}]]},
        "m": 0.1 + 0.2,
    }
    # Non-ASCII text is escaped, so the bytes do not depend on the encoding.
    for sort_keys in (True, False):
        path = tmp_path / f"{sort_keys}.json"
        write_json(path, obj, sort_keys=sort_keys)
        expected = json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"
        assert path.read_bytes() == expected.encode("ascii")


def test_write_json_holds_no_copy_of_the_file(tmp_path):
    # A results-shaped payload of one fold record repeated: about 10.8 MB
    # encoded, yet a few kB as objects. Encoding it into one string would
    # trace about five times the file.
    per_label = [
        {"label_index": j, "auc_pr": 0.1 * j + 1 / 3, "auc_roc": None, "g_mean": 2 / 3}
        for j in range(20)
    ]
    fold = {"repeat": 0, "fold": 1, "report": {"macro": per_label[0], "per_label": per_label}}
    payload = {"schema": "synthetic", "methods": {"BR": {"folds": [fold] * 2_600}}}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(path, payload, sort_keys=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 10_000_000
    assert peak < 1_000_000


def test_run_cv_deterministic_incl_parallel(files, tmp_path):
    arff, xml = files
    a = run_cv(_config(arff, xml, tmp_path / "a", n_jobs=1))
    b = run_cv(_config(arff, xml, tmp_path / "b", n_jobs=4))
    a_bytes = (tmp_path / "a" / "cv_results.json").read_bytes()
    b_bytes = (tmp_path / "b" / "cv_results.json").read_bytes()
    assert a_bytes == b_bytes
    assert a == b


LAZY_IMPORTS_SCRIPT = """
import sys
from pathlib import Path

import chainbalance, chainbalance.cli
from chainbalance.ensemble import METHODS, EnsembleSpec, train_ensemble
from chainbalance.dataset import load_mulan_files
from chainbalance.experiment import ExperimentConfig, run_cv

arff, xml, out = map(Path, sys.argv[1:])
run_cv(ExperimentConfig(arff, xml, out, METHODS, c=3, repeats=2, folds=2, n_jobs=1))
loaded = [name for name in ("concurrent.futures", "xml.etree.ElementTree") if name in sys.modules]
assert not loaded, loaded

from conftest import model_payload

ds, spec = load_mulan_files(arff, xml), EnsembleSpec(method="ECCRU3", c=3, seed=2)
serial = train_ensemble(ds, spec, n_jobs=1)
assert "concurrent.futures" not in sys.modules
parallel = train_ensemble(ds, spec, n_jobs=2)
assert "concurrent.futures" in sys.modules
assert model_payload(serial) == model_payload(parallel)
"""


def test_serial_run_loads_no_thread_pool_or_xml_tree(files, tmp_path):
    # In a fresh interpreter, a run at n_jobs=1 imports neither the thread
    # pool nor an XML tree; training at n_jobs=2 loads the pool and gives
    # the n_jobs=1 model.
    arff, xml = files
    paths = [str(Path(chainbalance.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    subprocess.run(
        [sys.executable, "-c", LAZY_IMPORTS_SCRIPT, arff, xml, str(tmp_path / "out")],
        env=env, check=True, timeout=120,
    )
    assert (tmp_path / "out" / "cv_results.json").exists()


def test_run_cv_scores_half_without_two_class_label(tmp_path):
    # One positive in 20 rows: one training half gets none, so every label
    # there is single-class. That half is scored by its constant instead of
    # ending the run.
    ds = dataset_with_label_counts(20, [1])
    arff, xml = write_dataset_files(ds, tmp_path)
    payload = run_cv(_config(arff, xml, tmp_path / "out", repeats=1))
    for method in ("BR", "ECCRU"):
        folds = payload["methods"][method]["folds"]
        empty = [f for f in folds if f["report"]["skipped_label_count"] == 1]
        assert len(empty) == 1, method
        assert empty[0]["classifier_counts"] == [0]
        assert empty[0]["instance_budget"] == 0
        assert empty[0]["report"]["per_label"][0]["auc_roc"] == 0.5


def test_run_cv_writes_the_eccru3_floor_into_classifier_counts(tmp_path):
    # Each training half holds about (5, 10, 15) minority rows: at c=4 the
    # budget is (8, 4, 2) for ECCRU2 and (8, 4, 4) under ECCRU3's floor.
    ds = dataset_with_label_counts(100, [10, 20, 30], seed=3)
    arff, xml = write_dataset_files(ds, tmp_path)
    config = _config(
        arff, xml, tmp_path / "out", methods=("ECCRU2", "ECCRU3"), c=4, theta_min=1.0,
        repeats=1,
    )
    methods = run_cv(config)["methods"]
    counts = {m: [f["classifier_counts"] for f in methods[m]["folds"]] for m in methods}
    assert counts == {"ECCRU2": [[4, 4, 2]] * 2, "ECCRU3": [[4, 4, 4]] * 2}


def test_run_cv_feature_reduction_applied(files, tmp_path):
    arff, xml = files
    payload = run_cv(
        _config(arff, xml, tmp_path / "red", feature_keep_fraction=0.5, repeats=1)
    )
    assert payload["dataset"]["d"] == 2  # ceil(0.5 * 4)


def test_run_cv_tree_spec_respected(files, tmp_path):
    arff, xml = files
    payload = run_cv(
        _config(
            arff,
            xml,
            tmp_path / "stump",
            tree=TreeSpec(max_depth=1, min_samples_leaf=1),
            repeats=1,
        )
    )
    assert payload["config"]["tree"]["max_depth"] == 1


def test_collect_rank_matrix_errors(tmp_path):
    with pytest.raises(ConfigError):
        collect_rank_matrix([], ("balanced_accuracy",))
    garbage = tmp_path / "x.json"
    garbage.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(ConfigError):
        collect_rank_matrix([garbage], ("balanced_accuracy",))
    with pytest.raises(ConfigError):
        collect_rank_matrix([garbage], ("not_a_metric",))


def _results_file(path: Path, relation: str, macros: dict) -> Path:
    """A results file holding only what collect_rank_matrix reads."""
    path.write_text(json.dumps({
        "schema": "chainbalance.cv.v1",
        "dataset": {"relation": relation},
        "methods": {m: {"overall": {"macro": {"f_measure": v}}} for m, v in macros.items()},
    }))
    return path


def _rank(tmp_path, *macros):
    paths = [_results_file(tmp_path / f"{i}.json", f"d{i}", m) for i, m in enumerate(macros)]
    return collect_rank_matrix(paths, ("f_measure",))


@pytest.mark.parametrize(
    "make, message",
    [(lambda files, tmp: _rank(tmp, {"BR": 0.5, "ECC": 0.6}, {"BR": 0.5, "CC": 0.6}),
      "{tmp}/1.json: method set differs from earlier files"),
     (lambda files, tmp: _rank(tmp, {"BR": 0.5, "ECC": None}),
      "{tmp}/0.json: macro f_measure undefined for ECC"),
     (lambda files, tmp: _rank(tmp, {"BR": 0.5}, {"BR": 0.7}),
      "ranking needs at least two methods"),
     (lambda files, tmp: _config(*files, tmp, n_jobs=0), "n_jobs must be >= 1")],
    ids=["method-sets", "undefined-macro", "one-method", "no-jobs"],
)
def test_rank_and_config_errors_name_the_fault(files, tmp_path, make, message):
    with pytest.raises(ConfigError) as caught:
        make(files, tmp_path)
    assert str(caught.value) == message.format(tmp=tmp_path)


def test_all_methods_mid_scale_integration(tmp_path):
    # 400 rows, five labels from 4% to 50% positive rate, all seven methods
    # through the full protocol. Checks the qualitative ordering the
    # undersampled family is built for, plus the budget-saving property of
    # the partial-chain variants.
    ds = make_dataset(400, [0.04, 0.08, 0.15, 0.3, 0.5], noise_features=8,
                      seed=31, signal=1.3)
    arff, xml = write_dataset_files(ds, tmp_path)
    config = ExperimentConfig(
        arff_path=arff,
        xml_path=xml,
        out_dir=tmp_path / "out",
        methods=("BR", "BRUS", "EBRUS", "ECC", "ECCRU", "ECCRU2", "ECCRU3"),
        c=5,
        theta_min=0.5,
        repeats=2,
        folds=2,
        seed=17,
    )
    payload = run_cv(config)

    def macro(method, key):
        return payload["methods"][method]["overall"]["macro"][key]

    for method in ("ECCRU", "ECCRU2", "ECCRU3"):
        assert macro(method, "balanced_accuracy") > macro("BR", "balanced_accuracy")
        assert macro(method, "g_mean") > macro("BR", "g_mean")

    def budget(method):
        return payload["methods"][method]["instance_budget_mean"]

    # Redistribution never exceeds the uniform chain budget; the lower bound
    # of ECCRU3 can only add back part of the difference.
    assert budget("ECCRU2") <= budget("ECCRU")
    assert budget("ECCRU2") <= budget("ECCRU3")
    assert budget("ECC") == 5 * 5 * 200
    for method in config.methods:
        for rec in payload["methods"][method]["folds"]:
            assert len(rec["classifier_counts"]) == 5


def test_undersampled_ensembles_beat_plain_br_on_imbalanced_synthetic():
    # Weak signal plus 7-12% positive rates: the plain per-label trees drown
    # in the majority class while the balanced chains keep recall.
    ds = make_dataset(240, [0.07, 0.1, 0.12], noise_features=4, seed=2,
                      signal=1.2, noise_scale=1.0)
    fold_of = iterative_stratified_kfold(ds, 2, RngStream(102))
    train = ds.take_rows(np.flatnonzero(fold_of == 0))
    test = ds.take_rows(np.flatnonzero(fold_of == 1))
    macros = {}
    for method in ("BR", "ECCRU", "ECCRU2", "ECCRU3"):
        model = train_ensemble(train, EnsembleSpec(method=method, c=5, seed=7))
        report = build_report(
            predict_relevance_batch(model, train.features),
            train.labels,
            predict_relevance_batch(model, test.features),
            test.labels,
        )
        macros[method] = report["macro"]
    for method in ("ECCRU", "ECCRU2", "ECCRU3"):
        assert macros[method]["balanced_accuracy"] > macros["BR"]["balanced_accuracy"]
        assert macros[method]["g_mean"] > macros["BR"]["g_mean"]
