"""The traced benchmark (perfbench/spans.py) wraps module attributes of
chainbalance by name. Run the hooked code under its recorder, in a separate
interpreter so the wrapping cannot leak into other tests, and check that each
hooked layer still records spans and counts: a renamed function, or a caller
that captured a reference at import time, would silently drop them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TRAIN_SCRIPT = """
import json
import chainbalance.experiment as experiment
from chainbalance.ensemble import METHODS, EnsembleSpec
from conftest import make_dataset
from spans import Recorder, check_spans

rec = Recorder()
rec.install()
ds = make_dataset(40, [0.2, 0.4, 0.6], seed=1)
for method in METHODS:
    experiment.train_ensemble(ds, EnsembleSpec(method=method, c=2, seed=3))
print(json.dumps({"names": sorted({s.name for s in rec.spans}),
                  "counts": dict(rec.counts),
                  "problems": check_spans(rec.spans)}))
"""

RARE_SCRIPT = """
import json
from collections import Counter
import chainbalance.experiment as experiment
from chainbalance.ensemble import EnsembleSpec
from conftest import dataset_with_label_counts
from spans import Recorder, check_spans

rec = Recorder()
rec.install()
ds = dataset_with_label_counts(50, [1, 1, 2, 20], seed=4)
for method in ("ECCRU", "EBRUS"):
    experiment.train_ensemble(ds, EnsembleSpec(method=method, c=4, seed=0))
tasks = [i for i, s in enumerate(rec.spans) if s.name == "ensemble.task"]
draws = Counter(s.parent for s in rec.spans if s.name == "sampling.bootstrap")
print(json.dumps({"tasks": len(tasks),
                  "draws_per_task": [draws[i] for i in tasks],
                  "problems": check_spans(rec.spans)}))
"""

CV_SCRIPT = """
import json
import sys
from collections import Counter
from pathlib import Path
import chainbalance.experiment as experiment
from conftest import make_dataset, write_dataset_files
from spans import Recorder, check_spans

work = Path(sys.argv[1])
arff, xml = write_dataset_files(make_dataset(40, [0.2, 0.5], seed=2), work)
rec = Recorder()
rec.install()
experiment.run_cv(experiment.ExperimentConfig(
    arff_path=Path(arff), xml_path=Path(xml), out_dir=work / "out",
    methods=("BR", "ECCRU"), c=2, repeats=1, folds=2, seed=1))
print(json.dumps({"spans": Counter(s.name for s in rec.spans),
                  "counts": dict(rec.counts),
                  "problems": check_spans(rec.spans)}))
"""


def _traced(script: str, *args: str) -> dict:
    paths = [REPO / "src", REPO / "perfbench", REPO / "tests"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracer_hooks_record_every_layer():
    result = _traced(TRAIN_SCRIPT)
    assert {
        "chain.train",
        "learner.fit",
        "sampling.bootstrap",
        "sampling.undersample",
        "ensemble.task",
    } <= set(result["names"])
    # Every method fits each tree as a link of a chain it trains.
    assert result["counts"]["learner.fits"] > 0
    assert result["counts"]["chain.links"] == result["counts"]["learner.fits"]
    assert result["problems"] == []


def test_tracer_hooks_record_evaluation(tmp_path):
    result = _traced(CV_SCRIPT, str(tmp_path))
    assert {
        "dataset.load",
        "sampling.split",
        "ensemble.train",
        "ensemble.predict",
        "metrics.report",
    } <= set(result["spans"])
    # 2 folds x 2 methods: each cell is scored in one call, each of its 2
    # labels is one threshold scan, and each label x 3 objectives one test
    # confusion.
    assert result["spans"]["ensemble.predict"] == 4
    assert result["spans"]["metrics.report"] == 4
    assert result["counts"]["metrics.threshold_scans"] == 8
    assert result["counts"]["metrics.confusions"] == 24
    assert result["problems"] == []


def test_tracer_hooks_record_one_draw_per_round_on_rare_labels():
    result = _traced(RARE_SCRIPT)
    assert result["tasks"] == 8
    assert result["draws_per_task"] == [1] * 8
    assert result["problems"] == []
