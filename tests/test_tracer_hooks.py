"""The traced benchmark (perfbench/spans.py) wraps module attributes of
chainbalance by name. Train every method under its recorder, in a separate
interpreter so the wrapping cannot leak into other tests, and check that each
hooked layer still records spans: a renamed function, or a caller that
captured a reference at import time, would silently drop them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
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
                  "problems": check_spans(rec.spans)}))
"""


def test_tracer_hooks_record_every_layer():
    paths = [REPO / "src", REPO / "perfbench", REPO / "tests"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert {
        "chain.train",
        "learner.fit",
        "sampling.bootstrap",
        "sampling.undersample",
        "ensemble.task",
    } <= set(result["names"])
    assert result["problems"] == []
