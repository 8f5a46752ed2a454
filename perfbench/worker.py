"""One benchmark repetition in a fresh interpreter.

Protocol on stdin/stdout: after importing chainbalance, numpy and click the
worker prints "ready"; it then reads one JSON job line, runs run_cv once and
prints one JSON result line, or exits if stdin is closed instead. The parent
times the interval up to "ready" as set-up time.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import click  # noqa: F401  (part of set-up: the CLI imports it)
import numpy  # noqa: F401

import chainbalance
import chainbalance.cli  # noqa: F401
from chainbalance.experiment import ExperimentConfig, run_cv


def main() -> None:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:  # a set-up probe
        return
    job = json.loads(line)
    src = Path(job["src"]).resolve()
    if src not in Path(chainbalance.__file__).resolve().parents:
        raise SystemExit(f"chainbalance imported from {chainbalance.__file__}, not {src}")

    options = dict(job["cv"], methods=tuple(job["cv"]["methods"]))
    config = ExperimentConfig(
        arff_path=Path(job["arff"]),
        xml_path=Path(job["xml"]),
        out_dir=Path(job["out_dir"]),
        **options,
    )
    result: dict = {}
    if job["trace"]:
        from spans import Recorder, check_spans, layer_metrics, recorder_cost

        rec = Recorder()
        rec.install()
        rec.call("experiment.run_cv", run_cv, config)
        root = rec.spans[0]
        result["cv_wall_s"] = root.end - root.start
        result["layers"], result["counts"] = layer_metrics(rec)
        result["span_count"] = len(rec.spans)
        result["span_problems"] = check_spans(rec.spans)
        span_cost, add_cost = recorder_cost()
        result["tracer_s"] = len(rec.spans) * span_cost + rec.add_calls * add_cost
        with open(job["trace_out"], "w") as handle:
            for span in rec.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
    else:
        started = time.perf_counter()
        run_cv(config)
        result["cv_wall_s"] = time.perf_counter() - started

    payload = (config.out_dir / "cv_results.json").read_bytes()
    result["sha256"] = hashlib.sha256(payload).hexdigest()
    result["result_bytes"] = len(payload)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
