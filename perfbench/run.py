"""chainbalance benchmark: repeated stratified CV on synthetic Mulan datasets.

    python3 perfbench/run.py --workload yeast-chains --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --record        # re-record the expected result hashes

Each repetition runs `run_cv` once in a fresh interpreter (perfbench/worker.py)
for about --seconds, and the run reports medians over repetitions. The last
stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The line before it records the machine,
the dataset, every repetition and every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, describe, generate, write_mulan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench-work"
# Inputs come from a bank of BANK datasets per workload, picked by
# seed % BANK, so that every result can be checked against a hash recorded
# in expected.json.
BANK = 8
# Set-up probes run before every repetition, so that they sample the whole
# window as the repetitions do.
SETUP_PROBES_PER_REP = 3
# Leaves a hung repetition started late in the window room to be counted
# as failed before the run's 180 s limit.
WORKER_TIMEOUT_S = 100


def machine_record() -> dict:
    record = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, env=env)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, env=env)
        if head.returncode == 0 and status.returncode == 0:
            record["git_commit"] = head.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


def run_worker(job: dict | None, cwd: Path) -> tuple[float, dict | None, str]:
    """Start a worker and time it until ready; then run `job`, if any.

    Returns (set-up seconds, result or None, stderr).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "ready":
            proc.kill()
        request = "" if job is None else json.dumps(job) + "\n"
        out, err = proc.communicate(request, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return setup_s, None, f"timed out after {WORKER_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if ready.strip() != "ready" or proc.returncode != 0 or job is None:
        return setup_s, None, err
    return setup_s, json.loads(out.strip().splitlines()[-1]), err


def prepare(workload: Workload, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the workload's dataset for `seed`; returns (job template, stats)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    features, labels = generate(workload, seed)
    arff, xml = write_mulan(work, workload.name, features, labels, workload.integer_features)
    stats = dict(describe(labels), d=int(features.shape[1]), arff_bytes=arff.stat().st_size)
    job = {
        "src": str(SRC),
        "arff": arff.name,
        "xml": xml.name,
        "cv": dict(workload.cv_options(), methods=list(workload.methods)),
        "trace": False,
        "trace_out": str(work / "trace.jsonl"),
    }
    return job, stats


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions of one run; a traced run alternates untraced and traced."""
    work = WORK / workload.name
    template, stats = prepare(workload, seed % BANK, work)
    setups = []
    plan = [False, True] if trace else [False]
    min_rounds = 2 if trace else 1
    reps = []
    started = time.perf_counter()
    # Stop before a round that would overrun the window, so that a run lasts
    # about --seconds whatever the repetition length.
    while len(reps) < min_rounds * len(plan) or (
        (time.perf_counter() - started) * (len(reps) + len(plan)) / len(reps) <= seconds
    ):
        for traced in plan:
            index = len(reps)
            job = dict(template, out_dir=f"rep{index}", trace=traced)
            setups.extend(run_worker(None, work)[0] for _ in range(SETUP_PROBES_PER_REP))
            setup_s, result, err = run_worker(job, work)
            if result is None:
                sys.stderr.write(f"repetition {index} failed:\n{err[-4000:]}\n")
            setups.append(setup_s)
            reps.append({"traced": traced, "result": result})
            shutil.rmtree(work / f"rep{index}", ignore_errors=True)
    return {"stats": stats, "setups": setups, "reps": reps}


def summarize(measured: dict, expected: str, trace: bool) -> tuple[dict[str, float], list[str]]:
    """Metric values of one run plus the list of failed checks."""
    reps = measured["reps"]
    done = [r["result"] for r in reps if r["result"] is not None]
    problems = [f"{len(reps) - len(done)} repetitions failed"] if len(done) < len(reps) else []
    mismatched = sum(1 for r in done if r["sha256"] != expected)
    if mismatched:
        problems.append(f"{mismatched} results differ from the recorded sha256")
    traced = [r for r in done if "layers" in r]
    untraced = [r for r in done if "layers" not in r]
    if not untraced or (trace and not traced):
        return {}, problems + ["no repetition of each kind completed"]

    def median(key: str, rows: list[dict]) -> float:
        return statistics.median(r[key] for r in rows)

    if not trace:
        return {
            "cv_wall_s": median("cv_wall_s", untraced),
            "setup_s": statistics.median(measured["setups"]),
            "peak_rss_mb": median("peak_rss_mb", untraced),
            "result_sha_match": 0.0 if mismatched else 1.0,
        }, problems

    for r in traced:
        counts = r["counts"]
        if counts != traced[0]["counts"]:
            problems.append("deterministic counts differ between traced repetitions")
        if counts["learner.nodes"] != counts["ensemble.model_nodes"]:
            problems.append("learner.nodes differs from the node count of the returned models")
        problems.extend(r["span_problems"])
    values = {name: median(name, [r["layers"] for r in traced]) for name in traced[0]["layers"]}
    values.update(traced[0]["counts"])
    values["experiment.result_bytes"] = traced[0]["result_bytes"]
    values["trace.cv_wall_s"] = median("cv_wall_s", traced)
    values["trace.overhead_s"] = median("tracer_s", traced)
    return values, problems


def traced_minus_untraced(reps: list[dict]) -> float | None:
    """Median traced minus median untraced cv_wall_s: the tracer plus noise."""
    walls = {True: [], False: []}
    for r in reps:
        if r["result"] is not None:
            walls[r["traced"]].append(r["result"]["cv_wall_s"])
    if not walls[True] or not walls[False]:
        return None
    return statistics.median(walls[True]) - statistics.median(walls[False])


def run(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())["sha256"][workload.name][args.seed % BANK]
    measured = measure(workload, args.seed, args.seconds, bool(args.trace))
    values, problems = summarize(measured, expected, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    reps = measured["reps"]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "bank_seed": args.seed % BANK,
        "dataset": measured["stats"],
        "machine": machine_record(),
        "problems": problems,
        "setup_s": measured["setups"],
        "traced_minus_untraced_s": traced_minus_untraced(reps),
        "repetitions": [dict(r["result"] or {"failed": True}, traced=r["traced"]) for r in reps],
    }
    print(json.dumps(info))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(reps),
                "failed": sum(1 for r in reps if r["result"] is None),
                "metrics": metrics,
            }
        )
    )
    return 0


def record() -> int:
    """Record each bank input's hash, requiring n_jobs=1 and n_jobs=2 to agree."""
    table = {"sha256": {}}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = WORK / f"record-{name}"
        hashes = []
        for seed in range(BANK):
            template, _ = prepare(workload, seed, work)
            found = set()
            for n_jobs in (1, 2):
                job = dict(template, out_dir=f"jobs{n_jobs}")
                job["cv"] = dict(job["cv"], n_jobs=n_jobs)
                _, result, err = run_worker(job, work)
                if result is None:
                    sys.stderr.write(err)
                    return 1
                found.add(result["sha256"])
            if len(found) != 1:
                sys.stderr.write(f"{name} seed {seed}: n_jobs=1 and n_jobs=2 differ\n")
                return 1
            hashes.append(found.pop())
            print(name, seed, hashes[-1], flush=True)
        shutil.rmtree(work, ignore_errors=True)
        table["sha256"][name] = hashes
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="re-record expected.json for every workload"
    )
    args = parser.parse_args()
    if not (SRC / "chainbalance" / "__init__.py").is_file():
        sys.stderr.write(f"no chainbalance sources under {SRC}\n")
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
