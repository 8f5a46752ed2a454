#!/usr/bin/env python3
"""Check that every benchmark input still gives its recorded cv_results.json.

Runs each bank input of each perfbench workload at n_jobs 1 and 2, every run
in a fresh worker interpreter, using perfbench/run.py's own `prepare` and
`run_worker`. Each cv_results.json sha256 is compared with the hash in
perfbench/expected.json, which is only read. Prints each mismatch, then the
number of matching runs, and exits 1 on any mismatch.

Usage: python3 scripts/check_bank.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import BANK, EXPECTED, WORK, prepare, run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    expected = json.loads(EXPECTED.read_text())["sha256"]
    runs = mismatches = 0
    for name in sorted(WORKLOADS):
        work = WORK / f"check-{name}"
        for seed in range(BANK):
            template, _ = prepare(WORKLOADS[name], seed, work)
            for n_jobs in (1, 2):
                job = dict(template, out_dir=f"jobs{n_jobs}")
                job["cv"] = dict(job["cv"], n_jobs=n_jobs)
                _, result, err = run_worker(job, work)
                runs += 1
                found = None if result is None else result["sha256"]
                if found != expected[name][seed]:
                    mismatches += 1
                    print(f"{name} seed {seed} n_jobs {n_jobs}: got {found}, "
                          f"expected {expected[name][seed]}", flush=True)
                    if result is None:
                        sys.stderr.write(err[-4000:])
        shutil.rmtree(work, ignore_errors=True)
    print(f"{runs - mismatches}/{runs} runs match perfbench/expected.json")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
