"""Smoke test of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

Run from the root of a checkout; exits nonzero on the first failure.
It runs every workload once untraced and twice traced with
``--seconds 1`` and requires that

* each run passes its output checks, and each tampered-output control
  (an edited report, cell or served payload) is caught;
* the result line carries exactly the metrics ``BENCHMARK.json``
  declares, every end-to-end metric nonzero;
* the exact counts of the two traced runs of one seed are equal, and
  the ``partition.*`` metrics read zero where partitioning does no work;
* in a directory holding only ``BENCHMARK.json`` and this benchmark,
  the command fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("sim.steps", "refine.lines_out", "partition.cost_evals",
         "exec.cache.misses", "refine.calls", "equivalence.mismatches")


def require(condition: bool, message) -> None:
    if not condition:
        raise AssertionError(message)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc, label: str):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{label}: exit {proc.returncode}\n"
                             f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    if "NOT CAUGHT" in proc.stdout or "control " not in proc.stdout:
        raise AssertionError(f"{label}: a tamper control was not caught\n"
                             f"{proc.stdout}")
    result = json.loads(lines[-1])
    require(result["correct"] and result["failed"] == 0, (label, result))
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}

    for workload in ("sweep", "explore", "serve"):
        result = result_of(run(workload, 0, 0), f"{workload} untraced")
        metrics = result["metrics"]
        require(set(metrics) == end_to_end, (workload, sorted(metrics)))
        zero = [name for name, m in metrics.items() if m["value"] <= 0]
        require(not zero, f"{workload}: end-to-end metrics read zero: {zero}")

        first, second = (
            result_of(run(workload, 1, 1), f"{workload} traced #{n}")["metrics"]
            for n in (1, 2)
        )
        require(set(first) == per_layer, (workload, sorted(first)))
        for name in EXACT:
            require(first[name]["value"] == second[name]["value"],
                    f"{workload}: {name} did not repeat: "
                    f"{first[name]['value']} vs {second[name]['value']}")
        if workload != "explore":
            require(first["partition.self_ms"]["value"] == 0
                    and first["partition.cost_evals"]["value"] == 0,
                    f"{workload}: partition metrics are not zero")
        print(f"smoke: {workload} ok")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("sweep", 0, 0, cwd=bare)
        require(proc.returncode != 0, "ran without the program's source")
        require('"correct"' not in proc.stdout, "printed a result without source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare directory fails without a result")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
