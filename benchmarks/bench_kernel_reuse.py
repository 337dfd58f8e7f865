"""Reusing one compiled simulator pair across sweep seeds.

Runs the sweep unit for the 3-designs x 4-models medical grid at
``SEEDS`` seeds per cell, two ways:

* ``fresh`` — one job per (cell, seed), as a ``sweep-cell`` task does:
  refine the design, then :func:`check_equivalence` with a fresh
  original/refined :class:`Simulator` pair, so every seed pays refine
  and compile again;
* ``reused`` — the ``batch-cell`` path: refine once per cell, build one
  :class:`Simulator` pair, run every seed on it and compare each run
  pair with :func:`compare_runs`.

Before timing, every seed's report in the two modes is checked
byte-identical: the speedup only counts if the reused pair produces
exactly the work the fresh path produces.  Timing uses
``time.process_time`` (CPU seconds of this single-threaded process),
interleaving the two modes over ``REPS`` pairs; the speedup is
min-fresh over min-reused.  CPU time does not depend on the core
count, so the floor is enforced on every host.  Writes
``kernel_reuse.txt`` and ``kernel_reuse.json`` under
``benchmarks/output/``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.exec.campaigns import sweep_inputs
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim.equivalence import check_equivalence, compare_runs
from repro.sim.interpreter import Simulator

#: Seeds per (design, model) cell-family (``repro sweep --batch``'s
#: seeds per job).
SEEDS = 8

#: Interleaved repetition pairs; min-of-REPS is reported.
REPS = 5

#: Below every pair ratio measured on a 2-vCPU VM (1.43-1.89x).
MIN_SPEEDUP = 1.4


def _cells():
    spec = medical_specification()
    spec.validate()
    return spec, [
        (design_name, model, partition)
        for design_name, partition in all_designs(spec).items()
        for model in ALL_MODELS
    ]


def _report_key(report):
    """Everything a sweep report derives from one equivalence check."""
    refined = report.refined_run
    return (
        report.equivalent,
        tuple(str(m) for m in report.mismatches),
        report.original_run.steps,
        refined.steps,
        refined.completed,
        tuple(sorted(refined.output_values().items())),
        tuple(
            (event.step, event.variable, event.value)
            for event in refined.trace
        ),
    )


def _fresh_sweep(spec, cells):
    """One job per (cell, seed): refine + fresh simulators."""
    out = []
    for design_name, model, partition in cells:
        for seed in range(SEEDS):
            design = Refiner(spec, partition, model).run()
            vector = sweep_inputs(design.spec, seed, dict(MEDICAL_INPUTS))
            report = check_equivalence(design, vector)
            out.append((design_name, model.name, seed, _report_key(report)))
    return out


def _reused_sweep(spec, cells):
    """One job per cell-family: refine once, one reused simulator pair."""
    out = []
    for design_name, model, partition in cells:
        design = Refiner(spec, partition, model).run()
        original_sim = Simulator(design.original)
        refined_sim = Simulator(design.spec)
        for seed in range(SEEDS):
            vector = sweep_inputs(design.spec, seed, dict(MEDICAL_INPUTS))
            report = compare_runs(
                design,
                vector,
                original_sim.run(inputs=vector),
                refined_sim.run(inputs=vector),
            )
            out.append((design_name, model.name, seed, _report_key(report)))
    return out


def run_reuse_benchmark(reps: int = REPS) -> Dict[str, object]:
    """Check per-seed byte-identity, then time the two modes."""
    spec, cells = _cells()

    # correctness first (this also warms allocator and caches for the
    # timed section)
    identical = _fresh_sweep(spec, cells) == _reused_sweep(spec, cells)

    fresh_times: List[float] = []
    reused_times: List[float] = []
    for _ in range(reps):
        started = time.process_time()
        _fresh_sweep(spec, cells)
        fresh_times.append(time.process_time() - started)
        started = time.process_time()
        _reused_sweep(spec, cells)
        reused_times.append(time.process_time() - started)

    return {
        "cells": len(cells),
        "seeds": SEEDS,
        "runs": len(cells) * SEEDS,
        "reps": reps,
        "reports_identical": identical,
        "fresh_cpu_seconds": min(fresh_times),
        "reused_cpu_seconds": min(reused_times),
        "speedup": min(fresh_times) / min(reused_times),
        "pair_ratios": [f / r for f, r in zip(fresh_times, reused_times)],
        "floor": MIN_SPEEDUP,
        "samples": {"fresh": fresh_times, "reused": reused_times},
    }


def render_report(report: Dict[str, object]) -> str:
    ratios = report["pair_ratios"]
    return "\n".join(
        [
            f"simulator reuse: {report['cells']} cells x {report['seeds']} "
            f"seeds, min CPU seconds of {report['reps']} interleaved pairs",
            f"  fresh  (refine + new simulators per seed)   "
            f"{report['fresh_cpu_seconds']:.3f}s",
            f"  reused (refine once + one simulator pair)   "
            f"{report['reused_cpu_seconds']:.3f}s",
            f"  speedup                  {report['speedup']:.2f}x "
            f"(floor {MIN_SPEEDUP}x, enforced)",
            f"  pair ratios              {min(ratios):.2f}x .. "
            f"{max(ratios):.2f}x",
            f"  reports byte-identical   {report['reports_identical']}",
        ]
    )


def _failures(report: Dict[str, object]) -> List[str]:
    failures = []
    if not report["reports_identical"]:
        failures.append("reused-simulator reports diverged from fresh runs")
    if report["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"reuse speedup {report['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP}x floor"
        )
    return failures


def bench_kernel_reuse(write_artifact):
    report = run_reuse_benchmark()
    write_artifact("kernel_reuse.txt", render_report(report))
    write_artifact("kernel_reuse.json", json.dumps(report, indent=2))
    assert not _failures(report), _failures(report)


if __name__ == "__main__":
    result = run_reuse_benchmark()
    print(render_report(result))
    for failure in _failures(result):
        print(f"FAIL: {failure}")
    raise SystemExit(1 if _failures(result) else 0)
