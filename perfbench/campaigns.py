"""The in-process workloads: ``sweep`` and ``explore``.

Both drive the program only through its public campaign entry points
(``run_sweep`` / ``run_explore``) on a serial, uncached
``ExecutionEngine``, as the campaign CLIs do by default.  A run
repeats the seed's campaign until ``--seconds`` have passed and
reports medians over the repetitions.  Each campaign's wall time is
rescaled to the reference CPU speed with the host speed sampled while
it ran (``speed.py``); the raw wall times are printed beside them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import time
from typing import Dict, List, Tuple

from report import Report, median, percentile, repeat_for
from spans import LAYERS, SpanRecorder
from speed import SpeedProbe

#: sweep seeds per campaign: 3 designs x 4 models x 2 stimuli = 24 cells
SWEEP_SEEDS = 2
#: the committed default-seed explore report (checked at seed 0)
EXPLORE_GOLDEN = os.path.join("benchmarks", "output", "explore_frontier.txt")


# -- set-up: imports plus every generated input --------------------------------


def setup_sweep(seed: int) -> Dict[str, object]:
    from repro.apps.workloads import resolve_workload
    from repro.experiments.sweep import run_sweep

    workload = resolve_workload("medical")
    spec = workload.spec()
    rng = random.Random(f"sweep:{seed}")
    seeds = sorted(rng.sample(range(1, 100_000), SWEEP_SEEDS))
    return {
        "workload": workload,
        "spec": spec,
        "seeds": seeds,
        "run": functools.partial(run_sweep, spec=spec, seeds=seeds),
    }


def explore_seeds(seed: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(anneal seeds, re-anneal seeds); seed 0 gives the defaults."""
    from repro.experiments.explore import (
        DEFAULT_ANNEAL_SEEDS,
        DEFAULT_REANNEAL_SEEDS,
    )

    if seed == 0:
        return tuple(DEFAULT_ANNEAL_SEEDS), tuple(DEFAULT_REANNEAL_SEEDS)
    rng = random.Random(f"explore:{seed}")
    anneal = tuple(rng.sample(range(1, 10_000), len(DEFAULT_ANNEAL_SEEDS)))
    reanneal = tuple(rng.sample(range(1, 10_000), len(DEFAULT_REANNEAL_SEEDS)))
    return anneal, reanneal


def setup_explore(seed: int) -> Dict[str, object]:
    from repro.apps.workloads import resolve_workload
    from repro.experiments.explore import run_explore

    anneal, reanneal = explore_seeds(seed)
    return {
        "run": functools.partial(
            run_explore, spec=resolve_workload("medical").spec(),
            anneal_seeds=anneal, reanneal_seeds=reanneal,
        ),
    }


def _engine():
    from repro.exec import ExecutionEngine, SerialExecutor

    return ExecutionEngine(executor=SerialExecutor(), cache=None)


# -- output checks (pure functions; every run also feeds them tampered data) -


def identity_problems(name: str, renders: List[str]) -> List[str]:
    """Every repetition of one seed's campaign renders the same bytes."""
    if len(set(renders)) > 1:
        return [f"{name} report differs between repetitions"]
    return []


def sweep_cell_problems(cells) -> List[str]:
    """Every cell must be equivalent to the original specification."""
    return [
        f"sweep cell {c.design}/{c.model}/s{c.seed} is not equivalent"
        for c in cells if not c.equivalent
    ]


def sweep_reference_problems(ctx, cells) -> List[str]:
    """Independent of the program's own comparison: re-simulate the
    original specification and each refined design of the campaign's
    first sweep seed, and require equal final outputs and output write
    sequences, plus the refined size and step count the cell reported."""
    from repro.exec import canonical_spec_text
    from repro.exec.campaigns import sweep_inputs
    from repro.lang.parser import parse
    from repro.models import resolve_model
    from repro.refine.refiner import Refiner
    from repro.sim.interpreter import Simulator

    # cells are computed from the canonical text of the specification
    workload = ctx["workload"]
    spec = parse(canonical_spec_text(ctx["spec"]))
    seed = ctx["seeds"][0]
    inputs = sweep_inputs(spec, seed, dict(workload.default_inputs))
    reference = Simulator(spec).run(inputs=dict(inputs))
    outputs = [v.name for v in spec.outputs()]

    def observed(run):
        return (
            run.output_values(),
            {name: [e.value for e in run.output_trace(name)] for name in outputs},
        )

    expected = observed(reference)
    catalog = workload.designs(spec)
    problems = []
    for cell in cells:
        if cell.seed != seed:
            continue
        refined = Refiner(
            spec, catalog[cell.design], resolve_model(cell.model),
            protocol=cell.protocol,
        ).run()
        run = Simulator(refined.spec).run(inputs=dict(inputs))
        wrong = [
            what for what, bad in (
                ("outputs differ from the original's simulation",
                 observed(run) != expected),
                (f"reported {cell.steps} steps, re-simulation took {run.steps}",
                 run.steps != cell.steps),
                (f"reported refined size {cell.refined_lines} lines is wrong",
                 refined.spec.line_count() != cell.refined_lines),
            ) if bad
        ]
        if wrong:
            problems.append(f"sweep {cell.design}/{cell.model}/s{seed}: "
                            + "; ".join(wrong))
    return problems


def explore_problems(seed: int, result_render: str, result_json: str) -> List[str]:
    """Seed 0 must reproduce the committed report; other seeds must
    pass the program's report validator."""
    from repro.errors import ReproError
    from repro.experiments.explore import validate_explore_report

    if seed == 0:
        with open(EXPLORE_GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        if result_render != golden.removesuffix("\n"):
            return [f"explore report differs from {EXPLORE_GOLDEN}"]
        return []
    try:
        validate_explore_report(json.loads(result_json))
    except (ReproError, ValueError) as exc:
        return [f"explore report invalid: {exc}"]
    return []


def tamper_explore_json(result_json: str) -> str:
    """A report whose frontier holds a point its first member dominates."""
    data = json.loads(result_json)
    worse = dict(data["frontier"][0])
    worse["traffic"] += 1
    worse["refined_lines"] += 1
    data["frontier"].append(worse)
    return json.dumps(data)


def tamper_render(text: str) -> str:
    """The report with its first digit changed."""
    for index, char in enumerate(text):
        if char.isdigit():
            return text[:index] + str((int(char) + 1) % 10) + text[index + 1:]
    return text + "!"


# -- the workload runs ------------------------------------------------------------


def _campaign_metrics(report: Report, seconds: List[float], cells: List[int]) -> None:
    per_cell_ms = [1000.0 * s / c for s, c in zip(seconds, cells)]
    rates = [c / s for s, c in zip(seconds, cells)]
    n = len(seconds)
    report.metric("cells_per_s", median(rates), "1/s", n)
    report.metric("campaign_s", median(seconds), "s", n)
    # one engine job per cell: the engine's request rate is the cell rate
    report.metric("req_per_s", median(rates), "1/s", n)
    report.metric("p50_ms", median(per_cell_ms), "ms", n)
    report.metric("p99_ms", percentile(per_cell_ms, 99), "ms", n)


def _layer_metrics(report: Report, recorders: List[SpanRecorder]) -> None:
    """Per-layer medians over the traced repetitions; exact counts must
    repeat in every repetition."""
    n = len(recorders)
    selfs = [rec.self_seconds() for rec in recorders]
    for layer in LAYERS:
        report.metric(f"{layer}.self_ms",
                      median([1000.0 * s.get(layer, 0.0) for s in selfs]), "ms", n)
    counts = {
        "partition.cost_evals": [r.span_count("partition_cost") for r in recorders],
        "refine.calls": [r.span_count("Refiner.run") for r in recorders],
        "refine.lines_out": [r.counts.get("refine.lines_out", 0) for r in recorders],
        "sim.steps": [r.counts.get("sim.steps", 0) for r in recorders],
        "equivalence.mismatches": [
            r.counts.get("equivalence.mismatches", 0) for r in recorders
        ],
    }
    for name, values in counts.items():
        report.metric(name, values[0], "count", n)
        report.attempt(len(set(values)) == 1,
                       f"{name} differs between repetitions: {values}")
    report.attempt(counts["equivalence.mismatches"][0] == 0,
                   "the equivalence oracle reported mismatches")
    sim_seconds = median([s.get("sim", 0.0) for s in selfs])
    report.metric("sim.steps_per_s",
                  counts["sim.steps"][0] / sim_seconds if sim_seconds else 0.0,
                  "1/s", n)
    report.metric("sim.compile_ms",
                  median([1000.0 * r.compile_seconds for r in recorders]), "ms", n)


def run_campaigns(name: str, ctx, seed: int, seconds: float, trace: bool,
                  trace_path: str, report: Report) -> None:
    #: untraced campaign wall seconds, raw and at the reference CPU speed
    raw: List[float] = []
    slowdowns: List[float] = []
    untraced: List[float] = []
    cells: List[int] = []
    renders: List[str] = []
    traced_wall: List[float] = []
    recorders: List[SpanRecorder] = []
    results = []

    def campaign(traced: bool) -> None:
        recorder = SpanRecorder()
        try:
            with SpeedProbe() as probe:
                started = time.perf_counter()
                if traced:
                    with recorder.installed():
                        result = ctx["run"](engine=_engine())
                else:
                    result = ctx["run"](engine=_engine())
                elapsed = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 — a failed campaign is a result
            report.attempt(False, f"{name} campaign raised "
                                  f"{type(exc).__name__}: {exc}")
            return
        if traced:
            traced_wall.append(probe.scale(elapsed - recorder.rerun_seconds))
            recorders.append(recorder)
        else:
            raw.append(elapsed)
            slowdowns.append(probe.slowdown())
            untraced.append(probe.scale(elapsed))
            cells.append(len(result.cells) if name == "sweep"
                         else result.cells_evaluated)
        renders.append(result.render())
        results.append(result)

    if trace:
        # untraced and traced repetitions alternate
        repeat_for(seconds, 2, lambda i: campaign(traced=i % 2 == 1))
    else:
        repeat_for(seconds, 2 if name == "sweep" else 1,
                   lambda i: campaign(traced=False))
    if not results:
        return

    # -- output checks ------------------------------------------------------
    report.check(identity_problems(name, renders))
    report.control(f"{name}-identity", bool(
        identity_problems(name, renders + [tamper_render(renders[0])])
    ))
    if name == "sweep":
        for result in results:
            report.check(sweep_cell_problems(result.cells), len(result.cells))
        first = results[0].cells
        report.check(sweep_reference_problems(ctx, first),
                     sum(1 for c in first if c.seed == ctx["seeds"][0]))
        report.control("sweep-equivalence", bool(sweep_cell_problems(
            [dataclasses.replace(first[0], equivalent=False)]
        )))
    else:
        for result in results:
            report.check(explore_problems(seed, result.render(), result.as_json()),
                         result.cells_evaluated)
        report.control("explore-report", bool(explore_problems(
            seed, tamper_render(renders[0]),
            tamper_explore_json(results[0].as_json()),
        )))

    # -- metrics ------------------------------------------------------------
    report.notes.append(f"{name} campaigns, wall s: "
                        + " ".join(f"{s:.3f}" for s in raw))
    report.notes.append(f"{name} campaigns, host slowdown: "
                        + " ".join(f"{s:.3f}" for s in slowdowns))
    if not trace:
        _campaign_metrics(report, untraced, cells)
        return
    if not (recorders and untraced):
        return  # a failed campaign; the missing metrics fail the run
    _layer_metrics(report, recorders)
    report.metric("trace.overhead_ratio",
                  median(traced_wall) / median(untraced) - 1.0, "ratio",
                  min(len(untraced), len(traced_wall)))
    events = recorders[-1].write(trace_path)
    report.notes.append(f"trace: {events} events in {trace_path} (validated)")
