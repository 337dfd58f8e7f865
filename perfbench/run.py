"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep|explore|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` it
measures the end-to-end metrics of ``BENCHMARK.json`` with tracing
off; with ``--trace 1`` it runs the same workload untraced and traced
in turn and reports the per-layer metrics.  Either way every output is
checked; the human-readable table goes first and the last line of
standard output is one JSON object.  The exit code is 0 only when
every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "explore", "serve")
#: fresh-process set-ups per run; set-up time is their median
SETUP_REPEATS = 5


def _setup(workload: str, seed: int):
    if workload == "serve":
        from serve_load import setup_serve

        return setup_serve(seed)
    from campaigns import setup_explore, setup_sweep

    return (setup_sweep if workload == "sweep" else setup_explore)(seed)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the program and
    generate the workload's inputs."""
    started = time.perf_counter()
    # no timeout: with one, the wait polls in 50 ms steps
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, check=True,
    )
    return time.perf_counter() - started


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    if args.setup_only:
        _setup(args.workload, args.seed)
        return 0

    from report import Report, median

    end_to_end, per_layer = _metric_specs()
    wanted = per_layer if args.trace else end_to_end
    report = Report()
    if args.trace:
        # layers that do no work on this workload read zero
        for name, unit in per_layer:
            report.metric(name, 0.0, unit, 0)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()}")

    # set-up time is an end-to-end metric only; a traced run sets up once
    repeats = 1 if args.trace else SETUP_REPEATS
    probes = [_probe_setup(args.workload, args.seed) for _ in range(repeats)]
    ctx = _setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        if args.workload == "serve":
            from serve_load import run_serve

            daemon_setups = run_serve(ROOT, tmp, ctx, repeats,
                                      args.seconds, bool(args.trace),
                                      trace_path, report)
            setup = median(probes) + median(daemon_setups)
        else:
            from campaigns import run_campaigns

            run_campaigns(args.workload, ctx, args.seed, args.seconds,
                          bool(args.trace), trace_path, report)
            setup = median(probes)
            if not args.trace:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                report.metric("peak_rss_mb", peak_kb / 1024.0, "MB", 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not args.trace:
        report.metric("setup_s", setup, "s", SETUP_REPEATS)
    for name, unit in wanted:
        if name not in report.metrics:
            report.fail(f"metric {name} was not measured")
            report.metric(name, 0.0, unit, 0)
        elif report.metrics[name][1] != unit:
            report.fail(f"metric {name} measured in {report.metrics[name][1]}, "
                        f"declared in {unit}")
    print(report.render(wanted), flush=True)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
