"""The ``serve`` workload: a ``repro serve`` daemon as shipped (process
executor, two worker slots, telemetry on, ephemeral port) driven
closed-loop by two ``ReproClient`` threads.

About three requests in four repeat a hot set that set-up already
warmed (HTTP, admission, cache read); the rest carry a stimulus never
seen before (fork dispatch, parse, simulate, cache write).  The miss
share stays well away from one half, so the median sits in the hit
mode and the 99th percentile in the miss mode.  No wrapper is
installed inside the daemon: per-layer numbers come from the client
side and from the daemon's public ``GET /v1/stats``.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from report import Report, median, percentile, repeat_for
from spans import SpanRecorder

CLIENTS = 2
WORKERS = 2
#: distinct generated specifications in the pools
SPECS = 8
#: warmed stimuli per specification (hot set = SPECS x HOT_VECTORS)
HOT_VECTORS = 3
MISS_SHARE = 0.25
BUDGET = 8
LIMITS = {"max_steps": 200_000}
#: requests per client in one traced-run phase (a fixed plan, so the
#: cache counters repeat exactly)
PHASE_REQUESTS = 150
#: completed requests per "campaign" block (a default loadgen campaign)
BLOCK = 100
#: completed requests per p99 window: ten samples lie beyond its p99
P99_WINDOW = 1000
STOP_SECONDS = 60.0


def setup_serve(seed: int) -> Dict[str, object]:
    """Imports plus the spec pool and hot set (fresh stimuli are drawn
    lazily from a seeded stream during the run).

    The spec pool is the same for every seed, because a request's cost
    depends mostly on its specification: with eight specs drawn per
    seed, the mean cost of a miss, and every timing with it, would move
    with the seed.  The seed draws the hot set, the fresh stimuli and
    the request order.
    """
    from repro.exec import canonical_spec_text
    from repro.fuzz.generator import (
        GeneratorConfig,
        generate_case,
        generate_input_vectors,
    )

    config = GeneratorConfig(budget=BUDGET)
    specs = []
    index = 0
    while len(specs) < SPECS:
        # two or more input ports leave room for many distinct stimuli
        case = generate_case(index, config)
        index += 1
        if len(case.spec.inputs()) >= 2:
            specs.append(case.spec)
    texts = [canonical_spec_text(spec) for spec in specs]
    hot, marks = [], set()
    for number, spec in enumerate(specs):
        for vector in generate_input_vectors(spec, seed * 10_000 + number,
                                             count=HOT_VECTORS):
            mark = (number, tuple(sorted(vector.items())))
            if mark not in marks:
                marks.add(mark)
                hot.append({"spec": texts[number], "inputs": vector,
                            "limits": dict(LIMITS)})
    return {"seed": seed, "specs": specs, "texts": texts, "hot": hot,
            "hot_marks": marks}


class FreshStream:
    """Seeded stimuli never submitted before, one stream per client."""

    def __init__(self, ctx, client: int):
        self.ctx = ctx
        self.client = client
        self.drawn = 0

    def next(self, used: set, lock: threading.Lock) -> Dict[str, object]:
        from repro.fuzz.generator import generate_input_vectors

        specs, texts = self.ctx["specs"], self.ctx["texts"]
        while True:
            number = self.drawn % len(specs)
            stream_seed = ((self.ctx["seed"] * 1_000_003 + self.client)
                           * 1_000_003 + self.drawn)
            self.drawn += 1
            vector = generate_input_vectors(specs[number], stream_seed, count=1)[0]
            mark = (number, tuple(sorted(vector.items())))
            with lock:
                if mark in used:
                    continue
                used.add(mark)
            return {"spec": texts[number], "inputs": vector,
                    "limits": dict(LIMITS)}


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with its own cache and flight
    directories under ``tmp``."""

    def __init__(self, root: str, tmp: str):
        self.tmp = tempfile.mkdtemp(prefix="daemon-", dir=tmp)
        self.stderr_path = os.path.join(self.tmp, "stderr.txt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS),
                 "--cache", os.path.join(self.tmp, "cache"),
                 "--flight-dir", os.path.join(self.tmp, "flight")],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=stderr,
                text=True,
            )
        self.maxrss_kb = 0
        self.stderr_text = ""
        self.port = 0
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+)\s*$", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not announce a port: {line!r} "
                               f"{self.stderr_tail()}")
        self.port = int(match.group(1))

    def client(self, index: int = 0):
        from repro.serve.client import ReproClient

        return ReproClient(port=self.port, retries=12, backoff_base=0.02,
                           backoff_cap=1.0, rng=random.Random(index))

    def stderr_tail(self) -> str:
        if os.path.exists(self.stderr_path):
            with open(self.stderr_path, errors="replace") as handle:
                self.stderr_text = handle.read()[-800:]
        return self.stderr_text

    def _reap(self) -> int:
        """Wait for the exit with ``wait4``, whose resource usage covers
        the daemon and the workers it reaped; kill it if it hangs."""
        ends = time.monotonic() + STOP_SECONDS
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.maxrss_kb = usage.ru_maxrss
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return self.proc.returncode
            if time.monotonic() > ends:
                self.proc.kill()
                self.proc.wait()
                return -9
            time.sleep(0.02)

    def stop(self) -> int:
        """Drain through the public endpoint, wait for the exit and
        remove the daemon's directories.  Returns the exit code."""
        code = self.proc.poll()  # reaps a daemon that already died
        if code is None:
            try:
                if not self.port:
                    raise RuntimeError("no port announced")
                self.client().drain()
            except Exception:  # noqa: BLE001 — SIGTERM drains too
                self.proc.terminate()
            code = self._reap()
        self.proc.stdout.close()
        self.stderr_tail()
        shutil.rmtree(self.tmp, ignore_errors=True)
        return code


# -- closed-loop clients ----------------------------------------------------


@dataclass
class Sample:
    start: float
    latency: float
    fresh: bool
    ok: bool
    cached: bool
    attempts: int
    task_seconds: float
    error: str = ""


@dataclass
class Phase:
    samples: List[Sample] = field(default_factory=list)
    elapsed: float = 0.0
    started: float = 0.0


class Load:
    """Shared state of the clients across phases: the fresh streams,
    and every distinct served payload (for the local recompute)."""

    def __init__(self, ctx, daemon: Daemon):
        self.ctx = ctx
        self.daemon = daemon
        self.streams = [FreshStream(ctx, c) for c in range(CLIENTS)]
        #: (spec number, stimulus) of every submission so far
        self.used: set = set(ctx["hot_marks"])
        self.lock = threading.Lock()
        #: job key -> (params, payload); first payload served wins
        self.served: Dict[str, Tuple[Dict[str, object], object]] = {}
        self.problems: List[str] = []

    def _client(self, *args) -> None:
        try:
            self._drive(*args)
        except Exception as exc:  # noqa: BLE001 — reported, fails the run
            with self.lock:
                self.problems.append(f"client thread raised {exc!r}")

    def _drive(self, index: int, phase: Phase, plan_seed: str,
               until: Optional[float], count: Optional[int],
               recorder: Optional[SpanRecorder]) -> None:
        client = self.daemon.client(index + 1)
        rng = random.Random(f"{self.ctx['seed']}:{plan_seed}:{index}")
        hot = self.ctx["hot"]
        sent = 0
        while (count is None or sent < count) and (
                until is None or time.perf_counter() < until):
            sent += 1
            fresh = rng.random() < MISS_SHARE
            params = (self.streams[index].next(self.used, self.lock) if fresh
                      else hot[rng.randrange(len(hot))])
            started = time.perf_counter()
            try:
                response = client.submit("simulate-cell", params)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                # the daemon stayed unreachable through every retry
                phase.samples.append(Sample(started, 0.0, fresh, False, False,
                                            client.retries + 1, 0.0, str(exc)))
                break
            ended = time.perf_counter()
            task = float(response.headers.get("x-repro-seconds", 0.0))
            sample = Sample(started, response.seconds, fresh, response.ok,
                            response.cached, response.attempts, task)
            if not response.ok:
                sample.error = f"HTTP {response.status} {response.error_kind()}"
            else:
                self._keep(str(response.body.get("key")), params,
                           response.body.get("payload"))
            phase.samples.append(sample)
            if recorder is not None:
                parent = recorder.add_span(f"client{index}:simulate-cell",
                                           "serve", started, ended)
                if not sample.cached:
                    recorder.add_span("worker-task", "task", ended - task,
                                      ended, parent)

    def _keep(self, key: str, params, payload) -> None:
        with self.lock:
            previous = self.served.get(key)
            if previous is None:
                self.served[key] = (params, payload)
            elif previous[1] != payload:
                self.problems.append(f"job {key[:12]} served two payloads")

    def phase(self, plan_seed: str, until: Optional[float] = None,
              count: Optional[int] = None,
              recorder: Optional[SpanRecorder] = None) -> Phase:
        phase = Phase(started=time.perf_counter())
        logs = [Phase() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client,
                             args=(i, logs[i], plan_seed, until, count, recorder))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - phase.started
        for log in logs:
            phase.samples.extend(log.samples)
        return phase


# -- checks -------------------------------------------------------------------


def served_problems(served: Dict[str, Tuple[Dict[str, object], object]]) -> List[str]:
    """Recompute every distinct served job in-process through the
    ``simulate-cell`` task and demand the same job key and the same
    payload the daemon served."""
    from repro.exec import Job, code_version_salt, get_task

    task = get_task("simulate-cell")
    salt = code_version_salt()
    problems = []
    for key, (params, payload) in served.items():
        if Job("simulate-cell", params).key(salt) != key:
            problems.append(f"served key {key[:12]} does not address its params")
            continue
        local = task(json.loads(json.dumps(params)))
        if json.dumps(local, sort_keys=True) != json.dumps(payload, sort_keys=True):
            problems.append(f"served payload for {key[:12]} differs from "
                            "the local recompute")
    return problems


def tamper_served(served):
    """A copy whose first payload carries one edited output value."""
    key, (params, payload) = next(iter(served.items()))
    edited = json.loads(json.dumps(payload))
    outputs = edited["outputs"]
    name = sorted(outputs)[0]
    outputs[name] = (outputs[name] + 1) if isinstance(outputs[name], int) else 1
    return {key: (params, edited)}


# -- the run ------------------------------------------------------------------


def _count_samples(report: Report, phase: Phase) -> None:
    for sample in phase.samples:
        report.attempt(sample.ok, f"request ended {sample.error}")


def start_warm(root: str, tmp: str, ctx, report: Report) -> Tuple[Daemon, float]:
    """Start a daemon, wait until ready, warm the hot set; returns the
    daemon and the seconds that took."""
    started = time.perf_counter()
    daemon = Daemon(root, tmp)
    try:
        client = daemon.client()
        if not client.wait_ready(timeout=STOP_SECONDS):
            raise RuntimeError(f"daemon never became ready: {daemon.stderr_tail()}")
        for params in ctx["hot"]:
            response = client.submit("simulate-cell", params)
            report.attempt(response.ok,
                           f"warming request ended HTTP {response.status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def run_serve(root: str, tmp: str, ctx, setups: int, seconds: float,
              trace: bool, trace_path: str, report: Report) -> List[float]:
    """The workload; returns the daemon start-and-warm times (one per
    set-up, the last daemon is the measured one)."""
    setup_seconds = []
    daemon = None
    for _ in range(setups):
        if daemon is not None:
            report.attempt(daemon.stop() == 0, "daemon drain exited nonzero")
        daemon, elapsed = start_warm(root, tmp, ctx, report)
        setup_seconds.append(elapsed)
    load = Load(ctx, daemon)
    try:
        if trace:
            _traced(load, seconds, trace_path, report)
        else:
            phase = load.phase("timed", until=time.perf_counter() + seconds)
            _count_samples(report, phase)
            _e2e_metrics(report, phase)
    finally:
        code = daemon.stop()
    report.attempt(code == 0, f"daemon drain exited {code}: {daemon.stderr_tail()}")
    if not trace:
        report.metric("peak_rss_mb", daemon.maxrss_kb / 1024.0, "MB", 1)
    report.check(load.problems)
    report.check(served_problems(load.served), len(load.served))
    if load.served:
        report.control("serve-recompute",
                       bool(served_problems(tamper_served(load.served))))
    return setup_seconds


def _e2e_metrics(report: Report, phase: Phase) -> None:
    """Every timing is a median over consecutive slices of the run, so a
    stall of the host that hits part of the run moves it less."""
    samples = sorted(phase.samples, key=lambda s: s.start + s.latency)
    n = len(samples)
    blocks = []
    block_start = phase.started
    for i in range(0, n - BLOCK + 1, BLOCK):
        block = samples[i:i + BLOCK]
        block_end = block[-1].start + block[-1].latency
        blocks.append((block_end - block_start, block))
        block_start = block_end
    blocks = blocks or [(phase.elapsed, samples)]
    report.metric("cells_per_s", median([
        sum(s.ok for s in block) / seconds for seconds, block in blocks
    ]), "1/s", n)
    report.metric("campaign_s", median([seconds for seconds, _ in blocks]), "s",
                  len(blocks))
    report.metric("req_per_s", median([
        len(block) / seconds for seconds, block in blocks
    ]), "1/s", n)
    report.metric("p50_ms", median([
        percentile([1000.0 * s.latency for s in block], 50) for _, block in blocks
    ]), "ms", n)
    # p99 per window of P99_WINDOW requests (ten samples beyond it),
    # median over the windows
    windows = [samples[i:i + P99_WINDOW]
               for i in range(0, n - P99_WINDOW + 1, P99_WINDOW)] or [samples]
    report.metric("p99_ms", median([
        percentile([1000.0 * s.latency for s in window], 99) for window in windows
    ]), "ms", n)
    report.notes.append(
        f"serve: {n} requests, {sum(s.fresh for s in samples)} fresh, "
        f"{sum(1 for s in samples if s.cached)} cache-served; "
        f"{len(blocks)} blocks of {BLOCK}, {len(windows)} p99 windows"
    )


def _traced(load: Load, seconds: float, trace_path: str, report: Report) -> None:
    """Untraced and traced phases of one fixed request plan alternate;
    the traced ones also record spans and read the daemon's stats."""
    untraced: List[float] = []
    traced: List[Phase] = []
    deltas: List[Dict[str, int]] = []
    peaks: List[int] = []
    recorder = SpanRecorder()

    def pair(_):
        phase = load.phase("plan", count=PHASE_REQUESTS)
        _count_samples(report, phase)
        untraced.append(phase.elapsed)
        before = load.daemon.client().stats()["cache"]
        phase = load.phase("plan", count=PHASE_REQUESTS, recorder=recorder)
        stats = load.daemon.client().stats()
        _count_samples(report, phase)
        traced.append(phase)
        deltas.append({k: stats["cache"][k] - before[k]
                       for k in ("hits", "misses", "puts")})
        peaks.append(stats["server"]["peak_queue_depth"])

    repeat_for(seconds, 1, pair)
    n = len(traced)
    fresh = [sum(s.fresh for s in phase.samples) for phase in traced]
    for name in ("hits", "misses", "puts"):
        values = [d[name] for d in deltas]
        report.metric(f"exec.cache.{name}", values[0], "count", n)
        report.attempt(len(set(values)) == 1,
                       f"exec.cache.{name} differs between repetitions: {values}")
    report.attempt(
        [d["misses"] for d in deltas] == fresh,
        f"cache misses {[d['misses'] for d in deltas]} != fresh requests {fresh}",
    )
    first = deltas[0]
    report.metric("exec.cache.hit_ratio",
                  first["hits"] / max(first["hits"] + first["misses"], 1), "ratio", n)

    def p50(select, value) -> float:
        return median([
            percentile([1000.0 * value(s) for s in phase.samples if select(s)], 50)
            for phase in traced
        ])

    def hit(sample: Sample) -> bool:
        return sample.ok and sample.cached

    def miss(sample: Sample) -> bool:
        return sample.ok and not sample.cached

    report.metric("serve.hit_ms", p50(hit, lambda s: s.latency), "ms", n)
    report.metric("serve.miss_ms", p50(miss, lambda s: s.latency), "ms", n)
    report.metric("serve.miss_task_ms", p50(miss, lambda s: s.task_seconds), "ms", n)
    report.metric("serve.miss_overhead_ms",
                  p50(miss, lambda s: s.latency - s.task_seconds), "ms", n)
    report.metric("serve.attempts_per_req", median([
        sum(s.attempts for s in phase.samples) / max(len(phase.samples), 1)
        for phase in traced
    ]), "ratio", n)
    report.metric("serve.queue_peak", max(peaks), "count", n)
    report.metric("trace.overhead_ratio",
                  median([p.elapsed for p in traced]) / median(untraced) - 1.0,
                  "ratio", n)
    events = recorder.write(trace_path)
    report.notes.append(f"trace: {events} events in {trace_path} (validated)")
