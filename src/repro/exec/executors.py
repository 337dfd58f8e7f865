"""Pluggable job executors: ``serial`` (reference) and ``process``.

An executor takes an ordered list of ``(task, params)`` pairs and
returns one *outcome* mapping per job, in the same order::

    {"payload": {...}, "seconds": 0.12}            # success
    {"error": {"kind": ..., "type": ..., "message": ...}, "seconds": ...}

Jobs never raise out of an executor — every failure mode is folded
into a structured error so campaign reports stay deterministic:

``error``
    The task raised; ``type``/``message`` carry the exception.
``timeout``
    The job exceeded the per-job wall-clock budget.  The worker that
    ran it is poisoned (it may still be computing), so the process
    pool is killed, its workers reaped, and a fresh pool runs the
    remaining jobs.
``crash``
    A worker process died mid-job (killed, segfaulted, OOMed).  The
    pool is killed and reaped as for a timeout.  The process executor
    *degrades gracefully*: the in-flight and remaining jobs are
    recomputed serially in the parent process, so a flaky pool can
    slow a campaign down but never lose results.
``cancelled``
    A caller-supplied cancellation event was set before the job
    started; jobs already running finish normally.

Both executors accept per-call overrides — ``run(items, timeout=...,
cancel=...)`` — which is how the serving layer (:mod:`repro.serve`)
propagates one request's deadline into exactly that request's jobs
without touching the executor's configured default.

A :class:`ProcessExecutor` keeps **one long-lived pool**: its workers
are forked on first use (or by :meth:`ProcessExecutor.start`) and
serve every later :meth:`ProcessExecutor.run`, so warm imports and
per-worker memos survive between runs.  A worker is forked again only
to replace a pool that a crash or a timeout killed.
:meth:`ProcessExecutor.close` shuts the pool down and reaps its
workers; :meth:`ProcessExecutor.terminate` kills and reaps them now,
which is what the campaign CLIs call on SIGINT/SIGTERM.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SerialExecutor", "ProcessExecutor", "resolve_executor"]

Outcome = Dict[str, object]
Item = Tuple[str, Dict[str, object]]

#: seconds a killed or shut-down worker gets to exit before SIGKILL
_REAP_SECONDS = 5.0


def _structured_error(kind: str, exc: Optional[BaseException], message: str = "") -> Dict[str, object]:
    return {
        "kind": kind,
        "type": type(exc).__name__ if exc is not None else kind,
        "message": message or (str(exc).splitlines()[0] if exc is not None and str(exc) else ""),
    }


def _execute_one(task: str, params: Dict[str, object]) -> Outcome:
    """Run one job to an outcome mapping (never raises)."""
    from repro.exec.campaigns import get_task

    started = time.perf_counter()
    try:
        fn = get_task(task)
        payload = fn(dict(params))
        if not isinstance(payload, dict):
            raise TypeError(
                f"task {task!r} returned {type(payload).__name__}, "
                "expected a JSON-serialisable dict"
            )
        return {"payload": payload, "seconds": time.perf_counter() - started}
    except BaseException as exc:  # noqa: BLE001 — folded into the report
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return {
            "error": {
                **_structured_error("error", exc),
                "traceback": traceback.format_exc(limit=4),
            },
            "seconds": time.perf_counter() - started,
        }


def _run_shard(shard: List[Item]) -> List[Outcome]:
    """Worker entry point: run a shard of jobs sequentially."""
    return [_execute_one(task, params) for task, params in shard]


def _init_worker() -> None:
    """Pool initializer: restore the default SIGTERM action.  A worker
    forked after its parent installed a SIGTERM handler (the serve
    daemon's drain, a campaign CLI's interrupt guard) would otherwise
    run that handler instead of dying when it is killed."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _cancelled_outcome() -> Outcome:
    return {
        "error": _structured_error(
            "cancelled", None, "job cancelled before it started"
        ),
        "seconds": 0.0,
    }


class SerialExecutor:
    """The reference executor: everything in-process, in order.

    ``timeout`` is accepted for interface parity but cannot preempt a
    running job in-process; ``cancel`` (a :class:`threading.Event`)
    skips jobs that have not started yet.
    """

    name = "serial"

    def run(
        self,
        items: Sequence[Item],
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for task, params in items:
            if cancel is not None and cancel.is_set():
                outcomes.append(_cancelled_outcome())
            else:
                outcomes.append(_execute_one(task, params))
        return outcomes


class ProcessExecutor:
    """A multiprocessing pool with shards, timeouts and degradation.

    ``workers``
        Pool size (default: all schedulable CPUs, capped at 4 so the
        default matches the benchmark gate's configuration).
    ``timeout``
        Per-job wall-clock budget in seconds (``None``: unlimited).
        Shards multiply it by their length.
    ``shard_size``
        Jobs bundled per worker round-trip.  1 (the default) maximises
        load balance; larger shards amortise IPC for very short jobs.
    ``serial_fallback``
        On a worker crash, recompute the unfinished jobs serially in
        the parent instead of raising (default on).

    Instances are reusable and keep their pool between runs;
    ``degraded``/``timeouts``/``restarts`` accumulate over runs for the
    engine's metrics.  Call :meth:`close` when done.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        shard_size: int = 1,
        serial_fallback: bool = True,
        mp_context: Optional[str] = None,
    ):
        if workers is None:
            workers = min(4, _available_cpus())
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.workers = workers
        self.timeout = timeout
        self.shard_size = shard_size
        self.serial_fallback = serial_fallback
        self._mp_context = mp_context
        self.degraded = 0
        self.timeouts = 0
        self.retries = 0
        self.restarts = 0
        #: the long-lived pool: created on first use, reused across
        #: runs, replaced only after a crash or a timeout killed it
        self._pool = None
        self._pool_lock = threading.Lock()

    # -- pool plumbing -------------------------------------------------------

    def _context(self):
        if self._mp_context is not None:
            return multiprocessing.get_context(self._mp_context)
        try:
            # fork keeps worker start-up to milliseconds and inherits
            # the task registry (tests register ad-hoc tasks)
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context()

    def _ensure_pool(self):
        """The live pool, created (its workers forked) on first use."""
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._context(),
                    initializer=_init_worker,
                )
            return self._pool

    def _detach(self, pool) -> List:
        """Forget ``pool`` if it is the live one; returns its worker
        processes (read before any shutdown clears them)."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        return list((getattr(pool, "_processes", None) or {}).values())

    @staticmethod
    def _reap(processes) -> None:
        for process in processes:
            process.join(_REAP_SECONDS)
            if process.exitcode is None:
                process.kill()
                process.join()

    def _kill_pool(self, pool) -> None:
        """Tear ``pool`` down *now*, stuck workers included, and reap
        them; the next run starts a fresh pool."""
        # _processes is internal, but it is the only way to reach a
        # worker that is still executing an abandoned (timed-out) job;
        # shutdown() alone would block on it.
        processes = self._detach(pool)
        manager = getattr(pool, "_executor_manager_thread", None)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        # the pool's manager thread joins the workers it sees die; let
        # it finish first, since two threads reaping one child race
        if manager is not None:
            manager.join(_REAP_SECONDS)
        self._reap(processes)

    def start(self) -> None:
        """Fork the workers now rather than on the first :meth:`run`
        (the daemon does this before it starts any thread of its own)."""
        self._ensure_pool().submit(os.getpid).result()

    def close(self) -> None:
        """Shut the pool down and reap its workers (waits for running
        jobs).  Idempotent; a later :meth:`run` starts a fresh pool."""
        pool = self._pool
        if pool is not None:
            processes = self._detach(pool)
            pool.shutdown(wait=True)
            self._reap(processes)

    def terminate(self) -> None:
        """Kill and reap the live pool's workers *now* (SIGINT/SIGTERM
        cleanup path).

        Safe to call from a signal handler's aftermath or another
        thread; a run interrupted this way raises out of ``run`` as
        usual, but no worker process is left behind."""
        pool = self._pool
        if pool is not None:
            self._kill_pool(pool)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        items: Sequence[Item],
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[Outcome]:
        effective = timeout if timeout is not None else self.timeout
        outcomes: Dict[int, Outcome] = {}
        shards = self._make_shards(items)
        pending: List[Tuple[List[int], List[Item]]] = list(shards)
        while pending:
            if cancel is not None and cancel.is_set():
                for indices, _ in pending:
                    for i in indices:
                        outcomes[i] = _cancelled_outcome()
                break
            pending = self._run_wave(pending, outcomes, effective, cancel)
        return [outcomes[i] for i in range(len(items))]

    def _make_shards(
        self, items: Sequence[Item]
    ) -> List[Tuple[List[int], List[Item]]]:
        shards = []
        for start in range(0, len(items), self.shard_size):
            indices = list(range(start, min(start + self.shard_size, len(items))))
            shards.append((indices, [items[i] for i in indices]))
        return shards

    def _submit(self, shards: List[Tuple[List[int], List[Item]]]):
        """Submit every shard to the live pool; returns the pool and
        ``(future, indices, shard)`` triples.  A worker that died while
        the pool sat idle breaks it before any job of this run started:
        the pool is replaced once and the shards resubmitted."""
        from concurrent.futures import BrokenExecutor

        for attempt in (0, 1):
            pool = self._ensure_pool()
            try:
                return pool, [
                    (pool.submit(_run_shard, shard), indices, shard)
                    for indices, shard in shards
                ]
            except BrokenExecutor:
                self._kill_pool(pool)
                self.restarts += 1
                if attempt:
                    raise

    def _run_wave(
        self,
        shards: List[Tuple[List[int], List[Item]]],
        outcomes: Dict[int, Outcome],
        timeout: Optional[float],
        cancel: Optional[threading.Event] = None,
    ) -> List[Tuple[List[int], List[Item]]]:
        """Submit every shard, collect in order; returns shards that
        must be resubmitted (after a timeout recycled the pool)."""
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        pool, futures = self._submit(shards)
        pool_dead = False
        try:
            requeue: List[Tuple[List[int], List[Item]]] = []
            crashed: List[Tuple[List[int], List[Item]]] = []
            for future, indices, shard in futures:
                if pool_dead:
                    # pool already recycled: salvage finished shards, requeue the rest
                    if future.done() and not future.cancelled():
                        try:
                            self._absorb(future.result(0), indices, outcomes)
                            continue
                        except Exception:
                            pass
                    requeue.append((indices, shard))
                    continue
                budget = None if timeout is None else timeout * len(shard)
                try:
                    self._absorb(future.result(budget), indices, outcomes)
                except FutureTimeout:
                    self.timeouts += 1
                    for i in indices:
                        outcomes[i] = {
                            "error": _structured_error(
                                "timeout",
                                None,
                                f"job exceeded its {timeout}s budget",
                            ),
                            "seconds": budget or 0.0,
                        }
                    # the worker is still grinding on the abandoned job —
                    # recycle the pool so the rest get clean workers
                    self._kill_pool(pool)
                    self.restarts += 1
                    pool_dead = True
                except (BrokenExecutor, EnvironmentError) as exc:
                    crashed.append((indices, shard))
                    self._kill_pool(pool)
                    pool_dead = True
                    if not self.serial_fallback:
                        for i in indices:
                            outcomes[i] = {
                                "error": _structured_error("crash", exc),
                                "seconds": 0.0,
                            }
        except BaseException:
            # interrupted (KeyboardInterrupt/SIGTERM): never leave
            # worker processes grinding behind the raise
            self._kill_pool(pool)
            raise
        if crashed and self.serial_fallback:
            # graceful degradation: a worker died mid-job; recompute the
            # in-flight shard and everything still queued in-process
            self.degraded += 1
            for indices, shard in crashed + requeue:
                if cancel is not None and cancel.is_set():
                    for i in indices:
                        outcomes[i] = _cancelled_outcome()
                    continue
                self.retries += len(indices)
                self._absorb(_run_shard(shard), indices, outcomes)
            return []
        return requeue

    @staticmethod
    def _absorb(
        results: List[Outcome], indices: List[int], outcomes: Dict[int, Outcome]
    ) -> None:
        for i, outcome in zip(indices, results):
            outcomes[i] = outcome


def _available_cpus() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def resolve_executor(name: str, **options):
    """``"serial"`` / ``"process"`` (or an executor instance) to an
    executor object; keyword options feed the constructor."""
    if hasattr(name, "run"):
        return name
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(**options)
    raise ValueError(f"unknown executor {name!r}; choose serial or process")
