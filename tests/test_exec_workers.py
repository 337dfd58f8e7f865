"""Long-lived process workers: one pool per :class:`ProcessExecutor`,
reused across runs, replaced only after a crash or a timeout, and
reaped by ``close()`` and by a serve drain — plus the per-worker spec
memo those workers keep for their whole life."""

import gc
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.exec import ProcessExecutor, SerialExecutor, register
from repro.exec import campaigns, executors
from repro.serve import ReproClient, ReproServer, ServeConfig
from repro.serve.chaos import register_chaos_tasks

# registered before any pool forks, so every worker inherits them
register_chaos_tasks()


@register("test-workers-pid")
def _pid(params):
    return {"pid": os.getpid()}


PID = ("test-workers-pid", {})
#: a real campaign task, compared against the serial reference
CELL = ("simulate-cell", {"workload": "answering"})


def _pid_of(executor, **kw):
    (outcome,) = executor.run([PID], **kw)
    return outcome["payload"]["pid"]


@pytest.fixture
def no_children():
    """Start from a process with no live multiprocessing children
    (pools of earlier tests shut down once they are collected)."""
    gc.collect()
    ends = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < ends:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestPoolReuse:
    def test_consecutive_runs_reuse_one_worker(self):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        try:
            pids = {_pid_of(executor) for _ in range(4)}
            assert len(pids) == 1
            assert pids != {os.getpid()}
            assert executor.restarts == 0
        finally:
            executor.close()

    def test_start_forks_the_worker_that_serves_runs(self, no_children):
        executor = ProcessExecutor(workers=1)
        try:
            executor.start()
            (worker,) = multiprocessing.active_children()
            assert _pid_of(executor) == worker.pid
        finally:
            executor.close()


class TestWorkerReplacement:
    @pytest.mark.parametrize("fault, kind", [
        (("chaos-crash", {"nonce": 1}), "crash"),
        (("chaos-spin", {"nonce": 1}), "timeout"),
    ])
    def test_fault_replaces_the_worker(self, fault, kind):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        try:
            before = _pid_of(executor)
            (outcome,) = executor.run([fault], timeout=0.5)
            assert outcome["error"]["kind"] == kind
            after = _pid_of(executor)
            assert after != before
            # the replacement computes exactly what the reference does
            (fresh,) = executor.run([CELL])
            (serial,) = SerialExecutor().run([CELL])
            assert fresh["payload"] == serial["payload"]
            assert _pid_of(executor) == after
        finally:
            executor.close()

    def test_worker_killed_while_idle_is_replaced(self, no_children):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        try:
            before = _pid_of(executor)
            os.kill(before, signal.SIGKILL)
            # wait until the pool has noticed (it reaps the dead worker)
            ends = time.monotonic() + 10.0
            while multiprocessing.active_children() and time.monotonic() < ends:
                time.sleep(0.02)
            assert _pid_of(executor) != before
            assert executor.restarts == 1
        finally:
            executor.close()

    def test_timeout_kills_a_worker_forked_under_a_sigterm_handler(self):
        # the serve daemon forks replacement workers after installing
        # its drain handler; terminate() must still kill them at once
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        try:
            started = time.monotonic()
            (outcome,) = executor.run([("chaos-spin", {"nonce": 3})],
                                      timeout=0.3)
            assert outcome["error"]["kind"] == "timeout"
            # SIGTERM did it: no wait for the SIGKILL fallback
            assert time.monotonic() - started < executors._REAP_SECONDS
        finally:
            executor.close()
            signal.signal(signal.SIGTERM, previous)


class TestReaping:
    def test_close_reaps_every_worker(self, no_children):
        executor = ProcessExecutor(workers=2)
        executor.run([PID, PID])
        assert multiprocessing.active_children()
        executor.close()
        assert multiprocessing.active_children() == []
        executor.close()  # idempotent
        # a closed executor still runs, on a fresh pool
        assert _pid_of(executor) != os.getpid()
        executor.close()
        assert multiprocessing.active_children() == []

    def test_terminate_reaps_a_busy_worker(self, no_children):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        executor.start()
        thread = threading.Thread(
            target=executor.run, args=([("chaos-spin", {"nonce": 2})],)
        )
        thread.start()
        time.sleep(0.3)
        executor.terminate()
        assert multiprocessing.active_children() == []
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_serve_drain_reaps_every_worker(self, no_children, flight_dir):
        server = ReproServer(ServeConfig(
            port=0, workers=2, no_cache=True, flight_dir=flight_dir,
        )).start()
        try:
            # each slot forked its worker before serving anything
            assert len(multiprocessing.active_children()) == 2
            client = ReproClient(port=server.port, retries=0)
            assert client.submit(*CELL).ok
            server.begin_drain("test")
            assert server.wait(timeout=10.0) == 0
        finally:
            server.close()
        assert multiprocessing.active_children() == []

    def test_failed_bind_reaps_the_slot_workers(self, no_children, flight_dir):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                ReproServer(ServeConfig(
                    port=taken.getsockname()[1], workers=2, no_cache=True,
                    flight_dir=flight_dir,
                )).start()
        assert multiprocessing.active_children() == []


class TestSpecMemo:
    def test_memo_is_keyed_by_text_not_hash(self, monkeypatch):
        from repro.apps.workloads import default_registry
        from repro.exec import canonical_spec_text
        from repro.lang.parser import parse

        registry = default_registry()
        text_a = canonical_spec_text(registry.get("answering").spec_factory())
        text_b = canonical_spec_text(registry.get("pcm_pwm").spec_factory())
        monkeypatch.setattr(campaigns, "_SPEC_MEMO", {})
        spec_a = campaigns._spec_from_text(text_a)
        # a hash collision: text_b's hash already names text_a's spec
        campaigns._SPEC_MEMO[hash(text_b)] = spec_a
        spec_b = campaigns._spec_from_text(text_b)
        assert spec_b is not spec_a
        assert canonical_spec_text(spec_b) == canonical_spec_text(parse(text_b))
