"""Process-pool backend: PR 1's ``ProcessPoolExecutor`` substrate.

Behaviour is preserved from the pre-refactor ``run_tasks`` pool path:

* in-flight is bounded by the worker count (the driver enforces this
  via :meth:`capacity`), so per-task clocks start at submission;
* a hung task is abandoned at its deadline — the pool (and its stuck
  worker processes) is terminated and every *surviving* in-flight task
  is transparently resubmitted to a fresh pool at no attempt cost;
* a worker crash poisons every in-flight future
  (:class:`BrokenProcessPool`), which this backend reports as
  ``crash`` events with ``attributed=False`` — the driver's quarantine
  round then calls :meth:`submit` with ``isolated=True`` to replay
  each lost task in a private single-worker pool, where a second crash
  *is* attributable (``attributed=True``).

Shared batch state: when :meth:`start` receives a ``context``, it is
wire-encoded **once** into a ``multiprocessing.shared_memory`` segment.
Tasks then carry only their small payloads (for the scan layer:
integer indices into the context); each worker process attaches the
segment on its first task and decodes zero-copy read-only views with
``numpy.frombuffer`` — no per-task pickling of alignments, trees or
rate-matrix config, and no copies at all for the array payloads.  The
coordinator owns the segment's lifetime and unlinks it at
:meth:`shutdown` (or when a new batch replaces it).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.parallel.executors.base import Executor, ExecutorEvent
from repro.parallel.executors import wire

__all__ = ["ProcessPoolBackend"]

#: Floor for pool-wait polling so a just-expired deadline cannot spin.
_MIN_WAIT = 0.02


#: Worker-process cache of the attached context segment: one batch at a
#: time, so a new segment name evicts the previous attachment.
_ATTACHED: Dict[str, Tuple[object, object]] = {}


def _attach_context(shm_name: str) -> object:
    """Attach and decode the broadcast context segment (cached).

    The decode is zero-copy: array fields come back as read-only
    ``numpy.frombuffer`` views into the shared segment, so every worker
    on the machine reads the same physical pages.
    """
    cached = _ATTACHED.get(shm_name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory, resource_tracker

    # CPython's resource tracker registers segments on *attach* too
    # (bpo-39959), which would either double-unregister under a forked
    # pool (shared tracker) or unlink the coordinator's live segment
    # when a spawned worker exits.  The coordinator owns the segment's
    # lifetime, so keep this process out of the cleanup chain entirely
    # by muting registration for the duration of the attach.
    orig_register = resource_tracker.register

    def _mute(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            orig_register(name, rtype)

    resource_tracker.register = _mute
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = orig_register
    context = wire.decode_frame(shm.buf).payload()
    _ATTACHED.clear()  # one batch at a time; drop any stale segment
    _ATTACHED[shm_name] = (shm, context)  # keep shm alive: views point in
    return context


def _invoke(fn: Callable[[object, object], object], payload: object,
            shm_name: Optional[str]):
    """Worker-side wrapper: calls ``fn(payload, context)`` with the
    batch's attached context segment (``None`` without one) and returns
    ``(worker_id, result)`` so successes carry the pid that computed
    them (per-worker metrics attribution)."""
    context = _attach_context(shm_name) if shm_name is not None else None
    return f"pid:{os.getpid()}", fn(payload, context)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, terminating any stuck workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


@dataclass
class _Entry:
    tag: int
    payload: object
    future: Future
    started: float
    deadline: Optional[float]
    timeout: Optional[float]
    isolated: bool
    qpool: Optional[ProcessPoolExecutor] = None
    #: Wall clock accumulated on earlier pools (survivor resubmissions).
    carried: float = 0.0
    extra: Dict = field(default_factory=dict)


class ProcessPoolBackend(Executor):
    """One machine's worth of worker processes behind the driver."""

    name = "pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._workers = 1
        self._fn: Optional[Callable[..., object]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._entries: Dict[Future, _Entry] = {}
        self._shm = None  # coordinator-owned context segment
        self._context_bytes = 0

    # -- lifecycle -----------------------------------------------------
    def start(
        self,
        fn: Callable[..., object],
        n_tasks: int,
        context: object = None,
    ) -> None:
        self._fn = fn
        self._release_context()
        if context is not None:
            from multiprocessing import shared_memory

            buffers = wire.encode_frame(wire.MSG_BATCH, 0, context)
            size = wire.buffers_nbytes(buffers)
            shm = shared_memory.SharedMemory(create=True, size=size)
            offset = 0
            for buf in buffers:
                n = len(buf)
                shm.buf[offset:offset + n] = bytes(buf)
                offset += n
            self._shm = shm
            self._context_bytes = size
        workers = self._max_workers if self._max_workers is not None else (os.cpu_count() or 1)
        self._workers = max(1, min(workers, max(1, n_tasks)))

    def capacity(self) -> int:
        return self._workers

    def context_nbytes(self) -> int:
        """Encoded size of the current batch's shared context segment."""
        return self._context_bytes

    def _release_context(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except OSError:
                pass
            self._shm = None
            self._context_bytes = 0

    def _submit_call(self, pool: ProcessPoolExecutor, payload: object) -> Future:
        shm_name = self._shm.name if self._shm is not None else None
        return pool.submit(_invoke, self._fn, payload, shm_name)

    def shutdown(self) -> None:
        for entry in list(self._entries.values()):
            if entry.qpool is not None:
                _abandon_pool(entry.qpool)
        self._entries.clear()
        if self._pool is not None:
            _abandon_pool(self._pool)
            self._pool = None
        self._release_context()

    # -- submission ----------------------------------------------------
    def submit(
        self,
        tag: int,
        payload: object,
        timeout: Optional[float] = None,
        isolated: bool = False,
    ) -> None:
        assert self._fn is not None, "submit before start"
        now = time.monotonic()
        if isolated:
            qpool = ProcessPoolExecutor(max_workers=1)
            future = self._submit_call(qpool, payload)
            self._entries[future] = _Entry(
                tag, payload, future, now,
                now + timeout if timeout is not None else None,
                timeout, True, qpool=qpool,
            )
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        future = self._submit_call(self._pool, payload)
        self._entries[future] = _Entry(
            tag, payload, future, now,
            now + timeout if timeout is not None else None,
            timeout, False,
        )

    # -- event collection ----------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> List[ExecutorEvent]:
        if not self._entries:
            return []
        wait_for = timeout
        deadlines = [e.deadline for e in self._entries.values() if e.deadline is not None]
        if deadlines:
            ripe = max(_MIN_WAIT, min(deadlines) - time.monotonic())
            wait_for = ripe if wait_for is None else min(wait_for, ripe)
        elif wait_for is not None:
            wait_for = max(_MIN_WAIT, wait_for)

        done, _ = wait(set(self._entries), timeout=wait_for, return_when=FIRST_COMPLETED)

        events: List[ExecutorEvent] = []
        pool_broken = False
        now = time.monotonic()
        for future in done:
            entry = self._entries[future]
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                if entry.isolated:
                    # A private single-worker pool died: exact attribution.
                    del self._entries[future]
                    _abandon_pool(entry.qpool)
                    events.append(
                        ExecutorEvent(
                            tag=entry.tag,
                            kind="crash",
                            error_type="BrokenProcessPool",
                            message="worker process died (isolated in quarantine)",
                            elapsed=entry.carried + (now - entry.started),
                            attributed=True,
                        )
                    )
                else:
                    # The whole shared pool is poisoned; handled below
                    # together with the rest of the in-flight set.
                    pool_broken = True
                continue
            del self._entries[future]
            elapsed = entry.carried + (now - entry.started)
            if entry.isolated and entry.qpool is not None:
                _abandon_pool(entry.qpool)
            if exc is None:
                worker, result = future.result()
                events.append(
                    ExecutorEvent(tag=entry.tag, kind="ok", result=result,
                                  elapsed=elapsed, worker=worker)
                )
            else:
                events.append(
                    ExecutorEvent(
                        tag=entry.tag,
                        kind="error",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        elapsed=elapsed,
                    )
                )

        if pool_broken or getattr(self._pool, "_broken", False):
            # Every task on the shared pool was lost with it; the
            # culprit is indistinguishable from its victims here, so
            # signal unattributed crashes and let the driver quarantine.
            lost = [e for e in self._entries.values() if not e.isolated]
            for entry in lost:
                del self._entries[entry.future]
                events.append(
                    ExecutorEvent(
                        tag=entry.tag,
                        kind="crash",
                        error_type="BrokenProcessPool",
                        message="worker process crashed and poisoned the pool",
                        elapsed=entry.carried + (now - entry.started),
                        attributed=False,
                    )
                )
            if self._pool is not None:
                _abandon_pool(self._pool)
                self._pool = None  # rebuilt lazily on the next submit
            return events

        expired = [
            e for e in self._entries.values()
            if e.deadline is not None and now > e.deadline
        ]
        if expired:
            for entry in expired:
                del self._entries[entry.future]
                events.append(
                    ExecutorEvent(
                        tag=entry.tag,
                        kind="timeout",
                        error_type="TaskTimeout",
                        message=f"exceeded task_timeout={entry.timeout:g}s",
                        elapsed=entry.carried + (now - entry.started),
                    )
                )
                if entry.isolated and entry.qpool is not None:
                    _abandon_pool(entry.qpool)
            # A stuck worker cannot be cancelled: if any expired task
            # lived on the shared pool, abandon it (terminating the
            # hung processes) and move every *surviving* shared-pool
            # task to a fresh pool at no attempt cost.
            if any(not e.isolated for e in expired):
                survivors = [e for e in self._entries.values() if not e.isolated]
                for entry in survivors:
                    del self._entries[entry.future]
                if self._pool is not None:
                    _abandon_pool(self._pool)
                self._pool = ProcessPoolExecutor(max_workers=self._workers)
                for entry in survivors:
                    entry.carried += now - entry.started
                    entry.started = time.monotonic()
                    if entry.timeout is not None:
                        entry.deadline = entry.started + entry.timeout
                    entry.future = self._submit_call(self._pool, entry.payload)
                    self._entries[entry.future] = entry
        return events
