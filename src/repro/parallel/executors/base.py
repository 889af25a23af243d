"""The Executor protocol: pluggable execution substrates for batch scans.

PR 1 hard-wired the fault-tolerant scan layer to one machine's
``ProcessPoolExecutor``.  This package splits that coupling: the policy
driver (:func:`repro.parallel.faults.run_tasks`) owns *fault policy* —
retries, backoff, quarantine attribution, attempt accounting — while an
:class:`Executor` owns the *substrate*: where tasks physically run and
how their terminal states (including crashes and hangs) are observed.

An executor is a small event-oriented object:

* :meth:`Executor.start` fixes the task callable for a batch;
* :meth:`Executor.submit` hands over one payload under a driver-chosen
  integer ``tag``;
* :meth:`Executor.drain` blocks (boundedly) and returns structured
  :class:`ExecutorEvent` records — exactly one terminal event per
  submitted tag;
* :meth:`Executor.shutdown` releases the substrate.

Crash signalling is the load-bearing part of the contract.  A backend
that *knows* which task took a worker down (a socket worker runs one
task at a time; an isolated single-worker pool holds one task) emits a
``crash`` event with ``attributed=True`` and the driver charges that
task an attempt.  A backend that cannot know (a shared process pool
poisons every in-flight future at once) emits ``attributed=False``
events for every lost task, and the *driver* — not the backend — runs
the quarantine round that re-executes each lost task in isolation to
pin the blame.  Attribution therefore lives in one place and every
backend inherits it; see DESIGN.md §"Executor protocol".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional

__all__ = ["EVENT_KINDS", "ExecutorEvent", "Executor", "make_executor"]

#: Terminal states an executor can report for one submitted tag.
EVENT_KINDS = ("ok", "error", "timeout", "crash")


@dataclass
class ExecutorEvent:
    """Terminal state of one submitted task attempt.

    ``kind``:

    * ``"ok"`` — the callable returned; ``result`` holds the value.
    * ``"error"`` — the callable raised; ``error_type``/``message``
      describe the exception.
    * ``"timeout"`` — the attempt exceeded the ``timeout`` passed to
      :meth:`Executor.submit`; the backend has already reclaimed or
      abandoned whatever ran it.
    * ``"crash"`` — the execution vehicle died (process exit, dead
      socket worker).  ``attributed`` says whether the backend is
      certain this task caused the death; unattributed crashes make
      the driver run a quarantine round.

    ``elapsed`` is the backend-measured wall clock this attempt
    consumed (the driver accumulates it across attempts); ``worker``
    is a backend-specific identity string for per-worker metrics
    attribution (``None`` when the backend cannot tell).
    """

    tag: int
    kind: str
    result: object = None
    error_type: str = ""
    message: str = ""
    elapsed: float = 0.0
    worker: Optional[str] = None
    attributed: bool = True


class Executor(ABC):
    """Abstract execution substrate behind the fault-policy driver.

    Lifecycle: ``start(fn, n_tasks, context)`` → interleaved ``submit``/``drain``
    → (batch done) → possibly another ``start`` → ``shutdown``.  The
    driver keeps at most :meth:`capacity` tags in flight, so a
    backend's per-task clocks start at dispatch, not at queue entry.

    Whoever makes an executor shuts it down.  ``run_tasks``,
    ``analyze_genes`` and ``scan_branches`` start and drain the executor
    they are handed but never shut it down, so one connected
    :class:`~repro.parallel.executors.sockets.SocketExecutor` can serve
    several batches — e.g. a scan followed by a journal resume.
    """

    #: Human-readable backend name (CLI ``--executor`` choices).
    name: str = "abstract"

    @abstractmethod
    def start(
        self,
        fn: Callable[..., object],
        n_tasks: int,
        context: object = None,
    ) -> None:
        """Begin a batch: fix the task callable and size hint.

        ``context`` is the batch's shared read-only state, shipped to
        every worker **once** per batch — over the socket backend as a
        single broadcast frame at worker hello, over the pool backend
        as a ``multiprocessing.shared_memory`` segment workers attach
        and decode zero-copy.  The callable is always invoked as
        ``fn(payload, context)``; ``context`` may be ``None``.
        """

    @abstractmethod
    def capacity(self) -> int:
        """Max tags the driver should keep in flight at once."""

    @abstractmethod
    def submit(
        self,
        tag: int,
        payload: object,
        timeout: Optional[float] = None,
        isolated: bool = False,
    ) -> None:
        """Dispatch one payload under ``tag``.

        ``timeout`` is the per-attempt wall-clock budget the backend
        must enforce (``None`` disables; backends that cannot interrupt
        work, like the inline executor, may ignore it).  ``isolated``
        asks for a vehicle whose crash is attributable to this task
        alone — the quarantine primitive.  Backends whose normal
        dispatch is already attributable may ignore the flag.
        """

    @abstractmethod
    def drain(self, timeout: Optional[float] = None) -> List[ExecutorEvent]:
        """Collect terminal events, blocking up to ``timeout`` seconds.

        May return an empty list on timeout; must never block
        indefinitely past ``timeout`` (the driver uses the bound to
        wake for retry-backoff deadlines).  With ``timeout=None`` the
        backend may block until at least one event exists, provided it
        still honours its own internal deadlines (task timeouts,
        dead-worker detection).
        """

    @abstractmethod
    def shutdown(self) -> None:
        """Release the substrate (terminate pools, close sockets)."""

    # -- context management -------------------------------------------
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def make_executor(
    name: str,
    max_workers: Optional[int] = None,
    bind: str = "127.0.0.1",
    port: int = 0,
    min_workers: int = 1,
    worker_wait: float = 30.0,
):
    """Build an executor by CLI name (``inline`` / ``pool`` / ``socket``).

    The one place the package constructs an executor.  ``max_workers``
    sizes the pool (``None``: one per core); the socket options are
    ignored by the other backends.
    """
    if name == "inline":
        from repro.parallel.executors.inline import InlineExecutor

        return InlineExecutor()
    if name == "pool":
        from repro.parallel.executors.pool import ProcessPoolBackend

        return ProcessPoolBackend(max_workers=max_workers)
    if name == "socket":
        from repro.parallel.executors.sockets import SocketExecutor

        return SocketExecutor(
            bind=bind, port=port, min_workers=min_workers, worker_wait=worker_wait
        )
    raise ValueError(f"unknown executor {name!r} (expected inline, pool or socket)")
