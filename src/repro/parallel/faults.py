"""Fault policy and the backend-agnostic task driver.

gcodeml (Moretti et al., 2012) showed that at Selectome scale the
binding constraint on a genome-wide branch-site scan is *fault
handling*: grid tasks crash, hang, and must be retried without losing
the rest of the batch.  This module is the policy layer the batch
drivers (:mod:`repro.parallel.batch`) delegate to.

Since the executor refactor, :func:`run_tasks` is a pure *policy
driver*: it owns per-task attempt accounting, bounded retries with
exponential backoff, quarantine-based crash attribution and the
restart budget — while the execution substrate
lives behind the :class:`~repro.parallel.executors.base.Executor`
protocol (inline, process pool, or a TCP worker fleet).  The driver
sees only structured events (``ok`` / ``error`` / ``timeout`` /
``crash``), so every backend inherits identical fault semantics:

* a worker exception is retried up to ``max_retries`` times, then
  reported as an ``error`` failure;
* a hung attempt is reported as a ``timeout`` failure (retried only
  when ``retry_timeouts`` is set);
* an *attributed* crash (the backend knows which task killed its
  vehicle) is charged to that task like an error, but reported with
  kind ``pool``;
* an *unattributed* crash (a shared process pool lost every in-flight
  task at once) triggers a quarantine round — each lost task is
  replayed in isolation, which pins the blame on the culprit while its
  victims complete unharmed; only rounds that find *no* culprit
  (environment-level faults) consume ``max_pool_restarts``.

Failures never raise out of :func:`run_tasks`; they come back as
structured :class:`TaskFailure` records alongside the successes, in
input order, so one poisoned task cannot mask a thousand finished ones.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel.executors.base import Executor, ExecutorEvent
from repro.parallel.executors.wire import register_struct

__all__ = ["FaultPolicy", "TaskFailure", "TaskOutcome", "run_tasks"]

#: Failure classes a task can end in (``TaskFailure.kind``).
FAILURE_KINDS = ("error", "timeout", "pool")

#: Floor for event-wait polling so a just-expired deadline cannot spin.
_MIN_WAIT = 0.02

#: Growth factor of successive retry backoffs.
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class FaultPolicy:
    """How the batch layer treats a misbehaving task.

    Parameters
    ----------
    task_timeout:
        Per-attempt wall-clock budget in seconds; ``None`` disables the
        timeout.  Only enforceable by backends that can abandon a hung
        vehicle (the inline executor cannot interrupt a hung call).
    max_retries:
        Retries *after* the first attempt, so a task runs at most
        ``max_retries + 1`` times.
    retry_backoff:
        Sleep before retry ``k`` is ``retry_backoff *
        BACKOFF_MULTIPLIER**(k-1)`` seconds; 0 retries immediately.
    retry_timeouts:
        Whether a timed-out attempt is retried like an error.  Off by
        default: hung tasks are usually deterministically hung, and each
        retry costs another full ``task_timeout``.
    max_pool_restarts:
        How many *unattributed* crash recoveries to attempt before
        declaring every remaining task a ``pool`` failure.  An
        unattributed crash (a shared pool died with several tasks in
        flight) triggers a quarantine round that re-runs each lost task
        in isolation — the culprit crashes its private vehicle (and is
        charged an attempt) while its victims complete unharmed; only
        rounds that *cannot* attribute the crash to a task
        (environment-level faults) consume this budget.  Timeout
        abandonments never do (they are bounded by the task count
        already).
    """

    task_timeout: Optional[float] = None
    max_retries: int = 0
    retry_backoff: float = 0.5
    retry_timeouts: bool = False
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")

    def backoff_seconds(self, failed_attempt: int) -> float:
        """Sleep before re-running a task whose attempt ``k`` (1-based) failed."""
        if self.retry_backoff <= 0:
            return 0.0
        return self.retry_backoff * BACKOFF_MULTIPLIER ** (failed_attempt - 1)


@register_struct
@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task's terminal failure.

    ``kind`` is ``"error"`` (the worker raised), ``"timeout"`` (the
    attempt exceeded ``FaultPolicy.task_timeout``) or ``"pool"`` (the
    execution vehicle died — a worker process crash or a dead socket
    worker — or the substrate gave out entirely).
    """

    task_id: str
    kind: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"[{self.kind}] {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass
class TaskOutcome:
    """Terminal state of one task: a worker result or a :class:`TaskFailure`.

    ``worker`` is the backend's identity string for whichever worker
    produced the terminal attempt (``None`` when the backend cannot
    attribute work to a worker).
    """

    index: int
    task_id: str
    result: Optional[object]
    failure: Optional[TaskFailure]
    attempts: int
    runtime_seconds: float
    worker: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_tasks(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    task_ids: Optional[Sequence[str]] = None,
    policy: Optional[FaultPolicy] = None,
    max_workers: Optional[int] = None,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    in_process: bool = False,
    executor: Optional[Executor] = None,
    context: object = None,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``payloads`` under ``policy``, never raising per-task.

    Results come back in input order.  ``on_outcome`` fires once per
    task *in completion order* as soon as its terminal state is known —
    the hook the batch layer uses to stream results to a journal.

    ``context`` is the batch's shared read-only state.  It is shipped
    to workers once per batch (socket broadcast frame / pool
    shared-memory segment) instead of per task, and when present the
    callable is invoked as ``fn(payload, context)`` rather than
    ``fn(payload)``.

    ``executor`` selects the execution substrate (see
    :mod:`repro.parallel.executors`); a caller-provided executor is
    started and drained but *not* shut down, so a connected worker
    fleet can serve several batches.  Without one, the driver builds
    its own: an :class:`~repro.parallel.executors.inline.InlineExecutor`
    when ``in_process`` is set (sequential, hermetic; timeouts are not
    enforceable there and ``task_timeout`` is ignored), else a
    :class:`~repro.parallel.executors.pool.ProcessPoolBackend` over
    ``max_workers`` processes.
    """
    policy = policy if policy is not None else FaultPolicy()
    ids = list(task_ids) if task_ids is not None else [f"task-{i}" for i in range(len(payloads))]
    if len(ids) != len(payloads):
        raise ValueError(f"{len(payloads)} payloads but {len(ids)} task ids")

    owns_executor = executor is None
    if executor is None:
        if in_process or len(payloads) == 0:
            from repro.parallel.executors.inline import InlineExecutor

            executor = InlineExecutor()
        else:
            from repro.parallel.executors.pool import ProcessPoolBackend

            executor = ProcessPoolBackend(max_workers=max_workers)

    driver = _PolicyDriver(fn, payloads, ids, policy, executor, on_outcome,
                           context=context)
    try:
        return driver.run()
    finally:
        if owns_executor:
            executor.shutdown()


class _PolicyDriver:
    """One batch's fault-policy state machine over an Executor."""

    def __init__(
        self,
        fn: Callable[[object], object],
        payloads: Sequence[object],
        ids: Sequence[str],
        policy: FaultPolicy,
        executor: Executor,
        on_outcome: Optional[Callable[[TaskOutcome], None]],
        context: object = None,
    ) -> None:
        self.fn = fn
        self.payloads = payloads
        self.ids = ids
        self.policy = policy
        self.executor = executor
        self.on_outcome = on_outcome
        self.context = context

        n = len(payloads)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * n
        # Attempt-elapsed accumulators so retried tasks report total runtime.
        self.elapsed: List[float] = [0.0] * n
        self.workers: List[Optional[str]] = [None] * n

        self.pending: deque = deque((i, 1, False) for i in range(n))  # (index, attempt, isolated)
        self.retry_at: List[Tuple[float, int, int, bool]] = []  # (ready, index, attempt, isolated)
        self.in_flight: Dict[int, Tuple[int, int, bool]] = {}  # tag -> (index, attempt, isolated)
        self.lost_unattributed: List[Tuple[int, int]] = []  # crash victims awaiting quarantine
        self.next_tag = 0
        self.restarts = 0

    # -- terminal bookkeeping -----------------------------------------
    def _finish(
        self,
        index: int,
        attempts: int,
        result: Optional[object] = None,
        failure: Optional[TaskFailure] = None,
    ) -> None:
        outcome = TaskOutcome(
            index, self.ids[index], result, failure, attempts,
            self.elapsed[index], worker=self.workers[index],
        )
        self.outcomes[index] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _fail(self, index: int, attempts: int, kind: str, error_type: str, message: str) -> None:
        self._finish(
            index,
            attempts,
            failure=TaskFailure(self.ids[index], kind, error_type, message, attempts),
        )

    # -- submission ----------------------------------------------------
    def _submit(self, index: int, attempt: int, isolated: bool) -> int:
        tag = self.next_tag
        self.next_tag += 1
        self.in_flight[tag] = (index, attempt, isolated)
        self.executor.submit(
            tag,
            self.payloads[index],
            timeout=self.policy.task_timeout,
            isolated=isolated,
        )
        return tag

    # -- event handling ------------------------------------------------
    def _handle_event(self, ev: ExecutorEvent) -> None:
        if ev.tag not in self.in_flight:
            return  # stale event from an abandoned attempt
        index, attempt, _isolated = self.in_flight.pop(ev.tag)
        self.elapsed[index] += ev.elapsed
        if ev.worker is not None:
            self.workers[index] = ev.worker
        policy = self.policy
        if ev.kind == "ok":
            self._finish(index, attempt, result=ev.result)
        elif ev.kind == "error":
            if attempt <= policy.max_retries:
                self._schedule_retry(index, attempt, isolated=False)
            else:
                self._fail(index, attempt, "error", ev.error_type, ev.message)
        elif ev.kind == "timeout":
            if policy.retry_timeouts and attempt <= policy.max_retries:
                self._schedule_retry(index, attempt, isolated=False)
            else:
                self._fail(index, attempt, "timeout", ev.error_type or "TaskTimeout", ev.message)
        elif ev.kind == "crash":
            if ev.attributed:
                if attempt <= policy.max_retries:
                    # Crash-prone tasks retry in isolation so a repeat
                    # crash stays attributable.
                    self._schedule_retry(index, attempt, isolated=True)
                else:
                    self._fail(index, attempt, "pool",
                               ev.error_type or "BrokenProcessPool", ev.message)
            else:
                # Victim or culprit — unknowable here; quarantine replays
                # it in isolation at the *same* attempt (no attempt cost
                # for victims).
                self.lost_unattributed.append((index, attempt))
        else:  # pragma: no cover - defensive against misbehaved backends
            self._fail(index, attempt, "error", "ProtocolError",
                       f"backend emitted unknown event kind {ev.kind!r}")

    def _schedule_retry(self, index: int, failed_attempt: int, isolated: bool) -> None:
        ready = time.monotonic() + self.policy.backoff_seconds(failed_attempt)
        self.retry_at.append((ready, index, failed_attempt + 1, isolated))

    # -- quarantine ----------------------------------------------------
    def _quarantine_round(self, lost: Sequence[Tuple[int, int]]) -> bool:
        """Replay tasks lost to an unattributed crash, one at a time, in
        isolation.

        Isolation makes crash attribution exact: a task that kills its
        private vehicle *is* the culprit (charged an attempt, retried or
        failed per policy) while the victims simply complete.  Returns
        whether any culprit was identified — if not, the crash was
        environmental and counts against ``max_pool_restarts``.
        """
        policy = self.policy
        culprit_found = False
        queue: deque = deque(lost)
        while queue:
            index, attempt = queue.popleft()
            tag = self._submit(index, attempt, isolated=True)
            event: Optional[ExecutorEvent] = None
            while event is None:
                for ev in self.executor.drain(timeout=None):
                    if ev.tag == tag:
                        event = ev
                    else:
                        # Foreign completions (e.g. socket tasks still on
                        # other workers) are handled normally; any further
                        # unattributed losses join the next round.
                        self._handle_event(ev)
            self.in_flight.pop(tag, None)
            self.elapsed[index] += event.elapsed
            if event.worker is not None:
                self.workers[index] = event.worker
            if event.kind == "ok":
                self._finish(index, attempt, result=event.result)
            elif event.kind == "crash":
                culprit_found = True
                if attempt <= policy.max_retries:
                    time.sleep(policy.backoff_seconds(attempt))
                    queue.append((index, attempt + 1))
                else:
                    self._fail(index, attempt, "pool",
                               event.error_type or "BrokenProcessPool", event.message)
            elif event.kind == "timeout":
                if policy.retry_timeouts and attempt <= policy.max_retries:
                    time.sleep(policy.backoff_seconds(attempt))
                    queue.append((index, attempt + 1))
                else:
                    self._fail(index, attempt, "timeout",
                               event.error_type or "TaskTimeout", event.message)
            else:  # error
                if attempt <= policy.max_retries:
                    time.sleep(policy.backoff_seconds(attempt))
                    queue.append((index, attempt + 1))
                else:
                    self._fail(index, attempt, "error", event.error_type, event.message)
        return culprit_found

    def _drain_to_pool_failure(self, message: str) -> None:
        """Terminal substrate fault: everything unfinished becomes ``pool``."""
        for tag, (index, attempt, _iso) in list(self.in_flight.items()):
            self._fail(index, attempt, "pool", "BrokenProcessPool", message)
        self.in_flight.clear()
        for index, attempt in [(i, a) for i, a, _ in self.pending] + [
            (e[1], e[2]) for e in self.retry_at
        ] + list(self.lost_unattributed):
            self._fail(index, attempt, "pool", "BrokenProcessPool", message)
        self.pending.clear()
        self.retry_at.clear()
        self.lost_unattributed.clear()

    # -- main loop -----------------------------------------------------
    def run(self) -> List[TaskOutcome]:
        if not self.payloads:
            return []
        self.executor.start(self.fn, len(self.payloads), context=self.context)
        while self.pending or self.in_flight or self.retry_at or self.lost_unattributed:
            if self.lost_unattributed:
                lost, self.lost_unattributed = self.lost_unattributed, []
                culprit_found = self._quarantine_round(lost)
                if not culprit_found:
                    self.restarts += 1
                    if self.restarts > self.policy.max_pool_restarts:
                        self._drain_to_pool_failure(
                            "unattributed pool crashes exhausted the restart budget"
                        )
                        break
                continue

            now = time.monotonic()
            for entry in [e for e in self.retry_at if e[0] <= now]:
                self.retry_at.remove(entry)
                self.pending.append((entry[1], entry[2], entry[3]))

            # Keep in-flight ≤ capacity so backend clocks start at
            # dispatch time without counting queue wait.
            while self.pending and len(self.in_flight) < self.executor.capacity():
                index, attempt, isolated = self.pending.popleft()
                self._submit(index, attempt, isolated)

            if not self.in_flight:
                if self.retry_at:  # only backoff sleeps remain
                    time.sleep(max(0.0, min(e[0] for e in self.retry_at) - time.monotonic()))
                continue

            wait = None
            if self.retry_at:
                wait = max(_MIN_WAIT, min(e[0] for e in self.retry_at) - time.monotonic())
            for ev in self.executor.drain(timeout=wait):
                self._handle_event(ev)

        assert all(o is not None for o in self.outcomes)
        return self.outcomes  # type: ignore[return-value]
