"""Serial in-process executor (tests, debugging, tiny batches)."""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.parallel.executors.base import Executor, ExecutorEvent

__all__ = ["InlineExecutor"]


class InlineExecutor(Executor):
    """Runs each task synchronously in the calling process.

    Deterministic and hermetic: no worker processes, no scheduling
    nondeterminism.  Crashes cannot occur (a segfault would take the
    driver down too) and timeouts are unenforceable — a hung call
    cannot be interrupted from the same thread — so the ``timeout``
    argument is accepted and ignored.
    """

    name = "inline"

    def __init__(self) -> None:
        self._fn: Optional[Callable[..., object]] = None
        self._context: object = None
        self._events: List[ExecutorEvent] = []

    def start(
        self,
        fn: Callable[..., object],
        n_tasks: int,
        context: object = None,
    ) -> None:
        self._fn = fn
        self._context = context
        self._events = []

    def capacity(self) -> int:
        return 1

    def submit(
        self,
        tag: int,
        payload: object,
        timeout: Optional[float] = None,
        isolated: bool = False,
    ) -> None:
        assert self._fn is not None, "submit before start"
        started = time.perf_counter()
        try:
            result = self._fn(payload, self._context)
        except Exception as exc:  # noqa: BLE001 - faults become events
            self._events.append(
                ExecutorEvent(
                    tag=tag,
                    kind="error",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    elapsed=time.perf_counter() - started,
                    worker=self.name,
                )
            )
            return
        self._events.append(
            ExecutorEvent(
                tag=tag,
                kind="ok",
                result=result,
                elapsed=time.perf_counter() - started,
                worker=self.name,
            )
        )

    def drain(self, timeout: Optional[float] = None) -> List[ExecutorEvent]:
        events, self._events = self._events, []
        return events

    def shutdown(self) -> None:
        self._events = []
