"""Batch-scan observability: per-task metrics rolled into one summary.

The fault layer makes a genome scan *survive* bad tasks; this module
makes the survival *visible*.  A :class:`BatchSummary` aggregates what
each worker reported — runtime, optimizer iterations, likelihood
evaluations, and the open counter map each
:class:`~repro.parallel.batch.GeneResult` carries (``metrics``, summed
key by key) — plus the fault layer's attempt/failure classification,
and renders the operator-facing report the ``slimcodeml scan``
subcommand prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch imports us)
    from repro.parallel.batch import GeneResult

__all__ = ["BatchSummary", "summarize_results"]


@dataclass
class BatchSummary:
    """Aggregated metrics for one batch of gene/branch tasks."""

    n_tasks: int = 0
    n_ok: int = 0
    n_failed: int = 0
    #: Failure kind (``error`` / ``timeout`` / ``pool``) → count.
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Tasks that needed more than one attempt (including eventual failures).
    n_retried: int = 0
    total_attempts: int = 0
    #: Sum of successful workers' wall clock (compute, not queue wait).
    total_runtime_seconds: float = 0.0
    total_iterations: int = 0
    total_evaluations: int = 0
    #: Caller-measured wall clock for the whole batch (0 = not measured).
    wall_seconds: float = 0.0
    #: ``gene_id`` of results loaded from a journal instead of recomputed.
    resumed_ids: List[str] = field(default_factory=list)
    #: Worker identity → tasks whose terminal attempt it ran (executor
    #: backends that attribute work: ``inline``, ``pid:<n>``, socket
    #: worker ids).  Resumed results carry no worker and are excluded.
    tasks_by_worker: Dict[str, int] = field(default_factory=dict)
    #: Worker identity → successful compute seconds it contributed.
    runtime_by_worker: Dict[str, float] = field(default_factory=dict)
    #: Tasks whose numerical self-healing layer fired (at least one
    #: event/restart/boundary flag recorded).
    n_recovered: int = 0
    #: ``gene_id`` of those tasks, for per-gene drill-down.
    recovered_ids: List[str] = field(default_factory=list)
    #: Optimizer restarts summed across recovered tasks.
    total_restarts: int = 0
    #: Numerical event kind → occurrence count across all tasks.
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    #: ``GeneResult.metrics`` summed key by key over the tasks computed
    #: by this invocation (resumed results contribute nothing).  A
    #: caller may merge an executor's ``wire_stats()`` in under
    #: ``wire_`` keys after the batch.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Tasks that produced a substitution-mapping payload (``--map``).
    n_mapped: int = 0
    #: Tasks whose mapping failed (payload carried an error).
    n_mapping_failed: int = 0
    #: Expected substitution events summed over mapped tasks' branches.
    total_mapped_syn: float = 0.0
    total_mapped_nonsyn: float = 0.0
    #: Mapping wall clock summed over mapped tasks (payload ``seconds``;
    #: 0.0 on pre-v8 payloads that did not record it).
    total_mapping_seconds: float = 0.0
    #: Successful tasks whose per-hypothesis convergence is known (pre-v9
    #: journal records do not say), and those among them with an H0 or
    #: H1 fit that did not converge.
    n_convergence_known: int = 0
    n_unconverged: int = 0

    @property
    def n_resumed(self) -> int:
        return len(self.resumed_ids)

    def add(self, result: "GeneResult", resumed: bool = False) -> None:
        """Fold one task's outcome into the aggregate."""
        self.n_tasks += 1
        self.total_attempts += result.attempts
        if result.attempts > 1:
            self.n_retried += 1
        if resumed:
            self.resumed_ids.append(result.gene_id)
        worker = getattr(result, "worker", None)
        if not resumed:
            if worker is not None:
                self.tasks_by_worker[worker] = self.tasks_by_worker.get(worker, 0) + 1
            for key, value in result.metrics.items():
                self.metrics[key] = self.metrics.get(key, 0) + value
        diagnostics = getattr(result, "diagnostics", None)
        if diagnostics:
            self.n_recovered += 1
            self.recovered_ids.append(result.gene_id)
            self.total_restarts += int(diagnostics.get("restarts", 0))
            for event in diagnostics.get("events", []):
                kind = event.get("kind", "unknown")
                self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        mapping = getattr(result, "mapping", None)
        if mapping:
            if "error" in mapping:
                self.n_mapping_failed += 1
            else:
                self.n_mapped += 1
                self.total_mapping_seconds += float(mapping.get("seconds") or 0.0)
                for row in mapping.get("branches", []):
                    self.total_mapped_syn += float(row.get("syn", 0.0))
                    self.total_mapped_nonsyn += float(row.get("nonsyn", 0.0))
        if result.failed:
            self.n_failed += 1
            kind = result.failure.kind if result.failure is not None else "error"
            self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1
        else:
            self.n_ok += 1
            if getattr(result, "converged", None) is not None:
                self.n_convergence_known += 1
                self.n_unconverged += bool(result.unconverged)
            self.total_runtime_seconds += result.runtime_seconds
            self.total_iterations += result.iterations
            self.total_evaluations += result.n_evaluations
            if worker is not None and not resumed:
                self.runtime_by_worker[worker] = (
                    self.runtime_by_worker.get(worker, 0.0) + result.runtime_seconds
                )

    def format(self) -> str:
        """Multi-line human-readable report."""
        m = self.metrics
        lines = [
            f"tasks      : {self.n_tasks} total, {self.n_ok} ok, {self.n_failed} failed"
            + (f", {self.n_resumed} resumed from journal" if self.n_resumed else ""),
        ]
        if self.failures_by_kind:
            kinds = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.failures_by_kind.items())
            )
            lines.append(f"failures   : {kinds}")
        lines.append(
            f"attempts   : {self.total_attempts} "
            f"({self.n_retried} task{'s' if self.n_retried != 1 else ''} retried)"
        )
        lines.append(
            f"compute    : {self.total_runtime_seconds:.1f} s across workers, "
            f"{self.total_iterations} optimizer iterations, "
            f"{self.total_evaluations} likelihood evaluations"
        )
        if self.n_convergence_known:
            lines.append(
                f"unconverged: {self.n_unconverged}/{self.n_convergence_known} "
                "tasks with an H0 or H1 fit stopped before convergence"
            )
        reuses = int(m.get("clv_reuses", 0))
        applications = int(m.get("clv_propagations", 0)) + reuses
        if applications:
            pct = 100.0 * reuses / applications
            lines.append(
                f"clv reuse  : {reuses} of {applications} "
                f"branch applications served from cache ({pct:.1f}%)"
            )
        if self.n_recovered:
            line = (
                f"numerics   : {self.n_recovered} "
                f"task{'s' if self.n_recovered != 1 else ''} recovered, "
                f"{self.total_restarts} optimizer restart"
                f"{'s' if self.total_restarts != 1 else ''}"
            )
            if self.events_by_kind:
                line += ", events: " + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.events_by_kind.items())
                )
            lines.append(line)
        rungs = sorted(
            (key[len("rung_"):], int(count))
            for key, count in m.items()
            if key.startswith("rung_")
        )
        if rungs:
            lines.append(
                "rungs      : operator builds "
                + ", ".join(f"{rung}={count}" for rung, count in rungs)
            )
        if self.n_mapped or self.n_mapping_failed:
            line = (
                f"mapping    : {self.n_mapped} "
                f"task{'s' if self.n_mapped != 1 else ''} mapped, "
                f"E[syn]={self.total_mapped_syn:.2f}, "
                f"E[nonsyn]={self.total_mapped_nonsyn:.2f}"
            )
            if self.total_mapping_seconds > 0.0:
                line += f", {self.total_mapping_seconds:.2f} s mapping"
            if self.n_mapping_failed:
                line += f", {self.n_mapping_failed} mapping failure" + (
                    "s" if self.n_mapping_failed != 1 else ""
                )
            lines.append(line)
        cold_starts = int(m.get("cold_starts", 0))
        if cold_starts:
            lines.append(
                f"cold start : {m.get('setup_s', 0.0) * 1000.0:.1f} ms "
                f"materialising broadcast context across "
                f"{cold_starts} first-touch task"
                f"{'s' if cold_starts != 1 else ''}"
            )
        dispatched = int(m.get("wire_tasks_dispatched", 0))
        if dispatched:
            lines.append(
                f"wire       : {m.get('wire_task_bytes_mean', 0.0):,.0f} B/task over "
                f"{dispatched} dispatches, one-shot broadcast "
                f"{int(m.get('wire_broadcast_bytes', 0)):,} B "
                f"({int(m.get('wire_broadcasts', 0))} deliveries), "
                f"{int(m.get('wire_bytes_sent', 0)):,} B out / "
                f"{int(m.get('wire_bytes_received', 0)):,} B in"
            )
        if self.tasks_by_worker:
            parts = ", ".join(
                f"{worker}={count} task{'s' if count != 1 else ''}"
                f"/{self.runtime_by_worker.get(worker, 0.0):.1f}s"
                for worker, count in sorted(self.tasks_by_worker.items())
            )
            lines.append(f"workers    : {parts}")
        if self.wall_seconds > 0:
            line = f"wall clock : {self.wall_seconds:.1f} s"
            if not self.resumed_ids:
                # Ratio is meaningless when some compute came from a journal.
                line += (
                    f" ({self.total_runtime_seconds / self.wall_seconds:.1f}x "
                    "parallel efficiency)"
                )
            lines.append(line)
        return "\n".join(lines)


def summarize_results(
    results: Iterable["GeneResult"],
    wall_seconds: float = 0.0,
    resumed_ids: Iterable[str] = (),
) -> BatchSummary:
    """Build a :class:`BatchSummary` from finished results."""
    resumed = set(resumed_ids)
    summary = BatchSummary(wall_seconds=wall_seconds)
    for result in results:
        summary.add(result, resumed=result.gene_id in resumed)
    return summary
