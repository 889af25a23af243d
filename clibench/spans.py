"""Span files → per-layer metrics and a Chrome trace-event file.

A span is ``(name, start, end, parent, task)`` with ``parent`` the index
of the enclosing span in the same process (``-1`` at top level).  The
layer of a span is its name up to the first dot.

* Self time is a span's duration minus the durations of its direct
  children; spans of one process nest strictly, so that is exactly the
  time the children do not cover.
* ``residual_s`` is the traced wall clock that no top-level span of the
  main process covers (interpreter start, argument handling, CLI glue).
  By construction the main process's layer self times plus the
  residual add up to the traced wall clock; :func:`wall_breakdown`
  returns both sides.
* Per-layer metrics sum over every process, so in a pool run they are
  work (worker seconds), not wall clock.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Process",
    "load",
    "self_times",
    "wall_breakdown",
    "layer_metrics",
    "chrome_trace",
]

Span = Tuple[str, float, float, int, object]


class Process:
    """Spans and counters of one traced process."""

    def __init__(self, pid: int, main: bool = False) -> None:
        self.pid = pid
        self.main = main
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)


def load(trace_dir: str) -> List[Process]:
    """Read every ``spans-<pid>.jsonl`` the traced run wrote."""
    procs = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        proc = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if proc is None:
                    proc = Process(record["pid"])
                proc.main = proc.main or record["main"]
                if record["offset"] != len(proc.spans):
                    raise ValueError(f"{path}: span flush out of order")
                proc.spans.extend(tuple(s) for s in record["spans"])
                for key, value in record["counters"].items():
                    if key == "input.patterns":
                        proc.counters[key] = max(proc.counters[key], value)
                    else:
                        proc.counters[key] += value
        if proc is not None:
            procs.append(proc)
    return procs


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def wall_breakdown(main: Process, wall: float) -> Tuple[Dict[str, float], float]:
    """``(layer -> self seconds, residual)`` for the main process.

    ``sum(layers.values()) + residual == wall`` up to float rounding.
    """
    layers: Dict[str, float] = defaultdict(float)
    for span, own in zip(main.spans, self_times(main.spans)):
        layers[layer_of(span[0])] += own
    covered = sum(end - start for _, start, end, parent, _ in main.spans if parent < 0)
    return dict(layers), wall - covered


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(procs: Sequence[Process], wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of the benchmark from one traced run."""
    count: Dict[str, int] = defaultdict(int)
    incl: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    outer: Dict[str, float] = defaultdict(float)  # layer time not nested in the same layer
    tasks: List[float] = []
    first_task = None
    run_tasks_start = None
    c: Dict[str, float] = defaultdict(float)
    for proc in procs:
        for key, value in proc.counters.items():
            c[key] = max(c[key], value) if key == "input.patterns" else c[key] + value
        selfs = self_times(proc.spans)
        for (name, start, end, parent, _), s in zip(proc.spans, selfs):
            count[name] += 1
            incl[name] += end - start
            layer = layer_of(name)
            own[layer] += s
            if parent < 0 or layer_of(proc.spans[parent][0]) != layer:
                outer[layer] += end - start
            if name == "parallel.task":
                tasks.append(end - start)
                first_task = start if first_task is None else min(first_task, start)
            if name == "parallel.run_tasks" and proc.main:
                run_tasks_start = start
    main = next(p for p in procs if p.main)
    _, residual = wall_breakdown(main, wall)

    decomp = c["cache.decomposition_hits"] + c["cache.decomposition_misses"]
    trans = c["cache.transition_hits"] + c["cache.transition_misses"]
    clv = c["cache.clv_propagations"] + c["cache.clv_reuses"]
    operators = sum(v for k, v in c.items() if k.startswith("cache.rung_"))
    kernel_s = own["eigen"] + own["expm"] + own["pruning"]
    gflop = c["flops.total"] / 1e9
    fits_s = incl["optimize.fit"]
    steps = c["optimize.iterations"] + c["optimize.fits"]
    run_tasks_s = incl["parallel.run_tasks"]
    workers = max(c["parallel.workers"], 1.0)
    return {
        "input.parse_s": incl["input.parse"],
        "input.compress_s": incl["input.compress"],
        "input.freq_s": incl["input.freq"],
        "input.patterns": c["input.patterns"],
        "qbuild.calls": count["qbuild"],
        "qbuild.s": own["qbuild"],
        "eigen.calls": c["cache.decomposition_misses"] or count["eigen.decompose"],
        "eigen.s": own["eigen"],
        "eigen.cache_hit_ratio": c["cache.decomposition_hits"] / decomp if decomp else 0.0,
        "expm.operators": operators,
        "expm.s": own["expm"],
        "expm.cache_hit_ratio": c["cache.transition_hits"] / trans if trans else 0.0,
        "pruning.calls": count["pruning.site_class"],
        "pruning.self_s": own["pruning"],
        "pruning.propagations": c["cache.clv_propagations"],
        "pruning.reuse_ratio": c["cache.clv_reuses"] / clv if clv else 0.0,
        "mixture.s": own["mixture"],
        "engine.evals": count["engine.eval"],
        "engine.eval_ms": 1e3 * incl["engine.eval"] / max(count["engine.eval"], 1),
        "engine.self_s": own["engine"],
        "kernel.gflop": gflop,
        "kernel.blas3_frac": c["flops.blas3"] / c["flops.total"] if c["flops.total"] else 0.0,
        "kernel.gflops": gflop / kernel_s if kernel_s else 0.0,
        "optimize.iterations": c["optimize.iterations"],
        "optimize.evals_per_iter": c["optimize.evaluations"] / steps if steps else 0.0,
        "optimize.fd_s": incl["optimize.fd"],
        "optimize.fd_share": incl["optimize.fd"] / fits_s if fits_s else 0.0,
        "optimize.self_s": own["optimize"],
        "mapping.calls": count["mapping.sample"],
        "mapping.s": outer["mapping"],
        "parallel.tasks": len(tasks),
        "parallel.task_p50_s": _median(tasks),
        "parallel.task_max_s": max(tasks, default=0.0),
        "parallel.busy_frac": sum(tasks) / (workers * run_tasks_s) if run_tasks_s else 0.0,
        "parallel.task_slowdown": sum(tasks) / c["task.cpu_s"] if c["task.cpu_s"] else 0.0,
        "parallel.start_s": (
            first_task - run_tasks_start
            if first_task is not None and run_tasks_start is not None else 0.0
        ),
        "parallel.context_bytes": c["parallel.context_bytes"],
        "io.journal_appends": count["io.journal"],
        "io.journal_s": incl["io.journal"],
        "io.report_s": incl["io.report"],
        "import_s": incl["import"],
        "residual_s": residual,
        "trace.overhead_frac": wall / untraced_wall - 1.0 if untraced_wall else 0.0,
    }


def chrome_trace(procs: Sequence[Process], min_duration: float = 50e-6) -> Dict:
    """Chrome trace-event JSON (opens in Perfetto / ``chrome://tracing``).

    Spans shorter than ``min_duration`` seconds are left out to keep
    the file small; the per-layer metrics still count them.
    """
    t0 = min((s[1] for p in procs for s in p.spans), default=0.0)
    events = []
    for proc in procs:
        events.append({
            "name": "process_name", "ph": "M", "pid": proc.pid, "tid": proc.pid,
            "args": {"name": "slimcodeml" if proc.main else f"worker {proc.pid}"},
        })
        for name, start, end, _, task in proc.spans:
            if end - start < min_duration:
                continue
            event = {
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": round((start - t0) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                "pid": proc.pid, "tid": proc.pid,
            }
            if task is not None:
                event["args"] = {"task": task}
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
