"""Ablation — fault-tolerance overhead of the batch-scan layer.

Not a paper experiment: the fault layer (per-task capture, retry
bookkeeping, JSONL journalling with per-record fsync) exists so that a
genome-scale scan survives bad genes (the gcodeml operational lesson).
This bench quantifies what that safety costs *per task* on the happy
path.  Real branch-site fits run for seconds, so the overhead is
measured with cheap synthetic tasks where it is actually visible —
against that, a journalled fsync per result is the dominant term, and
even it is orders of magnitude below one likelihood evaluation.
"""

import time

from harness import format_table, write_result

from repro.io.results_io import ResultJournal
from repro.parallel.batch import GeneResult
from repro.parallel.executors import InlineExecutor
from repro.parallel.faults import run_tasks

N_TASKS = 500


def _identity(payload, _context):
    return payload


def _synthetic_result(k):
    return GeneResult(
        gene_id=f"g{k:04d}", lnl0=-1234.5, lnl1=-1230.1, statistic=8.8,
        pvalue=0.003, iterations=25, runtime_seconds=0.5, n_evaluations=400,
    )


def test_inprocess_dispatch_overhead(benchmark):
    """run_tasks bookkeeping (outcome records, timers) vs. a bare loop."""
    payloads = list(range(N_TASKS))

    def dispatch():
        return run_tasks(_identity, payloads, InlineExecutor())

    outcomes = benchmark.pedantic(dispatch, rounds=5, iterations=1)
    assert all(o.ok for o in outcomes)
    benchmark.extra_info["n_tasks"] = N_TASKS


def test_journal_append_throughput(benchmark, tmp_path):
    """Durable (fsync-per-record) journal appends."""
    results = [_synthetic_result(k) for k in range(N_TASKS)]
    counter = [0]

    def append_all():
        counter[0] += 1
        path = tmp_path / f"bench_{counter[0]}.jsonl"
        with ResultJournal(str(path)) as journal:
            for result in results:
                journal.append(result)

    benchmark.pedantic(append_all, rounds=3, iterations=1)
    benchmark.extra_info["n_records"] = N_TASKS


def test_scan_overhead_summary(benchmark, tmp_path):
    def measure():
        timings = {}
        payloads = list(range(N_TASKS))

        t0 = time.perf_counter()
        for payload in payloads:
            _identity(payload, None)
        timings["bare loop"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_tasks(_identity, payloads, InlineExecutor())
        timings["fault layer (in-process)"] = time.perf_counter() - t0

        results = [_synthetic_result(k) for k in range(N_TASKS)]
        t0 = time.perf_counter()
        with ResultJournal(str(tmp_path / "bench.jsonl")) as journal:
            for result in results:
                journal.append(result)
        timings["journal append (fsync/record)"] = time.perf_counter() - t0
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [name, f"{seconds:.4f}", f"{seconds / N_TASKS * 1e6:.1f}"]
        for name, seconds in timings.items()
    ]
    text = format_table(
        ["configuration", f"{N_TASKS} tasks (s)", "per task (us)"],
        rows,
        title="Ablation: fault-layer + journal overhead per task (synthetic tasks)",
    )
    write_result("ABL_scan_overhead.txt", text)
