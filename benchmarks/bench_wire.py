"""E-WIRE — zero-copy data plane: binary frames + one-shot broadcast.

Quantifies what PR 6's wire rework buys over the retired
length-prefixed-pickle plane on a real branch scan:

* **wire bytes/task** — the old plane shipped one pickled dict per task
  (message type, tag, the pickled callable blob, and a self-contained
  payload embedding the marked Newick and the full alignment).  The new
  plane broadcasts batch state once (codon patterns, frequencies, the
  base tree, the callable) and dispatches index-sized task frames; the
  comparison amortises the broadcast across the batch, so it is an
  honest total-bytes-moved-per-task number, not a best case;
* **worker cold start** — per-task payload decode + alignment
  materialisation under each plane, plus the worker-measured
  ``setup_s`` metric actually observed during the scan;
* **numeric identity** — the socket scan's per-branch results must be
  exactly equal (float equality, not tolerance) to the process-pool
  scan of the same seed, or the run aborts.

Standalone so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_wire.py --quick --assert-reduction 5.0

Full mode reproduces the committed ``E-WIRE_zero_copy.txt`` on dataset
iii (25 species — the branch-rich Table II case).
"""

from __future__ import annotations

import argparse
import multiprocessing
import pickle
import sys
import time

from harness import SEED, format_table, get_dataset, write_result

from repro.alignment.msa import CodonAlignment
from repro.alignment.patterns import compress_patterns
from repro.codon.frequencies import estimate_codon_frequencies
from repro.parallel.batch import (
    GeneJob,
    _build_shared_context,
    _materialize_patterns,
    _run_gene_shared,
    branch_label,
    scan_branches,
)
from repro.parallel.executors import ProcessPoolBackend, SocketExecutor, wire
from repro.trees.newick import parse_newick

GENE_ID = "wirebench"

#: The pickled callable the retired plane shipped with every task: a
#: by-reference pickle (protocol 5) of its self-contained tuple-payload
#: worker, ``repro.parallel.batch._run_gene``, since deleted.
RETIRED_FN_BLOB = (
    b"\x80\x05\x95&\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.parallel.batch"
    b"\x94\x8c\t_run_gene\x94\x93\x94."
)

# Spawned, not forked: the bench process runs pool executors too, and
# forking a threaded parent can wedge the child (same rationale as the
# executor test suite).
_MP = multiprocessing.get_context("spawn")


def _worker_entry(host: str, port: int, name: str) -> None:
    from repro.parallel.executors.worker import run_worker

    run_worker(host, port, name=name)


def _spawn_fleet(executor: SocketExecutor, n_workers: int):
    host, port = executor.address
    procs = [
        _MP.Process(target=_worker_entry, args=(host, port, f"bw{k}"), daemon=True)
        for k in range(n_workers)
    ]
    for proc in procs:
        proc.start()
    deadline = time.monotonic() + 60.0
    while executor.n_workers() < n_workers and time.monotonic() < deadline:
        time.sleep(0.05)
    if executor.n_workers() < n_workers:
        raise RuntimeError("socket workers failed to register within 60s")
    return procs


def _reap(procs) -> None:
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)


def _candidates(dataset, internal_only: bool):
    return [
        n for n in dataset.tree.nodes
        if not n.is_root and (not internal_only or not n.is_leaf)
    ]


def _legacy_task_bytes(dataset, candidates, budget: int, seed: int):
    """Per-task frame sizes the retired pickle plane would ship.

    Reconstructed from the old protocol exactly: a 4-byte length prefix
    plus ``pickle.dumps({"type": "task", "tag": ..., "fn": <pickled
    callable>, "payload": (job, engine, seed, budget)})`` where the job
    embeds a pre-marked Newick and the full codon sequences — the fn
    blob rode along on *every* dispatch.
    """
    fn_blob = RETIRED_FN_BLOB
    sizes = []
    for k, node in enumerate(candidates):
        marked = dataset.tree.copy()
        marked.mark_foreground(marked.nodes[node.index])
        job = GeneJob.from_objects(
            f"{GENE_ID}:{branch_label(dataset.tree, node.index)}",
            marked, dataset.alignment,
        )
        message = {
            "type": "task", "tag": k, "fn": fn_blob,
            "payload": (job, "slim", seed + k, budget),
        }
        sizes.append(
            4 + len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        )
    return sizes


def _scan_fingerprint(scan):
    return sorted(
        (r.gene_id, r.lnl0, r.lnl1, r.statistic, r.pvalue,
         r.iterations, r.n_evaluations)
        for r in scan.gene_results
    )


def _run_socket_scan(dataset, budget, internal_only, n_workers, seed):
    executor = SocketExecutor(port=0, min_workers=n_workers, worker_wait=60.0)
    procs = _spawn_fleet(executor, n_workers)
    try:
        t0 = time.perf_counter()
        scan = scan_branches(
            GENE_ID, dataset.tree, dataset.alignment,
            internal_only=internal_only, seed=seed, max_iterations=budget,
            executor=executor,
        )
        wall = time.perf_counter() - t0
        stats = executor.wire_stats()
    finally:
        executor.shutdown()
        _reap(procs)
    return scan, stats, wall


def _run_pool_scan(dataset, budget, internal_only, n_workers, seed):
    executor = ProcessPoolBackend(max_workers=n_workers)
    try:
        t0 = time.perf_counter()
        scan = scan_branches(
            GENE_ID, dataset.tree, dataset.alignment,
            internal_only=internal_only, seed=seed, max_iterations=budget,
            executor=executor,
        )
        wall = time.perf_counter() - t0
        context_bytes = executor.context_nbytes()
    finally:
        executor.shutdown()
    return scan, context_bytes, wall


def _cold_start_bench(dataset, candidates, budget, seed, reps=5):
    """Worker-side setup cost per plane, in seconds.

    ``legacy`` is what every task paid on the old plane: unpickle the
    dispatch, parse the marked Newick, rebuild the alignment, estimate
    codon frequencies, compress patterns.  ``broadcast_decode`` is the
    new plane's once-per-worker frame decode; ``first_touch`` the
    once-per-alignment pattern materialisation; ``warm`` the steady
    state (tree parse only — patterns come from the worker cache).
    """
    node = candidates[0]
    marked = dataset.tree.copy()
    marked.mark_foreground(marked.nodes[node.index])
    job = GeneJob.from_objects(f"{GENE_ID}:cold", marked, dataset.alignment)
    fn_blob = RETIRED_FN_BLOB
    legacy_blob = pickle.dumps(
        {"type": "task", "tag": 0, "fn": fn_blob,
         "payload": (job, "slim", seed, budget)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )

    def legacy_once():
        message = pickle.loads(legacy_blob)
        task_job = message["payload"][0]
        tree = parse_newick(task_job.newick)
        aln = CodonAlignment.from_sequences(
            list(task_job.names), list(task_job.sequences)
        )
        estimate_codon_frequencies(aln.to_sequences(), method="f3x4", code=aln.code)
        compress_patterns(aln)
        return tree

    jobs = [
        GeneJob.from_objects(
            f"{GENE_ID}:{branch_label(dataset.tree, n.index)}",
            dataset.tree, dataset.alignment, fg_node=n.index,
        )
        for n in candidates
    ]
    context, _ = _build_shared_context(jobs, budget)
    flat = b"".join(
        bytes(b) for b in wire.encode_frame(
            wire.MSG_BATCH, 1,
            {"fn": wire.Pickled(pickle.dumps(
                _run_gene_shared, protocol=pickle.HIGHEST_PROTOCOL)),
             "context": context},
        )
    )

    def timed(fn):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    decoded = {}

    def decode_once():
        decoded["context"] = wire.decode_frame(flat).payload(allow_pickle=True)[
            "context"
        ]

    return {
        "legacy": timed(legacy_once),
        "broadcast_decode": timed(decode_once),
        "first_touch": timed(
            lambda: _materialize_patterns(decoded["context"]["alignments"][0])
        ),
        "warm": timed(lambda: parse_newick(context["newicks"][0])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: dataset i, every branch, budget 1 (minutes, "
             "not tens of minutes)",
    )
    parser.add_argument(
        "--dataset", default=None, choices=["i", "ii", "iii", "iv"],
        help="Table II dataset (default: iii, or i with --quick)",
    )
    parser.add_argument(
        "--iterations", type=int, default=1,
        help="optimizer budget per hypothesis (bytes are budget-invariant; "
             "1 keeps the compute honest but short)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="socket workers / pool processes (default 2)",
    )
    parser.add_argument(
        "--assert-reduction", type=float, default=None, metavar="FACTOR",
        help="exit non-zero unless amortised wire bytes/task shrink by at "
             "least FACTOR vs the pickle baseline",
    )
    args = parser.parse_args(argv)

    dataset_name = args.dataset or ("i" if args.quick else "iii")
    internal_only = not args.quick  # quick: every branch, for amortisation
    dataset = get_dataset(dataset_name)
    candidates = _candidates(dataset, internal_only)
    budget = args.iterations

    legacy_sizes = _legacy_task_bytes(dataset, candidates, budget, SEED)
    legacy_mean = sum(legacy_sizes) / len(legacy_sizes)

    scan, stats, socket_wall = _run_socket_scan(
        dataset, budget, internal_only, args.workers, SEED
    )
    scan.raise_on_failure()
    n_tasks = int(stats["tasks_dispatched"])
    frame_mean = stats["task_bytes_mean"]
    broadcast_bytes = int(stats["broadcast_bytes"])
    amortized = (stats["task_bytes"] + broadcast_bytes) / n_tasks
    reduction = legacy_mean / amortized

    pool_scan, pool_context_bytes, pool_wall = _run_pool_scan(
        dataset, budget, internal_only, args.workers, SEED
    )
    pool_scan.raise_on_failure()
    identical = _scan_fingerprint(scan) == _scan_fingerprint(pool_scan)
    if not identical:
        print(
            "FATAL: socket and pool scans disagree — the data plane is "
            "not numerically transparent", file=sys.stderr,
        )
        return 1

    cold = _cold_start_bench(dataset, candidates, budget, SEED)
    measured_setup = sum(r.metrics.get("setup_s", 0.0) for r in scan.gene_results)
    n_cold = sum(r.metrics.get("cold_starts", 0) for r in scan.gene_results)
    # Fleet-level cold start: the old plane paid the full rebuild on
    # every task; the new plane pays one decode + one materialisation
    # per worker and parses only the (deduplicated) tree afterwards.
    legacy_fleet = cold["legacy"] * n_tasks
    shared_fleet = (
        (cold["broadcast_decode"] + cold["first_touch"]) * args.workers
        + cold["warm"] * n_tasks
    )

    rows = [
        ["pickle plane (retired)", f"{legacy_mean:,.0f}", "-", "-",
         f"{cold['legacy'] * 1e3:.2f}", f"{legacy_fleet * 1e3:.1f}"],
        ["frame plane (this PR)", f"{frame_mean:,.0f}",
         f"{broadcast_bytes:,}", f"{amortized:,.0f}",
         f"{(cold['broadcast_decode'] + cold['first_touch']) * 1e3:.2f}"
         " (once/worker)",
         f"{shared_fleet * 1e3:.1f}"],
    ]
    table = format_table(
        ["data plane", "task B", "broadcast B", "B/task amortized",
         "setup ms", "fleet setup ms"],
        rows,
        title=(
            f"E-WIRE zero-copy data plane — dataset {dataset_name} "
            f"({dataset.tree.n_leaves} species, "
            f"{dataset.alignment.n_codons} codons), branch scan over "
            f"{n_tasks} candidates, {args.workers} workers, "
            f"budget {budget} it/hypothesis, seed {SEED}"
        ),
    )
    summary = "\n".join([
        table,
        "",
        f"wire bytes/task reduction : {reduction:.1f}x "
        f"(pickle {legacy_mean:,.0f} B -> {amortized:,.0f} B amortized; "
        f"per-task frames alone: {legacy_mean / frame_mean:.0f}x smaller)",
        f"cold start                : legacy {cold['legacy'] * 1e3:.2f} ms "
        f"on every task; broadcast decode "
        f"{cold['broadcast_decode'] * 1e3:.2f} ms + first touch "
        f"{cold['first_touch'] * 1e3:.2f} ms once per worker, then "
        f"{cold['warm'] * 1e3:.2f} ms warm "
        f"({legacy_fleet / shared_fleet:.1f}x less fleet setup; worker-"
        f"measured: {measured_setup * 1e3:.1f} ms across {n_cold} "
        f"first-touch tasks)",
        f"numeric identity          : socket == pool exactly "
        f"({len(scan.by_branch)} branches; pool shared-memory context "
        f"{pool_context_bytes:,} B)",
        f"wall clock                : socket {socket_wall:.1f} s, "
        f"pool {pool_wall:.1f} s",
    ])

    if args.quick:
        print(summary)
    else:
        write_result("E-WIRE_zero_copy.txt", summary)

    if args.assert_reduction is not None and reduction < args.assert_reduction:
        print(
            f"FAIL: wire bytes/task reduction {reduction:.2f}x is below "
            f"the required {args.assert_reduction:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
