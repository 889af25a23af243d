#!/usr/bin/env python
"""Genome-scale batch scan across many genes — toward "FastCodeML".

The Selectome database runs the branch-site test across whole genomes
(paper §I-A); the computation is embarrassingly parallel across genes.
This example simulates a small "genome" of genes — some evolving
neutrally, some with positive selection on the test branch — and fans
the analyses out over a process pool, then summarises detections.

It also demonstrates the fault-tolerance layer that genome scale makes
mandatory (the gcodeml lesson): a FaultPolicy bounds per-gene runtime
and retries transient errors, and a JSONL journal checkpoints each
result as it lands, so a killed run resumes without recomputing
finished genes — re-run the same command with the journal file present
and only unfinished genes are analysed.

Run:  python examples/genome_scan.py [n_genes] [n_processes] [journal.jsonl]
"""

import os
import sys
import time

from repro import BranchSiteModelA, simulate_alignment, simulate_yule_tree
from repro.io.report import format_recovery_block
from repro.parallel.batch import GeneJob, analyze_genes
from repro.parallel.executors import make_executor
from repro.parallel.faults import FaultPolicy
from repro.parallel.metrics import summarize_results
from repro.trees.simulate import random_foreground

N_GENES = int(sys.argv[1]) if len(sys.argv) > 1 else 8
PROCESSES = int(sys.argv[2]) if len(sys.argv) > 2 else 2
JOURNAL = sys.argv[3] if len(sys.argv) > 3 else None

NEUTRAL = {"kappa": 2.0, "omega0": 0.2, "p0": 0.6, "p1": 0.3}  # H0 truth
SELECTED = {"kappa": 2.0, "omega0": 0.05, "omega2": 8.0, "p0": 0.5, "p1": 0.2}

print(f"simulating {N_GENES} genes (every odd gene truly under selection)...")
jobs, truly_selected = [], set()
for g in range(N_GENES):
    tree = simulate_yule_tree(6, seed=100 + g, mean_branch_length=0.15)
    random_foreground(tree, seed=200 + g, internal_only=True)
    if g % 2 == 1:
        sim = simulate_alignment(tree, BranchSiteModelA(), SELECTED, 150, seed=300 + g)
        truly_selected.add(f"gene{g:03d}")
    else:
        sim = simulate_alignment(
            tree, BranchSiteModelA(fix_omega2=True), NEUTRAL, 150, seed=300 + g
        )
    jobs.append(GeneJob.from_objects(f"gene{g:03d}", tree, sim.alignment))

# Survive bad genes instead of dying with them: cap each gene at five
# minutes, retry transient failures once, and recover from worker
# crashes.  Failures come back as structured records on the results.
policy = FaultPolicy(task_timeout=300.0, max_retries=1, max_pool_restarts=2)

resume = JOURNAL is not None and os.path.exists(JOURNAL)
if resume:
    print(f"journal {JOURNAL} exists - resuming (finished genes are skipped)")

print(f"running branch-site tests on {PROCESSES} processes...")
computed = set()
start = time.perf_counter()
with make_executor("pool", max_workers=PROCESSES) as executor:
    results = analyze_genes(
        jobs, seed=1, max_iterations=20,
        policy=policy, journal=JOURNAL, resume=resume,
        on_result=lambda k, res: computed.add(res.gene_id),
        executor=executor,
    )
elapsed = time.perf_counter() - start
resumed_ids = [r.gene_id for r in results if r.gene_id not in computed]

print(f"\n{'gene':<10s} {'lnL0':>12s} {'lnL1':>12s} {'2*delta':>9s} {'p':>10s}  {'truth':<9s} call")
tp = fp = 0
for res in results:
    if res.failed:
        # Structured failure: kind (error/timeout/pool) + attempt count.
        print(f"{res.gene_id:<10s} FAILED [{res.failure.kind}, "
              f"attempt {res.failure.attempts}]: {res.failure.message}")
        continue
    truth = "selected" if res.gene_id in truly_selected else "neutral"
    call = "DETECTED" if res.pvalue < 0.05 else "-"
    if call == "DETECTED":
        tp += truth == "selected"
        fp += truth == "neutral"
    print(f"{res.gene_id:<10s} {res.lnl0:>12.2f} {res.lnl1:>12.2f} "
          f"{res.statistic:>9.3f} {res.pvalue:>10.3g}  {truth:<9s} {call}")

# Numerical self-healing runs in every worker (guarded engines, seeded
# optimizer restarts); whatever fired comes back on each result.
recovery = format_recovery_block([(r.gene_id, r.diagnostics) for r in results], per="gene")
if recovery:
    print("\n" + recovery)

n_sel = len(truly_selected)
print()
print(summarize_results(results, wall_seconds=elapsed, resumed_ids=resumed_ids).format())
print(f"\ndetected {tp}/{n_sel} truly selected genes; {fp} false positives "
      f"among {N_GENES - n_sel} neutral genes (alpha = 0.05, uncorrected)")
if JOURNAL:
    print(f"journal: {JOURNAL} (re-run the same command to resume)")
