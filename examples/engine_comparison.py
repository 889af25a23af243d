#!/usr/bin/env python
"""Reproduce the paper's headline comparison on your own machine.

Runs one budgeted H0+H1 branch-site analysis per engine on a Table II
stand-in dataset and prints the §IV-2 speedups plus the §IV-1 accuracy
metric D — a miniature of Tables III/IV.  Also breaks an evaluation
down into eigendecomposition / matrix-exponential / CLV phases, showing
*where* each engine spends its time (the paper's profile-first story).

Run:  python examples/engine_comparison.py [dataset_id] [iterations]
      dataset_id in {i, ii, iii, iv}; default iii.
"""

import os
import sys

# Fair single-core comparison, as in the paper's evaluation setup (§IV).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from repro import BranchSiteModelA, make_dataset, relative_difference  # noqa: E402
from repro.core.engine import make_engine  # noqa: E402
from repro.optimize.ml import fit_branch_site_test  # noqa: E402

DATASET = sys.argv[1] if len(sys.argv) > 1 else "iii"
ITERATIONS = int(sys.argv[2]) if len(sys.argv) > 2 else 3

print(f"generating Table II stand-in dataset {DATASET!r}...")
ds = make_dataset(DATASET)
print(f"  {ds.spec.n_species} species x {ds.spec.n_codons} codons, "
      f"{ds.tree.n_branches} branches\n")

runs = {}
for name in ("codeml", "slim", "slim-v2"):
    print(f"running {name} (H0 + H1, {ITERATIONS} iterations each)...")
    engine = make_engine(name)
    test = fit_branch_site_test(
        lambda m: engine.bind(ds.tree, ds.alignment, m),
        seed=1,
        max_iterations=ITERATIONS,
    )
    runs[name] = (test, engine.counters)

ref_test, _ = runs["codeml"]
print(f"\n{'engine':<10s} {'runtime (s)':>12s} {'speedup':>8s} {'lnL H1':>14s} {'D vs codeml':>12s}")
for name, (test, _) in runs.items():
    speedup = ref_test.combined_runtime / test.combined_runtime
    d = relative_difference(ref_test.h1.lnl, test.h1.lnl)
    print(f"{name:<10s} {test.combined_runtime:>12.2f} {speedup:>7.2f}x "
          f"{test.h1.lnl:>14.4f} {d:>12.2e}")

print("\nTime breakdown per engine (accumulated over both fits):")
for name, (_, counters) in runs.items():
    eigh, expm, clv = counters["eigh_s"], counters["expm_s"], counters["clv_s"]
    total = eigh + expm + clv
    print(f"  {name:<10s} eigh {eigh:6.2f}s ({eigh/total:5.1%})  "
          f"expm {expm:6.2f}s ({expm/total:5.1%})  "
          f"clv {clv:6.2f}s ({clv/total:5.1%})")

print("\nReading: 'slim' is the paper's evaluated prototype (dsyrk expm + "
      "per-site dgemv);\n'slim-v2' adds the Eq. 12-13 symmetric propagation "
      "and the §III-B BLAS-3 bundling the paper lists as follow-up work.")
