#!/usr/bin/env python
"""Selectome-style branch scan: test every branch of one gene in turn.

The paper's motivation (§I-A): the branch-site test "is done iteratively
for each branch of a phylogenetic tree".  This example simulates a gene
whose true foreground is known, then scans every internal branch as a
candidate foreground and reports the per-branch LRT — the inner loop of
a Selectome-style analysis.

Run:  python examples/branch_scan.py
"""

from repro import BranchSiteModelA, parse_newick, simulate_alignment, write_newick
from repro.parallel.batch import scan_branches
from repro.parallel.executors import make_executor

# A 8-species gene; the true foreground is the stem of the (A,B,C) clade.
tree = parse_newick(
    "(((A:0.1,B:0.12):0.08,C:0.2):0.25 #1,((D:0.1,E:0.1):0.1,F:0.15):0.1,(G:0.2,H:0.2):0.1);"
)
truth = {"kappa": 2.0, "omega0": 0.08, "omega2": 8.0, "p0": 0.5, "p1": 0.25}
sim = simulate_alignment(tree, BranchSiteModelA(), truth, n_codons=200, seed=7)

true_fg = tree.require_single_foreground()
print("gene tree:", write_newick(tree, lengths=False))
print(f"true foreground branch: node#{true_fg.index} "
      f"(ancestor of {[l.name for l in true_fg.postorder() if l.is_leaf]})\n")

print("scanning all internal branches (this re-fits H0+H1 per branch)...")
# "inline" runs the branches one after another in this process;
# make_executor("pool") fans them out over every core.
with make_executor("inline") as executor:
    scan = scan_branches(
        "demo-gene",
        tree,
        sim.alignment,
        internal_only=True,
        seed=3,
        max_iterations=25,
        executor=executor,
    )

# A scan never raises for one bad branch: successes land in
# scan.by_branch, failures as structured records in scan.failures.
# Callers wanting the old fail-fast contract chain .raise_on_failure().
if not scan.ok:
    print(f"\n{len(scan.failures)} branch task(s) failed:")
    for label, failure in sorted(scan.failures.items()):
        print(f"  {label}: {failure.describe()}")

print(f"\n{'branch':<12s} {'2*delta':>9s} {'p (chi2_1)':>12s}  verdict")
for label, lrt in sorted(scan.by_branch.items(), key=lambda kv: kv[1].pvalue_chi2):
    verdict = "**SELECTED**" if lrt.significant() else ""
    print(f"{label:<12s} {lrt.statistic:>9.3f} {lrt.pvalue_chi2:>12.4g}  {verdict}")

print("\n" + scan.summary().format())

significant = scan.significant_branches()
print(f"\nbranches significant at 5% (uncorrected): {significant}")
print(f"true foreground was node#{true_fg.index} — "
      + ("recovered!" if f"node#{true_fg.index}" in significant else "not recovered "
         "(short alignment: run with more codons for more power)"))
