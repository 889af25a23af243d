"""E-INC — incremental likelihood evaluation: dirty-path CLV caching.

Measures what the incremental layer buys during a real branch-site fit:
for each engine the same budgeted H0+H1 analysis runs twice — seed path
(full re-pruning every evaluation) and incremental path (persistent
per-class CLV buffers, cross-class subtree sharing, hinted gradient
probes) — and the table reports

* branch propagations total and per optimizer iteration,
* the propagate-call reduction factor (the acceptance bar is ≥ 2×),
* wall clock for both paths,
* the log-likelihoods, which must be *bit-identical* (exact float
  equality) or the run aborts.

Standalone so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_incremental.py --quick --assert-reduction 2.0
"""

from __future__ import annotations

import argparse
import sys
import time

from harness import SEED, format_table, get_dataset, write_result

from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.optimize.ml import fit_model

ENGINES = ("codeml", "slim", "slim-v2")


def run_pair(dataset, engine_name: str, budget: int, incremental: bool):
    """Budgeted independent H0+H1 fits (harness Table III protocol),
    returning (lnl0, lnl1, iterations, propagations, reuses, wall)."""
    engine = make_engine(engine_name)
    wall = time.perf_counter()
    h0 = fit_model(
        engine.bind(
            dataset.tree, dataset.alignment, BranchSiteModelA(fix_omega2=True),
            incremental=incremental,
        ),
        seed=SEED,
        max_iterations=budget,
    )
    h1 = fit_model(
        engine.bind(
            dataset.tree, dataset.alignment, BranchSiteModelA(fix_omega2=False),
            incremental=incremental,
        ),
        seed=SEED,
        max_iterations=budget,
    )
    wall = time.perf_counter() - wall
    iterations = h0.n_iterations + h1.n_iterations
    counters = engine.counters
    return (h0.lnl, h1.lnl, iterations, counters["clv_propagations"],
            counters["clv_reuses"], wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: slim engine only, iteration budget 2",
    )
    parser.add_argument(
        "--dataset", default="iii", choices=["i", "ii", "iii", "iv"],
        help="Table II dataset (default iii: 25 species, the branch-rich case)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="optimizer iteration budget per hypothesis (default 3; 2 in --quick)",
    )
    parser.add_argument(
        "--assert-reduction", type=float, default=None, metavar="FACTOR",
        help="exit non-zero unless every engine's propagate-call "
             "reduction is at least FACTOR",
    )
    args = parser.parse_args(argv)

    budget = args.iterations if args.iterations is not None else (2 if args.quick else 3)
    engines = ("slim",) if args.quick else ENGINES
    dataset = get_dataset(args.dataset)

    rows = []
    worst_reduction = float("inf")
    for name in engines:
        lnl0_f, lnl1_f, iters_f, props_f, _, wall_f = run_pair(
            dataset, name, budget, incremental=False
        )
        lnl0_i, lnl1_i, iters_i, props_i, reuses, wall_i = run_pair(
            dataset, name, budget, incremental=True
        )
        if (lnl0_f, lnl1_f) != (lnl0_i, lnl1_i):
            print(
                f"FATAL: {name} incremental run is not bit-identical: "
                f"H0 {lnl0_f!r} vs {lnl0_i!r}, H1 {lnl1_f!r} vs {lnl1_i!r}",
                file=sys.stderr,
            )
            return 1
        if iters_f != iters_i:
            print(
                f"FATAL: {name} iteration counts diverged ({iters_f} vs {iters_i})",
                file=sys.stderr,
            )
            return 1
        reduction = props_f / props_i if props_i else float("inf")
        worst_reduction = min(worst_reduction, reduction)
        rows.append([
            name,
            str(props_f),
            str(props_i),
            f"{props_f / max(1, iters_f):.0f}",
            f"{props_i / max(1, iters_i):.0f}",
            f"{reduction:.2f}x",
            f"{100.0 * reuses / (props_i + reuses):.1f}%",
            f"{wall_f:.2f}",
            f"{wall_i:.2f}",
            f"{wall_f / wall_i:.2f}x",
            "yes",
        ])

    table = format_table(
        [
            "engine", "props full", "props inc", "per-iter full", "per-iter inc",
            "reduction", "clv reuse", "wall full (s)", "wall inc (s)",
            "wall speedup", "bit-identical",
        ],
        rows,
        title=(
            f"E-INC incremental evaluation — dataset {args.dataset} "
            f"({dataset.tree.n_leaves} species, {dataset.alignment.n_codons} codons), "
            f"H0+H1 budget {budget} iterations/hypothesis, seed {SEED}"
        ),
    )
    if args.quick:
        print(table)
    else:
        write_result("E-INC_incremental.txt", table)

    if args.assert_reduction is not None and worst_reduction < args.assert_reduction:
        print(
            f"FAIL: propagate-call reduction {worst_reduction:.2f}x is below "
            f"the required {args.assert_reduction:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
