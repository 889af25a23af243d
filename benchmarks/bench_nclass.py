"""E-NC — N-class site-class graph: operator dedupe as classes grow.

Two claims of the site-class-graph refactor, measured on one dataset:

* **Bit-identity**: the 4-class branch-site model A expressed as
  ``bsrel:2`` through the generic graph path yields *exactly* the
  model-A log-likelihood (float equality) — checked at fixed values and
  after a budgeted fit; any mismatch aborts the run.
* **Operator dedupe**: of the transition operators a per-class-naive
  evaluator would build (each class building every (ω, t) operator its
  own pruning pass touches), the graph-edge ledger actually builds a
  fraction — selected classes alias their base class's background
  decompositions, so the saved fraction ``1 − builds/naive`` grows with
  the class count and must stay ≥ the acceptance bar (30 %).

Standalone so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_nclass.py --quick --assert-dedupe 0.3
"""

from __future__ import annotations

import argparse
import sys
import time

from harness import SEED, format_table, get_dataset, write_result

from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.models.bsrel import BSRELModel
from repro.optimize.ml import fit_model
from tests.oracles import reference_log_likelihood


def check_model_a_identity(dataset, engine_name: str, budget: int) -> None:
    """Abort unless bsrel:2 ≡ model A, at fixed values and after a fit."""
    values_a = {"kappa": 2.2, "omega0": 0.25, "omega2": 3.0, "p0": 0.5, "p1": 0.3}
    values_b = {"kappa": 2.2, "omega1": 0.25, "omega_fg": 3.0, "p1": 0.5, "p2": 0.3}
    evaluators = {
        "per-branch oracle": reference_log_likelihood,
        "level-order": lambda bound, values: bound.log_likelihood(values),
    }
    for path, evaluate in evaluators.items():
        bound_a = make_engine(engine_name).bind(
            dataset.tree, dataset.alignment, BranchSiteModelA()
        )
        bound_b = make_engine(engine_name).bind(
            dataset.tree, dataset.alignment, BSRELModel(2)
        )
        lnl_a = evaluate(bound_a, values_a)
        lnl_b = evaluate(bound_b, values_b)
        if lnl_a != lnl_b:
            raise SystemExit(
                f"FATAL: bsrel:2 is not bit-identical to model A "
                f"({path}): {lnl_a!r} vs {lnl_b!r}"
            )
    fit_a = fit_model(
        make_engine(engine_name).bind(dataset.tree, dataset.alignment, BranchSiteModelA()),
        seed=SEED, max_iterations=budget, start_values=values_a,
    )
    fit_b = fit_model(
        make_engine(engine_name).bind(dataset.tree, dataset.alignment, BSRELModel(2)),
        seed=SEED, max_iterations=budget, start_values=values_b,
    )
    if fit_a.lnl != fit_b.lnl:
        raise SystemExit(
            f"FATAL: fitted bsrel:2 diverged from fitted model A: "
            f"{fit_a.lnl!r} vs {fit_b.lnl!r}"
        )


def run_nclass(dataset, engine_name: str, k: int, budget: int):
    """Budgeted H1 fit of the 2K-class BS-REL model.

    Returns ``(n_classes, builds, naive, dedupe_fraction, lnl, wall)``
    with the dedupe fraction measured against the per-class-independent
    baseline counter the engine maintains alongside its real ledger.
    """
    engine = make_engine(engine_name)
    model = BSRELModel(k)
    wall = time.perf_counter()
    fit = fit_model(
        engine.bind(dataset.tree, dataset.alignment, model),
        seed=SEED,
        max_iterations=budget,
    )
    wall = time.perf_counter() - wall
    builds = engine.counters["operator_builds"]
    naive = engine.counters["operator_builds_naive"]
    dedupe = 1.0 - builds / naive if naive else 0.0
    return 2 * k, builds, naive, dedupe, fit.lnl, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: K in {2, 3}, iteration budget 2",
    )
    parser.add_argument(
        "--dataset", default="iii", choices=["i", "ii", "iii", "iv"],
        help="Table II dataset (default iii: 25 species, the branch-rich case)",
    )
    parser.add_argument(
        "--engine", default="slim-v2", choices=["codeml", "slim", "slim-v2"],
        help="engine carrying the batched operator ledger (default slim-v2)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="optimizer iteration budget (default 3; 2 in --quick)",
    )
    parser.add_argument(
        "--classes", type=int, nargs="*", default=None, metavar="K",
        help="base-class counts to sweep (default 2 3 4; 2 3 in --quick)",
    )
    parser.add_argument(
        "--assert-dedupe", type=float, default=None, metavar="FRACTION",
        help="exit non-zero unless every K's operator-dedupe fraction "
             "is at least FRACTION (acceptance bar: 0.3)",
    )
    args = parser.parse_args(argv)

    budget = args.iterations if args.iterations is not None else (2 if args.quick else 3)
    ks = args.classes if args.classes else ([2, 3] if args.quick else [2, 3, 4])
    dataset = get_dataset(args.dataset)

    check_model_a_identity(dataset, args.engine, budget)
    print("model-A bit-identity through the graph path: OK", file=sys.stderr)

    rows = []
    worst = float("inf")
    for k in ks:
        n_classes, builds, naive, dedupe, lnl, wall = run_nclass(
            dataset, args.engine, k, budget
        )
        worst = min(worst, dedupe)
        rows.append([
            f"bsrel:{k}",
            str(n_classes),
            str(builds),
            str(naive),
            f"{100.0 * dedupe:.1f}%",
            f"{lnl:.4f}",
            f"{wall:.2f}",
        ])

    table = format_table(
        [
            "model", "classes", "operator builds", "naive builds",
            "dedupe", "lnL (H1)", "wall (s)",
        ],
        rows,
        title=(
            f"E-NC N-class operator dedupe — dataset {args.dataset} "
            f"({dataset.tree.n_leaves} species, {dataset.alignment.n_codons} codons), "
            f"engine {args.engine}, budget {budget} iterations, seed {SEED}"
        ),
    )
    if args.quick:
        print(table)
    else:
        write_result("E-NC_nclass.txt", table)

    if args.assert_dedupe is not None and worst < args.assert_dedupe:
        print(
            f"FAIL: operator-dedupe fraction {worst:.3f} is below the "
            f"required {args.assert_dedupe:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
