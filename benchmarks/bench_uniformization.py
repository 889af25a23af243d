"""E-UNI — uniformized kernel (rung 4): accuracy vs rung, cost, mapping overhead.

Three claims of the expm-free transition kernel, measured on the 61-state
codon chain:

* **Accuracy**: across the acceptance grid ω ∈ {1e-4, 1, 50, 500} ×
  t ∈ {1e-8, 1, 10, 100}, the uniformized ``P(t)`` stays within the
  acceptance bar of the ``scipy.linalg.expm`` reference (and the table
  records the spectral rung's deviation next to it, plus the series
  terms and squarings the Poisson truncation chose).
* **Cost**: per-call wall time for the spectral ``dsyrk`` path, scipy's
  Padé, and the uniformized series — rung 4 is the slowest rung and the
  table quantifies by how much, which is why it sits last on the ladder.
* **Mapping overhead**: the exact expected substitution counts
  (``scan --map``) cost a bounded multiple of one plain likelihood
  evaluation on the same bound problem.

Standalone so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_uniformization.py --quick --assert-accuracy 1e-10
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import numpy as np

from harness import format_table, write_result

from repro.alignment.simulate import simulate_alignment
from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import decompose
from repro.core.engine import make_engine
from repro.core.expm import transition_matrix_scipy, transition_matrix_syrk
from repro.core.uniformization import UniformizedOperator
from repro.likelihood.mapping import substitution_mapping
from repro.models.m0 import M0Model
from repro.trees.newick import parse_newick

OMEGAS = (1e-4, 1.0, 50.0, 500.0)
TIMES = (1e-8, 1.0, 10.0, 100.0)
M0_VALUES = {"kappa": 2.0, "omega": 0.5}


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def accuracy_grid():
    """Per-cell deviation of the evr and uniformization rungs vs expm."""
    rng = np.random.default_rng(17)
    pi = rng.dirichlet(np.full(61, 5.0))
    rows, worst = [], 0.0
    for omega in OMEGAS:
        matrix = build_rate_matrix(2.2, omega, pi)
        decomp = decompose(matrix)
        uni = UniformizedOperator(matrix.q, pi)
        for t in TIMES:
            reference = transition_matrix_scipy(matrix.q, t)
            dev_evr = float(np.abs(transition_matrix_syrk(decomp, t) - reference).max())
            dev_uni = float(np.abs(uni.transition_matrix(t) - reference).max())
            terms, squarings = uni.terms_for(t)
            rows.append(
                [f"{omega:g}", f"{t:g}", f"{dev_evr:.2e}", f"{dev_uni:.2e}",
                 str(terms), str(squarings)]
            )
            worst = max(worst, dev_uni)
    return rows, worst


def kernel_timings(repeats: int):
    """Median per-call cost of each rung's P(t) at a routine branch length."""
    rng = np.random.default_rng(17)
    pi = rng.dirichlet(np.full(61, 5.0))
    matrix = build_rate_matrix(2.2, 0.3, pi)
    decomp = decompose(matrix)
    uni = UniformizedOperator(matrix.q, pi)
    t = 0.12
    uni.transition_matrix(t)  # warm the power cache once, like the engine does
    rows = []
    for label, fn in (
        ("evr (dsyrk, Eq. 10)", lambda: transition_matrix_syrk(decomp, t)),
        ("pade (scipy expm)", lambda: transition_matrix_scipy(matrix.q, t)),
        ("uniformization (rung 4)", lambda: uni.transition_matrix(t)),
    ):
        rows.append([label, f"{_median_seconds(fn, repeats) * 1e3:.3f} ms"])
    return rows


def mapping_overhead(repeats: int):
    """Wall-clock of scan --map's exact counts relative to one lnL evaluation.

    The mapping alternates between two points, so that every call
    evaluates its point first, as the survey mapper does per candidate.
    """
    tree = parse_newick("((A:0.05,B:0.05):0.05,(C:0.05,D:0.05):0.05,E:0.08);")
    sim = simulate_alignment(tree, M0Model(), M0_VALUES, 60, seed=17)
    bound = make_engine("slim").bind(tree, sim.alignment, M0Model())
    bound.log_likelihood(M0_VALUES)
    lnl_s = _median_seconds(lambda: bound.log_likelihood(M0_VALUES), repeats)
    points = itertools.cycle([dict(M0_VALUES, omega=0.6), M0_VALUES])
    map_s = _median_seconds(lambda: substitution_mapping(bound, next(points)), repeats)
    return lnl_s, map_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: fewer timing repeats, skip nothing that gates",
    )
    parser.add_argument(
        "--assert-accuracy", type=float, default=None, metavar="TOL",
        help="fail unless every grid cell's uniformized P(t) is within TOL of expm",
    )
    args = parser.parse_args(argv)
    repeats = 5 if args.quick else 25

    grid_rows, worst = accuracy_grid()
    grid_table = format_table(
        ["omega", "t", "dev evr", "dev uniformization", "terms", "squarings"],
        grid_rows,
        title="E-UNI: |P(t) - expm| per rung on the acceptance grid, n = 61",
    )

    timing_rows = kernel_timings(repeats)
    timing_table = format_table(
        ["kernel", "median/call"],
        timing_rows,
        title=f"E-UNI: per-call P(t) cost at t = 0.12 ({repeats} repeats)",
    )

    lnl_s, map_s = mapping_overhead(repeats)
    overhead_table = format_table(
        ["workload", "median", "x lnL"],
        [
            ["one lnL evaluation (M0, 5 taxa, 60 codons)", f"{lnl_s * 1e3:.2f} ms", "1.0"],
            ["exact mapping (evaluation included)", f"{map_s * 1e3:.2f} ms",
             f"{map_s / lnl_s:.1f}"],
        ],
        title="E-UNI: scan --map overhead vs a plain likelihood evaluation",
    )

    write_result(
        "E-UNI_uniformization.txt",
        "\n\n".join([grid_table, timing_table, overhead_table]),
    )

    if args.assert_accuracy is not None and worst > args.assert_accuracy:
        print(
            f"FATAL: worst uniformized deviation {worst:.3e} exceeds the "
            f"acceptance bar {args.assert_accuracy:.1e}",
            file=sys.stderr,
        )
        return 1
    print(f"worst uniformized deviation across the grid: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
