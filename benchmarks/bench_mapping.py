"""E-MAPB — batched stochastic mapping: serial-vs-batched wall clock, same bits.

Two claims of the vectorised endpoint-conditioned sampler
(``likelihood/mapping.py``), measured on Table II's dataset iii
(25 taxa, 67 codons) with a marked internal branch:

* **Bit-identity**: the batched sampler is a reordering of the serial
  reference kept as the test oracle (``tests/oracles.py``) — both
  consume the canonical uniform stream in the same order, so their
  expected syn/nonsyn counts (and sample variances) must be *exactly*
  equal, not merely close.  The bench aborts on any bit difference;
  there is no tolerance knob.
* **Speedup**: array-wide categorical draws, shared ``R``-power stacks
  and the ω-merged jump/intermediate stages put the 16-draw mapping at
  BLAS speed.  ``--assert-speedup`` gates CI on the floor (3× quick;
  the PR's acceptance bar is 5× measured in full mode).

Standalone so CI can smoke it::

    PYTHONPATH=src python benchmarks/bench_mapping.py --quick --assert-speedup 3.0
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from harness import format_table, get_dataset, write_result

from repro.core.engine import make_engine
from repro.likelihood.mapping import sample_substitution_mapping
from repro.models.branch_site import BranchSiteModelA
from tests.oracles import sample_mapping_serial

BSA_VALUES = {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}


def _bound_problem(engine_name: str = "slim-v2"):
    """Dataset iii with one internal foreground branch, bound once."""
    dataset = get_dataset("iii")
    tree = dataset.tree.copy()
    internal = next(n for n in tree.nodes if not n.is_root and not n.is_leaf)
    tree.mark_foreground(internal)
    bound = make_engine(engine_name).bind(tree, dataset.alignment, BranchSiteModelA())
    bound.log_likelihood(BSA_VALUES)  # warm decompositions, like a real scan
    return bound


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def compare_methods(bound, n_samples: int, repeats: int):
    """Time both samplers and verify exact equality of their outputs."""
    serial = sample_mapping_serial(bound, BSA_VALUES, n_samples=n_samples, seed=1)
    batched = sample_substitution_mapping(bound, BSA_VALUES, n_samples=n_samples, seed=1)
    identical = (
        np.array_equal(serial.syn, batched.syn)
        and np.array_equal(serial.nonsyn, batched.nonsyn)
        and np.array_equal(serial.syn_var, batched.syn_var)
        and np.array_equal(serial.nonsyn_var, batched.nonsyn_var)
    )
    serial_s = _best_of(
        lambda: sample_mapping_serial(bound, BSA_VALUES, n_samples=n_samples, seed=1),
        repeats,
    )
    batched_s = _best_of(
        lambda: sample_substitution_mapping(
            bound, BSA_VALUES, n_samples=n_samples, seed=1
        ),
        repeats,
    )
    return serial_s, batched_s, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: 16 draws only, fewer timing repeats",
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="fail unless batched beats serial by at least X at 16 draws",
    )
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else 7
    draw_grid = (16,) if args.quick else (4, 16, 64)

    bound = _bound_problem()
    rows, gate_speedup, all_identical = [], None, True
    for n_samples in draw_grid:
        serial_s, batched_s, identical = compare_methods(bound, n_samples, repeats)
        speedup = serial_s / batched_s
        all_identical = all_identical and identical
        if n_samples == 16:
            gate_speedup = speedup
        rows.append(
            [str(n_samples), f"{serial_s * 1e3:.1f} ms", f"{batched_s * 1e3:.1f} ms",
             f"{speedup:.2f}x", "yes" if identical else "NO"]
        )

    table = format_table(
        ["draws", "serial", "batched", "speedup", "bit-identical"],
        rows,
        title=(
            "E-MAPB: endpoint-conditioned mapping on dataset iii "
            f"(25 taxa, 67 codons, slim-v2, best of {repeats})"
        ),
    )
    write_result("E-MAPB_mapping.txt", table)

    if not all_identical:
        print(
            "FATAL: batched sampler diverged bitwise from the serial reference",
            file=sys.stderr,
        )
        return 1
    if args.assert_speedup is not None and gate_speedup < args.assert_speedup:
        print(
            f"FATAL: 16-draw speedup {gate_speedup:.2f}x below the "
            f"acceptance bar {args.assert_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    print(f"16-draw batched-vs-serial speedup: {gate_speedup:.2f}x (bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
