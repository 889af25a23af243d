"""Shared benchmark infrastructure: budgeted fits, speedups, result tables.

The experiment registry (DESIGN.md §3) maps each bench file to a paper
artifact.  This module centralises:

* single-threaded BLAS pinning (the paper compares against sequential
  CodeML, §IV);
* the dataset cache;
* budgeted H0+H1 runs with identical seeds per engine — the paper's
  fixed-seed fairness rule;
* the three §IV-2 speedup flavours (overall ``So``, per-iteration
  ``Si``, combined ``Sc``);
* plain-text result tables mirroring the paper's layout, written to
  ``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# Pin BLAS threads *before* numpy spins up its pools: the paper builds
# GotoBLAS2 single-threaded for a fair comparison with sequential CodeML.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from repro.core.engine import make_engine  # noqa: E402
from repro.datasets import Dataset, make_dataset, species_sweep_dataset  # noqa: E402
from repro.models.branch_site import BranchSiteModelA  # noqa: E402
from repro.optimize.lrt import likelihood_ratio_test  # noqa: E402
from repro.optimize.ml import BranchSiteTest, fit_model  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

# The reference implementations the bit-identity gates compare against
# live in the test suite (``tests/oracles.py``).
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)

#: Optimizer iteration budgets per hypothesis for the Table III runs.
#: Fixed budgets make per-iteration comparisons exact; dataset i is
#: additionally run to convergence by the accuracy bench.
TABLE3_BUDGETS: Dict[str, int] = {"i": 6, "ii": 2, "iii": 3, "iv": 1}

#: Engines entering the headline comparison.  ``codeml`` is the paper's
#: comparator, ``slim`` the evaluated SlimCodeML prototype, ``slim-v2``
#: the paper's described-but-unevaluated follow-up (Eq. 12-13 + §III-B).
ENGINES = ("codeml", "slim", "slim-v2")

#: The fixed seed shared by every engine (paper §IV).
SEED = 1


_dataset_cache: Dict[str, Dataset] = {}


def get_dataset(name: str) -> Dataset:
    """Cached Table II dataset (generation is seeded, so cache is safe)."""
    if name not in _dataset_cache:
        _dataset_cache[name] = make_dataset(name)
    return _dataset_cache[name]


def get_sweep_dataset(n_species: int) -> Dataset:
    key = f"iv-{n_species}"
    if key not in _dataset_cache:
        _dataset_cache[key] = species_sweep_dataset(n_species)
    return _dataset_cache[key]


@dataclass
class RunRecord:
    """One engine × dataset × (H0+H1) run for the result tables."""

    dataset: str
    engine: str
    runtime_h0: float
    runtime_h1: float
    iterations_h0: int
    iterations_h1: int
    evaluations_h0: int
    evaluations_h1: int
    lnl_h0: float
    lnl_h1: float

    @property
    def runtime_combined(self) -> float:
        return self.runtime_h0 + self.runtime_h1

    @property
    def iterations_combined(self) -> int:
        return self.iterations_h0 + self.iterations_h1


@dataclass
class ResultsStore:
    """Session-wide registry the table benches fill and read."""

    table3: Dict[tuple, RunRecord] = field(default_factory=dict)
    convergence: Dict[tuple, RunRecord] = field(default_factory=dict)
    fig3: Dict[tuple, dict] = field(default_factory=dict)

    def add_table3(self, record: RunRecord) -> None:
        self.table3[(record.dataset, record.engine)] = record


def run_budgeted_test(
    dataset: Dataset, engine_name: str, max_iterations: int, seed: int = SEED
) -> BranchSiteTest:
    """One full H0+H1 branch-site analysis under an iteration budget.

    H0 and H1 are fitted as *independent* runs from their own seeded
    start values — exactly how the paper's Table III was produced (two
    CodeML invocations with ``fix_omega`` 1/0).  The production API's
    warm start + degenerate-H1 retry (``fit_branch_site_test``) is
    deliberately not used here: retries make the amount of optimizer
    work engine-dependent on knife-edge convergence, which would
    contaminate the fixed-budget comparison.
    """
    engine = make_engine(engine_name)
    h0 = fit_model(
        engine.bind(dataset.tree, dataset.alignment, BranchSiteModelA(fix_omega2=True)),
        seed=seed,
        max_iterations=max_iterations,
    )
    h1 = fit_model(
        engine.bind(dataset.tree, dataset.alignment, BranchSiteModelA(fix_omega2=False)),
        seed=seed,
        max_iterations=max_iterations,
    )
    return BranchSiteTest(h0=h0, h1=h1, lrt=likelihood_ratio_test(h0.lnl, h1.lnl))


def record_from_test(dataset: str, engine: str, test: BranchSiteTest) -> RunRecord:
    return RunRecord(
        dataset=dataset,
        engine=engine,
        runtime_h0=test.h0.runtime_seconds,
        runtime_h1=test.h1.runtime_seconds,
        iterations_h0=test.h0.n_iterations,
        iterations_h1=test.h1.n_iterations,
        evaluations_h0=test.h0.n_evaluations,
        evaluations_h1=test.h1.n_evaluations,
        lnl_h0=test.h0.lnl,
        lnl_h1=test.h1.lnl,
    )


# ----------------------------------------------------------------------
# §IV-2 speedup flavours (formulas unit-tested in repro.utils.speedups)
# ----------------------------------------------------------------------
from repro.utils.speedups import (  # noqa: E402
    overall_speedup as _so,
    per_iteration_speedup as _si,
)


def overall_speedup(reference: RunRecord, optimized: RunRecord, hypothesis: str) -> float:
    """``So = St1 / St2`` for one hypothesis ("h0" or "h1")."""
    return _so(
        getattr(reference, f"runtime_{hypothesis}"),
        getattr(optimized, f"runtime_{hypothesis}"),
    )


def per_iteration_speedup(reference: RunRecord, optimized: RunRecord, hypothesis: str) -> float:
    """``Si``: runtimes normalised by their iteration counts."""
    return _si(
        getattr(reference, f"runtime_{hypothesis}"),
        getattr(reference, f"iterations_{hypothesis}"),
        getattr(optimized, f"runtime_{hypothesis}"),
        getattr(optimized, f"iterations_{hypothesis}"),
    )


def combined_speedup(reference: RunRecord, optimized: RunRecord) -> float:
    """``Sc``: H0+H1 runtimes combined."""
    return _so(reference.runtime_combined, optimized.runtime_combined)


def per_iteration_combined_speedup(reference: RunRecord, optimized: RunRecord) -> float:
    return _si(
        reference.runtime_combined,
        reference.iterations_combined,
        optimized.runtime_combined,
        optimized.iterations_combined,
    )


# ----------------------------------------------------------------------
# Result table output
# ----------------------------------------------------------------------
def write_result(name: str, text: str) -> Path:
    """Write one experiment's table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    path.write_text(f"# generated {stamp}\n{text}\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


def format_table(headers: List[str], rows: List[List[str]], title: str = "") -> str:
    widths = [
        max(len(str(headers[c])), *(len(str(r[c])) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(cell).rjust(widths[c]) for c, cell in enumerate(row))
    lines = ([title] if title else []) + [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)
