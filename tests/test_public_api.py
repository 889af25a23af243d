"""Every name a package exports through ``__all__`` resolves.

A deleted function whose re-export stays behind in an ``__init__``
breaks ``from repro.<pkg> import *`` and every caller of that name;
this catches it at the package, not at the first user.
"""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.alignment",
    "repro.codon",
    "repro.core",
    "repro.io",
    "repro.likelihood",
    "repro.models",
    "repro.optimize",
    "repro.parallel",
    "repro.trees",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_cli_import_loads_no_scipy_stats_or_optimize():
    """``import repro.cli`` stays at the numpy + ``scipy.linalg`` floor.

    ``scipy.stats`` alone costs more than the rest of a CLI process's
    imports together, and every scan worker and survey job pays it once;
    a fresh interpreter is the only place where that cost shows.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


REMOVED_IO_NAMES = [
    "fit_to_dict",
    "fit_from_dict",
    "branch_site_test_to_dict",
    "branch_site_test_from_dict",
    "write_json_result",
    "read_json_result",
    "write_report",
    "write_survey_report",
]


@pytest.mark.parametrize("module_name", ["repro.io", "repro.io.results_io", "repro.io.report"])
def test_journal_is_the_only_result_archive(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED_IO_NAMES if hasattr(module, name)] == []


@pytest.mark.parametrize("removed", ["in_process", "max_workers", "processes"])
def test_batch_runners_take_only_an_executor(removed):
    """Where a batch runs is chosen by the executor the caller hands in."""
    from repro.parallel.batch import analyze_genes, scan_branches
    from repro.parallel.executors import make_executor
    from repro.parallel.faults import run_tasks
    from repro.trees.newick import parse_newick

    option = {removed: 1}
    with make_executor("inline") as executor:
        with pytest.raises(TypeError, match=removed):
            run_tasks(print, [], executor, **option)
    with pytest.raises(TypeError, match=removed):
        analyze_genes([], **option)
    with pytest.raises(TypeError, match=removed):
        scan_branches("g", parse_newick("(A:0.1,B:0.1);"), None, **option)


REMOVED_MODEL_NAMES = [
    "M1aModel",
    "M2aModel",
    "TwoRatioModel",
    "SitesTest",
    "fit_sites_test",
    "SharingEdge",
    "read_fasta",
    "read_phylip",
]


@pytest.mark.parametrize(
    "module_name", ["repro", "repro.models", "repro.optimize", "repro.alignment"]
)
def test_branch_site_is_the_only_model_layer(module_name):
    """The models and readers no user path reached are gone."""
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED_MODEL_NAMES if hasattr(module, name)] == []


@pytest.mark.parametrize("removed", ["dirty", "on_reuse"])
def test_prune_takes_its_rows_from_the_plan(removed):
    """The level driver recomputes exactly the rows it is handed.

    Which rows a pass recomputes is derived once, by
    ``compute_recompute_rows``; the driver keeps no dirty-path
    recurrence or reuse callback of its own.
    """
    import numpy as np

    from repro.core.engine import prune_site_class_batched
    from repro.core.recovery import PruningGuard
    from repro.likelihood.pruning import PruningState, build_level_schedule

    rows = [(0, 2, 0.1, False), (1, 2, 0.1, False)]
    with pytest.raises(TypeError, match=removed):
        prune_site_class_batched(
            rows, build_level_schedule(rows, 3), [np.ones((61, 1))] * 2,
            lambda t, fg: None, lambda items: [], PruningState.empty(3),
            PruningGuard(), **{removed: None},
        )
