"""``slimcodeml`` command-line interface.

Mirrors CodeML's workflow: a control file (or direct flags) names the
sequence file, the tree file with its ``#1`` foreground mark, and the
options; the run fits H0 and H1 of branch-site model A, performs the
LRT, optionally computes BEB site probabilities, and writes an
``mlc``-style report.

Subcommands
-----------
``run``        one branch-site analysis (H0 + H1 + LRT [+ BEB])
``scan``       fault-tolerant branch scan of one gene (journal/resume),
               over an in-process, process-pool or socket executor
``worker``     serve tasks to a ``scan --executor socket`` on any host
``simulate``   generate a synthetic dataset (tree + alignment)
``datasets``   materialise the Table II stand-in datasets to disk

``run`` and ``scan`` always use the slim-v2 engine; the paper's engine
comparison is ``examples/engine_comparison.py`` and ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.alignment.parsers import read_alignment, write_phylip
from repro.alignment.patterns import compress_patterns
from repro.codon.frequencies import estimate_codon_frequencies
from repro.core.engine import PIPELINE_ENGINE, make_engine
from repro.io.ctl import ControlFile, parse_ctl
from repro.io.report import convergence_mark, format_recovery_block, format_report
from repro.optimize.beb import beb_site_probabilities
from repro.optimize.ml import fit_branch_site_test
from repro.trees.newick import parse_newick, write_newick

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimcodeml",
        description="SlimCodeML reproduction: branch-site test for positive selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the H0+H1 branch-site analysis")
    run.add_argument("--ctl", help="CodeML-style control file")
    run.add_argument("--seqfile", help="alignment (PHYLIP or FASTA)")
    run.add_argument("--treefile", help="Newick tree with #1 foreground mark")
    run.add_argument("--out", default="-", help="report destination ('-' = stdout)")
    run.add_argument("--seed", type=int, default=None, help="start-value seed")
    run.add_argument("--max-iterations", type=int, default=None)
    run.add_argument("--beb", action="store_true", help="compute BEB site probabilities")
    run.add_argument(
        "--map", action="store_true",
        help="report the posterior expected syn/nonsyn substitution "
             "counts at the H1 MLEs (exact, per branch and per foreground "
             "site) next to the BEB sites",
    )
    run.add_argument("--cleandata", action="store_true", help="drop columns with gaps")

    scan = sub.add_parser(
        "scan",
        help="test every candidate branch of one gene (fault-tolerant, resumable)",
    )
    scan.add_argument("--seqfile", required=True, help="alignment (PHYLIP or FASTA)")
    scan.add_argument("--treefile", required=True, help="Newick tree (marks are ignored)")
    scan.add_argument("--gene-id", default=None, help="task-id prefix (default: seqfile stem)")
    scan.add_argument("--internal-only", action="store_true",
                      help="scan internal branches only")
    scan.add_argument(
        "--model", default=None,
        help="site-class model spec: 'branch-site-A' (default) or "
             "'bsrel:K' for the 2K-class BS-REL family (e.g. bsrel:3)",
    )
    scan.add_argument(
        "--survey", action="store_true",
        help="emit the all-branches survey report: per-branch LRT with "
             "Holm-corrected p-values (family-wise error control over "
             "the whole scan)",
    )
    scan.add_argument("--alpha", type=float, default=0.05,
                      help="family-wise significance level for --survey")
    scan.add_argument(
        "--map", action="store_true",
        help="per tested branch, report the posterior expected syn/nonsyn "
             "substitution counts at its H1 MLEs (exact, per branch)",
    )
    scan.add_argument("--processes", type=int, default=1,
                      help="worker processes (1 = in-process)")
    scan.add_argument("--seed", type=int, default=1, help="start-value seed")
    scan.add_argument("--max-iterations", type=int, default=50)
    scan.add_argument("--timeout", type=float, default=None,
                      help="per-branch wall-clock budget in seconds (needs --processes > 1)")
    scan.add_argument("--retries", type=int, default=0,
                      help="retries per failed branch task")
    scan.add_argument("--backoff", type=float, default=0.5,
                      help="base retry backoff in seconds (doubles per retry)")
    scan.add_argument("--journal", default=None,
                      help="JSONL checkpoint; finished branches stream here")
    scan.add_argument("--resume", action="store_true",
                      help="skip branches already successful in --journal")
    scan.add_argument("--out", default="-", help="report destination ('-' = stdout)")
    scan.add_argument("--quiet", action="store_true", help="suppress per-branch progress")
    scan.add_argument(
        "--executor", default=None, choices=["inline", "pool", "socket"],
        help="execution substrate (default: inline for --processes 1, else pool)",
    )
    scan.add_argument("--bind", default="127.0.0.1:0",
                      help="host:port the socket executor listens on "
                           "(port 0 = ephemeral, printed at startup)")
    scan.add_argument("--min-workers", type=int, default=1,
                      help="socket executor: workers to wait for before scanning")
    scan.add_argument("--worker-wait", type=float, default=30.0,
                      help="socket executor: seconds to wait for --min-workers")

    wrk = sub.add_parser(
        "worker",
        help="serve scan tasks from a 'scan --executor socket' coordinator",
    )
    wrk.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="coordinator address (the scan's --bind)")
    wrk.add_argument("--name", default=None, help="worker identity in scan metrics")
    wrk.add_argument("--idle-timeout", type=float, default=60.0,
                     help="exit after this many seconds of coordinator "
                          "silence (the coordinator pings every ~2s while "
                          "idle; 0 waits forever)")
    wrk.add_argument("--max-tasks", type=int, default=None,
                     help="exit after this many tasks (default: serve until shutdown)")

    sim = sub.add_parser("simulate", help="simulate a dataset under branch-site model A")
    sim.add_argument("--species", type=int, default=12)
    sim.add_argument("--codons", type=int, default=300)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--omega2", type=float, default=3.0)
    sim.add_argument("--prefix", required=True, help="output prefix (.phy and .nwk written)")

    data = sub.add_parser("datasets", help="write the Table II stand-in datasets")
    data.add_argument("--outdir", required=True)
    data.add_argument(
        "--only", nargs="*", default=None, help="subset of dataset ids (i ii iii iv)"
    )
    return parser


def _read_tree(treefile: str):
    """Parse a Newick tree file (context-managed: no leaked handles)."""
    with open(treefile, encoding="utf-8") as handle:
        return parse_newick(handle.read())


def _cmd_run(args: argparse.Namespace) -> int:
    if args.ctl:
        ctl = parse_ctl(args.ctl)
    else:
        if not (args.seqfile and args.treefile):
            print("error: provide --ctl or both --seqfile and --treefile", file=sys.stderr)
            return 2
        ctl = ControlFile(seqfile=args.seqfile, treefile=args.treefile)
    seqfile = args.seqfile or ctl.seqfile
    treefile = args.treefile or ctl.treefile
    seed = args.seed if args.seed is not None else ctl.seed
    max_iterations = (
        args.max_iterations if args.max_iterations is not None else ctl.max_iterations
    )

    alignment = read_alignment(seqfile)
    if args.cleandata or ctl.cleandata:
        alignment = alignment.drop_incomplete_columns()
    tree = _read_tree(treefile)
    tree.require_single_foreground()

    engine = make_engine(PIPELINE_ENGINE)
    # Compress the patterns and estimate pi once: H0 and H1 bind from them.
    pi = estimate_codon_frequencies(
        alignment.to_sequences(), method=ctl.freq_method, code=engine.code
    )
    patterns = compress_patterns(alignment)
    bindings = []

    def bind(model):
        bindings.append(engine.bind(tree, patterns, model, pi=pi))
        return bindings[-1]

    test = fit_branch_site_test(
        bind,
        seed=seed,
        max_iterations=max_iterations,
        start_overrides={"kappa": ctl.kappa},
        fixed_params={"kappa"} if ctl.fix_kappa else None,
    )
    # --map and --beb read the fit's own H1 binding (its last one).  The
    # count pass goes first: the binding's memo still holds the fit's
    # final evaluation, at the MLEs, so it runs no forward pass.
    h1_bound = bindings[-1]
    sites = mapping = None
    if args.map:
        from repro.likelihood.mapping import substitution_mapping

        mapping = substitution_mapping(
            h1_bound, test.h1.values, branch_lengths=test.h1.branch_lengths
        ).to_payload()
    if args.beb:
        sites = beb_site_probabilities(h1_bound, test.h1.values, test.h1.branch_lengths)

    _write_report(
        format_report(test, tree=tree, sites=sites, dataset_name=seqfile, mapping=mapping),
        args.out,
    )
    return 0


def _write_report(report: str, out: str) -> None:
    """Print ``report``, or write it to ``out`` when that is not ``-``."""
    if out == "-":
        print(report)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(report + "\n")
    print(f"report written to {out}")


def _cmd_scan(args: argparse.Namespace) -> int:
    import math
    import os
    import time

    from repro.models.registry import resolve_model_spec
    from repro.parallel.batch import scan_branches
    from repro.parallel.executors import make_executor
    from repro.parallel.faults import FaultPolicy

    try:
        # Fail a typo'd spec before any work is scheduled.
        model_spec = resolve_model_spec(args.model).spec if args.model else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    alignment = read_alignment(args.seqfile)
    tree = _read_tree(args.treefile)
    gene_id = args.gene_id or os.path.splitext(os.path.basename(args.seqfile))[0]
    policy = FaultPolicy(
        task_timeout=args.timeout,
        max_retries=args.retries,
        retry_backoff=args.backoff,
    )
    kind = args.executor or ("inline" if args.processes == 1 else "pool")
    if args.timeout is not None and kind == "inline":
        print(
            "warning: --timeout needs worker processes (--processes > 1, or "
            "--executor pool/socket); in-process tasks cannot be interrupted "
            "and the timeout will not be enforced",
            file=sys.stderr,
        )
    try:
        bind_host, bind_port = args.bind.rsplit(":", 1)
        executor = make_executor(
            kind,
            max_workers=args.processes,
            bind=bind_host,
            port=int(bind_port),
            min_workers=args.min_workers,
            worker_wait=args.worker_wait,
        )
    except (ValueError, OSError) as exc:
        print(f"error: cannot set up --executor {kind}: {exc}", file=sys.stderr)
        return 2
    if kind == "socket":
        host, port = executor.address
        print(
            f"socket executor listening on {host}:{port} — start workers "
            f"with: slimcodeml worker --connect {host}:{port}",
            file=sys.stderr,
        )
    if args.resume and not args.journal:
        print(
            "warning: --resume has no effect without --journal; "
            "every branch will be recomputed",
            file=sys.stderr,
        )

    n_candidates = sum(
        1 for n in tree.nodes
        if not n.is_root and (not args.internal_only or not n.is_leaf)
    )

    computed_ids = set()

    def progress(k: int, res) -> None:
        # Fires only for tasks actually run this invocation — resumed
        # results are loaded from the journal without passing through.
        computed_ids.add(res.gene_id)
        if args.quiet:
            return
        state = "FAILED" if res.failed else "ok"
        detail = res.failure.describe() if res.failed and res.failure else (
            f"2*delta={res.statistic:.3f} in {res.runtime_seconds:.1f}s"
        )
        print(f"  [{k + 1}/{n_candidates}] {res.gene_id}: {state} ({detail})",
              file=sys.stderr)

    # The tasks' mapping rule: with --survey, every task that can turn
    # out Holm-significant (its raw p is below alpha), else every task.
    map_below = None
    if args.map:
        map_below = args.alpha if args.survey else math.inf
    start = time.perf_counter()
    try:
        with executor:
            scan = scan_branches(
                gene_id,
                tree,
                alignment,
                internal_only=args.internal_only,
                seed=args.seed,
                max_iterations=args.max_iterations,
                policy=policy,
                journal=args.journal,
                resume=args.resume,
                on_result=progress,
                executor=executor,
                model=model_spec,
                map_below=map_below,
            )
    except RuntimeError as exc:
        # e.g. the socket executor never saw its --min-workers register.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    unmapped = []
    if args.map:
        unmapped = _map_scan(args, gene_id, tree, alignment, scan, model_spec, computed_ids)
    wall = time.perf_counter() - start

    resumed = [r.gene_id for r in scan.gene_results if r.gene_id not in computed_ids]

    if args.survey:
        from repro.io.report import format_survey_report

        lines = [format_survey_report(
            scan,
            dataset_name=args.seqfile,
            alpha=args.alpha,
            model_spec=model_spec or "branch-site-A",
        )]
    else:
        lines = [f"branch scan: {gene_id} ({scan.n_candidates} candidate branches)"]
        lines.append("")
        lines.append(f"{'branch':<16s} {'2*delta':>9s} {'p (chi2_1)':>12s}  verdict")
        unconverged = scan.unconverged()
        for label, lrt in sorted(scan.by_branch.items(), key=lambda kv: kv[1].pvalue_chi2):
            verdict = "**SELECTED**" if lrt.significant() else ""
            lines.append(
                f"{label:<16s} {lrt.statistic:>9.3f} {lrt.pvalue_chi2:>12.4g}  {verdict}"
                + convergence_mark(unconverged.get(label, ()))
            )
        for label, failure in sorted(scan.failures.items()):
            lines.append(f"{label:<16s} {'FAILED':>9s}  {failure.describe()}")
    recovery = format_recovery_block(
        [(r.gene_id, r.diagnostics) for r in scan.gene_results], per="branch"
    )
    if recovery:
        lines += ["", recovery]
    mapped = [r for r in scan.gene_results if r.mapping]
    if mapped or unmapped:
        from repro.io.report import format_mapping_block

        lines += ["", "substitution mapping (one pass at each branch's H1 MLEs):"]
        for res in mapped:
            lines.append(f"  {res.gene_id}:")
            lines.append(format_mapping_block(res.mapping, indent="    "))
        if unmapped:
            lines.append(f"  not mapped (no stored H1 MLEs): {', '.join(unmapped)}")
    lines.append("")
    summary = scan.summary(wall_seconds=wall, resumed_ids=resumed)
    if hasattr(executor, "wire_stats"):
        # Counters survive shutdown: report data-plane traffic (bytes per
        # task vs the one-shot broadcast) alongside the compute metrics.
        summary.metrics.update(
            (f"wire_{key}", value) for key, value in executor.wire_stats().items()
        )
    lines.append(summary.format())
    if args.journal:
        lines.append(f"journal    : {args.journal}"
                     + (" (resumed)" if args.resume else ""))
    _write_report("\n".join(lines), args.out)
    return 0 if scan.ok else 1


def _map_scan(args, gene_id, tree, alignment, scan, model_spec, computed_ids):
    """Keep, complete and journal the selected branches' mappings (``--map``).

    Every tested branch is selected, or with ``--survey`` every
    Holm-significant one.  A task this invocation ran (``computed_ids``)
    mapped itself on its own H1 binding when the run's rule picked it: a
    selected task's mapping is kept, an unselected one's dropped.  A
    selected row loaded from the journal without an exact mapping (a run
    interrupted before this upsert, a pre-v11 sampled payload, a journal
    written without ``--map``) is mapped here by
    :func:`~repro.parallel.batch.map_survey_candidates`.  Each row mapped
    by this invocation is re-journalled: ``completed()`` keeps the latest
    successful record per id, so the upsert wins on resume; a row loaded
    with its mapping is not journalled again.  Returns the selected
    labels that could not be mapped (no stored MLEs).
    """
    from repro.io.results_io import ResultJournal
    from repro.parallel.batch import map_survey_candidates

    selected = scan.holm_significant(args.alpha) if args.survey else list(scan.by_branch)
    keep = set(selected)
    prefix = f"{gene_id}:"
    result_of = {res.gene_id: res for res in scan.gene_results}
    fresh = set()
    for task_id in computed_ids:
        res = result_of[task_id]
        if res.mapping is None:
            continue
        if task_id[len(prefix):] in keep:
            fresh.add(task_id)
        else:
            res.mapping = None
    todo = [
        label for label in selected
        if prefix + label not in fresh
        and (result_of[prefix + label].mapping or {}).get("method") != "exact"
    ]
    n = len(fresh) + len(todo)
    if n and not args.quiet:
        kind = "Holm-significant" if args.survey else "tested"
        from_journal = f" ({len(todo)} from the journal, in one pass)" if todo else ""
        print(f"  mapping {n} {kind} branch{'es' if n != 1 else ''}{from_journal}",
              file=sys.stderr)
    payloads = (
        map_survey_candidates(gene_id, tree, alignment, scan, todo, model=model_spec)
        if todo else {}
    )
    for label, payload in payloads.items():
        result_of[prefix + label].mapping = payload
    updated = [
        res for res in scan.gene_results
        if res.gene_id in fresh or res.gene_id[len(prefix):] in payloads
    ]
    if args.journal and updated:
        with ResultJournal(args.journal) as sink:
            for res in updated:
                sink.append(res)
    unmapped = [label for label in todo if label not in payloads]
    if unmapped:
        print(f"warning: no stored H1 MLEs, not mapped: {', '.join(unmapped)}",
              file=sys.stderr)
    return unmapped


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.executors.worker import parse_address, run_worker

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        done = run_worker(host, port, name=args.name, max_tasks=args.max_tasks,
                          idle_timeout=args.idle_timeout)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot serve {args.connect}: {exc}", file=sys.stderr)
        return 1
    print(f"worker done: {done} task{'s' if done != 1 else ''} served",
          file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.alignment.simulate import simulate_alignment
    from repro.models.branch_site import BranchSiteModelA
    from repro.trees.simulate import random_foreground, simulate_yule_tree

    tree = simulate_yule_tree(args.species, seed=args.seed)
    random_foreground(tree, seed=args.seed + 1, internal_only=args.species >= 5)
    values = {"kappa": 2.2, "omega0": 0.2, "omega2": args.omega2, "p0": 0.5, "p1": 0.35}
    sim = simulate_alignment(
        tree, BranchSiteModelA(), values, n_codons=args.codons, seed=args.seed + 2
    )
    write_phylip(sim.alignment, f"{args.prefix}.phy")
    with open(f"{args.prefix}.nwk", "w", encoding="utf-8") as handle:
        handle.write(write_newick(tree) + "\n")
    print(f"wrote {args.prefix}.phy and {args.prefix}.nwk "
          f"({args.species} species x {args.codons} codons)")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    import os

    from repro.datasets import TABLE2_SPECS, make_dataset

    names = args.only if args.only else sorted(TABLE2_SPECS)
    os.makedirs(args.outdir, exist_ok=True)
    for name in names:
        ds = make_dataset(name)
        prefix = os.path.join(args.outdir, f"dataset_{name}")
        write_phylip(ds.alignment, f"{prefix}.phy")
        with open(f"{prefix}.nwk", "w", encoding="utf-8") as handle:
            handle.write(write_newick(ds.tree) + "\n")
        n_pos = int(np.sum(ds.true_site_classes >= 2))
        print(
            f"dataset {name}: {ds.spec.n_species} species x {ds.spec.n_codons} codons, "
            f"{n_pos} positively-selected sites -> {prefix}.phy/.nwk"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (returns the process exit code)."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "datasets":
        return _cmd_datasets(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
