"""Process-pool batch analysis across genes and branches.

Two scan axes, both used by Selectome-style genome analyses (§I-A):

* :func:`analyze_genes` — many (alignment, tree) pairs, one branch-site
  test each, fanned out over worker processes.
* :func:`scan_branches` — one gene, every candidate branch tested as
  foreground in turn ("done iteratively for each branch of a
  phylogenetic tree", §I-A).

Shared batch state rides the executors' broadcast channel: the
coordinator deduplicates alignments and trees across jobs, compresses
site patterns and estimates codon frequencies **once**, and ships the
result to every worker one time per batch (socket broadcast frame /
pool shared-memory segment).  Per-task payloads are then just
``(gene_id, newick_idx, fg_node, aln_idx, seed)`` — integer indices
into the broadcast state — so a branch scan over hundreds of
candidates moves its alignment across the wire once, not per branch.
Every task derives its own RNG stream from the master seed, so results
are independent of scheduling order and worker count.

Fault tolerance (gcodeml's lesson: at genome scale the binding
constraint is fault handling, not kernels):

* a failing task never raises out of the batch — it becomes a
  structured :class:`~repro.parallel.faults.TaskFailure` riding on its
  :class:`GeneResult`, and every other task's result is kept;
* retries/timeouts/worker-crash recovery are governed by a
  :class:`~repro.parallel.faults.FaultPolicy`;
* with ``journal=...`` completed results stream to a JSONL checkpoint
  (:class:`~repro.io.results_io.ResultJournal`) as they finish, and
  ``resume=True`` skips genes the journal already holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.alignment.msa import CodonAlignment
from repro.alignment.patterns import PatternAlignment, compress_patterns
from repro.codon.frequencies import estimate_codon_frequencies
from repro.core.engine import make_engine
from repro.core.recovery import FitDiagnostics
from repro.io.results_io import ResultJournal
from repro.models.registry import resolve_model_spec
from repro.optimize.lrt import LRTResult, holm_correction, likelihood_ratio_test
from repro.optimize.ml import fit_branch_site_test
from repro.parallel.executors.base import Executor
from repro.parallel.executors.wire import register_struct
from repro.parallel.faults import FaultPolicy, TaskFailure, TaskOutcome, run_tasks
from repro.parallel.metrics import BatchSummary
from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import Tree

__all__ = [
    "GeneJob",
    "GeneResult",
    "BranchScanResult",
    "analyze_genes",
    "scan_branches",
    "map_survey_candidates",
    "branch_label",
]


@register_struct
@dataclass(frozen=True)
class GeneJob:
    """One gene to analyse: wire-friendly payload for a worker.

    ``fg_node`` optionally names the node (by index in the parsed
    ``newick``) whose parent branch the *worker* marks as foreground
    before fitting — the seam that lets a branch scan ship one base
    tree plus a per-task integer instead of one pre-marked Newick per
    candidate branch.  ``None``: the Newick already carries its marks.
    """

    gene_id: str
    newick: str
    names: Tuple[str, ...]
    sequences: Tuple[str, ...]
    fg_node: Optional[int] = None

    @classmethod
    def from_objects(
        cls,
        gene_id: str,
        tree: Tree,
        alignment: CodonAlignment,
        fg_node: Optional[int] = None,
    ) -> "GeneJob":
        return cls(
            gene_id=gene_id,
            newick=write_newick(tree),
            names=tuple(alignment.names),
            sequences=tuple(alignment.to_sequences()),
            fg_node=fg_node,
        )


@register_struct
@dataclass
class GeneResult:
    """Worker output for one gene (or one branch of a branch scan).

    ``n_evaluations`` counts likelihood evaluations across H0+H1
    (finite-difference probes included) — the per-task work metric the
    batch summary aggregates.  ``attempts`` is how many times the fault
    layer ran the task; ``failure`` carries the structured record when
    the task ultimately failed (``error`` keeps the flat string form).
    """

    gene_id: str
    lnl0: float
    lnl1: float
    statistic: float
    pvalue: float
    iterations: int
    runtime_seconds: float
    error: Optional[str] = None
    n_evaluations: int = 0
    attempts: int = 1
    failure: Optional[TaskFailure] = None
    #: Backend identity of the worker that produced the terminal attempt
    #: (``pid:<n>`` for the process pool, the registered worker id for the
    #: socket backend, ``None`` when unattributable).
    worker: Optional[str] = None
    #: Combined H0+H1 numerical diagnostics as a JSON dict (see
    #: :meth:`repro.core.recovery.FitDiagnostics.to_dict`), with boundary
    #: flags prefixed ``h0:``/``h1:``.  ``None`` = clean fit, nothing
    #: fired.
    diagnostics: Optional[Dict] = None
    #: The task's counters: the worker engine's
    #: :attr:`~repro.core.engine.LikelihoodEngine.counters` after the
    #: task, plus ``setup_s`` (seconds materialising the broadcast
    #: context) and ``cold_starts: 1`` when the task paid that cold
    #: start.  An open map: journals store it whole and the batch
    #: summary sums it key by key.  Empty on failed tasks.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Model-spec string the worker fitted (see
    #: :func:`repro.models.registry.resolve_model_spec`); ``None`` on
    #: results from journals written before the field existed — readers
    #: treat that as the model-A default.
    model: Optional[str] = None
    #: Stochastic substitution-mapping payload
    #: (:meth:`repro.likelihood.mapping.SubstitutionMapping.to_payload`),
    #: ``{"error": ...}`` when sampling failed without sinking the task,
    #: ``None`` when mapping was not requested.
    mapping: Optional[Dict] = None
    #: H1 maximum-likelihood point (``{"values": {...}, "branch_lengths":
    #: [...]}``) kept when the coordinator asked for it (``keep_mles``)
    #: — the survey's one-pass mapper re-binds each significant
    #: candidate at *its own* MLEs after Holm selection, without
    #: re-fitting.  ``None`` otherwise (the default: journals stay
    #: lean).
    h1_mles: Optional[Dict] = None
    #: Whether each hypothesis' fit converged (``{"h0": bool, "h1":
    #: bool}``); ``None`` on failed tasks and on pre-v9 journal records
    #: (unknown).
    converged: Optional[Dict[str, bool]] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def recovered(self) -> bool:
        """True when any numerical recovery machinery fired for this gene."""
        return self.diagnostics is not None

    @property
    def unconverged(self) -> List[str]:
        """Hypotheses (``"H0"``/``"H1"``) whose fit did not converge.

        Empty when both converged or when convergence is unknown.
        """
        flags = self.converged or {}
        return [key.upper() for key in ("h0", "h1") if flags.get(key) is False]

    @classmethod
    def from_failure(cls, failure: TaskFailure, worker: Optional[str] = None) -> "GeneResult":
        return cls(
            gene_id=failure.task_id,
            lnl0=float("nan"),
            lnl1=float("nan"),
            statistic=float("nan"),
            pvalue=float("nan"),
            iterations=0,
            runtime_seconds=0.0,
            error=f"{failure.error_type}: {failure.message}",
            attempts=failure.attempts,
            failure=failure,
            worker=worker,
        )


def _combine_diagnostics(h0: FitDiagnostics, h1: FitDiagnostics) -> Optional[Dict]:
    """Fold a test's per-hypothesis diagnostics into one JSON dict.

    Returns ``None`` when nothing fired in either fit, so the common
    clean case costs one key in neither pickled payloads nor journals.
    Boundary flags are prefixed with the hypothesis they came from.
    """
    if not (h0.recovered or h1.recovered or h0.boundary_flags or h1.boundary_flags):
        return None
    merged = FitDiagnostics(
        restarts=h0.restarts + h1.restarts,
        boundary_flags=[f"h0:{f}" for f in h0.boundary_flags]
        + [f"h1:{f}" for f in h1.boundary_flags],
        events=h0.events + h1.events,
    )
    return merged.to_dict()


def _run_mapping(bind, spec, test, map_samples: Optional[int], seed) -> Optional[Dict]:
    """Sample substitution histories at the H1 MLEs (``--map``).

    A sampling failure must not sink an otherwise finished test (the
    fit already succeeded), so it degrades to an ``{"error": ...}``
    payload the report surfaces per task.
    """
    if not map_samples:
        return None
    try:
        from repro.likelihood.mapping import sample_substitution_mapping

        bound = bind(spec.pair()[1])
        return sample_substitution_mapping(
            bound,
            test.h1.values,
            branch_lengths=test.h1.branch_lengths,
            n_samples=int(map_samples),
            seed=int(seed) if np.isscalar(seed) else 0,
        ).to_payload()
    except Exception as exc:  # noqa: BLE001 — mapping is strictly additive
        return {"error": f"{type(exc).__name__}: {exc}"}


def _assemble_result(gene_id: str, test, engine,
                     setup_s: Optional[float] = None,
                     model: Optional[str] = None,
                     mapping: Optional[Dict] = None,
                     keep_mles: bool = False) -> GeneResult:
    metrics = dict(engine.counters)
    if setup_s is not None:
        metrics.update(setup_s=setup_s, cold_starts=1)
    h1_mles = None
    if keep_mles:
        h1_mles = {
            "values": {k: float(v) for k, v in test.h1.values.items()},
            "branch_lengths": [float(x) for x in test.h1.branch_lengths],
        }
    return GeneResult(
        gene_id=gene_id,
        lnl0=test.h0.lnl,
        lnl1=test.h1.lnl,
        statistic=test.lrt.statistic,
        pvalue=test.lrt.pvalue_chi2,
        iterations=test.combined_iterations,
        runtime_seconds=test.combined_runtime,
        n_evaluations=test.combined_evaluations,
        diagnostics=_combine_diagnostics(test.h0.diagnostics, test.h1.diagnostics),
        metrics=metrics,
        model=model,
        mapping=mapping,
        h1_mles=h1_mles,
        converged={"h0": bool(test.h0.converged), "h1": bool(test.h1.converged)},
    )


def _build_shared_context(
    pending: Sequence["GeneJob"],
    engine: str,
    max_iterations: int,
    model: Optional[str] = None,
    map_samples: Optional[int] = None,
    keep_mles: bool = False,
) -> Tuple[Dict, List[Tuple[int, int]]]:
    """Deduplicate batch state and precompute per-alignment derivations.

    Returns the broadcast context plus, per pending job, its
    ``(newick_idx, aln_idx)`` indices.  Alignments are keyed on their
    raw ``(names, sequences)`` so identical genes (every branch of one
    scan) share one pattern compression, one frequency estimate, and
    one set of wire buffers.  The precomputation replicates
    ``LikelihoodEngine.bind``'s default path exactly — same
    ``from_sequences`` encode, same F3x4 estimate from the re-emitted
    sequences, same ``compress_patterns`` — so a worker binding the
    shipped :class:`PatternAlignment` with the shipped ``pi`` is
    bit-identical to binding the raw alignment.
    """
    newicks: List[str] = []
    newick_at: Dict[str, int] = {}
    alignments: List[Dict] = []
    aln_at: Dict[Tuple, int] = {}
    keys: List[Tuple[int, int]] = []
    for job in pending:
        ni = newick_at.get(job.newick)
        if ni is None:
            ni = newick_at[job.newick] = len(newicks)
            newicks.append(job.newick)
        akey = (job.names, job.sequences)
        ai = aln_at.get(akey)
        if ai is None:
            ai = aln_at[akey] = len(alignments)
            aln = CodonAlignment.from_sequences(list(job.names), list(job.sequences))
            pi = estimate_codon_frequencies(
                aln.to_sequences(), method="f3x4", code=aln.code
            )
            pat = compress_patterns(aln)
            alignments.append({
                "names": list(pat.alignment.names),
                "states": pat.alignment.states,
                "ambiguity": [
                    [int(row), int(col), list(map(int, states))]
                    for (row, col), states in pat.alignment.ambiguity_sets.items()
                ],
                "weights": pat.weights,
                "site_to_pattern": pat.site_to_pattern.astype(np.int64),
                "pi": np.asarray(pi, dtype=np.float64),
            })
        keys.append((ni, ai))
    context = {
        "engine": engine,
        "max_iterations": max_iterations,
        "model": model,
        "map_samples": map_samples,
        "keep_mles": keep_mles,
        "newicks": newicks,
        "alignments": alignments,
    }
    return context, keys


def _materialize_patterns(entry: Dict) -> Tuple[PatternAlignment, np.ndarray]:
    """Rebuild a :class:`PatternAlignment` from its broadcast fields.

    Array fields stay the zero-copy (read-only) views the wire decoder
    produced — nothing in the likelihood path writes to alignment
    state, so the shared pages are mapped, never copied.
    """
    alignment = CodonAlignment(
        names=list(entry["names"]),
        states=entry["states"],
        ambiguity_sets={
            (row, col): tuple(states) for row, col, states in entry["ambiguity"]
        },
    )
    patterns = PatternAlignment(
        alignment=alignment,
        weights=entry["weights"],
        site_to_pattern=entry["site_to_pattern"],
    )
    return patterns, np.asarray(entry["pi"], dtype=float)


def _run_gene_shared(payload: Tuple, context: Dict) -> GeneResult:
    """Worker entry point (module-level so it pickles).

    ``payload`` is ``(gene_id, newick_idx, fg_node, aln_idx, seed)``;
    everything batch-constant — engine choice, iteration budget,
    trees, compressed alignments, codon frequencies — comes from the
    one-shot ``context``.  Materialised patterns are cached in the
    context per worker process, so only the first task touching an
    alignment pays the (already cheap) rebuild; that cost is reported
    as the ``setup_s`` metric.

    Raises on failure: the fault layer (:mod:`repro.parallel.faults`)
    owns error capture, classification and retries.
    """
    gene_id, newick_idx, fg_node, aln_idx, seed = payload
    cache = context.setdefault("_cache", {})
    setup = None
    cached = cache.get(aln_idx)
    if cached is None:
        t0 = time.perf_counter()
        cached = _materialize_patterns(context["alignments"][aln_idx])
        cache[aln_idx] = cached
        setup = time.perf_counter() - t0
    patterns, pi = cached
    tree = parse_newick(context["newicks"][newick_idx])
    if fg_node is not None:
        tree.mark_foreground(tree.nodes[fg_node])
    spec = resolve_model_spec(context["model"])
    map_samples = context["map_samples"]
    keep_mles = bool(context["keep_mles"])
    engine = make_engine(context["engine"])
    bind = lambda model: engine.bind(tree, patterns, model, pi=pi)
    test = fit_branch_site_test(
        bind,
        seed=seed,
        max_iterations=int(context["max_iterations"]),
        models=spec.pair(),
    )
    mapping = _run_mapping(bind, spec, test, map_samples, seed)
    return _assemble_result(gene_id, test, engine,
                            setup_s=setup, model=spec.spec,
                            mapping=mapping,
                            keep_mles=keep_mles)


def analyze_genes(
    jobs: Sequence[GeneJob],
    engine: str = "slim-v2",
    processes: Optional[int] = None,
    seed: int = 1,
    max_iterations: int = 50,
    policy: Optional[FaultPolicy] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    worker: Optional[Callable[[Tuple, Dict], GeneResult]] = None,
    on_result: Optional[Callable[[int, GeneResult], None]] = None,
    executor: Optional[Executor] = None,
    model: Optional[str] = None,
    map_samples: Optional[int] = None,
    keep_mles: bool = False,
) -> List[GeneResult]:
    """Run the branch-site test for every gene over an executor.

    Each gene ``k`` uses seed ``seed + k`` so the batch is reproducible
    regardless of executor backend, worker scheduling and worker count —
    and so a resumed run recomputes a gene with exactly the seed the
    interrupted run would have used.  With ``processes = 1`` (or a
    single job and no timeout) everything runs in-process, which is
    also what the tests use to stay hermetic.

    Parameters
    ----------
    policy:
        Retry/timeout/crash-recovery policy; default is fail-soft with
        no retries (every task runs once, failures are captured).
    journal:
        Path to a JSONL checkpoint; each finished result is appended
        durably as soon as it completes.
    resume:
        With ``journal``, load previously *successful* results instead
        of recomputing them; failed or missing genes run again.
    worker:
        Alternative worker callable (module-level, pickleable) called as
        ``worker(payload, context)`` like the default
        ``_run_gene_shared`` — the fault-injection seam used by the test
        suite (wrap the default to inject faults).
    on_result:
        ``(job_index, result)`` hook fired in completion order — drives
        CLI progress reporting.
    executor:
        Execution substrate (see :mod:`repro.parallel.executors`); when
        given it overrides ``processes``.  A caller-provided executor is
        *not* shut down, so e.g. one connected
        :class:`~repro.parallel.executors.sockets.SocketExecutor` fleet
        can serve a scan and then its journal resume.
    model:
        Model-spec string resolved per worker through
        :func:`repro.models.registry.resolve_model_spec` — e.g.
        ``"bsrel:3"`` for the 6-class BS-REL test.  ``None`` keeps the
        historical model-A default (bit-identical to it).
    map_samples:
        When set, each worker additionally samples that many posterior
        substitution histories at the H1 MLEs (uniformization-based
        stochastic mapping, :mod:`repro.likelihood.mapping`) and
        attaches the per-branch event payload to
        ``GeneResult.mapping``.  ``None``/``0`` = off (the default; the
        fit itself is untouched either way).
    keep_mles:
        Attach each task's H1 maximum-likelihood point to
        ``GeneResult.h1_mles`` so a coordinator can re-bind candidates
        after the scan (the survey's one-pass mapper).

    Every worker runs the numerical self-healing layer (guarded
    engines, seeded optimizer restarts); whatever fired rides back on
    ``GeneResult.diagnostics``, and every engine counter — CLV reuse,
    the ladder rungs that built the task's operators — on
    ``GeneResult.metrics``.

    Returns
    -------
    list of :class:`GeneResult` in job order; a failed task yields a
    result with ``failed=True`` and a structured ``failure`` record
    rather than raising.
    """
    policy = policy if policy is not None else FaultPolicy()
    run = worker if worker is not None else _run_gene_shared

    results: List[Optional[GeneResult]] = [None] * len(jobs)
    pending_jobs: List[GeneJob] = []
    payload_jobs: List[int] = []  # payload position -> job index
    payload_seeds: List[int] = []

    done: Dict[str, GeneResult] = {}
    if journal is not None and resume:
        done = ResultJournal(journal).completed()
    for k, job in enumerate(jobs):
        if job.gene_id in done:
            results[k] = done[job.gene_id]
        else:
            pending_jobs.append(job)
            payload_jobs.append(k)
            payload_seeds.append(seed + k)

    # One broadcast context per batch, integer indices per task (see
    # module docstring).
    context, keys = _build_shared_context(
        pending_jobs, engine, max_iterations,
        model=model, map_samples=map_samples, keep_mles=keep_mles,
    )
    payloads = [
        (job.gene_id, ni, job.fg_node, ai, s)
        for job, (ni, ai), s in zip(pending_jobs, keys, payload_seeds)
    ]

    sink = ResultJournal(journal) if journal is not None else None
    try:
        def handle(outcome: TaskOutcome) -> None:
            k = payload_jobs[outcome.index]
            if outcome.ok:
                result = outcome.result
                result.attempts = outcome.attempts
                result.worker = outcome.worker
            else:
                result = GeneResult.from_failure(outcome.failure, worker=outcome.worker)
            results[k] = result
            if sink is not None:
                sink.append(result)
            if on_result is not None:
                on_result(k, result)

        in_process = executor is None and (
            processes == 1 or (len(payloads) <= 1 and policy.task_timeout is None)
        )
        run_tasks(
            run,
            payloads,
            task_ids=[jobs[k].gene_id for k in payload_jobs],
            policy=policy,
            max_workers=processes,
            on_outcome=handle,
            in_process=in_process,
            executor=executor,
            context=context,
        )
    finally:
        if sink is not None:
            sink.close()
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


@dataclass
class BranchScanResult:
    """Per-branch outcomes for one gene — successes *and* failures.

    A poisoned branch no longer discards the rest of the scan:
    ``by_branch`` holds the LRT for every branch whose task succeeded,
    ``failures`` the structured record for every branch that did not.
    """

    gene_id: str
    #: Branch label → LRT result; labels are child-node names or
    #: ``node#<index>`` for unnamed internals.
    by_branch: Dict[str, LRTResult]
    #: Branch label → structured failure for tasks that did not finish.
    failures: Dict[str, TaskFailure] = field(default_factory=dict)
    #: Raw per-branch worker results in candidate order (metrics source).
    gene_results: List[GeneResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every candidate branch produced an LRT."""
        return not self.failures

    @property
    def n_candidates(self) -> int:
        return len(self.by_branch) + len(self.failures)

    def significant_branches(self, alpha: float = 0.05) -> List[str]:
        """Branch labels significant at ``alpha`` — before any multiple-
        testing correction (Anisimova & Yang 2007 discuss corrections)."""
        return [
            label
            for label, lrt in self.by_branch.items()
            if lrt.significant(alpha)
        ]

    def holm_significant(self, alpha: float = 0.05) -> List[str]:
        """Branch labels surviving Holm-Bonferroni at family-wise ``alpha``.

        Same correction (and the same sorted-label ordering) as the
        survey report, so the labels here are exactly the rows the
        report marks POSITIVE SELECTION — the set ``scan --survey
        --map`` feeds the one-pass mapper.
        """
        branches = sorted(self.by_branch)
        if not branches:
            return []
        raw = np.array([self.by_branch[b].pvalue_chi2 for b in branches])
        adjusted = holm_correction(raw)
        return [b for b, adj in zip(branches, adjusted) if adj < alpha]

    def unconverged(self) -> Dict[str, List[str]]:
        """Branch label → hypotheses (``"H0"``/``"H1"``) whose fit did not
        converge, for every tested branch with at least one such fit."""
        prefix = f"{self.gene_id}:"
        return {
            res.gene_id[len(prefix):]: res.unconverged
            for res in self.gene_results
            if res.unconverged and res.gene_id.startswith(prefix)
        }

    def raise_on_failure(self) -> "BranchScanResult":
        """Opt back into the old fail-fast contract (first failure raises)."""
        if self.failures:
            label, failure = next(iter(self.failures.items()))
            raise RuntimeError(
                f"branch scan task {self.gene_id}:{label} failed: {failure.describe()}"
            )
        return self

    def summary(
        self, wall_seconds: float = 0.0, resumed_ids: Sequence[str] = ()
    ) -> BatchSummary:
        """Aggregate scan metrics (see :mod:`repro.parallel.metrics`)."""
        from repro.parallel.metrics import summarize_results

        return summarize_results(
            self.gene_results, wall_seconds=wall_seconds, resumed_ids=resumed_ids
        )


def branch_label(tree: Tree, node_index: int) -> str:
    node = tree.nodes[node_index]
    return node.name if node.name else f"node#{node.index}"


def scan_branches(
    gene_id: str,
    tree: Tree,
    alignment: CodonAlignment,
    engine: str = "slim-v2",
    internal_only: bool = False,
    seed: int = 1,
    max_iterations: int = 50,
    processes: Optional[int] = 1,
    policy: Optional[FaultPolicy] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    worker: Optional[Callable] = None,
    on_result: Optional[Callable[[int, GeneResult], None]] = None,
    executor: Optional[Executor] = None,
    model: Optional[str] = None,
    map_samples: Optional[int] = None,
    keep_mles: bool = False,
) -> BranchScanResult:
    """Test every candidate branch of one gene as foreground in turn.

    Per-branch task ids are ``"<gene_id>:<branch_label>"``, so a journal
    written by one scan resumes cleanly at branch granularity.  Failures
    are captured per branch (see :class:`BranchScanResult`); callers
    wanting the old fail-fast behaviour chain ``.raise_on_failure()``.
    """
    candidates = [
        n for n in tree.nodes if not n.is_root and (not internal_only or not n.is_leaf)
    ]
    # Every candidate shares one base Newick (deduplicated into the
    # broadcast context) and carries only its foreground-node index; the
    # worker applies the mark.  Node indices survive the write→parse
    # round trip because both traversals visit children in the same order.
    jobs = [
        GeneJob.from_objects(
            f"{gene_id}:{branch_label(tree, node.index)}",
            tree,
            alignment,
            fg_node=node.index,
        )
        for node in candidates
    ]
    results = analyze_genes(
        jobs,
        engine=engine,
        processes=processes,
        seed=seed,
        max_iterations=max_iterations,
        policy=policy,
        journal=journal,
        resume=resume,
        worker=worker,
        on_result=on_result,
        executor=executor,
        model=model,
        map_samples=map_samples,
        keep_mles=keep_mles,
    )
    by_branch: Dict[str, LRTResult] = {}
    failures: Dict[str, TaskFailure] = {}
    for node, res in zip(candidates, results):
        label = branch_label(tree, node.index)
        if res.failed:
            failures[label] = res.failure if res.failure is not None else TaskFailure(
                task_id=res.gene_id,
                kind="error",
                error_type="Error",
                message=res.error or "unknown failure",
                attempts=res.attempts,
            )
        else:
            by_branch[label] = likelihood_ratio_test(res.lnl0, res.lnl1)
    return BranchScanResult(
        gene_id=gene_id, by_branch=by_branch, failures=failures, gene_results=list(results)
    )


def map_survey_candidates(
    gene_id: str,
    tree: Tree,
    alignment: CodonAlignment,
    scan: BranchScanResult,
    labels: Sequence[str],
    engine: str = "slim-v2",
    map_samples: int = 16,
    seed: int = 1,
    model: Optional[str] = None,
    internal_only: bool = False,
) -> Dict[str, Dict]:
    """Map every selected survey candidate in one shared-kernel pass.

    ``scan --survey --map`` defers mapping until after Holm selection,
    then draws histories for just the significant branches — here, in
    the coordinator, over **one** engine instance.  What that sharing
    buys (versus per-task mapping inside each worker):

    * one pattern compression and one F3x4 estimate for the gene;
    * one set of leaf CLVs, threaded into every candidate binding via
      ``bind(leaf_clvs=...)`` — foreground choice never changes leaf
      data;
    * one pooled decomposition LRU and one ``_uniformized`` kernel
      table, so candidates whose MLEs land on the same (κ, ω) reuse
      R-power stacks and jump-weight series across foreground choices.

    Each candidate is still sampled at *its own* H1 MLEs (carried on
    ``GeneResult.h1_mles`` by ``keep_mles=True``) with the same
    per-candidate seed the per-task path would have used, on a marked
    copy of the shared base tree.  Candidates without stored MLEs (e.g.
    failed tasks) are skipped; a sampling failure degrades to an
    ``{"error": ...}`` payload exactly like the per-task path.

    Returns ``{branch_label: mapping payload}``.
    """
    from repro.likelihood.mapping import sample_substitution_mapping

    spec = resolve_model_spec(model)
    eng = make_engine(engine)
    pi = estimate_codon_frequencies(
        alignment.to_sequences(), method="f3x4", code=alignment.code
    )
    patterns = compress_patterns(alignment)
    prefix = f"{gene_id}:"
    mles = {
        res.gene_id[len(prefix):]: res.h1_mles
        for res in scan.gene_results
        if res.h1_mles and res.gene_id.startswith(prefix)
    }
    candidates = [
        n for n in tree.nodes
        if not n.is_root and (not internal_only or not n.is_leaf)
    ]
    node_of = {branch_label(tree, n.index): n.index for n in candidates}
    # Seeds must match what the per-task path would have drawn with:
    # analyze_genes gives candidate k seed ``seed + k`` in the same
    # candidate order ``scan_branches`` enumerated (pass the scan's
    # ``internal_only`` so the ordinals line up).
    seed_of = {
        branch_label(tree, n.index): seed + k for k, n in enumerate(candidates)
    }
    shared_leaf_clvs = None
    out: Dict[str, Dict] = {}
    for label in labels:
        point = mles.get(label)
        if point is None or label not in node_of:
            continue
        marked = tree.copy()
        marked.mark_foreground(marked.nodes[node_of[label]])
        try:
            bound = eng.bind(
                marked, patterns, spec.pair()[1], pi=pi,
                leaf_clvs=shared_leaf_clvs,
            )
            if shared_leaf_clvs is None:
                shared_leaf_clvs = bound._leaf_clvs
            out[label] = sample_substitution_mapping(
                bound,
                point["values"],
                branch_lengths=point["branch_lengths"],
                n_samples=int(map_samples),
                seed=seed_of.get(label, seed),
            ).to_payload()
        except Exception as exc:  # noqa: BLE001 — mapping is strictly additive
            out[label] = {"error": f"{type(exc).__name__}: {exc}"}
    return out
