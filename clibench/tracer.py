"""In-process span recorder for the traced benchmark run.

Wraps the public functions of each layer where their callers look them
up (module attributes and class methods), so ``repro.cli.main`` runs
unmodified while every call records one span: name, start, end, parent
span and task id.  Spans stay in memory; the main process writes them
when the CLI returns, and pool workers — which inherit the wrappers
through ``fork`` — append theirs after each task, since the pool may
terminate them at shutdown.

Counters come from public API: ``engine.cache_stats()`` and the
``FlopCounter`` injected through a wrapped ``make_engine``, plus the
return values of a few wrapped calls (optimizer iterations, pattern
counts, the pool's shared-context size).

Span names are ``<layer>.<what>``; :mod:`spans` turns the files into
per-layer metrics.  Nothing here imports ``repro`` at module level, so
the launcher can time the program's own import.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

__all__ = ["Recorder", "install"]

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Per-process span list, open-span stack and counters."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.flushed = 0
        self.task = None
        self.counters: dict = {}
        self.engines: list = []

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span at the current nesting level."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.task))

    def collect_engines(self) -> None:
        """Fold the cache and flop counters of engines made so far."""
        for engine in self.engines:
            for key, value in engine.cache_stats().items():
                self.count(f"cache.{key}", value)
            flops = engine.counter
            if flops is not None:
                self.count("flops.total", flops.total_flops)
                self.count("flops.blas3", flops.by_level.get("blas3", 0))
        self.engines = []

    def flush(self, main: bool = False) -> None:
        """Append spans recorded since the last flush to this pid's file."""
        self.collect_engines()
        record = {
            "pid": self.pid,
            "main": main,
            "offset": self.flushed,
            "spans": self.spans[self.flushed:],
            "counters": self.counters,
        }
        self.flushed = len(self.spans)
        self.counters = {}
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def _wrap(rec: Recorder, fn, name: str, after=None):
    """``fn`` recording one span per call; ``after(args, result)`` may count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans, stack = rec.spans, rec.stack
        parent = stack[-1] if stack else -1
        sid = len(spans)
        spans.append(None)
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, rec.task)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _task_wrapper(rec: Recorder, fn):
    """The scan task entry: sets the task id, and flushes in pool workers."""
    inner = _wrap(rec, fn, "parallel.task")

    @functools.wraps(fn)
    def task(payload, *rest):
        rec.task = str(payload[0])
        cpu = time.process_time()
        try:
            return inner(payload, *rest)
        finally:
            rec.count("task.cpu_s", time.process_time() - cpu)
            rec.task = None
            if os.getpid() != rec.main_pid:
                rec.flush()

    return task


#: (module, attribute or Class.method, span name) for every wrapped call.
TARGETS = [
    ("repro.cli", "read_alignment", "input.parse"),
    ("repro.cli", "parse_newick", "input.parse"),
    ("repro.parallel.batch", "parse_newick", "input.parse"),
    ("repro.core.engine", "compress_patterns", "input.compress"),
    ("repro.parallel.batch", "compress_patterns", "input.compress"),
    ("repro.core.engine", "estimate_codon_frequencies", "input.freq"),
    ("repro.parallel.batch", "estimate_codon_frequencies", "input.freq"),
    ("repro.core.engine", "build_class_matrices", "qbuild"),
    ("repro.core.engine", "decompose", "eigen.decompose"),
    ("repro.core.engine", "decompose_guarded", "eigen.decompose"),
    ("repro.core.eigen", "decompose", "eigen.decompose"),
    ("repro.core.eigen", "DecompositionCache.get", "eigen.cache"),
    ("repro.core.engine", "stacked_symmetric_operators", "expm.stack"),
    ("repro.core.engine", "stacked_syrk_operators", "expm.stack"),
    ("repro.core.engine", "symmetric_branch_matrix", "expm.branch"),
    ("repro.core.engine", "transition_matrix_einsum", "expm.branch"),
    ("repro.core.engine", "transition_matrix_scipy", "expm.branch"),
    ("repro.core.engine", "transition_matrix_syrk", "expm.branch"),
    ("repro.core.engine", "prune_site_class", "pruning.site_class"),
    ("repro.core.engine", "prune_site_class_batched", "pruning.site_class"),
    ("repro.core.engine", "mixture_log_likelihood", "mixture"),
    ("repro.core.engine", "BoundLikelihood.log_likelihood", "engine.eval"),
    ("repro.optimize.bfgs", "finite_difference_gradient", "optimize.fd"),
    ("repro.optimize.ml", "minimize_bfgs", "optimize.bfgs"),
    ("repro.optimize.ml", "fit_model", "optimize.fit"),
    ("repro.cli", "fit_branch_site_test", "optimize.test"),
    ("repro.parallel.batch", "fit_branch_site_test", "optimize.test"),
    ("repro.likelihood.mapping", "sample_substitution_mapping", "mapping.sample"),
    ("repro.parallel.batch", "map_survey_candidates", "mapping.survey"),
    ("repro.parallel.batch", "run_tasks", "parallel.run_tasks"),
    ("repro.parallel.executors.inline", "InlineExecutor.start", "parallel.start"),
    ("repro.parallel.executors.inline", "InlineExecutor.submit", "parallel.submit"),
    ("repro.parallel.executors.inline", "InlineExecutor.drain", "parallel.drain"),
    ("repro.parallel.executors.pool", "ProcessPoolBackend.start", "parallel.start"),
    ("repro.parallel.executors.pool", "ProcessPoolBackend.submit", "parallel.submit"),
    ("repro.parallel.executors.pool", "ProcessPoolBackend.drain", "parallel.drain"),
    ("repro.io.results_io", "ResultJournal.append", "io.journal"),
    ("repro.cli", "format_report", "io.report"),
    ("repro.io.report", "format_survey_report", "io.report"),
]


def _after_hooks(rec: Recorder) -> dict:
    def bfgs(args, result):
        rec.count("optimize.iterations", result.n_iterations)
        rec.count("optimize.evaluations", result.n_evaluations)
        rec.count("optimize.fits")

    def patterns(args, result):
        rec.counters["input.patterns"] = max(
            rec.counters.get("input.patterns", 0), result.n_patterns
        )

    def pool_start(args, result):
        rec.count("parallel.context_bytes", args[0].context_nbytes())
        rec.count("parallel.workers", args[0].capacity())

    return {
        "minimize_bfgs": bfgs,
        "compress_patterns": patterns,
        "ProcessPoolBackend.start": pool_start,
    }


def install(rec: Recorder) -> None:
    """Patch every target, ``make_engine`` and the scan task entry point."""
    from repro.core.flops import FlopCounter

    rec.main_pid = os.getpid()
    hooks = _after_hooks(rec)
    for module_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        fn = getattr(owner, fn_name, None)
        if fn is None:
            continue  # a layer function this version of the program does not have
        setattr(owner, fn_name, _wrap(rec, fn, name, hooks.get(attr)))

    def make_engine_for(module):
        original = module.make_engine

        @functools.wraps(original)
        def make_engine(name, **kwargs):
            kwargs.setdefault("counter", FlopCounter())
            engine = original(name, **kwargs)
            rec.engines.append(engine)
            return engine

        module.make_engine = make_engine

    for module_name in ("repro.cli", "repro.parallel.batch"):
        make_engine_for(importlib.import_module(module_name))

    batch = importlib.import_module("repro.parallel.batch")
    # Same __module__/__qualname__ as the original, so the pool pickles
    # the wrapper by reference and forked workers resolve it too.
    if hasattr(batch, "_run_gene_shared"):
        batch._run_gene_shared = _task_wrapper(rec, batch._run_gene_shared)
    os.register_at_fork(after_in_child=rec.reset)
