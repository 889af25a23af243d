"""End-to-end benchmark of the ``slimcodeml`` CLI's default path.

Usage (from the repository root)::

    python3 clibench/run.py --workload gene-i --seed 1 --seconds 35 --trace 0
    python3 clibench/run.py --quick          # every workload at toy size

Each workload writes seeded datasets (PHYLIP + Newick, see
:mod:`inputs`; one per gene, :attr:`Workload.genes`), then runs
``slimcodeml`` in a closed loop with one client, cycling through the
genes: one fresh process per invocation, the next started only after
the previous one has exited, for about ``--seconds`` seconds (at least
one invocation).  The CLI is never given ``--engine``, ``--batched`` or
``--incremental``, so it always measures whatever the defaults are.
BLAS runs on one thread; the only parallelism is the pool workload's
two workers.  ``wide-ii`` and ``survey-iii-pool`` are not in
``BENCHMARK.json``: the run budget fits two workloads with runs long
enough to be steady.  They run by hand and in ``--quick``.

The host is shared, and its speed drifts by 10-30 % within minutes.
So a single-process workload runs pinned, with the benchmark itself,
to one CPU, and every :data:`PAUSE_EVERY_S` seconds the benchmark
stops the CLI's process group, times one :func:`calib.reference_chunk`
there and lets the CLI go on; one more chunk runs just before each
invocation.  Paused time is taken off the invocation's wall clock, and
``wall_norm_s`` is that wall clock rescaled by the invocation's mean
chunk time to a host on which a chunk takes
:data:`calib.REF_NOMINAL_S`.  ``setup_s`` comes from
:data:`SETUP_SAMPLES` invocations per run that exit at their first
likelihood evaluation, each rescaled the same way by a
:func:`calib.reference_spawn` timed just before it.  The plain wall,
CPU and set-up seconds are reported with the per-layer metrics.

Every invocation's output is checked (:mod:`checks`); ``failed`` over
``attempted`` in the result is the error rate.  The last line of
standard output is one JSON object; with ``--trace 0`` its metrics are
the end-to-end medians over the run's invocations, with ``--trace 1``
the per-layer metrics of one extra traced invocation (:mod:`tracer`,
:mod:`spans`), whose Chrome trace-event file is left in ``.clibench/``.
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".clibench")

#: One BLAS thread everywhere: set before numpy loads, inherited by the CLI.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

#: A run must exit within this many seconds of starting.
RUN_LIMIT = 170.0
#: Seconds the CLI runs between two reference chunks.
PAUSE_EVERY_S = 1.0
#: Set-up-only invocations per run.
SETUP_SAMPLES = 3
#: How often a running invocation is polled for its exit.
POLL_S = 0.002


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # Table II dataset id the inputs are shaped after
    command: str  # "run" (one gene test) or "survey" (scan --survey --map)
    max_iterations: int
    processes: int = 1
    #: Distinct genes (held-out alignments of the shape) a run cycles
    #: through.  How much work a gene test does depends on its data: a
    #: degenerate H1 optimum costs a second H1 fit, on about one gene in
    #: six of shape i.  The median over many genes does not hang on one.
    genes: int = 1

    def argv(self, phy: str, nwk: str, journal: str, toy: bool) -> List[str]:
        cap = str(min(self.max_iterations, 1) if toy else self.max_iterations)
        if self.command == "run":
            return ["run", "--seqfile", phy, "--treefile", nwk, "--max-iterations", cap]
        argv = [
            "scan", "--seqfile", phy, "--treefile", nwk, "--internal-only",
            "--survey", "--map", "--journal", journal, "--max-iterations", cap,
        ]
        if self.processes > 1:
            argv += ["--processes", str(self.processes)]
        return argv


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gene-i", "i", "run", max_iterations=2, genes=12),
        Workload("wide-ii", "ii", "run", max_iterations=1),
        Workload("survey-iii", "iii", "survey", max_iterations=1),
        Workload("survey-iii-pool", "iii", "survey", max_iterations=1, processes=2),
    )
}


@dataclass
class Sample:
    """One CLI invocation, measured by its parent."""

    code: int
    wall_s: float  # spawn to exit, less the benchmark's pauses
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    refs: List[float] = field(default_factory=list)  # reference chunk seconds

    @property
    def norm_s(self) -> float:
        """``wall_s`` on a host where a reference chunk takes ``REF_NOMINAL_S``."""
        import calib

        if not self.refs:
            return math.nan
        return self.wall_s * calib.REF_NOMINAL_S / statistics.mean(self.refs)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _stop_group(pgid: int, grace: float = 5.0) -> None:
    """Wait for every process of the session to end; kill it after ``grace``."""
    deadline = time.monotonic() + grace
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    if _group_alive(pgid):
        _signal_group(pgid, signal.SIGKILL)
        _signal_group(pgid, signal.SIGCONT)
        deadline = time.monotonic() + grace
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)


def _paused_before(pauses: List[Tuple[float, float]], t: float) -> float:
    """Seconds of ``pauses`` that fall before ``t``."""
    return sum(max(0.0, min(b, t) - a) for a, b in pauses)


def invoke(argv: List[str], work: str, timeout: float, trace_dir: Optional[str] = None,
           pause: bool = True, setup_only: bool = False) -> Sample:
    """Run ``slimcodeml argv`` once in a fresh process and measure it.

    CPU time and peak RSS come from ``wait4``: they cover the CLI and
    every descendant it waited for (the pool workers).  Set-up time is
    spawn to the first likelihood evaluation in any of its processes.
    With ``pause`` the process group is stopped for one reference chunk
    every :data:`PAUSE_EVERY_S` seconds; wall and set-up time leave
    those pauses out, and a stopped process accrues no CPU time.
    """
    import calib

    marker = os.path.join(work, "first-eval")
    if os.path.exists(marker):
        os.remove(marker)
    cmd = [sys.executable, os.path.join(HERE, "launch.py")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += [marker, trace_dir or "-", "--", *argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    refs = [calib.reference_chunk()] if pause else []
    pauses: List[Tuple[float, float]] = []
    with open(os.path.join(work, "stdout"), "wb") as out, \
            open(os.path.join(work, "stderr"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work,
                                start_new_session=True)
        deadline = start + max(timeout, 1.0)
        next_pause = start + PAUSE_EVERY_S
        reaped = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    end = time.monotonic()
                    reaped = True
                    break
                now = time.monotonic()
                if now >= deadline:
                    _signal_group(proc.pid, signal.SIGKILL)
                    _signal_group(proc.pid, signal.SIGCONT)
                elif pause and now >= next_pause:
                    _signal_group(proc.pid, signal.SIGSTOP)
                    stopped = time.monotonic()
                    try:
                        refs.append(calib.reference_chunk())
                    finally:
                        _signal_group(proc.pid, signal.SIGCONT)
                    resumed = time.monotonic()
                    pauses.append((stopped, resumed))
                    next_pause = resumed + PAUSE_EVERY_S
                time.sleep(POLL_S)
        finally:
            if not reaped:
                _signal_group(proc.pid, signal.SIGKILL)
                _signal_group(proc.pid, signal.SIGCONT)
                proc.wait()
            _stop_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
    setup = math.nan
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as handle:
            stamps = [float(line) for line in handle if line.strip()]
        if stamps:
            first = min(stamps)
            setup = first - start - _paused_before(pauses, first)
    return Sample(
        code=proc.returncode,
        wall_s=end - start - _paused_before(pauses, end),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=setup,
        refs=refs,
    )


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _median(values: List[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _tail_note(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        runs = " ".join(f"{v:.3f}" for v in values)
        return f"n={n} ({runs}); no percentile has 10 samples beyond it"
    k = n - 10  # samples at or below the percentile
    pct = 100.0 * k / n
    return f"n={n}, p{pct:.0f}={sorted(values)[k - 1]:.4g}"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, toy: bool,
                 started: float) -> dict:
    import calib
    import checks
    import inputs
    from repro.alignment.patterns import compress_patterns

    work = os.path.join(WORK, f"{wl.name}-s{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    if wl.processes == 1:
        # The CLI inherits this: it and the reference chunks share one CPU.
        os.sched_setaffinity(0, {min(cpus)})
    try:
        spec = inputs.spec_for(wl.shape, toy=toy)
        journal = os.path.join(work, "journal.jsonl")
        genes = []  # (argv, checker) per gene
        for gene in range(min(wl.genes, 2) if toy else wl.genes):
            phy, nwk = inputs.write_inputs(spec, seed, os.path.join(work, f"gene{gene}"), gene)
            genes.append((wl.argv(phy, nwk, journal, toy),
                          checks.Checker(phy, nwk, spec.true_values())))
        width = compress_patterns(genes[0][1].alignment).n_patterns
        calibration = [calib.measure(width)]

        def remaining() -> float:
            return RUN_LIMIT - (time.monotonic() - started)

        def one(trace_dir: Optional[str] = None, gene: int = 0):
            argv, checker = genes[gene]
            if os.path.exists(journal):
                os.remove(journal)
            sample = invoke(argv, work, remaining(), trace_dir, pause=trace_dir is None)
            if wl.command == "run":
                outcome = checker.check_run(sample.code, _read(os.path.join(work, "stdout")))
            else:
                outcome = checker.check_survey(sample.code, journal, f"gene{gene}")
            for problem in outcome.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            ratio = outcome.lnl_sum / outcome.fits / checker.truth_lnl if outcome.fits else math.nan
            return sample, outcome, ratio

        setups, setup_norms = [], []
        # A traced run reports no setup_s; it skips the samples to stay short.
        for _ in range(0 if trace else SETUP_SAMPLES):
            spawn = calib.reference_spawn()
            setup = invoke(genes[0][0], work, remaining(), pause=False, setup_only=True).setup_s
            setups.append(setup)
            setup_norms.append(setup * calib.SPAWN_NOMINAL_S / spawn)
        samples, outcomes, ratios = [], [], []
        loop_start = time.monotonic()
        while True:
            sample, outcome, ratio = one(gene=len(samples) % len(genes))
            samples.append(sample)
            outcomes.append(outcome)
            ratios.append(ratio)
            elapsed = time.monotonic() - loop_start
            typical = elapsed / len(samples)
            if elapsed >= seconds or elapsed + typical > 1.2 * seconds:
                break
        calibration.append(calib.measure(width))
        calibration = calib.median_of(calibration)

        norms = [s.norm_s for s in samples]
        values = {
            "wall_norm_s": _median(norms),
            "setup_s": _median(setup_norms),
            "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
            "lnl_ratio": _median(ratios),
        }
        host = {
            "host.wall_s": _median([s.wall_s for s in samples]),
            "host.cpu_s": _median([s.cpu_s for s in samples]),
            "host.setup_s": _median(setups or [s.setup_s for s in samples]),
            "host.ref_s": _median([r for s in samples for r in s.refs]),
        }
        result = {
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "end_to_end": {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()},
            "host": host,
            "calibration": calibration,
            "notes": {"wall_norm_s": _tail_note(norms)},
        }
        if trace:
            result["per_layer"] = traced_run(one, work, wl, seed, result, calibration, journal)
        return result
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def journal_counters(journal: str) -> Dict[str, float]:
    """Retry and recovery counters from the survey journal's task records."""
    out = {"parallel.retries": 0, "recovery.tasks_recovered": 0, "recovery.events": 0}
    if not os.path.exists(journal):
        return out
    with open(journal, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for rec in records:
        if rec.get("kind") != "gene_result" or rec.get("mapping") is not None:
            continue  # headers, and the mapped re-journal of a task already counted
        out["parallel.retries"] += max(int(rec.get("attempts") or 1) - 1, 0)
        diagnostics = rec.get("diagnostics")
        if diagnostics:
            out["recovery.tasks_recovered"] += 1
            out["recovery.events"] += len(diagnostics.get("events") or [])
    return out


def traced_run(one, work: str, wl: Workload, seed: int, result: dict, calibration,
               journal: str) -> dict:
    """Per-layer metrics of one traced invocation (not paused, so spans stay whole)."""
    import spans

    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    sample, outcome, _ = one(trace_dir)
    result["attempted"] += outcome.attempted
    result["failed"] += outcome.failed
    procs = spans.load(trace_dir)
    layers = spans.layer_metrics(procs, sample.wall_s, result["host"]["host.wall_s"])
    layers["calib.dsymm_gflops"] = calibration["dsymm_gflops"]
    layers.update(journal_counters(journal))
    layers.update(result["host"])
    main = next(p for p in procs if p.main)
    breakdown, residual = spans.wall_breakdown(main, sample.wall_s)
    result["breakdown"] = {**breakdown, "residual": residual, "traced_wall": sample.wall_s}
    trace = spans.chrome_trace(procs)
    trace["otherData"] = {"workload": wl.name, "seed": seed, "wall_s": sample.wall_s}
    with open(os.path.join(WORK, f"trace-{wl.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return {key: (value, UNITS.get(key, "s")) for key, value in layers.items()}


#: End-to-end metrics (medians over a run's invocations) and their units.
#: ``wall_norm_s`` is the invocation's wall clock on a host of nominal
#: speed (see the module docstring).  ``lnl_ratio`` is the mean reported
#: lnL per fit over the lnL of the generating model: a speed-up that
#: buys time with less optimisation at the same iteration cap raises it.
END_TO_END_UNITS = {
    "wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "lnl_ratio": "ratio",
}

#: Units of the per-layer metrics that are not seconds.
UNITS = {
    "input.patterns": "count", "qbuild.calls": "count", "eigen.calls": "count",
    "eigen.cache_hit_ratio": "ratio", "expm.operators": "count",
    "expm.cache_hit_ratio": "ratio", "pruning.calls": "count",
    "pruning.propagations": "count", "pruning.reuse_ratio": "ratio",
    "engine.evals": "count", "engine.eval_ms": "ms", "kernel.gflop": "GFLOP",
    "kernel.blas3_frac": "ratio", "kernel.gflops": "GFLOP/s",
    "calib.dsymm_gflops": "GFLOP/s", "optimize.iterations": "count",
    "optimize.evals_per_iter": "count", "optimize.fd_share": "ratio",
    "mapping.calls": "count", "parallel.tasks": "count", "parallel.retries": "count",
    "parallel.busy_frac": "ratio", "parallel.task_slowdown": "ratio",
    "parallel.context_bytes": "bytes", "io.journal_appends": "count",
    "recovery.tasks_recovered": "count", "recovery.events": "count",
    "trace.overhead_frac": "ratio",
}


def summarize(name: str, seed: int, result: dict) -> None:
    err = sys.stderr
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name} (seed {seed}): {attempted} tests, {failed} failed, "
          f"error_rate={failed / max(attempted, 1):.4g}", file=err)
    for key, (value, unit) in result["end_to_end"].items():
        note = result["notes"].get(key, "")
        print(f"  {key:<14s} {value:>12.6g} {unit:<6s} {note}", file=err)
    host = ", ".join(f"{k}={v:.4g}" for k, v in result["host"].items())
    print(f"  host           {host}", file=err)
    cal = result["calibration"]
    print(f"  calibration    dsymm {cal['dsymm_gflops']:.3g} GF/s, "
          f"dsyrk {cal['dsyrk_gflops']:.3g} GF/s (median of before/after)", file=err)
    if "per_layer" in result:
        for key, (value, unit) in result["per_layer"].items():
            print(f"  {key:<26s} {value:>14.6g} {unit}", file=err)
        bd = result["breakdown"]
        parts = ", ".join(f"{k}={v:.3f}" for k, v in sorted(bd.items()))
        print(f"  traced wall breakdown (main process self time, s): {parts}", file=err)


def quick() -> int:
    """Every workload at toy size, traced, with every check: a smoke test."""
    ok = True
    for name, wl in WORKLOADS.items():
        result = run_workload(wl, seed=1, seconds=0.1, trace=True, toy=True,
                              started=time.monotonic())
        summarize(name, 1, result)
        ok &= result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"quick": True, "correct": ok}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload once at toy size and check it")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no slimcodeml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), toy=False, started=started)
    summarize(args.workload, args.seed, result)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    measured = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": result["failed"] == 0 and measured,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A metric that could not be measured reads 0 (strict JSON has no NaN).
        "metrics": {
            k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
