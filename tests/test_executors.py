"""Executor conformance: every backend yields the same TaskOutcome streams.

The fault-policy driver (:func:`repro.parallel.faults.run_tasks`) is
backend-agnostic; these tests pin the contract by running the same
batches over the inline, process-pool and socket backends and asserting
identical outcome signatures — including the hang-timeout and crash
kinds, which stay behind the ``slow`` marker (they spend wall clock on
real deadlines and real dead processes).

Workers are module-level so they pickle into worker processes and over
the socket executor's wire protocol.
"""

import contextlib
import faulthandler
import multiprocessing
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.parallel.executors import (
    InlineExecutor,
    ProcessPoolBackend,
    SocketExecutor,
    make_executor,
    wire,
)
from repro.parallel.executors.worker import parse_address, run_worker
from repro.parallel.faults import FaultPolicy, run_tasks

BACKENDS = ["inline", "pool", "socket"]


# ----------------------------------------------------------------------
# Module-level workers (pickleable into processes and over the wire)
# ----------------------------------------------------------------------
def _double(x, _context):
    return 2 * x


def _boom_if_odd(x, _context):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


def _flaky_via_file(payload, _context):
    """Fails until the attempt-counter file reaches the threshold."""
    path, fail_times, value = payload
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x")
    with open(path, "r", encoding="utf-8") as handle:
        attempts = len(handle.read())
    if attempts <= fail_times:
        raise RuntimeError(f"transient failure on attempt {attempts}")
    return value


def _sleep_seconds(x, _context):
    time.sleep(x)
    return x


def _ctx_scaled(payload, context):
    """Batch-context consumer: index into broadcast state."""
    return float(context["arr"][payload]) * context["scale"]


def _log_then_echo(payload, _context):
    """Appends its id to a file (exactly-once probe) and echoes it.

    The payload drags a large array along purely to make the dispatch
    frame outgrow kernel socket buffers, so a peer that stops reading
    stalls the coordinator's send mid-frame.
    """
    path, value, arr = payload
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    time.sleep(0.3)
    return (value, float(arr[0]))


def _exit_if_marked(x, _context):
    """Simulates a segfaulting/OOM-killed worker for one payload."""
    if x == "die":
        os._exit(13)
    time.sleep(0.05)
    return x


# Workers are spawned, not forked: by the time these tests run, the
# pytest process has had pool-manager threads, and forking a threaded
# parent can deadlock the child on an inherited lock before it ever
# connects.
_MP = multiprocessing.get_context("spawn")


def _worker_entry(host, port, name):
    # Diagnostic watchdog: under heavy load a spawn child can wedge in
    # interpreter start-up before it ever registers.  Dump where it is
    # (lands in pytest's captured stderr) so such hangs are
    # attributable; _spawn_fleet routes around the wedged process.
    faulthandler.dump_traceback_later(20.0, repeat=False)
    run_worker(host, port, name=name)


def _spawn_worker(port, name):
    proc = _MP.Process(
        target=_worker_entry,
        args=("127.0.0.1", port, name),
        daemon=True,
    )
    proc.start()
    return proc


def _registered_names(executor):
    with executor._lock:
        return [wid.rsplit("#", 1)[0] for wid in executor._workers]


def _spawn_fleet(executor, names, deadline_s=60.0, grace_s=15.0):
    """Spawn one worker per name and wait until that many registered.

    Acts as the supervisor a real deployment would have: a child that
    dies before saying hello is respawned, and one that wedges during
    start-up (seen on heavily loaded hosts) is routed around with an
    extra same-named process after ``grace_s``.  Returns ``(procs,
    live)``: every process ever spawned (for reaping) and the current
    holder of each name slot.
    """
    _, port = executor.address
    live = [_spawn_worker(port, name) for name in names]
    procs = list(live)
    deadline = time.monotonic() + deadline_s
    boost_at = time.monotonic() + grace_s
    boosted = False
    while executor.n_workers() < len(names) and time.monotonic() < deadline:
        registered = _registered_names(executor)
        for k, name in enumerate(names):
            if live[k].exitcode is not None and name not in registered:
                live[k] = _spawn_worker(port, name)
                procs.append(live[k])
        if not boosted and time.monotonic() >= boost_at:
            boosted = True
            for name in names:
                if name not in registered:
                    procs.append(_spawn_worker(port, name))
        time.sleep(0.1)
    return procs, live


def _reap(procs):
    """Make sure no worker process outlives its test.

    A leftover worker keeps retrying its (ephemeral) port for up to
    30s and can collide with a later test that gets the same port, so
    escalate until each child is definitely gone and reaped.
    """
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)


@contextlib.contextmanager
def backend(kind, n_workers=2):
    """Yield a started backend of ``kind`` (socket: with live workers)."""
    if kind == "inline":
        executor = InlineExecutor()
        try:
            yield executor
        finally:
            executor.shutdown()
        return
    if kind == "pool":
        executor = ProcessPoolBackend(max_workers=n_workers)
        try:
            yield executor
        finally:
            executor.shutdown()
        return
    executor = SocketExecutor(port=0, min_workers=n_workers, worker_wait=60.0)
    procs, _ = _spawn_fleet(executor, [f"w{k}" for k in range(n_workers)])
    try:
        yield executor
    finally:
        executor.shutdown()
        _reap(procs)


def signature(outcomes):
    """Backend-independent fingerprint of a TaskOutcome stream."""
    return [
        (o.task_id, o.ok, o.result, o.failure.kind if o.failure else None, o.attempts)
        for o in outcomes
    ]


# ----------------------------------------------------------------------
# Fast conformance (no timeouts, no crashes)
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_results_in_input_order(self, kind):
        with backend(kind) as executor:
            outcomes = run_tasks(_double, [3, 1, 2], executor=executor)
        assert [o.result for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_failures_captured_not_raised(self, kind):
        with backend(kind) as executor:
            outcomes = run_tasks(_boom_if_odd, [0, 1, 2, 3], executor=executor)
        assert [o.ok for o in outcomes] == [True, False, True, False]
        failure = outcomes[1].failure
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert "odd input 1" in failure.message

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_retry_recovers_transient_failure(self, kind, tmp_path):
        counter = tmp_path / f"attempts-{kind}"
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        with backend(kind) as executor:
            (outcome,) = run_tasks(
                _flaky_via_file, [(str(counter), 2, "ok")],
                policy=policy, executor=executor,
            )
        assert outcome.ok
        assert outcome.result == "ok"
        assert outcome.attempts == 3

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_on_outcome_stream_covers_every_task(self, kind):
        seen = []
        with backend(kind) as executor:
            run_tasks(
                _double, [1, 2, 3], task_ids=["a", "b", "c"],
                on_outcome=lambda o: seen.append(o.task_id), executor=executor,
            )
        assert sorted(seen) == ["a", "b", "c"]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_worker_attribution(self, kind):
        with backend(kind) as executor:
            outcomes = run_tasks(_double, [1, 2, 3, 4], executor=executor)
        workers = {o.worker for o in outcomes}
        assert None not in workers
        if kind == "inline":
            assert workers == {"inline"}
        elif kind == "pool":
            assert all(w.startswith("pid:") for w in workers)
        else:
            assert all(w.startswith("w") for w in workers)

    def test_identical_outcome_streams_across_backends(self, tmp_path):
        """The conformance claim itself: same batch, same signatures."""
        policy = FaultPolicy(max_retries=1, retry_backoff=0.0)
        streams = {}
        for kind in BACKENDS:
            with backend(kind) as executor:
                streams[kind] = signature(run_tasks(
                    _boom_if_odd, [0, 1, 2, 3, 4],
                    task_ids=[f"t{i}" for i in range(5)],
                    policy=policy, executor=executor,
                ))
        assert streams["inline"] == streams["pool"] == streams["socket"]

    def test_executor_reuse_across_batches(self):
        """One started fleet serves several run_tasks calls (scan + resume)."""
        with backend("socket") as executor:
            first = run_tasks(_double, [1, 2], executor=executor)
            second = run_tasks(_double, [5], executor=executor)
        assert [o.result for o in first] == [2, 4]
        assert second[0].result == 10

    def test_make_executor_names(self):
        assert isinstance(make_executor("inline"), InlineExecutor)
        assert isinstance(make_executor("pool", max_workers=2), ProcessPoolBackend)
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon")

    def test_parse_address(self):
        assert parse_address("10.0.0.2:7733") == ("10.0.0.2", 7733)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestSocketSpecifics:
    def test_start_without_workers_raises(self):
        executor = SocketExecutor(port=0, min_workers=1, worker_wait=0.3)
        try:
            with pytest.raises(RuntimeError, match="worker"):
                run_tasks(_double, [1], executor=executor)
        finally:
            executor.shutdown()

    def test_address_is_concrete(self):
        executor = SocketExecutor(port=0)
        try:
            host, port = executor.address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            executor.shutdown()


# ----------------------------------------------------------------------
# Broadcast context: one-shot shared state reaches fn on every backend
# ----------------------------------------------------------------------
class TestContextBroadcast:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_context_reaches_fn(self, kind):
        context = {"arr": np.arange(8, dtype=np.float64), "scale": 3}
        with backend(kind) as executor:
            outcomes = run_tasks(
                _ctx_scaled, [0, 3, 7], executor=executor, context=context
            )
        assert [o.result for o in outcomes] == [0.0, 9.0, 21.0]

    def test_socket_rebroadcasts_new_batch_context(self):
        """A reused fleet must see each batch's own context (epoch bump),
        and the data plane must bill it as broadcast, not per-task."""
        with backend("socket") as executor:
            first = run_tasks(
                _ctx_scaled, [1], executor=executor,
                context={"arr": np.array([0.0, 2.0]), "scale": 2},
            )
            second = run_tasks(
                _ctx_scaled, [1], executor=executor,
                context={"arr": np.array([0.0, 2.0]), "scale": 5},
            )
            stats = executor.wire_stats()
        assert first[0].result == 4.0
        assert second[0].result == 10.0
        # One delivery per (batch, touched worker): at least the two
        # dispatching workers; per-task frames stay index-sized.
        assert stats["broadcasts"] >= 2
        assert stats["tasks_dispatched"] == 2
        assert stats["task_bytes_mean"] < stats["broadcast_bytes"]

    def test_pool_context_replaced_between_batches(self):
        """Pool workers attach the *current* batch's shared-memory
        segment even when they cached the previous one."""
        with backend("pool") as executor:
            first = run_tasks(
                _ctx_scaled, [1], executor=executor,
                context={"arr": np.array([0.0, 2.0]), "scale": 2},
            )
            second = run_tasks(
                _ctx_scaled, [1], executor=executor,
                context={"arr": np.array([0.0, 2.0]), "scale": 5},
            )
        assert first[0].result == 4.0
        assert second[0].result == 10.0


# ----------------------------------------------------------------------
# PR 6 regressions: dispatch-stall attribution and worker idle exit
# ----------------------------------------------------------------------
def _connect_wedged_peer(port, name="wedge"):
    """A hostile 'worker': completes the hello handshake, then never
    reads again — the coordinator's next dispatch to it wedges."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    wire.send_frame(sock, wire.MSG_HELLO, 0, {"worker": name, "pid": 0})
    return sock


class TestWorkerIdleTimeout:
    def test_worker_exits_on_silent_coordinator(self):
        """Regression: the task-loop read had no timeout, so a hung
        coordinator (accepts, never speaks) wedged workers forever
        while their heartbeats kept flowing."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen()
        port = server.getsockname()[1]
        held = []
        threading.Thread(
            target=lambda: held.append(server.accept()[0]), daemon=True
        ).start()
        result = {}

        def probe():
            result["done"] = run_worker(
                "127.0.0.1", port, name="idle-probe",
                connect_timeout=10.0, idle_timeout=1.0,
            )

        thread = threading.Thread(target=probe, daemon=True)
        start = time.perf_counter()
        thread.start()
        thread.join(timeout=15.0)
        try:
            assert not thread.is_alive(), "worker wedged behind silent coordinator"
            assert result["done"] == 0
            assert time.perf_counter() - start < 10.0
        finally:
            for conn in held:
                conn.close()
            server.close()


@pytest.mark.slow
class TestDispatchStallExactlyOnce:
    def test_mid_send_stall_charges_attempt_no_duplicate(self, tmp_path):
        """Regression for the duplicate-execution bug: a dispatch that
        times out mid-``sendall`` (peer stopped reading) must be charged
        as an attributed crash — never silently requeued — and under a
        retry policy every task still executes exactly once."""
        log = tmp_path / "executions.log"
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        executor = SocketExecutor(
            port=0, min_workers=1, worker_wait=60.0, heartbeat_timeout=3.0
        )
        procs, _ = _spawn_fleet(executor, ["real"])
        peer = _connect_wedged_peer(executor.address[1])
        deadline = time.monotonic() + 30.0
        while executor.n_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert executor.n_workers() == 2, "wedged peer failed to register"
        # 64 MB of payload per task: comfortably beyond loopback socket
        # buffering, so the send to the wedged peer cannot complete.
        big = np.zeros(8_000_000, dtype=np.float64)
        payloads = [(str(log), k, big) for k in range(6)]
        try:
            outcomes = run_tasks(
                _log_then_echo, payloads, policy=policy, executor=executor
            )
        finally:
            peer.close()
            executor.shutdown()
            _reap(procs)
        assert all(o.ok for o in outcomes), [o.failure for o in outcomes]
        assert [o.result for o in outcomes] == [(k, 0.0) for k in range(6)]
        # Exactly-once: each task's side effect happened a single time
        # even though one dispatch crashed and was retried.
        ran = sorted(int(line) for line in log.read_text().splitlines())
        assert ran == list(range(6))
        # The stalled dispatch was charged an attempt (crash), not
        # silently requeued as if it had never run.
        assert sum(o.attempts for o in outcomes) == len(payloads) + 1


# ----------------------------------------------------------------------
# Slow conformance: hang-timeout and crash kinds
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFaultKindsAcrossBackends:
    @pytest.mark.parametrize("kind", ["pool", "socket"])
    def test_hung_task_times_out_without_masking_others(self, kind):
        policy = FaultPolicy(task_timeout=1.5)
        start = time.perf_counter()
        with backend(kind) as executor:
            outcomes = run_tasks(
                _sleep_seconds, [30.0, 0.05, 0.05, 0.05],
                policy=policy, executor=executor,
            )
        wall = time.perf_counter() - start
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "timeout"
        assert "task_timeout" in outcomes[0].failure.message
        assert all(o.ok for o in outcomes[1:])
        # The 30s sleeper was abandoned, not awaited.
        assert wall < 15.0

    @pytest.mark.parametrize("kind", ["pool", "socket"])
    def test_worker_crash_recovers_surviving_tasks(self, kind):
        payloads = ["a", "die", "b", "c", "d"]
        with backend(kind) as executor:
            outcomes = run_tasks(_exit_if_marked, payloads, executor=executor)
        by_payload = dict(zip(payloads, outcomes))
        assert not by_payload["die"].ok
        assert by_payload["die"].failure.kind == "pool"
        for key in ("a", "b", "c", "d"):
            assert by_payload[key].ok, f"{key}: {by_payload[key].failure}"
            assert by_payload[key].result == key

    def test_sigkilled_worker_mid_batch_retries_on_survivor(self):
        """The distributed acceptance case: kill one of two workers while
        the batch runs; retries land on the survivor and the batch
        completes with every result intact."""
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        executor = SocketExecutor(port=0, min_workers=2, worker_wait=60.0)
        procs, live = _spawn_fleet(executor, ["victim", "survivor"])
        victim = live[0]
        killed = []

        def kill_victim_once(outcome):
            if not killed:
                killed.append(True)
                os.kill(victim.pid, signal.SIGKILL)

        try:
            outcomes = run_tasks(
                _sleep_seconds, [0.3] * 8,
                policy=policy, on_outcome=kill_victim_once, executor=executor,
            )
        finally:
            executor.shutdown()
            _reap(procs)
        assert all(o.ok for o in outcomes)
        assert {o.result for o in outcomes} == {0.3}
        # Whatever the victim dropped was re-run (as a pool-kind retry).
        assert any(o.worker and o.worker.startswith("survivor") for o in outcomes)


# ----------------------------------------------------------------------
# Gene-level acceptance: distributed scans match the pool bit-for-bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gene():
    from repro.alignment.simulate import simulate_alignment
    from repro.models.branch_site import BranchSiteModelA
    from repro.trees.newick import parse_newick

    tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
    values = {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
    sim = simulate_alignment(tree, BranchSiteModelA(), values, n_codons=60, seed=5)
    return tree, sim.alignment


def _gene_jobs(gene, n):
    from repro.parallel.batch import GeneJob

    tree, alignment = gene
    return [GeneJob.from_objects(f"g{k}", tree, alignment) for k in range(n)]


def _result_fingerprint(result):
    return (
        result.gene_id, result.lnl0, result.lnl1, result.statistic,
        result.pvalue, result.iterations, result.n_evaluations,
        result.attempts, result.error,
    )


@pytest.mark.slow
class TestDistributedAcceptance:
    def test_socket_scan_numerically_identical_to_pool(self, gene, tmp_path):
        """ISSUE acceptance: a two-worker socket scan produces the same
        report and journal (modulo worker identity and wall clock) as
        the process-pool backend on the same seed."""
        from repro.io.results_io import ResultJournal
        from repro.parallel.batch import analyze_genes

        jobs = _gene_jobs(gene, 3)
        pool_journal = tmp_path / "pool.jsonl"
        with backend("pool") as executor:
            via_pool = analyze_genes(
                jobs, max_iterations=1, seed=23,
                journal=str(pool_journal), executor=executor,
            )
        socket_journal = tmp_path / "socket.jsonl"
        with backend("socket") as executor:
            via_socket = analyze_genes(
                jobs, max_iterations=1, seed=23,
                journal=str(socket_journal), executor=executor,
            )
        assert [_result_fingerprint(r) for r in via_pool] == [
            _result_fingerprint(r) for r in via_socket
        ]
        # Journals append in completion order, which two workers make
        # nondeterministic — compare them gene-by-gene, not line-by-line.
        pool_entries = ResultJournal(str(pool_journal)).load()
        socket_entries = ResultJournal(str(socket_journal)).load()
        assert sorted(_result_fingerprint(r) for r in pool_entries) == sorted(
            _result_fingerprint(r) for r in socket_entries
        )
        # And the socket run really was distributed.
        assert any(r.worker and r.worker.startswith("w") for r in via_socket)

    def test_map_payloads_bit_identical_across_backends(self, gene):
        """Every task keeps its H1 MLEs, from which the resume fallback
        (:func:`map_survey_candidates`) maps in the coordinator.  The
        kept MLEs cannot depend on which process ran the task — inline,
        pool and socket backends must return bit-identical ``h1_mles`` —
        and so neither can the mappings computed from each backend's
        results (timing aside)."""
        from repro.parallel.batch import map_survey_candidates, scan_branches

        tree, alignment = gene
        snapshots = {}
        for kind in BACKENDS:
            with backend(kind) as executor:
                scan = scan_branches(
                    "g", tree, alignment, internal_only=True,
                    max_iterations=1, seed=23, executor=executor,
                )
            assert scan.ok, scan.failures
            assert all(r.h1_mles for r in scan.gene_results)
            payloads = map_survey_candidates("g", tree, alignment, scan, list(scan.by_branch))
            assert payloads.keys() == scan.by_branch.keys()
            mappings = []
            for label, payload in payloads.items():
                mapping = dict(payload)
                assert "error" not in mapping
                assert mapping["method"] == "exact"
                mapping.pop("seconds")  # wall clock is per-host noise
                mappings.append((label, mapping))
            snapshots[kind] = (
                [(r.gene_id, r.h1_mles) for r in scan.gene_results], mappings,
            )
        assert snapshots["inline"] == snapshots["pool"] == snapshots["socket"]

    def test_sigkilled_worker_leaves_resumable_journal(self, gene, tmp_path):
        """ISSUE acceptance: SIGKILL one of two workers mid-batch; the
        run completes anyway and its journal resumes cleanly (nothing
        recomputed on resume)."""
        from repro.io.results_io import ResultJournal
        from repro.parallel.batch import analyze_genes

        jobs = _gene_jobs(gene, 5)
        journal = tmp_path / "scan.jsonl"
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        executor = SocketExecutor(port=0, min_workers=2, worker_wait=60.0)
        procs, live = _spawn_fleet(executor, ["victim", "survivor"])
        victim = live[0]
        killed = []

        def kill_victim_once(index, result):
            if not killed:
                killed.append(True)
                os.kill(victim.pid, signal.SIGKILL)

        try:
            results = analyze_genes(
                jobs, max_iterations=1, seed=23, policy=policy,
                journal=str(journal), on_result=kill_victim_once,
                executor=executor,
            )
        finally:
            executor.shutdown()
            _reap(procs)
        assert all(not r.failed for r in results)
        assert ResultJournal(str(journal)).completed().keys() == {
            job.gene_id for job in jobs
        }
        # Resume recomputes nothing: every gene comes back from the journal.
        resumed = analyze_genes(
            jobs, max_iterations=1, seed=23,
            journal=str(journal), resume=True,
        )
        by_id = {r.gene_id: r for r in results}
        for r in resumed:
            assert r.lnl1 == by_id[r.gene_id].lnl1
            assert r.n_evaluations == by_id[r.gene_id].n_evaluations
