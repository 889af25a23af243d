"""Fault layer: retry/timeout policy and pool recovery (repro.parallel.faults).

Workers are module-level so they pickle into real worker processes; the
pool-based hang/crash tests are marked ``slow`` (they spend wall-clock
on real timeouts and process restarts).
"""

import os
import time

import pytest

from repro.parallel.executors import InlineExecutor, ProcessPoolBackend
from repro.parallel.faults import FaultPolicy, TaskFailure, run_tasks


# ----------------------------------------------------------------------
# Module-level workers (pickleable into worker processes)
# ----------------------------------------------------------------------
def _double(x, _context):
    return 2 * x


def _boom(x, _context):
    raise ValueError(f"bad input {x}")


def _boom_if_odd(x, _context):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


def _sleep_seconds(x, _context):
    time.sleep(x)
    return x


def _exit_if_marked(x, _context):
    """Simulates a segfaulting/OOM-killed worker for one payload."""
    if x == "die":
        os._exit(13)
    time.sleep(0.05)
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


class TestFaultPolicy:
    def test_defaults_fail_soft_no_retries(self):
        policy = FaultPolicy()
        assert policy.max_retries == 0
        assert policy.task_timeout is None

    def test_backoff_grows_exponentially(self):
        policy = FaultPolicy(retry_backoff=0.5)
        assert policy.backoff_seconds(1) == 0.5
        assert policy.backoff_seconds(2) == 1.0
        assert policy.backoff_seconds(3) == 2.0

    def test_zero_backoff(self):
        assert FaultPolicy(retry_backoff=0.0).backoff_seconds(3) == 0.0

    def test_default_backoff_is_deterministic(self):
        """Repeated calls return the exact exponential schedule — no
        hidden randomness."""
        policy = FaultPolicy(retry_backoff=1.0)
        assert [policy.backoff_seconds(2) for _ in range(5)] == [2.0] * 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"max_pool_restarts": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestRunTasksInline:
    def test_results_in_input_order(self):
        outcomes = run_tasks(_double, [3, 1, 2], executor=InlineExecutor())
        assert [o.result for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_failure_captured_not_raised(self):
        outcomes = run_tasks(_boom_if_odd, [0, 1, 2], executor=InlineExecutor())
        assert [o.ok for o in outcomes] == [True, False, True]
        failure = outcomes[1].failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert "odd input 1" in failure.message

    def test_retry_recovers_transient_failure(self, tmp_path):
        counter = tmp_path / "attempts"
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        (outcome,) = run_tasks(
            _flaky_via_file, [(str(counter), 2, "ok")], policy=policy, executor=InlineExecutor()
        )
        assert outcome.ok
        assert outcome.result == "ok"
        assert outcome.attempts == 3

    def test_retries_exhausted_reports_total_attempts(self):
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        (outcome,) = run_tasks(_boom, ["x"], policy=policy, executor=InlineExecutor())
        assert not outcome.ok
        assert outcome.failure.attempts == 3

    def test_on_outcome_fires_per_task(self):
        seen = []
        run_tasks(_double, [1, 2], on_outcome=lambda o: seen.append(o.task_id),
                  executor=InlineExecutor())
        assert seen == ["task-0", "task-1"]

    def test_custom_task_ids(self):
        outcomes = run_tasks(_boom, ["x"], task_ids=["geneA"], executor=InlineExecutor())
        assert outcomes[0].failure.task_id == "geneA"

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="task ids"):
            run_tasks(_double, [1, 2], task_ids=["only-one"], executor=InlineExecutor())

    def test_empty_batch(self):
        assert run_tasks(_double, [], InlineExecutor()) == []


class TestRunTasksPool:
    def test_mixed_success_and_failure(self):
        with ProcessPoolBackend(2) as executor:
            outcomes = run_tasks(_boom_if_odd, [0, 1, 2, 3], executor)
        assert [o.ok for o in outcomes] == [True, False, True, False]
        assert outcomes[2].result == 2
        assert outcomes[1].failure.kind == "error"

    def test_retry_in_pool(self, tmp_path):
        counter = tmp_path / "attempts"
        policy = FaultPolicy(max_retries=1, retry_backoff=0.0)
        with ProcessPoolBackend(2) as executor:
            (outcome,) = run_tasks(
                _flaky_via_file, [(str(counter), 1, 7)], executor, policy=policy
            )
        assert outcome.ok
        assert outcome.result == 7
        assert outcome.attempts == 2

    @pytest.mark.slow
    def test_hung_task_times_out_without_masking_others(self):
        policy = FaultPolicy(task_timeout=1.5)
        start = time.perf_counter()
        with ProcessPoolBackend(2) as executor:
            outcomes = run_tasks(
                _sleep_seconds,
                [30.0, 0.05, 0.05, 0.05],
                executor,
                policy=policy,
            )
            wall = time.perf_counter() - start
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "timeout"
        assert "task_timeout" in outcomes[0].failure.message
        assert all(o.ok for o in outcomes[1:])
        # The 30s sleeper was abandoned, not awaited.
        assert wall < 15.0

    @pytest.mark.slow
    def test_worker_crash_recovers_surviving_tasks(self):
        payloads = ["a", "die", "b", "c", "d"]
        with ProcessPoolBackend(2) as executor:
            outcomes = run_tasks(_exit_if_marked, payloads, executor)
        by_payload = dict(zip(payloads, outcomes))
        assert not by_payload["die"].ok
        assert by_payload["die"].failure.kind == "pool"
        # Every surviving task completed on a fresh pool.
        for key in ("a", "b", "c", "d"):
            assert by_payload[key].ok, f"{key}: {by_payload[key].failure}"
            assert by_payload[key].result == key

    @pytest.mark.slow
    def test_crash_loop_exhausts_retries_in_quarantine(self):
        policy = FaultPolicy(max_retries=2, retry_backoff=0.0)
        with ProcessPoolBackend(1) as executor:
            outcomes = run_tasks(_exit_if_marked, ["die"], executor, policy=policy)
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "pool"
        # The quarantine round pins every crash on the culprit, charging
        # one attempt per crash until retries run out.
        assert outcomes[0].failure.attempts == 3
