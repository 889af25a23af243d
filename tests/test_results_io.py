"""The JSONL result journal: record layout, round trips and versioning."""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.io.results_io import (
    JOURNAL_VERSION,
    SCHEMA_VERSION,
    ResultJournal,
    gene_result_from_dict,
    gene_result_to_dict,
)
from repro.optimize.lrt import likelihood_ratio_test
from repro.optimize.ml import BranchSiteTest, FitResult
from repro.parallel.batch import GeneResult
from repro.parallel.faults import TaskFailure


def _ok_result(gene_id="g1", lnl1=-100.0, n_evaluations=42):
    return GeneResult(
        gene_id=gene_id, lnl0=-105.0, lnl1=lnl1, statistic=10.0,
        pvalue=0.0015, iterations=12, runtime_seconds=0.8,
        n_evaluations=n_evaluations, attempts=1,
    )


def _failed_result(gene_id="g1", kind="error"):
    failure = TaskFailure(
        task_id=gene_id, kind=kind, error_type="RuntimeError",
        message="boom", attempts=2,
    )
    return GeneResult.from_failure(failure)


@pytest.fixture
def fit():
    return FitResult(
        model_name="branch-site model A (H1)",
        engine_name="slim",
        lnl=-1234.567890123,
        values={"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.5, "p1": 0.3},
        branch_lengths=np.array([0.1, 0.2, 0.3]),
        n_iterations=42,
        n_evaluations=731,
        runtime_seconds=12.5,
        converged=True,
        message="gradient norm small",
    )


@pytest.fixture
def bstest(fit):
    h0 = FitResult(
        model_name="branch-site model A (H0, omega2=1)",
        engine_name="slim",
        lnl=-1240.0,
        values={"kappa": 2.5, "omega0": 0.3, "p0": 0.5, "p1": 0.3},
        branch_lengths=np.array([0.1, 0.2, 0.3]),
        n_iterations=40,
        n_evaluations=700,
        runtime_seconds=11.0,
        converged=True,
        message="ok",
    )
    return BranchSiteTest(h0=h0, h1=fit, lrt=likelihood_ratio_test(-1240.0, fit.lnl))


class TestGeneResultRoundTrip:
    def test_success_roundtrip(self):
        res = _ok_result()
        back = gene_result_from_dict(gene_result_to_dict(res))
        assert back.gene_id == res.gene_id
        assert back.lnl1 == res.lnl1
        assert back.n_evaluations == res.n_evaluations
        assert not back.failed
        assert back.failure is None

    def test_failure_roundtrip_keeps_structure(self):
        res = _failed_result(kind="timeout")
        payload = gene_result_to_dict(res)
        # NaN numerics must serialise as JSON null, not the invalid NaN token.
        text = json.dumps(payload)
        assert "NaN" not in text
        back = gene_result_from_dict(json.loads(text))
        assert back.failed
        assert np.isnan(back.lnl1) and np.isnan(back.pvalue)
        assert back.failure.kind == "timeout"
        assert back.failure.attempts == 2
        assert "boom" in back.error

    def test_every_field_roundtrips(self, tmp_path):
        # Every field set away from its default, so a field the journal
        # drops or mangles fails here, and a new field must be added.
        failure = TaskFailure(
            task_id="g9", kind="timeout", error_type="TaskTimeout",
            message="over budget", attempts=3,
        )
        full = GeneResult(
            gene_id="g9", lnl0=-105.25, lnl1=-100.5, statistic=9.5,
            pvalue=0.002, iterations=12, runtime_seconds=0.75,
            error="TaskTimeout: over budget", n_evaluations=42, attempts=3,
            failure=failure, worker="w-7",
            diagnostics={"restarts": 1, "boundary_flags": ["h1:omega2_upper"], "events": []},
            metrics={"clv_propagations": 398, "setup_s": 0.038, "cold_starts": 1},
            model="bsrel:3",
            mapping={"n_samples": 16, "branches": [{"branch": "A", "ratio": None}]},
            h1_mles={"values": {"kappa": 2.1, "omega2": 4.6}, "branch_lengths": [0.31, 0.05]},
            converged={"h0": True, "h1": False},
        )
        defaults = GeneResult("g", 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        assert [
            f.name for f in fields(GeneResult)
            if getattr(full, f.name) == getattr(defaults, f.name)
        ] == []
        assert [
            f.name for f in fields(TaskFailure)
            if getattr(failure, f.name) in ("", 0, None)
        ] == []
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(full)
        (loaded,) = ResultJournal(str(path)).load()
        assert loaded == full
        assert isinstance(loaded.failure, TaskFailure)

    def test_kind_checked(self):
        payload = gene_result_to_dict(_ok_result())
        payload["kind"] = "fit"
        with pytest.raises(ValueError, match="gene_result"):
            gene_result_from_dict(payload)


class TestResultJournal:
    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
            journal.append(_failed_result("g1"))
            journal.append(_ok_result("g2"))
        entries = ResultJournal(str(path)).load()
        assert [e.gene_id for e in entries] == ["g0", "g1", "g2"]
        assert [e.failed for e in entries] == [False, True, False]

    def test_completed_excludes_failures(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
            journal.append(_failed_result("g1"))
        done = ResultJournal(str(path)).completed()
        assert set(done) == {"g0"}

    def test_later_failure_supersedes_success(self, tmp_path):
        # A re-run that failed must force recomputation even if an older
        # success for the same gene sits earlier in the journal.
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
            journal.append(_failed_result("g0"))
        assert ResultJournal(str(path)).completed() == {}

    def test_later_success_supersedes_earlier(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0", lnl1=-100.0))
            journal.append(_ok_result("g0", lnl1=-90.0))
        done = ResultJournal(str(path)).completed()
        assert done["g0"].lnl1 == -90.0

    def test_truncated_final_line_tolerated(self, tmp_path):
        # A killed run can leave a half-written last record; resume must
        # drop it silently and treat that gene as unfinished.
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
            journal.append(_ok_result("g1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "gene_result", "gene_id": "g2"')
        entries = ResultJournal(str(path)).load()
        assert [e.gene_id for e in entries] == ["g0", "g1"]
        assert set(ResultJournal(str(path)).completed()) == {"g0", "g1"}

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g1"))
        with pytest.raises(ValueError, match="corrupt journal"):
            ResultJournal(str(path)).load()

    def test_missing_file_is_empty(self, tmp_path):
        journal = ResultJournal(str(tmp_path / "absent.jsonl"))
        assert journal.load() == []
        assert journal.completed() == {}

    def test_append_is_durable_per_record(self, tmp_path):
        # Each append must be visible to a concurrent reader immediately
        # (flush+fsync) — that is the whole point of the checkpoint.
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
            assert len(ResultJournal(str(path)).load()) == 1
            journal.append(_ok_result("g1"))
            assert len(ResultJournal(str(path)).load()) == 2

    def test_gradient_norm_and_cap_flags_roundtrip(self, tmp_path, bstest):
        # Per hypothesis: the exact grad_norm and whether the fit stopped
        # on its iteration budget, in the open metrics map (no version bump).
        from dataclasses import replace

        from repro.core.engine import make_engine
        from repro.optimize.bfgs import ITERATION_CAP
        from repro.parallel.batch import _assemble_result

        h0 = replace(bstest.h0, converged=False, message=ITERATION_CAP, grad_norm=0.125)
        h1 = replace(bstest.h1, grad_norm=3.0e-5)
        test = BranchSiteTest(h0=h0, h1=h1, lrt=bstest.lrt)
        result = _assemble_result("g0", test, make_engine("slim-v2"))
        expected = {"grad_norm_h0": 0.125, "grad_norm_h1": 3.0e-5, "capped_h0": 1, "capped_h1": 0}
        assert {key: result.metrics[key] for key in expected} == expected
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(result)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["version"] == JOURNAL_VERSION == 11
        (loaded,) = ResultJournal(str(path)).load()
        assert {key: loaded.metrics[key] for key in expected} == expected
        assert loaded.metrics == result.metrics


class TestJournalVersioning:
    def test_fresh_journal_starts_with_versioned_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "journal_header"
        assert first["version"] == JOURNAL_VERSION
        assert first["schema"] == SCHEMA_VERSION

    def test_header_written_once_across_reopens(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g1"))
        headers = [
            line for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "journal_header"
        ]
        assert len(headers) == 1

    def test_headerless_v1_journal_still_loads(self, tmp_path):
        # Journals written before the header existed must stay resumable.
        path = tmp_path / "old.jsonl"
        record = gene_result_to_dict(_ok_result("g0"))
        path.write_text(json.dumps(record) + "\n")
        entries = ResultJournal(str(path)).load()
        assert [e.gene_id for e in entries] == ["g0"]

    def test_unknown_record_kind_skipped(self, tmp_path):
        # A newer writer may add record kinds; the reader must skip, not die.
        path = tmp_path / "j.jsonl"
        with ResultJournal(str(path)) as journal:
            journal.append(_ok_result("g0"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "scan_checkpoint", "at": 3}) + "\n")
        entries = ResultJournal(str(path)).load()
        assert [e.gene_id for e in entries] == ["g0"]

    def test_unknown_record_keys_ignored(self, tmp_path):
        # A newer writer may add fields to gene_result records too.
        path = tmp_path / "j.jsonl"
        record = gene_result_to_dict(_ok_result("g0"))
        record["carbon_footprint_grams"] = 12.5
        path.write_text(json.dumps(record) + "\n")
        entries = ResultJournal(str(path)).load()
        assert entries[0].gene_id == "g0"
        assert entries[0].lnl1 == -100.0

    def test_newer_journal_version_refused(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {"kind": "journal_header", "schema": SCHEMA_VERSION,
                  "version": JOURNAL_VERSION + 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="newer than"):
            ResultJournal(str(path)).load()

    def test_worker_identity_roundtrips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        res = _ok_result("g0")
        res.worker = "node7:pid123"
        with ResultJournal(str(path)) as journal:
            journal.append(res)
        (entry,) = ResultJournal(str(path)).load()
        assert entry.worker == "node7:pid123"
