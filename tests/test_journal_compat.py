"""Journal backward compatibility across committed schema versions.

One fixture file per historical journal version (v2 added the header,
v3 diagnostics, v4 clv_stats, v5 setup_seconds, v6 the model spec, v7
rung_usage + the substitution-mapping payload, v8 the additive
``mapping_ci``/``seconds``/``method`` mapping keys and ``h1_mles``, v9
per-hypothesis ``converged``, v10 the open ``metrics`` map that replaced
the v4/v5/v7 counter fields, v11 the exact mapping payload with no
``n_samples``/``mapping_ci``); the tolerant reader must load every one
of them, with the old counter fields mapped into ``metrics`` — that is
the contract that lets a scan journalled by an old release resume on a
new one.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.io.results_io import JOURNAL_VERSION, ResultJournal

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "journals")
VERSIONS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


def _fixture(version):
    return os.path.join(FIXTURES, f"journal_v{version}.jsonl")


class TestFixtureVersions:
    def test_current_version_has_a_committed_fixture(self):
        # Forces whoever bumps JOURNAL_VERSION to also commit the fixture
        # (and extend VERSIONS) so the new layout stays covered forever.
        assert JOURNAL_VERSION in VERSIONS
        assert os.path.exists(_fixture(JOURNAL_VERSION))

    @pytest.mark.parametrize("version", VERSIONS)
    def test_header_declares_its_version(self, version):
        with open(_fixture(version), encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["kind"] == "journal_header"
        assert header["version"] == version

    @pytest.mark.parametrize("version", VERSIONS)
    def test_loads_every_record(self, version):
        results = ResultJournal(_fixture(version)).load()
        assert len(results) == 2
        assert all(r.gene_id.startswith("gene1:") for r in results)
        # The success common to every fixture round-trips its numerics.
        ok = next(r for r in results if r.gene_id == "gene1:A")
        assert not ok.failed
        assert ok.lnl0 == -1042.5 and ok.lnl1 == -1039.25
        assert ok.statistic == 6.5

    @pytest.mark.parametrize("version", VERSIONS)
    def test_completed_resumes_successes_only(self, version):
        done = ResultJournal(_fixture(version)).completed()
        assert "gene1:A" in done
        assert all(not r.failed for r in done.values())

    def test_v2_failure_record_restores_nan_and_failure(self):
        results = ResultJournal(_fixture(2)).load()
        failed = next(r for r in results if r.gene_id == "gene1:B")
        assert failed.failed
        assert math.isnan(failed.lnl0) and math.isnan(failed.pvalue)
        assert failed.failure is not None
        assert failed.failure.error_type == "ValueError"

    def test_v3_diagnostics_survive(self):
        results = ResultJournal(_fixture(3)).load()
        diagnosed = next(r for r in results if r.gene_id == "gene1:A")
        assert diagnosed.diagnostics["restarts"] == 1
        assert diagnosed.diagnostics["boundary_flags"] == ["h1:omega2_upper"]

    def test_v4_clv_stats_survive(self):
        by_id = {r.gene_id: r for r in ResultJournal(_fixture(4)).load()}
        assert by_id["gene1:A"].metrics == {"clv_propagations": 412, "clv_reuses": 1888}
        assert by_id["gene1:D"].metrics == {}  # clv_stats: null

    def test_v5_setup_seconds_survive(self):
        by_id = {r.gene_id: r for r in ResultJournal(_fixture(5)).load()}
        assert by_id["gene1:A"].metrics == {
            "clv_propagations": 398, "clv_reuses": 1902,
            "setup_s": 0.041, "cold_starts": 1,
        }
        # A warm task (setup_seconds 0.0) paid no cold start.
        assert by_id["gene1:E"].metrics == {}

    def test_v6_model_spec_survives(self):
        results = ResultJournal(_fixture(6)).load()
        by_id = {r.gene_id: r for r in results}
        assert by_id["gene1:A"].model == "bsrel:3"
        assert by_id["gene1:F"].model == "branch-site-A"

    def test_v7_rung_usage_and_mapping_survive(self):
        results = ResultJournal(_fixture(7)).load()
        by_id = {r.gene_id: r for r in results}
        mapped = by_id["gene1:A"]
        assert mapped.metrics == {
            "rung_evr": 1380, "rung_pade": 14, "rung_uniformization": 2,
            "setup_s": 0.038, "cold_starts": 1,
        }
        assert mapped.mapping["n_samples"] == 16
        rows = {row["branch"]: row for row in mapped.mapping["branches"]}
        assert rows["A"]["foreground"] and rows["A"]["ratio"] == 1.25
        assert rows["B"]["ratio"] is None  # zero syn events: undefined
        assert mapped.mapping["foreground_sites"]["nonsyn"] == [2.0, 0.0, 1.25]
        # A task that ran without --map / recovery journals None for both.
        assert by_id["gene1:F"].metrics == {}
        assert by_id["gene1:F"].mapping is None

    def test_v8_mapping_ci_and_h1_mles_survive(self):
        results = ResultJournal(_fixture(8)).load()
        by_id = {r.gene_id: r for r in results}
        mapped = by_id["gene1:A"]
        # Everything v7 carried is still there …
        assert mapped.mapping["n_samples"] == 16
        rows = {row["branch"]: row for row in mapped.mapping["branches"]}
        assert rows["A"]["ratio"] == 1.25 and rows["B"]["ratio"] is None
        # … plus the v8 additions: CI half-widths, sampler timing/method,
        # and the H1 MLE point the one-pass survey mapper re-binds at.
        ci = mapped.mapping["mapping_ci"]
        assert ci["level"] == 0.95
        assert {row["branch"] for row in ci["branches"]} == {"A", "B"}
        assert len(ci["foreground_sites"]["nonsyn"]) == 3
        assert mapped.mapping["method"] == "batched"
        assert mapped.mapping["seconds"] == 0.052
        assert mapped.h1_mles["values"]["omega2"] == 4.6
        assert mapped.h1_mles["branch_lengths"] == [0.31, 0.05]
        assert by_id["gene1:F"].h1_mles is None

    def test_v9_converged_survives(self):
        by_id = {r.gene_id: r for r in ResultJournal(_fixture(9)).load()}
        assert by_id["gene1:A"].converged == {"h0": True, "h1": False}
        assert by_id["gene1:A"].unconverged == ["H1"]
        assert by_id["gene1:F"].unconverged == []

    def test_v10_metrics_survive(self):
        by_id = {r.gene_id: r for r in ResultJournal(_fixture(10)).load()}
        metrics = by_id["gene1:A"].metrics
        assert metrics["clv_propagations"] == 398 and metrics["clv_reuses"] == 1902
        assert metrics["rung_evr"] == 1380 and metrics["rung_uniformization"] == 2
        assert metrics["setup_s"] == 0.038 and metrics["cold_starts"] == 1
        assert metrics["newer_counter"] == 7  # a key this reader never heard of
        assert by_id["gene1:F"].metrics == {}

    def test_v10_unknown_metric_survives_load_and_append(self, tmp_path):
        originals = ResultJournal(_fixture(10)).load()
        path = tmp_path / "again.jsonl"
        with ResultJournal(path) as journal:
            for result in originals:
                journal.append(result)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[1]["metrics"]["newer_counter"] == 7
        reloaded = {r.gene_id: r for r in ResultJournal(path).load()}
        assert reloaded["gene1:A"].metrics == originals[0].metrics

    def test_v11_exact_mapping_survives(self):
        by_id = {r.gene_id: r for r in ResultJournal(_fixture(11)).load()}
        mapping = by_id["gene1:A"].mapping
        assert mapping["method"] == "exact"
        assert "n_samples" not in mapping and "mapping_ci" not in mapping
        rows = {row["branch"]: row for row in mapping["branches"]}
        assert rows["A"]["ratio"] == 1.25 and rows["B"]["ratio"] is None
        assert mapping["foreground_sites"]["nonsyn"] == [2.0, 0.0, 1.25]
        assert by_id["gene1:F"].mapping is None

    @pytest.mark.parametrize("version", (7, 8, 10, 11))
    def test_every_mapping_payload_renders_its_means(self, version):
        from repro.io.report import format_mapping_block

        by_id = {r.gene_id: r for r in ResultJournal(_fixture(version)).load()}
        block = format_mapping_block(by_id["gene1:A"].mapping)
        lines = block.splitlines()
        assert lines[0].split() == ["branch", "fg", "length", "E[syn]", "E[nonsyn]", "N/S"]
        assert lines[1].split() == ["A", "#1", "0.3100", "5.000", "6.250", "1.250"]
        assert "±" not in block
        assert "site     1   E[nonsyn]=2.000   E[syn]=1.000" in block

    @pytest.mark.parametrize("version", [v for v in VERSIONS if v < 9])
    def test_older_versions_read_convergence_as_unknown(self, version):
        # Pre-v9 journals never recorded convergence: unknown, not "converged".
        for result in ResultJournal(_fixture(version)).load():
            assert result.converged is None
            assert result.unconverged == []

    @pytest.mark.parametrize("version", [v for v in VERSIONS if v < 6])
    def test_older_versions_default_model_to_none(self, version):
        # Pre-v6 journals never recorded the model: readers see None and
        # treat it as the historical model-A default.
        for result in ResultJournal(_fixture(version)).load():
            assert result.model is None

    @pytest.mark.parametrize("version", [v for v in VERSIONS if v < 7])
    def test_older_versions_default_mapping_fields_to_none(self, version):
        # Pre-v7 journals never recorded rung usage or mapping payloads.
        for result in ResultJournal(_fixture(version)).load():
            assert not any(key.startswith("rung_") for key in result.metrics)
            assert result.mapping is None

    @pytest.mark.parametrize("version", [v for v in VERSIONS if v < 8])
    def test_older_versions_default_h1_mles_to_none(self, version):
        # Pre-v8 journals never kept the H1 MLE point.
        for result in ResultJournal(_fixture(version)).load():
            assert result.h1_mles is None


class TestForwardGuards:
    def test_newer_major_version_refused(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "journal_header", "schema": 1, "version": JOURNAL_VERSION + 1})
            + "\n"
        )
        with pytest.raises(ValueError, match="newer"):
            ResultJournal(path).load()

    def test_unknown_record_kinds_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with open(_fixture(JOURNAL_VERSION), encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, json.dumps({"kind": "survey_summary", "schema": 1, "holm": []}) + "\n")
        path.write_text("".join(lines))
        assert len(ResultJournal(path).load()) == 2

    def test_roundtrip_rewrites_current_fixture_shape(self, tmp_path):
        # A fresh journal written today must parse as the current version
        # fixture does: append → load is the identity on the fields.
        originals = ResultJournal(_fixture(JOURNAL_VERSION)).load()
        path = tmp_path / "rewrite.jsonl"
        with ResultJournal(path) as journal:
            for result in originals:
                journal.append(result)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["version"] == JOURNAL_VERSION
        reloaded = ResultJournal(path).load()
        assert [r.gene_id for r in reloaded] == [r.gene_id for r in originals]
        assert [r.model for r in reloaded] == [r.model for r in originals]
        assert [r.converged for r in reloaded] == [r.converged for r in originals]
        assert [r.metrics for r in reloaded] == [r.metrics for r in originals]
        assert np.allclose(
            [r.lnl1 for r in reloaded], [r.lnl1 for r in originals]
        )
