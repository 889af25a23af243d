"""CLI end-to-end on tiny inputs."""

import re

import numpy as np
import pytest
import scipy.linalg

from repro.alignment.parsers import read_alignment
from repro.cli import _read_tree, build_parser, main


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["run", "--seqfile", "a", "--treefile", "b"],
            ["simulate", "--prefix", "x"],
            ["datasets", "--outdir", "d"],
            ["scan", "--seqfile", "a", "--treefile", "b"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_requires_inputs(self, capsys):
        rc = main(["run"])
        assert rc == 2
        assert "provide --ctl" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("cli") / "tiny"
    rc = main(
        ["simulate", "--species", "5", "--codons", "40", "--seed", "3", "--prefix", str(prefix)]
    )
    assert rc == 0
    return prefix


class TestSimulate:
    def test_outputs_written(self, tiny_dataset):
        assert (tiny_dataset.parent / "tiny.phy").exists()
        assert (tiny_dataset.parent / "tiny.nwk").exists()

    def test_tree_has_foreground_mark(self, tiny_dataset):
        assert "#1" in (tiny_dataset.parent / "tiny.nwk").read_text()


class TestRun:
    def test_run_to_file(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "report.mlc"
        rc = main(
            [
                "run",
                "--seqfile", str(tiny_dataset) + ".phy",
                "--treefile", str(tiny_dataset) + ".nwk",
                "--max-iterations", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "Likelihood ratio test" in text
        assert "engine: slim-v2" in text

    def test_run_stdout(self, tiny_dataset, capsys):
        rc = main(
            [
                "run",
                "--seqfile", str(tiny_dataset) + ".phy",
                "--treefile", str(tiny_dataset) + ".nwk",
                "--max-iterations", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lnL" in out
        # The final gradient norm rides on each fit's optimizer line, not
        # on an indented "name = value" line (those are parameters).
        optimizer_lines = [ln for ln in out.splitlines() if ln.startswith("optimizer: ")]
        assert len(optimizer_lines) == 2
        assert all(re.search(r", \|gradient\| = \S+", ln) for ln in optimizer_lines)
        assert not re.search(r"^  \|?grad", out, flags=re.M)

    def test_run_map_and_beb_read_the_fits_h1_binding(self, tiny_dataset, capsys, monkeypatch):
        import repro.core.engine as engine_mod

        bindings, memo_hits = [], []
        real_init = engine_mod.BoundLikelihood.__init__
        real_counts = engine_mod.BoundLikelihood.substitution_counts

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            bindings.append(self)

        def recording_counts(self, values, branch_lengths=None):
            memo_hits.append(self._last is not None and self._last.at(values, branch_lengths))
            return real_counts(self, values, branch_lengths)

        monkeypatch.setattr(engine_mod.BoundLikelihood, "__init__", recording_init)
        monkeypatch.setattr(engine_mod.BoundLikelihood, "substitution_counts", recording_counts)
        rc = main(
            [
                "run",
                "--seqfile", str(tiny_dataset) + ".phy",
                "--treefile", str(tiny_dataset) + ".nwk",
                "--max-iterations", "2", "--beb", "--map",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Substitution mapping" in out and "positively selected sites" in out
        # H0 and H1 only: no post-fit binding, and the count pass found
        # the fit's final evaluation in the memo.
        assert len(bindings) == 2
        assert memo_hits == [True]

    def test_run_with_ctl(self, tiny_dataset, tmp_path, capsys):
        from repro.io.ctl import parse_ctl

        ctl = tmp_path / "run.ctl"
        ctl.write_text(
            f"seqfile = {tiny_dataset}.phy\n"
            f"treefile = {tiny_dataset}.nwk\n"
            "engine = codeml\n"
            "max_iterations = 2\n"
        )
        rc = main(["run", "--ctl", str(ctl)])
        assert rc == 0
        # An engine line is read like any other CodeML key this tool ignores.
        assert "engine: slim-v2" in capsys.readouterr().out
        assert parse_ctl(ctl).unknown == {"engine": "codeml"}


class TestGuardedByDefault:
    def test_no_recover_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--seqfile", "a", "--treefile", "b", "--no-recover"])
        assert exc_info.value.code == 2
        assert "--no-recover" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--seqfile", "a", "--treefile", "b", "--engine", "slim"],
        ["scan", "--seqfile", "a", "--treefile", "b", "--engine", "slim"],
        ["bench"],
        ["run", "--seqfile", "a", "--treefile", "b", "--map", "--map-samples", "4"],
        ["scan", "--seqfile", "a", "--treefile", "b", "--map", "--map-samples", "4"],
    ])
    def test_engine_selector_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_reports_what_the_ladder_did(self, tiny_dataset, capsys, monkeypatch):
        real_eigh = scipy.linalg.eigh

        def flaky(a, *args, **kwargs):
            if kwargs.get("driver") == "evr":
                raise np.linalg.LinAlgError("injected evr failure")
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", flaky)
        rc = main(
            [
                "run",
                "--seqfile", str(tiny_dataset) + ".phy",
                "--treefile", str(tiny_dataset) + ".nwk",
                "--max-iterations", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        block = out.split("numerical recovery (per hypothesis):\n", 1)[1]
        assert re.search(r"^  H0: .*eigh_fallbackx\d+", block, flags=re.M)
        assert re.search(r"^  H1: .*eigh_fallbackx\d+", block, flags=re.M)
        # Report readers take "  name = value" lines for H1 parameters;
        # the recovery block must never look like one.
        assert not re.search(r"^  \w+\s+= \S+$", block, flags=re.M)

    def test_survey_marks_every_unconverged_row(self, tmp_path, capsys):
        assert main(["datasets", "--outdir", str(tmp_path), "--only", "iii"]) == 0
        rc = main(
            [
                "scan",
                "--seqfile", str(tmp_path / "dataset_iii.phy"),
                "--treefile", str(tmp_path / "dataset_iii.nwk"),
                "--internal-only", "--survey", "--max-iterations", "1", "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        table = out.split("p (Holm)", 1)[1].split("\n\n", 1)[0]
        rows = table.strip().splitlines()[1:]
        assert len(rows) == 22
        assert all(row.endswith("[not converged: H0+H1]") for row in rows)
        assert "22 of 22 rows marked [not converged]" in out
        assert "unconverged: 22/22 tasks" in out


class TestScan:
    def _argv(self, tiny_dataset, *extra):
        return [
            "scan",
            "--seqfile", str(tiny_dataset) + ".phy",
            "--treefile", str(tiny_dataset) + ".nwk",
            "--internal-only",
            "--max-iterations", "1",
            *extra,
        ]

    def test_scan_end_to_end(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset))
        assert rc == 0
        out = capsys.readouterr().out
        assert "branch scan" in out
        assert "p (chi2_1)" in out
        assert "tasks" in out and "likelihood evaluations" in out  # summary block

    def test_scan_table_marks_unconverged_rows(self, tiny_dataset, capsys):
        # One optimizer iteration: no fit converges, every row is marked.
        rc = main(self._argv(tiny_dataset))
        assert rc == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("node#")]
        assert rows and all("[not converged: H0+H1]" in row for row in rows)
        assert f"unconverged: {len(rows)}/{len(rows)} tasks" in out

    def test_scan_survey_mode(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset, "--survey"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "all-branches positive-selection survey" in out
        assert "p (Holm)" in out
        assert "family-wise alpha = 0.05" in out

    def test_scan_survey_with_bsrel_model(self, tiny_dataset, tmp_path, capsys):
        journal = tmp_path / "bsrel.jsonl"
        rc = main(self._argv(
            tiny_dataset, "--survey", "--model", "bsrel:2",
            "--journal", str(journal),
        ))
        assert rc == 0
        out = capsys.readouterr().out
        assert "model: bsrel:2" in out
        # The journal records which model produced each branch's test.
        from repro.io.results_io import ResultJournal

        results = ResultJournal(str(journal)).load()
        assert results and all(r.model == "bsrel:2" for r in results)

    def test_scan_bad_model_spec_fails_fast(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset, "--model", "m8"))
        assert rc == 2
        assert "unknown model spec" in capsys.readouterr().err

    def test_scan_journal_and_resume(self, tiny_dataset, tmp_path, capsys):
        journal = tmp_path / "scan.jsonl"
        rc = main(self._argv(tiny_dataset, "--journal", str(journal)))
        assert rc == 0
        assert journal.exists()
        capsys.readouterr()
        rc = main(self._argv(tiny_dataset, "--journal", str(journal), "--resume"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out

    def test_scan_map_samples_every_tested_branch_at_its_kept_mles(
        self, tiny_dataset, tmp_path, capsys
    ):
        from repro.core.engine import make_engine
        from repro.io.results_io import ResultJournal
        from repro.likelihood.mapping import substitution_mapping
        from repro.models.branch_site import BranchSiteModelA
        from repro.parallel.batch import branch_label

        journal = tmp_path / "map.jsonl"
        rc = main(self._argv(tiny_dataset, "--map", "--seed", "5", "--journal", str(journal)))
        assert rc == 0
        assert "substitution mapping" in capsys.readouterr().out
        tree = _read_tree(str(tiny_dataset) + ".nwk")
        alignment = read_alignment(str(tiny_dataset) + ".phy")
        candidates = [n for n in tree.nodes if not n.is_root and not n.is_leaf]
        latest = ResultJournal(str(journal)).completed()
        assert len(latest) == len(candidates)
        engine = make_engine("slim-v2")
        for node in candidates:
            res = latest[f"tiny:{branch_label(tree, node.index)}"]
            marked = tree.copy()
            marked.mark_foreground(marked.nodes[node.index])
            expected = substitution_mapping(
                engine.bind(marked, alignment, BranchSiteModelA(fix_omega2=False)),
                res.h1_mles["values"],
                branch_lengths=res.h1_mles["branch_lengths"],
            ).to_payload()
            got = dict(res.mapping)
            got.pop("seconds")
            expected.pop("seconds")
            assert got == expected

    # Holm-adjusted p-values are capped at 1, so a family-wise level
    # above 1 puts both internal branches in the survey's Holm set
    # whatever statistic the 1-iteration fits reach.
    @pytest.mark.parametrize(
        "mode", [(), ("--survey", "--alpha", "1.01")], ids=["plain", "survey"]
    )
    def test_scan_map_resume_neither_samples_nor_journals_again(
        self, tiny_dataset, tmp_path, capsys, mode
    ):
        journal = tmp_path / "map.jsonl"
        argv = self._argv(tiny_dataset, *mode, "--map", "--journal", str(journal))
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "mapping 2 " in first.err
        written = journal.read_bytes()
        assert main(argv + ["--resume"]) == 0
        again = capsys.readouterr()
        assert "mapping" not in again.err
        assert journal.read_bytes() == written

        def mapping_block(out):
            return out[out.index("substitution mapping"):out.index("tasks      :")]

        assert mapping_block(again.out) == mapping_block(first.out)

    def test_scan_map_resume_remaps_a_sampled_mapping(self, tiny_dataset, tmp_path, capsys):
        import json

        journal = tmp_path / "map.jsonl"
        argv = self._argv(tiny_dataset, "--map", "--journal", str(journal))
        assert main(argv) == 0
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        # The first mapped record turns into a journal-v10 sampler payload.
        sampled = next(r for r in records if r.get("mapping"))
        sampled["mapping"].update(method="batched", n_samples=16)
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "mapping 1 " in capsys.readouterr().err
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        latest = {r["gene_id"]: r for r in records if r.get("kind") == "gene_result"}
        assert latest[sampled["gene_id"]]["mapping"]["method"] == "exact"
        assert "n_samples" not in latest[sampled["gene_id"]]["mapping"]

    def test_scan_map_names_branches_without_stored_mles(
        self, tiny_dataset, tmp_path, capsys
    ):
        import json

        journal = tmp_path / "old.jsonl"
        assert main(self._argv(tiny_dataset, "--journal", str(journal))) == 0
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        for record in records:
            record.pop("h1_mles", None)  # as journalled before every task kept it
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        rc = main(self._argv(tiny_dataset, "--journal", str(journal), "--resume", "--map"))
        assert rc == 0
        captured = capsys.readouterr()
        unmapped = "node#5, node#6"
        assert f"warning: no stored H1 MLEs, not mapped: {unmapped}" in captured.err
        assert f"not mapped (no stored H1 MLEs): {unmapped}" in captured.out
        assert "E[nonsyn]" not in captured.out

    def test_scan_report_to_file(self, tiny_dataset, tmp_path):
        out = tmp_path / "scan.txt"
        rc = main(self._argv(tiny_dataset, "--out", str(out)))
        assert rc == 0
        assert "branch scan" in out.read_text()

    def test_scan_progress_on_stderr_by_default(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset))
        assert rc == 0
        assert "ok (2*delta=" in capsys.readouterr().err

    def test_scan_quiet_suppresses_progress(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset, "--quiet"))
        assert rc == 0
        captured = capsys.readouterr()
        assert "ok (2*delta=" not in captured.err
        assert "branch scan" in captured.out  # report still printed

    def test_scan_executor_inline(self, tiny_dataset, capsys):
        rc = main(self._argv(tiny_dataset, "--executor", "inline"))
        assert rc == 0
        assert "branch scan" in capsys.readouterr().out

    def test_scan_socket_without_workers_fails_cleanly(self, tiny_dataset, capsys):
        rc = main(self._argv(
            tiny_dataset, "--executor", "socket",
            "--bind", "127.0.0.1:0", "--worker-wait", "0.3",
        ))
        assert rc == 2
        captured = capsys.readouterr()
        assert "listening on 127.0.0.1:" in captured.err
        assert "cannot set up" in captured.err or "worker" in captured.err


@pytest.fixture(scope="module")
def selection_dataset(tmp_path_factory):
    """A gene whose 2-iteration survey at alpha 0.05 has one Holm row,
    unselected rows with raw p below alpha and rows with p above it."""
    prefix = tmp_path_factory.mktemp("select") / "sel"
    argv = ["simulate", "--species", "6", "--codons", "80", "--omega2", "12",
            "--seed", "3", "--prefix", str(prefix)]
    assert main(argv) == 0
    return prefix


def _survey_argv(prefix, journal, *extra):
    return [
        "scan", "--seqfile", f"{prefix}.phy", "--treefile", f"{prefix}.nwk",
        "--survey", "--max-iterations", "2", "--quiet", "--journal", str(journal),
        *extra,
    ]


def _journal_records(journal):
    import json

    records = [json.loads(line) for line in journal.read_text().splitlines()]
    return [r for r in records if r.get("kind") == "gene_result"]


def _payloads(records):
    """Label → mapping payload without its wall clock, per mapped record."""
    out = {}
    for record in records:
        if record.get("mapping") is not None:
            payload = dict(record["mapping"])
            payload.pop("seconds", None)
            out[record["gene_id"].split(":", 1)[1]] = payload
    return out


@pytest.fixture(scope="module", params=["inline", "pool"])
def fresh_survey(request, selection_dataset, tmp_path_factory):
    """One fresh ``scan --survey --map --journal`` run per backend, with
    every call of the resume fallback recorded."""
    import repro.parallel.batch as batch_mod

    journal = tmp_path_factory.mktemp("fresh") / "survey.jsonl"
    calls = []
    real = batch_mod.map_survey_candidates

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    extra = ["--processes", "2"] if request.param == "pool" else []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch_mod, "map_survey_candidates", spy)
        assert main(_survey_argv(selection_dataset, journal, "--map", *extra)) == 0
    return journal, calls


class TestScanMapsInItsTasks:
    """``scan --map``: each task counts its substitutions on its own H1
    binding; the coordinator re-binds nothing on a fresh run."""

    def _holm_rows(self, records):
        from repro.optimize.lrt import likelihood_ratio_test
        from repro.parallel.batch import BranchScanResult

        tests = [r for r in records if r.get("mapping") is None]
        scan = BranchScanResult("sel", by_branch={
            r["gene_id"].split(":", 1)[1]: likelihood_ratio_test(r["lnl0"], r["lnl1"])
            for r in tests
        })
        return set(scan.holm_significant(0.05)), tests

    def test_fresh_survey_never_calls_the_fallback(self, fresh_survey):
        _, calls = fresh_survey
        assert calls == []

    def test_task_mappings_equal_the_fallbacks(self, fresh_survey, selection_dataset):
        from repro.io.results_io import ResultJournal
        from repro.parallel.batch import BranchScanResult, map_survey_candidates

        journal, _ = fresh_survey
        records = _journal_records(journal)
        holm, _ = self._holm_rows(records)
        assert holm
        scan = BranchScanResult(
            "sel", by_branch={},
            gene_results=list(ResultJournal(str(journal)).completed().values()),
        )
        expected = map_survey_candidates(
            "sel", _read_tree(f"{selection_dataset}.nwk"),
            read_alignment(f"{selection_dataset}.phy"), scan, sorted(holm),
        )
        for payload in expected.values():
            assert payload["method"] == "exact"
            payload.pop("seconds")
        assert _payloads(records) == expected

    def test_journal_holds_one_test_per_task_and_one_mapping_per_holm_row(
        self, fresh_survey, selection_dataset
    ):
        journal, _ = fresh_survey
        records = _journal_records(journal)
        holm, tests = self._holm_rows(records)
        tree = _read_tree(f"{selection_dataset}.nwk")
        assert sorted(r["gene_id"] for r in tests) == sorted(
            f"sel:{n.name or f'node#{n.index}'}" for n in tree.nodes if not n.is_root
        )
        mapped = [r for r in records if r.get("mapping") is not None]
        assert sorted(r["gene_id"].split(":", 1)[1] for r in mapped) == sorted(holm)
        assert all(r["mapping"]["method"] == "exact" for r in mapped)
        # The mapped record repeats the task's test record, mapping aside.
        test_of = {r["gene_id"]: r for r in tests}
        for record in mapped:
            assert dict(record, mapping=None) == test_of[record["gene_id"]]

    def test_survey_maps_only_tasks_below_alpha(self, selection_dataset, tmp_path):
        from repro.io.results_io import ResultJournal
        from repro.parallel.batch import scan_branches

        journal = tmp_path / "lib.jsonl"
        scan = scan_branches(
            "sel", _read_tree(f"{selection_dataset}.nwk"),
            read_alignment(f"{selection_dataset}.phy"),
            max_iterations=2, journal=str(journal), map_below=0.05,
        )
        assert scan.ok
        below = [r for r in scan.gene_results if r.pvalue < 0.05]
        above = [r for r in scan.gene_results if r.pvalue >= 0.05]
        # More rows pass the raw rule than Holm selects.
        assert len(below) > len(scan.holm_significant(0.05)) > 0 and above
        assert all(r.mapping["method"] == "exact" for r in below)
        assert all(r.mapping is None for r in above)
        # The completion records never carry the mapping.
        assert all(r.mapping is None for r in ResultJournal(str(journal)).load())

    def test_resume_maps_an_unmapped_journal_like_a_fresh_run(
        self, fresh_survey, selection_dataset, tmp_path, capsys
    ):
        fresh_journal, _ = fresh_survey
        journal = tmp_path / "plain.jsonl"
        assert main(_survey_argv(selection_dataset, journal)) == 0
        assert not _payloads(_journal_records(journal))
        capsys.readouterr()
        assert main(_survey_argv(selection_dataset, journal, "--map", "--resume")) == 0
        holm = _payloads(_journal_records(fresh_journal))
        assert _payloads(_journal_records(journal)) == holm
        assert "substitution mapping" in capsys.readouterr().out


class TestWorkerCommand:
    def test_worker_requires_connect(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["worker"])

    def test_worker_rejects_malformed_address(self, capsys):
        rc = main(["worker", "--connect", "nope"])
        assert rc == 2
        assert "host:port" in capsys.readouterr().err

    @pytest.mark.slow
    def test_scan_with_socket_worker_end_to_end(self, tiny_dataset, tmp_path, capsys):
        """Full CLI loop: the scan coordinator and a ``slimcodeml
        worker`` subprocess on localhost produce a normal report with
        socket-worker attribution in the summary block."""
        import os
        import re
        import socket as socketlib
        import subprocess
        import sys as _sys

        # The CLI builds its own executor, so both sides need a port
        # known up front: bind-and-release an ephemeral one.
        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        worker = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "worker",
             "--connect", f"127.0.0.1:{port}", "--name", "cliworker"],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            rc = main(self._scan_argv(tiny_dataset, port))
            assert rc == 0
            out = capsys.readouterr().out
            assert "branch scan" in out
            assert re.search(r"workers\s*:\s*cliworker", out)
        finally:
            worker.terminate()
            worker.wait(timeout=10)

    @staticmethod
    def _scan_argv(tiny_dataset, port):
        return [
            "scan",
            "--seqfile", str(tiny_dataset) + ".phy",
            "--treefile", str(tiny_dataset) + ".nwk",
            "--internal-only",
            "--max-iterations", "1",
            "--quiet",
            "--executor", "socket",
            "--bind", f"127.0.0.1:{port}",
            "--worker-wait", "30",
        ]


class TestDatasets:
    def test_writes_requested_subset(self, tmp_path, capsys):
        rc = main(["datasets", "--outdir", str(tmp_path), "--only", "iii"])
        assert rc == 0
        assert (tmp_path / "dataset_iii.phy").exists()
        assert (tmp_path / "dataset_iii.nwk").exists()
        assert "25 species x 67 codons" in capsys.readouterr().out
