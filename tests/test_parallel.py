"""Batch drivers: gene fan-out and branch scans (in-process for hermeticity).

The fault-injection scenarios at the bottom use module-level workers so
they pickle into real worker processes; the ones needing live pools and
timeouts are marked ``slow``.
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.alignment.simulate import simulate_alignment
from repro.models.branch_site import BranchSiteModelA
from repro.parallel.batch import GeneJob, _run_gene_shared, analyze_genes, scan_branches
from repro.parallel.executors import ProcessPoolBackend
from repro.parallel.faults import FaultPolicy, TaskFailure
from repro.io.results_io import ResultJournal
from repro.trees.newick import parse_newick


@pytest.fixture(scope="module")
def gene():
    tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
    values = {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
    sim = simulate_alignment(tree, BranchSiteModelA(), values, n_codons=60, seed=5)
    return tree, sim.alignment


class TestGeneJob:
    def test_from_objects_roundtrip(self, gene):
        tree, alignment = gene
        job = GeneJob.from_objects("g1", tree, alignment)
        assert job.gene_id == "g1"
        assert "#1" in job.newick
        assert len(job.names) == 5


class TestAnalyzeGenes:
    def test_single_gene_inprocess(self, gene):
        tree, alignment = gene
        job = GeneJob.from_objects("g1", tree, alignment)
        results = analyze_genes([job], max_iterations=2)
        (res,) = results
        assert not res.failed
        assert np.isfinite(res.lnl0) and np.isfinite(res.lnl1)
        assert res.statistic >= 0
        assert res.iterations > 0

    def test_per_gene_seeds_differ(self, gene):
        tree, alignment = gene
        jobs = [GeneJob.from_objects(f"g{i}", tree, alignment) for i in range(2)]
        a, b = analyze_genes(jobs, max_iterations=2, seed=10)
        # Same data, different derived seeds -> (slightly) different fits.
        assert a.gene_id != b.gene_id

    def test_reproducible(self, gene):
        tree, alignment = gene
        job = GeneJob.from_objects("g1", tree, alignment)
        r1 = analyze_genes([job], max_iterations=2, seed=3)[0]
        r2 = analyze_genes([job], max_iterations=2, seed=3)[0]
        assert r1.lnl1 == r2.lnl1

    def test_failure_captured_not_raised(self):
        job = GeneJob(gene_id="bad", newick="(A:0.1,B:0.2,C:0.3);",  # no #1 mark
                      names=("A", "B", "C"), sequences=("ATG", "ATG", "ATG"))
        (res,) = analyze_genes([job], max_iterations=1)
        assert res.failed
        assert "foreground" in res.error


class TestScanBranches:
    def test_scans_every_internal_branch(self, gene):
        tree, alignment = gene
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1
        )
        internal_branches = sum(
            1 for n in tree.nodes if not n.is_root and not n.is_leaf
        )
        assert len(scan.by_branch) == internal_branches

    def test_labels_and_significance_api(self, gene):
        tree, alignment = gene
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1
        )
        for label, lrt in scan.by_branch.items():
            assert label.startswith("node#") or label in tree.leaf_names()
            assert lrt.statistic >= 0
        assert set(scan.significant_branches(alpha=1.0)) <= set(scan.by_branch)

    def test_original_tree_unchanged(self, gene):
        tree, alignment = gene
        before = [n.foreground for n in tree.nodes]
        scan_branches("g1", tree, alignment, internal_only=True, max_iterations=1)
        assert [n.foreground for n in tree.nodes] == before


# ----------------------------------------------------------------------
# Module-level fault-injection workers (pickleable into worker processes)
# ----------------------------------------------------------------------
def _worker_poison_suffix(suffix, payload, context):
    """Raises for tasks whose id ends with ``suffix``; else runs normally."""
    gene_id = payload[0]
    if gene_id.endswith(suffix):
        raise RuntimeError(f"poisoned task {gene_id}")
    return _run_gene_shared(payload, context)


def _scenario_worker(payload, context):
    """Poisoned ids raise; 'hang' ids sleep far past any test timeout."""
    gene_id = payload[0]
    if "poison" in gene_id:
        raise RuntimeError(f"poisoned task {gene_id}")
    if "hang" in gene_id:
        time.sleep(45.0)
    return _run_gene_shared(payload, context)


def _recording_worker(log_path, payload, context):
    """Records which tasks actually ran, then computes normally."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(payload[0] + "\n")
    return _run_gene_shared(payload, context)


class TestScanPartialFailure:
    """Regression: one poisoned branch must not mask the other branches'
    completed results (scan_branches used to raise and discard them)."""

    def test_poisoned_branch_does_not_mask_others(self, gene):
        tree, alignment = gene
        internal = [n for n in tree.nodes if not n.is_root and not n.is_leaf]
        poisoned_label = f"node#{internal[0].index}"
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1,
            worker=partial(_worker_poison_suffix, poisoned_label),
        )
        assert not scan.ok
        assert set(scan.failures) == {poisoned_label}
        # Every other branch's LRT survived.
        assert len(scan.by_branch) == len(internal) - 1
        assert all(lrt.statistic >= 0 for lrt in scan.by_branch.values())
        failure = scan.failures[poisoned_label]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert "poisoned" in failure.message

    def test_raise_on_failure_restores_fail_fast(self, gene):
        tree, alignment = gene
        internal = [n for n in tree.nodes if not n.is_root and not n.is_leaf]
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1,
            worker=partial(_worker_poison_suffix, f"node#{internal[0].index}"),
        )
        with pytest.raises(RuntimeError, match="poisoned"):
            scan.raise_on_failure()

    def test_clean_scan_is_ok(self, gene):
        tree, alignment = gene
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1
        )
        assert scan.ok
        assert scan.failures == {}
        assert scan.raise_on_failure() is scan

    def test_summary_counts_failures(self, gene):
        tree, alignment = gene
        internal = [n for n in tree.nodes if not n.is_root and not n.is_leaf]
        scan = scan_branches(
            "g1", tree, alignment, internal_only=True, max_iterations=1,
            worker=partial(_worker_poison_suffix, f"node#{internal[0].index}"),
        )
        summary = scan.summary()
        assert summary.n_tasks == len(internal)
        assert summary.n_failed == 1
        assert summary.failures_by_kind == {"error": 1}
        assert summary.total_evaluations > 0


class TestJournalResume:
    def _jobs(self, gene, n=4, poisoned=()):
        tree, alignment = gene
        jobs = []
        for k in range(n):
            if k in poisoned:
                # No #1 mark: the worker raises on binding.
                jobs.append(GeneJob(
                    gene_id=f"g{k}", newick="(A:0.1,B:0.2,C:0.3);",
                    names=("A", "B", "C"), sequences=("ATG", "ATG", "ATG"),
                ))
            else:
                jobs.append(GeneJob.from_objects(f"g{k}", tree, alignment))
        return jobs

    def test_journal_records_every_outcome(self, gene, tmp_path):
        journal = tmp_path / "scan.jsonl"
        jobs = self._jobs(gene, n=4, poisoned=(2,))
        results = analyze_genes(jobs, max_iterations=1,
                                journal=str(journal))
        assert [r.failed for r in results] == [False, False, True, False]
        entries = ResultJournal(str(journal)).load()
        assert len(entries) == 4
        assert {e.gene_id for e in entries} == {"g0", "g1", "g2", "g3"}

    def test_resume_recomputes_only_unfinished(self, gene, tmp_path):
        journal = tmp_path / "scan.jsonl"
        log = tmp_path / "ran.log"
        jobs = self._jobs(gene, n=4, poisoned=(2,))
        first = analyze_genes(jobs, max_iterations=1,
                              journal=str(journal))
        # Resume with healthy inputs for the poisoned gene.
        jobs_fixed = self._jobs(gene, n=4, poisoned=())
        second = analyze_genes(
            jobs_fixed, max_iterations=1,
            journal=str(journal), resume=True,
            worker=partial(_recording_worker, str(log)),
        )
        ran = log.read_text().split()
        assert ran == ["g2"], "resume must recompute only the failed gene"
        assert all(not r.failed for r in second)
        # Loaded results are byte-identical to the first run's.
        for k in (0, 1, 3):
            assert second[k].lnl1 == first[k].lnl1
            assert second[k].n_evaluations == first[k].n_evaluations

    def test_resume_uses_original_seed_for_recomputed_gene(self, gene, tmp_path):
        journal = tmp_path / "scan.jsonl"
        jobs = self._jobs(gene, n=3)
        baseline = analyze_genes(jobs, max_iterations=1, seed=7)
        # Journal only g0/g1, then resume g2: same seed -> same fit.
        with ResultJournal(str(journal)) as sink:
            sink.append(baseline[0])
            sink.append(baseline[1])
        resumed = analyze_genes(jobs, max_iterations=1, seed=7,
                                journal=str(journal), resume=True)
        assert resumed[2].lnl1 == baseline[2].lnl1


class TestFaultScenario:
    """ISSUE acceptance scenario: a 10-gene scan with 2 poisoned genes
    and 1 hung gene completes with exactly 3 structured failures and 7
    LRT results, and a resumed run recomputes only the unfinished genes."""

    def _make_jobs(self, gene):
        tree, alignment = gene
        jobs = []
        for k in range(10):
            if k in (2, 5):
                gene_id = f"gene{k}-poison"
            elif k == 7:
                gene_id = f"gene{k}-hang"
            else:
                gene_id = f"gene{k}"
            jobs.append(GeneJob.from_objects(gene_id, tree, alignment))
        return jobs

    @pytest.mark.slow
    def test_scripted_fault_injection_scenario(self, gene, tmp_path):
        journal = tmp_path / "genome.jsonl"
        jobs = self._make_jobs(gene)
        policy = FaultPolicy(task_timeout=10.0)
        with ProcessPoolBackend(2) as executor:
            results = analyze_genes(
                jobs, max_iterations=1, seed=11, policy=policy,
                journal=str(journal), worker=_scenario_worker, executor=executor,
            )

        failed = [r for r in results if r.failed]
        ok = [r for r in results if not r.failed]
        assert len(failed) == 3 and len(ok) == 7
        kinds = sorted(r.failure.kind for r in failed)
        assert kinds == ["error", "error", "timeout"]
        assert all(np.isfinite(r.statistic) for r in ok)
        assert all(r.n_evaluations > 0 for r in ok)

        # --- resume: only the 3 unfinished genes are recomputed -------
        log = tmp_path / "ran.log"
        resumed = analyze_genes(
            jobs, max_iterations=1, seed=11,
            journal=str(journal), resume=True,
            worker=partial(_recording_worker, str(log)),
        )
        ran = sorted(log.read_text().split())
        assert ran == sorted(r.gene_id for r in failed)
        # The recording worker neither poisons nor hangs, so everything
        # completes on resume; journalled genes kept their metrics.
        assert all(not r.failed for r in resumed)
        by_id = {r.gene_id: r for r in results}
        for r in resumed:
            if r.gene_id not in ran:
                assert r.n_evaluations == by_id[r.gene_id].n_evaluations
                assert r.lnl1 == by_id[r.gene_id].lnl1
