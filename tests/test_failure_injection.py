"""Failure injection: malformed inputs fail loudly with useful messages,
and interrupted batch runs resume from their journal."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.alignment.msa import CodonAlignment
from repro.alignment.simulate import simulate_alignment
from repro.codon.matrix import build_rate_matrix
from repro.core.engine import make_engine
from repro.io.results_io import ResultJournal
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.parallel.batch import GeneJob, analyze_genes
from repro.trees.newick import parse_newick


@pytest.fixture
def tree():
    return parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")


@pytest.fixture
def alignment():
    return CodonAlignment.from_sequences(
        ["A", "B", "C", "D", "E"], ["ATGTTT"] * 5
    )


class TestDataGates:
    def test_stop_codons_in_data(self):
        with pytest.raises(ValueError, match="stop codon"):
            CodonAlignment.from_sequences(["A"], ["ATGTAA"])

    def test_alignment_tree_taxon_mismatch(self, tree):
        alignment = CodonAlignment.from_sequences(["A", "B", "C"], ["ATG"] * 3)
        with pytest.raises(ValueError, match="taxa differ"):
            make_engine("slim").bind(tree, alignment, M0Model())

    def test_branch_site_without_mark(self, alignment):
        unmarked = parse_newick("((A:0.2,B:0.1):0.08,(C:0.15,D:0.12):0.05,E:0.3);")
        with pytest.raises(ValueError, match="foreground"):
            make_engine("slim").bind(unmarked, alignment, BranchSiteModelA())

    def test_two_marks_rejected(self, alignment):
        doubled = parse_newick("((A:0.2 #1,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
        with pytest.raises(ValueError, match="exactly one"):
            make_engine("slim").bind(doubled, alignment, BranchSiteModelA())

    def test_nan_branch_length(self, tree, alignment):
        tree.leaves[0].length = float("nan")
        with pytest.raises(ValueError, match="invalid"):
            make_engine("slim").bind(tree, alignment, M0Model())


class TestDegenerateNumerics:
    def test_degenerate_frequencies_rejected(self):
        pi = np.zeros(61)
        pi[0] = 1.0
        with pytest.raises(ValueError, match="strictly positive"):
            build_rate_matrix(2.0, 0.5, pi)

    def test_non_probability_pi_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            build_rate_matrix(2.0, 0.5, np.full(61, 0.5))

    def test_evaluation_with_impossible_parameters(self, tree, alignment):
        bound = make_engine("slim").bind(tree, alignment, BranchSiteModelA())
        with pytest.raises(ValueError):
            bound.log_likelihood(
                {"kappa": -1.0, "omega0": 0.3, "omega2": 2.0, "p0": 0.5, "p1": 0.3}
            )

    def test_proportions_on_boundary_rejected(self, tree, alignment):
        bound = make_engine("slim").bind(tree, alignment, BranchSiteModelA())
        with pytest.raises(ValueError):
            bound.log_likelihood(
                {"kappa": 2.0, "omega0": 0.3, "omega2": 2.0, "p0": 0.7, "p1": 0.3}
            )

    def test_all_missing_alignment_frequency_estimation_fails_loudly(self, tree):
        aln = CodonAlignment.from_sequences(["A", "B", "C", "D", "E"], ["---"] * 5)
        with pytest.raises(ValueError, match="no unambiguous codons"):
            make_engine("slim").bind(tree, aln, M0Model())

    def test_all_missing_alignment_is_uninformative_with_explicit_pi(self, tree):
        aln = CodonAlignment.from_sequences(["A", "B", "C", "D", "E"], ["---"] * 5)
        pi = np.full(61, 1 / 61)
        bound = make_engine("slim").bind(tree, aln, M0Model(), pi=pi)
        lnl = bound.log_likelihood({"kappa": 2.0, "omega": 0.5})
        # Entirely missing data: likelihood is exactly 1 per site.
        assert lnl == pytest.approx(0.0, abs=1e-9)


class TestOptimizerRobustness:
    def test_fit_survives_zero_length_start(self, tree, alignment):
        from repro.optimize.ml import fit_model

        bound = make_engine("slim").bind(tree, alignment, M0Model())
        fit = fit_model(
            bound,
            start_lengths=np.zeros(bound.n_branches),
            seed=1,
            max_iterations=3,
        )
        assert np.isfinite(fit.lnl)

    def test_fit_on_single_invariant_column(self, tree):
        from repro.optimize.ml import fit_model

        aln = CodonAlignment.from_sequences(["A", "B", "C", "D", "E"], ["ATG"] * 5)
        # Uniform pi: with F3x4 from this column pi would concentrate on
        # ATG, making the likelihood flat in the branch lengths.
        bound = make_engine("slim").bind(tree, aln, M0Model(), pi=np.full(61, 1 / 61))
        fit = fit_model(bound, seed=1, max_iterations=40)
        assert np.isfinite(fit.lnl)
        # Invariant data: branch lengths driven toward zero.
        assert fit.branch_lengths.sum() < 0.5 * tree.total_tree_length()


class TestKillAndResume:
    """A batch killed mid-run leaves a journal that resumes correctly."""

    def _jobs(self, tree, n=4):
        sim = simulate_alignment(
            tree, BranchSiteModelA(),
            {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3},
            n_codons=40, seed=9,
        )
        return [GeneJob.from_objects(f"g{k}", tree, sim.alignment) for k in range(n)]

    def test_resume_from_partial_journal(self, tree, tmp_path):
        journal = tmp_path / "scan.jsonl"
        jobs = self._jobs(tree, n=4)
        # Simulate the kill: a first run journalled g0/g1 before dying.
        full = analyze_genes(jobs, max_iterations=1, seed=3)
        with ResultJournal(str(journal)) as sink:
            sink.append(full[0])
            sink.append(full[1])
        resumed = analyze_genes(jobs, max_iterations=1, seed=3,
                                journal=str(journal), resume=True)
        assert all(not r.failed for r in resumed)
        # g0/g1 loaded verbatim; g2/g3 recomputed with their original
        # per-gene seeds, hence identical to the uninterrupted run.
        for k in range(4):
            assert resumed[k].lnl1 == full[k].lnl1
            assert resumed[k].n_evaluations == full[k].n_evaluations
        # The journal now also holds the resumed genes.
        assert set(ResultJournal(str(journal)).completed()) == {"g0", "g1", "g2", "g3"}

    def test_resume_after_midwrite_kill_drops_torn_record(self, tree, tmp_path):
        journal = tmp_path / "scan.jsonl"
        jobs = self._jobs(tree, n=3)
        full = analyze_genes(jobs, max_iterations=1, seed=3)
        with ResultJournal(str(journal)) as sink:
            sink.append(full[0])
        # The kill landed mid-write: g1's record is torn.
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "gene_result", "gene_id": "g1", "lnl0"')
        resumed = analyze_genes(jobs, max_iterations=1, seed=3,
                                journal=str(journal), resume=True)
        assert all(not r.failed for r in resumed)
        assert resumed[1].lnl1 == full[1].lnl1  # recomputed, not trusted

    @pytest.mark.slow
    def test_sigkill_mid_batch_then_resume(self, tree, tmp_path):
        """Real kill: a subprocess scan is SIGKILLed after the first
        journal record lands; a resumed run completes the batch."""
        journal = tmp_path / "scan.jsonl"
        script = textwrap.dedent("""
            import sys, time
            from repro.alignment.simulate import simulate_alignment
            from repro.models.branch_site import BranchSiteModelA
            from repro.parallel.batch import GeneJob, _run_gene_shared, analyze_genes
            from repro.trees.newick import parse_newick

            tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
            sim = simulate_alignment(
                tree, BranchSiteModelA(),
                {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3},
                n_codons=40, seed=9,
            )
            jobs = [GeneJob.from_objects(f"g{k}", tree, sim.alignment) for k in range(4)]

            def slow_worker(payload, context):
                res = _run_gene_shared(payload, context)
                if payload[0] != "g0":
                    time.sleep(60.0)  # parent kills us long before this returns
                return res

            print("READY", flush=True)
            analyze_genes(jobs, max_iterations=1, seed=3,
                          journal=sys.argv[1], worker=slow_worker)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(journal)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            # Wait for the first durable record, then kill mid-batch.
            deadline = 60.0
            import time as _time
            while deadline > 0 and len(ResultJournal(str(journal)).load()) < 1:
                _time.sleep(0.2)
                deadline -= 0.2
            assert len(ResultJournal(str(journal)).load()) >= 1
        finally:
            proc.kill()
            proc.wait()

        done_before = set(ResultJournal(str(journal)).completed())
        assert "g0" in done_before and len(done_before) < 4

        jobs = self._jobs(tree, n=4)
        resumed = analyze_genes(jobs, max_iterations=1, seed=3,
                                journal=str(journal), resume=True)
        assert all(not r.failed for r in resumed)
        assert set(ResultJournal(str(journal)).completed()) == {"g0", "g1", "g2", "g3"}
