"""Reuse without drift: cross-class aliasing, partial-pass pruning states
and the binding's last-point memo, plus their reuse accounting.

Background-tied site classes alias each other's pruning states and
re-prune only the foreground path (DESIGN.md §11); the branch gradient
and the mapping sampler read the last evaluation's states through the
last-point memo (DESIGN.md §9).  All of it promises *exact* float
equality with pruning every class from scratch — not closeness.  Every
comparison here is ``==`` / ``array_equal``; a single ulp of drift is a
failure.
"""

import numpy as np
import pytest

from repro.alignment.msa import AMBIGUOUS, MISSING, CodonAlignment
from repro.alignment.patterns import compress_patterns
from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import decompose
from repro.core.engine import make_engine
from repro.core.expm import transition_matrix_syrk
from repro.likelihood.pruning import PruningState, build_leaf_clvs, compute_recompute_rows
from repro.trees.newick import parse_newick
from tests.oracles import (
    nudge_operators,
    prune_levels,
    prune_reference,
    reference_class_matrix,
    reference_log_likelihood,
)

ENGINE_NAMES = ("codeml", "slim", "slim-v2")


# ----------------------------------------------------------------------
# Satellite: vectorised leaf-CLV construction
# ----------------------------------------------------------------------
class TestBuildLeafClvs:
    def test_matches_per_cell_reference(self):
        # Exact, missing and (partially) ambiguous cells in one alignment:
        # ATR = {ATA, ATG}, TGR resolves to the single sense codon TGG.
        aln = CodonAlignment.from_sequences(
            ["a", "b", "c"],
            ["ATGATR---", "---TGRAAA", "CCCATGTTT"],
        )
        assert np.any(aln.states == MISSING) and np.any(aln.states == AMBIGUOUS)
        clvs = build_leaf_clvs(aln)
        for row in range(aln.n_taxa):
            for col in range(aln.n_codons):
                np.testing.assert_array_equal(
                    clvs[row][:, col], aln.leaf_clv(row, col)
                )

    def test_fortran_order_preserved(self):
        aln = CodonAlignment.from_sequences(["a", "b"], ["ATGTTT", "ATGCCC"])
        for clv in build_leaf_clvs(aln):
            assert clv.flags["F_CONTIGUOUS"]


# ----------------------------------------------------------------------
# Direct pruning-state tests (no engine layer): the level-order driver
# against the per-branch reference recursion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prune_setup():
    rng = np.random.default_rng(2)
    pi = rng.dirichlet(np.full(61, 8.0))
    decomp = decompose(build_rate_matrix(2.0, 0.5, pi))
    tree = parse_newick("((A:0.2,B:0.1):0.08,(C:0.15,D:0.12):0.05,E:0.3);")
    aln = CodonAlignment.from_sequences(
        ["A", "B", "C", "D", "E"],
        ["ATGTTTAAA", "ATGCCCAAA", "CCCTTTAAA", "ATGTTTCCC", "ATGTTTAAA"],
    )
    pat = compress_patterns(aln.subset_taxa(tree.leaf_names()))
    return pi, decomp, tree, build_leaf_clvs(pat.alignment)


def _factory(decomp, lengths):
    def factory(t, foreground):
        return transition_matrix_syrk(decomp, t, clip_negative=False)

    return factory


class TestPruningState:
    def test_populate_matches_stateless(self, prune_setup):
        pi, decomp, tree, leaf_clvs = prune_setup
        table = tree.branch_table()
        factory = _factory(decomp, None)
        full = prune_reference(table, len(tree.nodes), leaf_clvs, factory, np.matmul)
        state = PruningState.empty(len(tree.nodes))
        pop = prune_levels(
            table, len(tree.nodes), leaf_clvs, factory, np.matmul, state=state
        )
        np.testing.assert_array_equal(full.root_clv, pop.root_clv)
        np.testing.assert_array_equal(full.log_scalers, pop.log_scalers)
        assert all(clv is not None for clv in state.clvs)

    def test_single_branch_update_recomputes_only_root_path(self, prune_setup):
        pi, decomp, tree, leaf_clvs = prune_setup
        table = list(tree.branch_table())
        n_nodes = len(tree.nodes)

        calls = []

        def propagate(op, clv):
            calls.append(1)
            return op @ clv

        factory = _factory(decomp, None)
        state = PruningState.empty(n_nodes)
        prune_levels(table, n_nodes, leaf_clvs, factory, propagate, state=state)
        calls.clear()

        # Change one leaf branch: only its path to the root re-propagates.
        child, parent, t, fg = table[0]
        table2 = [(c, p, t * 1.1 if c == child else bl, f) for c, p, bl, f in table]
        inc = prune_levels(
            table2, n_nodes, leaf_clvs, factory, propagate,
            state=state, recompute=compute_recompute_rows(table2, {child}),
        )
        path = {child}
        grew = True
        parent_of = {c: p for c, p, _, _ in table2}
        while grew:
            grew = False
            for c in list(path):
                if c in parent_of and parent_of[c] not in path:
                    # the parent's own branch (if any) re-propagates too
                    if parent_of[c] in parent_of:
                        path.add(parent_of[c])
                        grew = True
        assert len(calls) == len(path)

        fresh = prune_reference(table2, n_nodes, leaf_clvs, factory, np.matmul)
        np.testing.assert_array_equal(fresh.root_clv, inc.root_clv)
        np.testing.assert_array_equal(fresh.log_scalers, inc.log_scalers)

    def test_incremental_with_rescaling(self, prune_setup):
        pi, decomp, tree, leaf_clvs = prune_setup
        table = list(tree.branch_table())
        n_nodes = len(tree.nodes)
        factory = _factory(decomp, None)
        # Threshold high enough that every internal node rescales.
        state = PruningState.empty(n_nodes)
        prune_levels(
            table, n_nodes, leaf_clvs, factory, np.matmul,
            scale_threshold=1.0, state=state,
        )
        child = table[0][0]
        table2 = [(c, p, bl * (1.2 if c == child else 1.0), f) for c, p, bl, f in table]
        inc = prune_levels(
            table2, n_nodes, leaf_clvs, factory, np.matmul,
            scale_threshold=1.0, state=state,
            recompute=compute_recompute_rows(table2, {child}),
        )
        fresh = prune_reference(
            table2, n_nodes, leaf_clvs, factory, np.matmul, scale_threshold=1.0
        )
        assert np.any(fresh.log_scalers != 0.0)
        np.testing.assert_array_equal(fresh.root_clv, inc.root_clv)
        np.testing.assert_array_equal(fresh.log_scalers, inc.log_scalers)

    def test_partial_pass_needs_a_filled_state(self, prune_setup):
        pi, decomp, tree, leaf_clvs = prune_setup
        table = list(tree.branch_table())
        with pytest.raises(ValueError, match="every row"):
            prune_levels(
                table, len(tree.nodes), leaf_clvs, _factory(decomp, None), np.matmul,
                recompute=compute_recompute_rows(table, {table[0][0]}),
            )

    def test_derive_leaves_base_state_untouched(self, prune_setup):
        pi, decomp, tree, leaf_clvs = prune_setup
        table = list(tree.branch_table())
        n_nodes = len(tree.nodes)
        factory = _factory(decomp, None)
        state = PruningState.empty(n_nodes)
        prune_levels(table, n_nodes, leaf_clvs, factory, np.matmul, state=state)
        before = [None if c is None else c.copy() for c in state.clvs]

        derived = state.derive()
        child = table[0][0]
        table2 = [(c, p, bl * 1.3 if c == child else bl, f) for c, p, bl, f in table]
        prune_levels(
            table2, n_nodes, leaf_clvs, factory, np.matmul,
            state=derived, recompute=compute_recompute_rows(table2, {child}),
        )
        for old, cur in zip(before, state.clvs):
            if old is not None:
                np.testing.assert_array_equal(old, cur)


# ----------------------------------------------------------------------
# Property test: randomized update sequences through the engine layer
# ----------------------------------------------------------------------
def _update_sequence(lengths, values, rng, steps=8):
    """Single-branch / multi-branch / model-parameter updates, with the
    previous point revisited after every third step."""
    seqs = [(dict(values), lengths.copy())]
    v, L = dict(values), lengths
    for step in range(steps):
        kind = int(rng.integers(0, 3))
        L = L.copy()
        if kind == 0:
            L[int(rng.integers(0, len(L)))] *= 1.0 + 0.1 * rng.random()
        elif kind == 1:
            idx = rng.choice(len(L), size=2, replace=False)
            L[idx] *= 0.95
        else:
            v = dict(v)
            v["omega0"] = float(v["omega0"] * (1.0 + 0.05 * rng.random()))
        seqs.append((dict(v), L.copy()))
        if step % 3 == 1:
            seqs.append(seqs[-2])
    return seqs


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
class TestEngineBitIdentity:
    """Aliased, memo-reading evaluation == pruning every class afresh.

    One binding walks an update sequence, running the branch gradient
    and the mapping data plane (both read the last-point memo) after
    every evaluation; a second binding only evaluates.  ``plain``:
    clean operators, and both are also pinned to the per-branch oracle,
    which prunes every class from scratch; ``recover``: every operator
    drifts, so the guards repair or record on every build
    (``tests.oracles.nudge_operators``).
    """

    def test_randomized_updates_bit_identical(
        self, engine_name, recover, small_tree, small_sim, h1_model, bsm_values,
        monkeypatch,
    ):
        if recover:
            nudge_operators(monkeypatch)
        eng_plain = make_engine(engine_name)
        eng_memo = make_engine(engine_name)
        b_plain = eng_plain.bind(small_tree, small_sim.alignment, h1_model)
        b_memo = eng_memo.bind(small_tree, small_sim.alignment, h1_model)
        lengths = np.asarray(b_plain.branch_lengths, dtype=float)
        rng = np.random.default_rng(11)
        for values, L in _update_sequence(lengths, bsm_values, rng):
            a = b_plain.log_likelihood(values, L)
            b = b_memo.log_likelihood(values, L)
            assert a == b  # exact float equality, not approx
            assert b_memo.gradient(values, L).lnl == a
            ev = b_memo.class_evaluation(values, L)
            class_lnl = ev.class_lnl
            assert all(
                clv is not None for state in ev.states.values() for clv in state.clvs
            )
            if not recover:
                assert a == reference_log_likelihood(b_plain, values, L)
                np.testing.assert_array_equal(
                    class_lnl, reference_class_matrix(b_plain, values, L)[0]
                )
        # Background-tied classes were served from their base's buffers.
        assert eng_memo.counters["clv_reuses"] > 0
        assert (len(eng_memo.events) > 0) == recover

    def test_site_class_matrix_bit_identical(
        self, engine_name, recover, small_tree, small_sim, h0_model, bsm_values,
        monkeypatch,
    ):
        if recover:
            nudge_operators(monkeypatch)
        eng_plain = make_engine(engine_name)
        eng_memo = make_engine(engine_name)
        b_plain = eng_plain.bind(small_tree, small_sim.alignment, h0_model)
        b_memo = eng_memo.bind(small_tree, small_sim.alignment, h0_model)
        values = {k: v for k, v in bsm_values.items() if k != "omega2"}
        lengths = np.asarray(b_plain.branch_lengths, dtype=float)
        b_memo.log_likelihood(values, lengths)
        b_memo.gradient(values, lengths)
        bumped = lengths.copy()
        bumped[1] *= 1.07
        ev_plain = b_plain.class_evaluation(values, bumped)
        ev_memo = b_memo.class_evaluation(values, bumped)
        m_plain = ev_plain.class_lnl
        np.testing.assert_array_equal(m_plain, ev_memo.class_lnl)
        np.testing.assert_array_equal(ev_plain.proportions, ev_memo.proportions)
        if not recover:
            m_ref, _ = reference_class_matrix(b_plain, values, bumped)
            np.testing.assert_array_equal(m_plain, m_ref)
        assert (len(eng_memo.events) > 0) == recover


class TestEngineSemantics:
    def test_cache_stats_exposes_clv_counters(
        self, small_tree, small_sim, h1_model, bsm_values
    ):
        engine = make_engine("slim")
        bound = engine.bind(small_tree, small_sim.alignment, h1_model)
        lengths = np.asarray(bound.branch_lengths, dtype=float)
        bound.log_likelihood(bsm_values, lengths)
        bumped = lengths.copy()
        bumped[0] *= 1.01
        bound.log_likelihood(bsm_values, bumped)
        stats = engine.cache_stats()
        assert stats["clv_propagations"] > 0
        assert stats["clv_reuses"] > 0

    @pytest.mark.parametrize("fix_omega2", [False, True], ids=["H1", "H0"])
    def test_reuses_are_the_rows_a_pass_did_not_recompute(
        self, fix_omega2, small_tree, small_sim, bsm_values
    ):
        from repro.models.branch_site import BranchSiteModelA

        model = BranchSiteModelA(fix_omega2=fix_omega2)
        engine = make_engine("slim-v2")
        bound = engine.bind(small_tree, small_sim.alignment, model)
        bound.log_likelihood({k: bsm_values[k] for k in model.param_names})
        # Seven rows; the foreground branch hangs from the root, so its
        # path is that one row.  Classes 0 and 1 populate, 2a re-prunes
        # the path, and 2b does too under H1 but is a full share under H0.
        assert bound.n_branches == 7
        recomputed = 7 + 7 + 1 + (0 if fix_omega2 else 1)
        assert engine.counters["clv_propagations"] == recomputed
        assert engine.counters["clv_reuses"] == 4 * 7 - recomputed


# ----------------------------------------------------------------------
# Batch layer: payloads, stats round-trip, summary line
# ----------------------------------------------------------------------
class TestBatchIntegration:
    def test_analyze_genes_reports_clv_stats(self, small_tree, small_sim):
        from repro.parallel.batch import GeneJob, analyze_genes
        from repro.parallel.metrics import summarize_results

        job = GeneJob.from_objects("g1", small_tree, small_sim.alignment)
        [inc] = analyze_genes([job], max_iterations=3)
        assert inc.metrics["clv_reuses"] > 0
        assert inc.metrics["clv_propagations"] > 0

        summary = summarize_results([inc])
        assert summary.metrics["clv_reuses"] == inc.metrics["clv_reuses"]
        assert "clv reuse" in summary.format()

    def test_scan_metrics_carry_gradient_counters(self, small_tree, small_sim):
        from repro.parallel.batch import scan_branches

        scan = scan_branches("g", small_tree, small_sim.alignment, max_iterations=1)
        keys = ("gradient_passes", "gradient_s", "grad_norm_h0", "grad_norm_h1",
                "capped_h0", "capped_h1")
        for res in scan.gene_results:
            assert all(key in res.metrics for key in keys)
            assert res.metrics["gradient_passes"] > 0
            assert res.metrics["gradient_s"] > 0
        summary = scan.summary()
        assert summary.metrics["gradient_passes"] == sum(
            r.metrics["gradient_passes"] for r in scan.gene_results
        )

    def test_gene_result_clv_stats_roundtrip(self):
        from repro.io.results_io import gene_result_from_dict, gene_result_to_dict
        from repro.parallel.batch import GeneResult

        result = GeneResult(
            gene_id="g",
            lnl0=-10.0,
            lnl1=-9.0,
            statistic=2.0,
            pvalue=0.15,
            iterations=4,
            runtime_seconds=0.1,
            metrics={"clv_propagations": 12, "clv_reuses": 30},
        )
        back = gene_result_from_dict(gene_result_to_dict(result))
        assert back.metrics == {"clv_propagations": 12, "clv_reuses": 30}
        assert gene_result_from_dict(
            gene_result_to_dict(GeneResult("g", -1.0, -1.0, 0.0, 1.0, 1, 0.0))
        ).metrics == {}

    def test_resumed_results_contribute_no_metrics(self, small_tree, small_sim, tmp_path):
        from repro.parallel.batch import scan_branches

        journal = tmp_path / "scan.jsonl"
        first = scan_branches("g", small_tree, small_sim.alignment,
                              max_iterations=1, journal=str(journal))
        # Keep the header and the first two task records: a scan killed
        # after two branches.
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        journal.write_text("".join(lines[:3]), encoding="utf-8")

        computed = set()
        scan = scan_branches("g", small_tree, small_sim.alignment,
                             max_iterations=1, journal=str(journal), resume=True,
                             on_result=lambda k, res: computed.add(res.gene_id))
        resumed = [r.gene_id for r in scan.gene_results if r.gene_id not in computed]
        assert len(resumed) == 2 and len(computed) == first.n_candidates - 2
        summary = scan.summary(resumed_ids=resumed)

        expected = {}
        for res in scan.gene_results:
            if res.gene_id in computed:
                for key, value in res.metrics.items():
                    expected[key] = expected.get(key, 0) + value
        assert summary.metrics == expected
        # The resumed records do carry counters; the summary leaves them out.
        loaded = [r for r in scan.gene_results if r.gene_id in resumed]
        assert all(r.metrics["clv_reuses"] > 0 for r in loaded)
        reuses = int(expected["clv_reuses"])
        applications = reuses + int(expected["clv_propagations"])
        assert f"clv reuse  : {reuses} of {applications} " in summary.format()
