"""Exact expected substitution counts: agreement with the brute-force
``expm_frechet`` oracle, exact identities, and the journal payload the
scan report renders."""

import gc
import weakref

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.alignment.msa import CodonAlignment
from repro.alignment.simulate import simulate_alignment
from repro.core.engine import make_engine
from repro.core.uniformization import UniformizedOperator
from repro.datasets import make_dataset
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.models.registry import resolve_model_spec
from repro.likelihood.mapping import SubstitutionMapping, substitution_mapping
from repro.trees.newick import parse_newick
from tests.oracles import substitution_counts_reference

M0_VALUES = {"kappa": 2.0, "omega": 0.5}
BSA_VALUES = {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
BSA_TREE = "((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);"

#: Agreement with the oracle, relative to a branch's expected event
#: count (syn + nonsyn).  The eigenbasis carries ``D(t)[Q_L]`` to about
#: 1e-14 of its largest entry, not entry by entry, so a label with a tiny
#: share of a branch's events (dataset iv: 1e-3 synonymous against 2.0
#: non-synonymous) is exact to that share only.
RTOL = 1e-10

#: Agreement of the foreground site table, relative to its largest
#: entry.  A site with several changes on the foreground branch reads
#: small entries of ``P(t)`` and ``D(t)[Q_L]``, which the spectral
#: operators carry to 4e-9 and 1.2e-10 of themselves on dataset ii
#: (against a 30-digit reference; ``expm``/``expm_frechet`` to 2e-15),
#: so that table agrees to 1.4e-10; datasets i, iii and iv to 5e-12.
SITE_RTOL = 1e-9


def assert_matches_oracle(bound, values, lengths=None):
    totals, foreground = bound.substitution_counts(values, lengths)
    ref_totals, ref_foreground = substitution_counts_reference(bound, values, lengths)
    assert np.all(np.isfinite(totals)) and np.all(np.isfinite(foreground))
    scale = ref_totals.sum(axis=1, keepdims=True)
    assert np.max(np.abs(totals - ref_totals) / scale) <= RTOL
    assert np.max(np.abs(foreground - ref_foreground)) <= SITE_RTOL * np.max(ref_foreground)


@pytest.fixture(scope="module")
def m0_bound():
    tree = parse_newick("((A:0.05,B:0.05):0.05,(C:0.05,D:0.05):0.05,E:0.08);")
    sim = simulate_alignment(tree, M0Model(), M0_VALUES, 60, seed=17)
    return make_engine("slim").bind(tree, sim.alignment, M0Model())


@pytest.fixture
def built_kernels(monkeypatch):
    """Weak references to every uniformized kernel an engine builds."""
    refs = []

    class Recording(UniformizedOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(engine_mod, "UniformizedOperator", Recording)
    return refs


@pytest.fixture(scope="module")
def bsa_bound():
    tree = parse_newick(BSA_TREE)
    sim = simulate_alignment(tree, BranchSiteModelA(), BSA_VALUES, n_codons=40, seed=9)
    return make_engine("slim").bind(tree, sim.alignment, BranchSiteModelA())


class TestSampler:
    """The ``substitution_mapping`` entry point."""

    def test_shapes_and_nonnegativity(self, m0_bound):
        mapping = substitution_mapping(m0_bound, M0_VALUES)
        n_branches = m0_bound.n_branches
        assert mapping.n_branches == n_branches == 7
        assert mapping.n_sites == 60  # expanded to sites, not patterns
        assert mapping.syn.shape == mapping.nonsyn.shape == (n_branches,)
        assert mapping.fg_syn.shape == mapping.fg_nonsyn.shape == (60,)
        assert np.all(mapping.syn >= 0.0) and np.all(mapping.nonsyn >= 0.0)
        assert len(mapping.branch_labels) == n_branches

    def test_event_totals_calibrate_with_tree_length(self, m0_bound):
        # Q is normalised to one expected substitution per site per unit
        # time, so the expected events on observed data stay near tree
        # length × sites.
        mapping = substitution_mapping(m0_bound, M0_VALUES)
        total = float(mapping.syn.sum() + mapping.nonsyn.sum())
        expected = m0_bound.branch_lengths.sum() * mapping.n_sites
        assert 0.5 * expected < total < 2.0 * expected

    def test_zero_length_branches_sample_zero_events(self, m0_bound):
        lengths = np.array(m0_bound.branch_lengths, copy=True)
        lengths[0] = 0.0
        mapping = substitution_mapping(m0_bound, M0_VALUES, branch_lengths=lengths)
        assert mapping.syn[0] == 0.0 and mapping.nonsyn[0] == 0.0
        assert np.all(mapping.syn[1:] > 0.0)

    def test_spectral_problem_builds_no_uniformized_kernel(self, bsa_bound, built_kernels):
        substitution_mapping(bsa_bound, BSA_VALUES)
        assert built_kernels == []

    def test_survey_mapper_drops_every_candidates_kernels(self, built_kernels, monkeypatch):
        from repro.parallel.batch import (
            BranchScanResult, GeneResult, branch_label, map_survey_candidates,
        )

        # Every candidate's binding (its evaluation, operators and
        # outside pass) dies once the candidate is mapped.
        bindings = []
        real_init = engine_mod.BoundLikelihood.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            bindings.append(weakref.ref(self))

        monkeypatch.setattr(engine_mod.BoundLikelihood, "__init__", recording_init)
        tree = parse_newick("((A:0.2,B:0.1):0.08,(C:0.15,D:0.12):0.05,E:0.3);")
        sim = simulate_alignment(
            tree.copy(), M0Model(), M0_VALUES, n_codons=30, seed=5
        )
        point = {"values": BSA_VALUES, "branch_lengths": list(tree.branch_lengths())}
        labels = [branch_label(tree, n.index) for n in tree.nodes if not n.is_root][:3]
        scan = BranchScanResult("g", by_branch={}, gene_results=[
            GeneResult(
                gene_id=f"g:{label}", lnl0=-1.0, lnl1=-1.0, statistic=0.0,
                pvalue=1.0, iterations=0, runtime_seconds=0.0, h1_mles=point,
            )
            for label in labels
        ])
        gc.disable()
        try:
            payloads = map_survey_candidates("g", tree, sim.alignment, scan, labels)
            assert len(bindings) == len(labels)
            assert all(ref() is None for ref in bindings)
        finally:
            gc.enable()
        assert built_kernels == []
        assert payloads.keys() == set(labels)
        assert all(payload["method"] == "exact" for payload in payloads.values())


class TestExactCounts:
    """Against the brute-force oracle, and the identities the exact
    means obey."""

    @pytest.mark.parametrize(
        "name", ["i", pytest.param("ii", marks=pytest.mark.slow), "iii",
                 pytest.param("iv", marks=pytest.mark.slow)],
    )
    def test_matches_the_frechet_oracle_on_the_datasets(self, name):
        dataset = make_dataset(name)
        bound = make_engine("slim-v2").bind(
            dataset.tree, dataset.alignment, BranchSiteModelA(fix_omega2=False)
        )
        assert_matches_oracle(bound, dataset.spec.true_values())

    @pytest.mark.parametrize("engine_name", ("codeml", "slim", "slim-v2"))
    def test_matches_the_frechet_oracle_on_every_engine(self, engine_name):
        tree = parse_newick(BSA_TREE)
        sim = simulate_alignment(tree, BranchSiteModelA(), BSA_VALUES, n_codons=30, seed=23)
        bound = make_engine(engine_name).bind(tree, sim.alignment, BranchSiteModelA())
        assert_matches_oracle(bound, BSA_VALUES)

    def test_matches_the_frechet_oracle_on_bsrel2(self):
        dataset = make_dataset("iii")
        model = resolve_model_spec("bsrel:2").pair()[1]
        values = model.default_start()
        bound = make_engine("slim-v2").bind(dataset.tree, dataset.alignment, model)
        assert_matches_oracle(bound, values)

    def test_pade_rows_take_expm_frechet(self, bsa_bound, pade_decompositions):
        tree = parse_newick(BSA_TREE)
        engine = make_engine("slim-v2")
        bound = engine.bind(tree, bsa_bound.patterns, BranchSiteModelA(), pi=bsa_bound.pi)
        assert_matches_oracle(bound, BSA_VALUES)
        # One event per ω the counts took by expm_frechet.
        assert engine.events.counts()["count_frechet"] == 3

    def test_all_missing_alignment_counts_length_times_mean_rate(self):
        # No data: every posterior is the prior, and E[N] on a branch is
        # t_b × its class-mixture mean rate per site — exactly t_b per
        # site for M0, whose Q has unit mean rate.
        tree = parse_newick("((A:0.05,B:0.3):0.05,(C:0.05,D:0.05):0.2,E:0.08);")
        names = ["A", "B", "C", "D", "E"]
        empty = CodonAlignment.from_sequences(names, ["---" * 12] * len(names))
        pi = np.random.default_rng(3).dirichlet(np.full(61, 20.0))
        m0 = make_engine("slim-v2").bind(tree, empty, M0Model(), pi=pi)
        mapping = substitution_mapping(m0, M0_VALUES)
        np.testing.assert_allclose(
            mapping.syn + mapping.nonsyn, m0.branch_lengths * 12, rtol=1e-12
        )

        marked = parse_newick(BSA_TREE)
        bsa = make_engine("slim-v2").bind(marked, empty, BranchSiteModelA(), pi=pi)
        mapping = substitution_mapping(bsa, BSA_VALUES)
        ev = bsa.class_evaluation(BSA_VALUES)
        rates = np.array([
            [
                -pi @ np.diag(ev.matrices[cls.omega_foreground if fg else cls.omega_background].q)
                for cls in ev.graph.nodes
            ]
            for fg in mapping.foreground
        ])
        expected = bsa.branch_lengths * (rates @ ev.proportions) * 12
        np.testing.assert_allclose(mapping.syn + mapping.nonsyn, expected, rtol=1e-12)
        # Background branches run at the common scale's unit rate.
        background = ~np.asarray(mapping.foreground)
        np.testing.assert_allclose(
            expected[background], bsa.branch_lengths[background] * 12, rtol=1e-12
        )

    def test_foreground_site_table_sums_to_the_foreground_totals(self, bsa_bound):
        mapping = substitution_mapping(bsa_bound, BSA_VALUES)
        fg = np.asarray(mapping.foreground)
        assert mapping.fg_syn.sum() == pytest.approx(mapping.syn[fg].sum(), rel=1e-12)
        assert mapping.fg_nonsyn.sum() == pytest.approx(mapping.nonsyn[fg].sum(), rel=1e-12)

    def test_leaves_the_likelihood_memo_usable(self, bsa_bound):
        lnl = bsa_bound.log_likelihood(BSA_VALUES)
        substitution_mapping(bsa_bound, BSA_VALUES)
        assert bsa_bound.gradient(BSA_VALUES).lnl == lnl


class TestForegroundAndPayload:
    def test_foreground_flags_follow_the_mark(self, bsa_bound):
        mapping = substitution_mapping(bsa_bound, BSA_VALUES)
        flagged = [
            label
            for label, fg in zip(mapping.branch_labels, mapping.foreground)
            if fg
        ]
        assert len(flagged) == 1  # exactly the #1-marked branch

    def test_payload_shape_and_ratio_semantics(self, bsa_bound):
        mapping = substitution_mapping(bsa_bound, BSA_VALUES)
        payload = mapping.to_payload()
        assert set(payload) == {"branches", "foreground_sites", "seconds", "method"}
        assert payload["method"] == "exact"
        assert payload["seconds"] >= 0.0
        assert len(payload["branches"]) == mapping.n_branches
        for row in payload["branches"]:
            assert set(row) == {
                "branch", "foreground", "length", "syn", "nonsyn", "ratio"
            }
            if row["syn"] > 0.0:
                assert row["ratio"] == pytest.approx(row["nonsyn"] / row["syn"])
            else:
                assert row["ratio"] is None
        sites = payload["foreground_sites"]
        assert len(sites["syn"]) == len(sites["nonsyn"]) == mapping.n_sites
        # The foreground per-site table sums the flagged branches only.
        fg_total = sum(row["nonsyn"] for row in payload["branches"] if row["foreground"])
        assert sum(sites["nonsyn"]) == pytest.approx(fg_total, abs=1e-6 * mapping.n_sites)

    def test_branch_totals_ratio_is_none_without_syn_events(self):
        mapping = SubstitutionMapping(
            branch_labels=["A", "B"],
            foreground=[True, False],
            branch_lengths=np.array([0.3, 0.1]),
            syn=np.array([2.0, 0.0]),
            nonsyn=np.array([1.5, 1.0]),
            fg_syn=np.array([2.0, 0.0]),
            fg_nonsyn=np.array([1.0, 0.5]),
        )
        rows = {row["branch"]: row for row in mapping.branch_totals()}
        assert rows["A"]["ratio"] == pytest.approx(1.5 / 2.0)
        assert rows["B"]["ratio"] is None
        assert rows["A"]["foreground"] and not rows["B"]["foreground"]
