"""Stochastic substitution mapping: shapes, determinism, calibration,
and the journal payload the scan report renders."""

import gc
import weakref

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.alignment.simulate import simulate_alignment
from repro.core.engine import make_engine
from repro.core.uniformization import UniformizedOperator
from repro.likelihood.mapping import (
    SubstitutionMapping,
    sample_substitution_mapping,
)
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.trees.newick import parse_newick
from tests.oracles import nudge_operators, sample_mapping_serial

M0_VALUES = {"kappa": 2.0, "omega": 0.5}
BSA_VALUES = {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3}


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
    tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
    sim = simulate_alignment(tree, BranchSiteModelA(), BSA_VALUES, n_codons=40, seed=9)
    return make_engine("slim").bind(tree, sim.alignment, BranchSiteModelA())


class TestSampler:
    def test_shapes_and_nonnegativity(self, m0_bound):
        mapping = sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=4, seed=1)
        n_branches = m0_bound.n_branches
        assert mapping.n_branches == n_branches == 7
        assert mapping.n_sites == 60  # expanded to sites, not patterns
        assert mapping.syn.shape == mapping.nonsyn.shape == (n_branches, 60)
        assert np.all(mapping.syn >= 0.0) and np.all(mapping.nonsyn >= 0.0)
        assert len(mapping.branch_labels) == n_branches
        assert mapping.n_samples == 4

    def test_deterministic_per_seed(self, m0_bound):
        one = sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=4, seed=7)
        two = sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=4, seed=7)
        assert np.array_equal(one.syn, two.syn)
        assert np.array_equal(one.nonsyn, two.nonsyn)
        other = sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=4, seed=8)
        assert not (
            np.array_equal(one.syn, other.syn)
            and np.array_equal(one.nonsyn, other.nonsyn)
        )

    def test_event_totals_calibrate_with_tree_length(self, m0_bound):
        # Q is normalised to one expected substitution per site per unit
        # time, so total sampled events ≈ tree length × sites — a loose
        # factor-of-2 envelope holds for any healthy sampler.
        mapping = sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=16, seed=3)
        total = float(mapping.syn.sum() + mapping.nonsyn.sum())
        expected = m0_bound.branch_lengths.sum() * mapping.n_sites
        assert 0.5 * expected < total < 2.0 * expected

    def test_zero_length_branches_sample_zero_events(self, m0_bound):
        lengths = np.array(m0_bound.branch_lengths, copy=True)
        lengths[0] = 0.0
        mapping = sample_substitution_mapping(
            m0_bound, M0_VALUES, branch_lengths=lengths, n_samples=4, seed=1
        )
        assert mapping.syn[0].sum() == 0.0 and mapping.nonsyn[0].sum() == 0.0

    def test_drops_its_uniformized_kernels_on_return(self, bsa_bound, built_kernels):
        # One kernel per ω of the evaluation, none alive once the
        # sampler returns (counted by reference, no cycle collection).
        gc.disable()
        try:
            sample_substitution_mapping(bsa_bound, BSA_VALUES, n_samples=2, seed=1)
            assert len(built_kernels) == 3
            assert all(ref() is None for ref in built_kernels)
        finally:
            gc.enable()

    def test_survey_mapper_drops_every_candidates_kernels(self, built_kernels):
        from repro.parallel.batch import (
            BranchScanResult, GeneResult, branch_label, map_survey_candidates,
        )

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
            payloads = map_survey_candidates(
                "g", tree, sim.alignment, scan, labels, map_samples=2
            )
            assert len(built_kernels) == 3 * len(labels)
            assert all(ref() is None for ref in built_kernels)
        finally:
            gc.enable()
        assert payloads.keys() == set(labels)
        assert all("error" not in payload for payload in payloads.values())

    def test_rejects_nonpositive_sample_count(self, m0_bound):
        with pytest.raises(ValueError, match="n_samples"):
            sample_substitution_mapping(m0_bound, M0_VALUES, n_samples=0)


class TestBatchedSerialEquivalence:
    """The batched sampler is a reordering of the serial reference
    (``tests/oracles.py``), not an approximation: both consume the same
    canonical uniform stream and must emit bit-identical counts for a
    fixed seed."""

    @pytest.mark.parametrize("engine_name", ("codeml", "slim", "slim-v2"))
    @pytest.mark.parametrize("recover", (False, True), ids=("plain", "recovery"))
    def test_bit_identical_to_serial(self, engine_name, recover, monkeypatch):
        # recovery: every operator drifts, so the guards act on each one.
        if recover:
            nudge_operators(monkeypatch)
        tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
        sim = simulate_alignment(
            tree, BranchSiteModelA(), BSA_VALUES, n_codons=30, seed=23
        )
        engine = make_engine(engine_name)
        bound = engine.bind(tree, sim.alignment, BranchSiteModelA())
        serial = sample_mapping_serial(bound, BSA_VALUES, n_samples=6, seed=11)
        batched = sample_substitution_mapping(bound, BSA_VALUES, n_samples=6, seed=11)
        assert np.array_equal(serial.syn, batched.syn)
        assert np.array_equal(serial.nonsyn, batched.nonsyn)
        assert np.array_equal(serial.syn_var, batched.syn_var)
        assert np.array_equal(serial.nonsyn_var, batched.nonsyn_var)
        assert batched.to_payload()["method"] == "batched"
        assert (len(engine.events) > 0) == recover


class TestUncertainty:
    def test_payload_carries_normal_ci(self, bsa_bound):
        payload = sample_substitution_mapping(
            bsa_bound, BSA_VALUES, n_samples=8, seed=3
        ).to_payload()
        ci = payload["mapping_ci"]
        assert ci["level"] == pytest.approx(0.95)
        assert len(ci["branches"]) == len(payload["branches"])
        for row in ci["branches"]:
            assert row["syn"] >= 0.0 and row["nonsyn"] >= 0.0
        sites = ci["foreground_sites"]
        assert len(sites["nonsyn"]) == len(payload["foreground_sites"]["nonsyn"])
        assert payload["method"] == "batched"
        assert payload["seconds"] >= 0.0

    def test_single_draw_ci_collapses_to_zero(self, bsa_bound):
        payload = sample_substitution_mapping(
            bsa_bound, BSA_VALUES, n_samples=1, seed=3
        ).to_payload()
        # One draw carries no spread information: every half-width is 0.
        ci = payload["mapping_ci"]
        assert all(row["syn"] == 0.0 and row["nonsyn"] == 0.0 for row in ci["branches"])
        assert not any(ci["foreground_sites"]["nonsyn"])


class TestForegroundAndPayload:
    def test_foreground_flags_follow_the_mark(self, bsa_bound):
        mapping = sample_substitution_mapping(bsa_bound, BSA_VALUES, n_samples=2, seed=5)
        flagged = [
            label
            for label, fg in zip(mapping.branch_labels, mapping.foreground)
            if fg
        ]
        assert len(flagged) == 1  # exactly the #1-marked branch

    def test_payload_shape_and_ratio_semantics(self, bsa_bound):
        mapping = sample_substitution_mapping(bsa_bound, BSA_VALUES, n_samples=4, seed=5)
        payload = mapping.to_payload()
        assert payload["n_samples"] == 4
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
        fg = np.asarray(mapping.foreground, dtype=bool)
        assert np.allclose(sites["nonsyn"], mapping.nonsyn[fg].sum(axis=0), atol=1e-6)

    def test_branch_totals_ratio_is_none_without_syn_events(self):
        mapping = SubstitutionMapping(
            branch_labels=["A", "B"],
            foreground=[True, False],
            branch_lengths=np.array([0.3, 0.1]),
            syn=np.array([[2.0, 0.0], [0.0, 0.0]]),
            nonsyn=np.array([[1.0, 0.5], [1.0, 0.0]]),
            n_samples=8,
        )
        rows = {row["branch"]: row for row in mapping.branch_totals()}
        assert rows["A"]["ratio"] == pytest.approx(1.5 / 2.0)
        assert rows["B"]["ratio"] is None
        assert rows["A"]["foreground"] and not rows["B"]["foreground"]
