"""Cross-cutting coverage: lazy exports, IUPAC table, engine internals, CLI parser."""

import numpy as np
import pytest


class TestLazyCoreExports:
    def test_engine_names_resolve_lazily(self):
        import repro.core as core

        assert core.BaselineEngine.name == "codeml"
        assert core.SlimEngine.name == "slim"
        assert core.SlimV2Engine.name == "slim-v2"
        assert callable(core.make_engine)

    def test_unknown_attribute(self):
        import repro.core as core

        with pytest.raises(AttributeError):
            core.does_not_exist


class TestIupacTable:
    @pytest.mark.parametrize(
        "symbol,expected",
        [
            ("R", set("AG")),
            ("Y", set("CT")),
            ("S", set("CG")),
            ("W", set("AT")),
            ("K", set("GT")),
            ("M", set("AC")),
            ("B", set("CGT")),
            ("D", set("AGT")),
            ("H", set("ACT")),
            ("V", set("ACG")),
            ("N", set("TCAG")),
        ],
    )
    def test_ambiguity_sets(self, symbol, expected):
        from repro.alignment.msa import IUPAC

        assert set(IUPAC[symbol]) == expected

    def test_u_folds_to_t(self):
        from repro.alignment.msa import IUPAC

        assert IUPAC["U"] == "T"

    def test_ambiguous_codon_state_count(self):
        # NTT = {TTT, CTT, ATT, GTT}: all sense.
        from repro.alignment.msa import CodonAlignment

        aln = CodonAlignment.from_sequences(["x"], ["NTT"])
        assert len(aln.ambiguity_sets[(0, 0)]) == 4


class TestEngineInternals:
    def test_slimv2_flop_operation_names(self, small_tree, small_sim, h1_model, bsm_values):
        from repro.core.engine import SlimV2Engine
        from repro.core.flops import FlopCounter

        counter = FlopCounter()
        engine = SlimV2Engine(counter=counter)
        engine.bind(small_tree, small_sim.alignment, h1_model).log_likelihood(bsm_values)
        assert "expm:dsyrk(sym-branch)" in counter.by_operation
        assert "clv:dsymm" in counter.by_operation

    def test_slimv2_per_site_counter(self, small_tree, small_sim, h1_model, bsm_values):
        from repro.core.engine import SlimV2Engine
        from repro.core.flops import FlopCounter

        counter = FlopCounter()
        engine = SlimV2Engine(counter=counter, bundled=False)
        engine.bind(small_tree, small_sim.alignment, h1_model).log_likelihood(bsm_values)
        assert "clv:dsymv" in counter.by_operation
        # Symmetric reads: roughly half of the matrix per application.
        assert counter.matrix_reads["clv:dsymv"] < counter.by_operation["clv:dsymv"] / 2

    def test_transition_cache_size_bound(
        self, small_tree, small_sim, h1_model, bsm_values, monkeypatch
    ):
        import repro.core.engine as engine_mod
        from repro.core.eigen import DecompositionCache, PadeFallback
        from repro.core.engine import SlimEngine

        # Only Padé-built operators ride the LRU.
        monkeypatch.setattr(engine_mod, "TRANSITION_CACHE_SIZE", 4)
        engine = SlimEngine()
        engine._decomp_cache = DecompositionCache(
            decomposer=lambda matrix, counter: PadeFallback(q=matrix.q, pi=matrix.pi)
        )
        bound = engine.bind(small_tree, small_sim.alignment, h1_model)
        bound.log_likelihood(bsm_values)
        assert engine.counters["transition_misses"] > 4
        assert len(engine._transition_cache) == 4

    def test_counter_merge_and_summary(self):
        from repro.core.flops import FlopCounter

        a, b = FlopCounter(), FlopCounter()
        a.add("x", 100, reads=10)
        b.add("x", 50, reads=5)
        b.add("y", 7)
        a.merge(b)
        assert a.by_operation == {"x": 150, "y": 7}
        assert a.matrix_reads["x"] == 15
        assert "TOTAL" in a.summary()


class TestCliParser:
    def test_bench_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--dataset", "i", "--iterations", "1", "--engines", "codeml", "slim"]
        )
        assert args.command == "bench"
        assert args.engines == ["codeml", "slim"]

    def test_bench_rejects_unknown_engine(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--engines", "warp"])


class TestTreeHelpers:
    def test_map_branches(self):
        from repro.trees.newick import parse_newick
        from repro.trees.tree import map_branches

        tree = parse_newick("(A:0.1,B:0.2,C:0.3);")
        map_branches(tree, lambda node: 0.5)
        assert tree.branch_lengths() == [0.5, 0.5, 0.5]

    def test_repr(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("(A:0.1,B:0.2,C:0.3);")
        assert "n_leaves=3" in repr(tree)


class TestModelRepr:
    def test_model_repr_lists_params(self):
        from repro.models.branch_site import BranchSiteModelA

        assert "omega2" in repr(BranchSiteModelA())
