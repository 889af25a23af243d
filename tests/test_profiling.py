"""Profiling helpers."""

import numpy as np
import pytest

from repro.core.engine import make_engine
from repro.models.m0 import M0Model
from repro.utils.profiling import evaluation_breakdown, profile_call


def test_profile_call_returns_result_and_hotspots():
    def work(n):
        total = 0.0
        for k in range(n):
            total += np.sin(k)
        return total

    result, hotspots = profile_call(work, 2000, top=5)
    assert isinstance(result, float)
    assert 0 < len(hotspots) <= 5
    assert all(h.calls >= 1 for h in hotspots)
    assert all(h.total_seconds >= 0 for h in hotspots)


def test_evaluation_breakdown_fractions():
    from repro.alignment.simulate import simulate_alignment
    from repro.trees.newick import parse_newick

    tree = parse_newick("(A:0.1,B:0.2,C:0.15);")
    values = {"kappa": 2.0, "omega": 0.5}
    sim = simulate_alignment(tree, M0Model(), values, 40, seed=2)
    engine = make_engine("slim")
    bound = engine.bind(tree, sim.alignment, M0Model())
    bound.log_likelihood(values)
    earlier = dict(engine.counters)
    breakdown = evaluation_breakdown(engine, bound, values, n_evaluations=2)
    fractions = [breakdown[k] for k in ("eigh", "expm", "clv")]
    assert all(0 <= f <= 1 for f in fractions)
    assert abs(sum(fractions) - 1.0) < 1e-9
    assert breakdown["total_seconds"] > 0
    # The breakdown reads the growth of the engine's phase-seconds
    # counters over its own evaluations; it never resets them.
    phases = ("eigh_s", "expm_s", "clv_s")
    grown = sum(engine.counters[k] - earlier[k] for k in phases)
    assert breakdown["total_seconds"] == pytest.approx(grown)
    assert breakdown["gradient_seconds"] > 0
    assert engine.counters["gradient_passes"] == 2
    assert engine.counters["clv_propagations"] > earlier["clv_propagations"] > 0
