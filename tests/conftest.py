"""Shared fixtures: a small branch-site problem every layer can chew on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment.simulate import simulate_alignment
from repro.models.branch_site import BranchSiteModelA
from repro.trees.newick import parse_newick

#: Engine names exercised by parametrised engine tests.
ENGINE_NAMES = ("codeml", "slim", "slim-v2")


@pytest.fixture(scope="session")
def small_tree():
    """Unrooted 5-taxon tree with an internal foreground branch."""
    return parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")


@pytest.fixture(scope="session")
def bsm_values():
    return {"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.5, "p1": 0.3}


@pytest.fixture(scope="session")
def h1_model():
    return BranchSiteModelA(fix_omega2=False)


@pytest.fixture(scope="session")
def h0_model():
    return BranchSiteModelA(fix_omega2=True)


@pytest.fixture(scope="session")
def small_sim(small_tree, h1_model, bsm_values):
    """120-codon alignment simulated under the fixture tree/values."""
    return simulate_alignment(small_tree, h1_model, bsm_values, n_codons=120, seed=7)


@pytest.fixture(scope="session")
def uniform_pi():
    return np.full(61, 1.0 / 61.0)


@pytest.fixture
def pade_decompositions(monkeypatch):
    """Every engine decomposition is a Padé fallback (recovery rung 3).

    Replaces the name ``repro.core.engine`` calls the recovery ladder
    through, so an engine built in the test evaluates every ω on the
    per-branch ``expm`` path without a failing eigensolver.
    """
    import repro.core.engine as engine_mod
    from repro.core.eigen import PadeFallback

    monkeypatch.setattr(
        engine_mod, "decompose_guarded",
        lambda matrix, **_: PadeFallback(q=matrix.q, pi=matrix.pi),
    )
