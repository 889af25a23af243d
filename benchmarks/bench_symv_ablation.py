"""E-K3 — Eq. 12-13 ablation: symmetric CLV propagation.

The paper's §II-C2 "further improvement": with ``M = Ŷ Ŷᵀ`` symmetric,
``P(t)·w = M·(Πw)`` replaces a general matvec by a symmetric one that
reads about half the matrix.  This bench isolates exactly that exchange
(``dgemv`` vs ``dsymv`` including the Π-scaling overhead) and the
engine-level effect (slim vs a per-site ``dsymv`` variant of slim-v2 on
one evaluation).
"""

import numpy as np
import pytest
from scipy.linalg.blas import dgemv, dsymv

from harness import SEED, format_table, get_dataset, write_result

from repro.alignment.simulate import simulate_alignment
from repro.core.engine import SlimEngine, SlimV2Engine
from repro.core.flops import symv_flops
from repro.models.branch_site import BranchSiteModelA
from repro.trees.newick import parse_newick

N = 61


class PerSiteSlimV2(SlimV2Engine):
    """slim-v2 with one ``dsymv`` per site pattern instead of one ``dsymm``.

    The E-K3 row isolates Eq. 12's symmetric matvec from §III-B's
    bundling, so it keeps slim's per-site loop shape; the library's
    slim-v2 only bundles.
    """

    def _propagate(self, operator, clv):
        m, pi = operator
        n, n_patterns = clv.shape
        scaled = np.empty((n, n_patterns), order="F")
        np.multiply(pi[:, None], clv, out=scaled)
        out = np.empty_like(clv, order="F")
        for p in range(n_patterns):
            dsymv(1.0, m, scaled[:, p], beta=0.0, y=out[:, p], overwrite_y=1, lower=0)
        if self.counter is not None:
            self.counter.add("clv:dsymv", n_patterns * symv_flops(n),
                             reads=n_patterns * n * (n + 1) // 2)
        return out

    def _propagate_level(self, items):
        return [self._propagate(op, clv) for op, clv in items]


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(31)
    p_general = np.asfortranarray(rng.random((N, N)))
    m_sym = np.asfortranarray(0.5 * (p_general + p_general.T))
    pi = rng.dirichlet(np.full(N, 5.0))
    w = rng.random(N)
    return p_general, m_sym, pi, w


def test_general_dgemv(benchmark, vectors):
    p, _, _, w = vectors
    out = benchmark(lambda: dgemv(1.0, p, w))
    assert out.shape == (N,)


def test_symmetric_dsymv(benchmark, vectors):
    # The Π-scaling of Eq. 12 is applied once per branch across *all*
    # pattern columns in the engine (an O(n·patterns) vectorised
    # multiply), so the per-site exchange being measured here is exactly
    # dgemv -> dsymv on an already-scaled vector.
    _, m, pi, w = vectors
    scaled = pi * w
    out = benchmark(lambda: dsymv(1.0, m, scaled, lower=0))
    assert out.shape == (N,)


def test_per_site_variant_matches_slim_v2():
    """The ablation row computes the library engine's lnL."""
    tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
    model = BranchSiteModelA()
    values = {"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.5, "p1": 0.3}
    alignment = simulate_alignment(tree, model, values, n_codons=120, seed=7).alignment
    per_site = PerSiteSlimV2().bind(tree, alignment, model)
    bundled = SlimV2Engine().bind(tree, alignment, model)
    assert per_site.log_likelihood(values) == pytest.approx(
        bundled.log_likelihood(values), rel=1e-13
    )


def test_engine_level_eq12_effect(benchmark, results_store):
    """slim (dgemv per site) vs slim-v2 per-site (dsymv) on dataset iii."""
    dataset = get_dataset("iii")
    model = BranchSiteModelA()
    values = dataset.true_values

    slim = SlimEngine().bind(dataset.tree, dataset.alignment, model)
    v2 = PerSiteSlimV2().bind(dataset.tree, dataset.alignment, model)
    slim.log_likelihood(values)
    lnl_v2 = v2.log_likelihood(values)
    reference = SlimV2Engine().bind(dataset.tree, dataset.alignment, model)
    assert lnl_v2 == pytest.approx(reference.log_likelihood(values), rel=1e-13)

    import time

    def measure():
        t0 = time.perf_counter()
        slim.log_likelihood(values)
        t_slim = time.perf_counter() - t0
        t0 = time.perf_counter()
        v2.log_likelihood(values)
        t_v2 = time.perf_counter() - t0
        return t_slim, t_v2

    t_slim, t_v2 = benchmark(measure)
    text = format_table(
        ["engine", "eval time (ms)", "speedup vs slim"],
        [
            ["slim (per-site dgemv)", f"{t_slim * 1e3:.1f}", "1.00"],
            ["slim-v2 per-site (dsymv, Eq.12)", f"{t_v2 * 1e3:.1f}", f"{t_slim / t_v2:.2f}"],
        ],
        title="E-K3: Eq. 12-13 symmetric propagation, dataset iii, one evaluation",
    )
    write_result("E-K3_symv_ablation.txt", text)
