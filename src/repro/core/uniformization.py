"""Uniformized (expm-free) transition kernel — the ladder's fourth rung.

Uniformization rewrites a CTMC generator ``Q`` as a Poisson-subordinated
jump chain (Jensen 1953; Irvahn & Minin, arXiv:1403.5040): with

    μ = max_i |q_ii|        and        R = I + Q / μ

``R`` is a *stochastic* matrix (non-negative rows summing to one), and

    P(t) = e^{-μt} Σ_{k=0}^{∞} (μt)^k / k! · R^k .

Every term of the series is non-negative, so — unlike the spectral
reconstruction (signed cancellation of ``e^{λt}`` terms) and Padé
(rational approximation with subtractions) — no catastrophic
cancellation is possible: the partial sums increase monotonically
towards ``P(t)`` entrywise.  That makes uniformization the natural
*independent witness* for the recovery ladder: it fails in none of the
regimes (huge ``ω·t``, saturated branches, near-degenerate spectra)
where the first three rungs lose accuracy together.

Truncation is adaptive: the series is cut at the smallest ``K`` whose
Poisson tail mass ``1 − Σ_{k≤K} w_k`` is below the configured bound
(``tol``), which bounds the entrywise truncation error by the same
amount (``‖R^k‖_∞ = 1``).  The truncated sum has row sums equal to the
accumulated Poisson mass; dividing by it restores exact stochasticity
while keeping every entry non-negative — the "guaranteed-nonnegative
rows" contract the acceptance tests pin.

For large ``μt`` the Poisson mass spreads over ``O(μt)`` terms; rather
than summing thousands of matrix powers the kernel computes
``P(t/2^s)`` with ``μ·t/2^s ≤ DEFAULT_SQUARING_THRESHOLD`` and squares
``s`` times — squaring a stochastic matrix preserves non-negativity and row
sums to rounding, so the invariants survive.  The per-segment tolerance
is tightened by ``2^s`` to absorb the error doubling of each squaring.

:class:`UniformizedOperator` is the reusable per-decomposition object:
it caches the powers ``R^k``, shared by every branch length of the
rung-4 operator build that made it, and dropped with it.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

__all__ = [
    "UniformizedOperator",
    "poisson_truncation",
]

#: Series length above which ``transition_matrix`` switches to
#: scaling-and-squaring.
DEFAULT_SQUARING_THRESHOLD = 48.0

#: Hard cap on series terms per segment — far above anything the
#: squaring logic permits; a backstop against a runaway ``μt``.
MAX_TERMS = 4096


def poisson_truncation(mu_t: float, tol: float, max_terms: int = MAX_TERMS) -> np.ndarray:
    """Truncated Poisson(μt) weights ``w_0..w_K`` with tail mass ≤ ``tol``.

    Weights are computed by the stable forward recurrence
    ``w_{k+1} = w_k · μt/(k+1)`` from ``w_0 = e^{-μt}`` (no factorials,
    no overflow for the ``μt ≤ DEFAULT_SQUARING_THRESHOLD`` range the
    kernel feeds it).  Raises :class:`ValueError` when ``max_terms`` terms do
    not reach the requested tail bound.
    """
    if mu_t < 0.0 or not np.isfinite(mu_t):
        raise ValueError(f"mu_t must be finite and non-negative, got {mu_t!r}")
    if mu_t == 0.0:
        return np.ones(1)
    weights: List[float] = []
    w = math.exp(-mu_t)
    cum = 0.0
    for k in range(max_terms):
        weights.append(w)
        cum += w
        if 1.0 - cum <= tol:
            return np.asarray(weights)
        w *= mu_t / (k + 1)
    raise ValueError(
        f"Poisson truncation did not reach tail {tol:.1e} within "
        f"{max_terms} terms (mu_t={mu_t:.3g})"
    )


class UniformizedOperator:
    """Reusable uniformization of one generator ``Q`` (see module docstring).

    Quacks like :class:`~repro.core.eigen.SpectralDecomposition` where
    the engines care — ``pi``, ``n_states`` — and adds the jump-chain
    pieces (``mu``, ``r``, cached powers) the recovery rung reads.

    Parameters
    ----------
    q:
        The generator (off-diagonal entries are clamped to ≥ 0; the
        largest clamp magnitude is kept on :attr:`r_clip` so callers
        can report how damaged the input was).
    pi:
        Stationary distribution, carried for the engines'
        ``_wrap_probability_matrix`` hook.
    tol:
        Poisson-tail truncation bound per series evaluation.
    """

    #: Ladder-rung identity, mirroring ``SpectralDecomposition.rung``
    #: / ``PadeFallback.rung`` for the engines' per-rung usage counters.
    rung = "uniformization"

    def __init__(
        self,
        q: np.ndarray,
        pi: np.ndarray,
        tol: float = 1e-12,
        counter=None,
    ) -> None:
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q has non-finite entries; uniformization needs a finite generator")
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        self.q = q
        self.pi = np.asarray(pi, dtype=float)
        self.tol = float(tol)
        n = q.shape[0]
        diag = np.diagonal(q)
        #: Uniformization rate μ = max |q_ii| (0 for the zero generator).
        self.mu = float(np.max(-diag)) if n else 0.0
        if self.mu < 0.0:
            # Positive diagonal entries mean Q is not a generator at all.
            raise ValueError(f"Q has a positive diagonal entry ({-self.mu:.3e})")
        if self.mu > 0.0:
            r = np.eye(n) + q / self.mu
        else:
            r = np.eye(n)
        # Guarantee the jump matrix is non-negative even when the input
        # generator carries small negative off-diagonal noise (it can:
        # rung 4 sees Q rebuilt from damaged spectral factors).
        min_entry = float(r.min())
        #: Largest negative excursion clamped out of R (0.0 = clean input).
        self.r_clip = -min_entry if min_entry < 0.0 else 0.0
        if self.r_clip > 0.0:
            r = np.maximum(r, 0.0)
        #: The jump-chain matrix R = I + Q/μ, rows renormalised to sum
        #: exactly to 1 so cached powers stay stochastic.
        row_sums = r.sum(axis=1)
        r /= np.where(row_sums > 0.0, row_sums, 1.0)[:, None]
        self.r = r
        self._powers: List[np.ndarray] = [np.eye(n), r]
        #: Series evaluations performed (diagnostics/benchmarks).
        self.evaluations = 0
        self._counter = counter

    @property
    def n_states(self) -> int:
        return self.q.shape[0]

    @property
    def n_cached_powers(self) -> int:
        return len(self._powers)

    def power(self, k: int) -> np.ndarray:
        """``R^k`` from the cache, extending it on demand."""
        if k < 0:
            raise ValueError("power exponent must be non-negative")
        n = self.n_states
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] @ self.r)
            if self._counter is not None:
                self._counter.add("uniformization:power-dgemm", 2 * n * n * n,
                                  reads=2 * n * n)
        return self._powers[k]

    def _series(self, mu_t: float, tol: float) -> np.ndarray:
        """Direct truncated series at ``μt`` (caller keeps μt moderate)."""
        weights = poisson_truncation(mu_t, tol)
        n = self.n_states
        p = np.zeros((n, n))
        for k, w in enumerate(weights):
            p += w * self.power(k)
        return p

    def transition_matrix(self, t: float) -> np.ndarray:
        """``P(t)`` with guaranteed non-negative rows summing to 1.

        Adaptive truncation to :attr:`tol`; scaling-and-squaring above
        ``DEFAULT_SQUARING_THRESHOLD`` (see module docstring).  The result
        is freshly allocated and row-normalised — the one float of
        drift the truncation leaves is divided out, never left for a
        downstream guard to flag.
        """
        t = float(t)
        if t < 0.0 or not np.isfinite(t):
            raise ValueError(f"branch length must be finite and non-negative, got {t!r}")
        self.evaluations += 1
        n = self.n_states
        mu_t = self.mu * t
        if mu_t == 0.0:
            return np.eye(n)
        squarings = 0
        if mu_t > DEFAULT_SQUARING_THRESHOLD:
            squarings = int(math.ceil(math.log2(mu_t / DEFAULT_SQUARING_THRESHOLD)))
        # Each squaring can double the accumulated error: tighten the
        # per-segment tolerance accordingly (floored well above
        # underflow so the Poisson recurrence stays meaningful).
        seg_tol = max(self.tol / (2.0 ** squarings), 1e-300)
        p = self._series(mu_t / (2 ** squarings), seg_tol)
        for _ in range(squarings):
            p = p @ p
        p /= p.sum(axis=1)[:, None]
        return p

    def terms_for(self, t: float) -> Tuple[int, int]:
        """(series terms, squarings) ``transition_matrix(t)`` would use."""
        mu_t = self.mu * float(t)
        if mu_t == 0.0:
            return 1, 0
        squarings = 0
        if mu_t > DEFAULT_SQUARING_THRESHOLD:
            squarings = int(math.ceil(math.log2(mu_t / DEFAULT_SQUARING_THRESHOLD)))
        seg_tol = max(self.tol / (2.0 ** squarings), 1e-300)
        return poisson_truncation(mu_t / (2 ** squarings), seg_tol).shape[0], squarings
