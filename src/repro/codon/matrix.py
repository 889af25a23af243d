"""Assembly of the reversible codon instantaneous rate matrix ``Q`` (Eq. 1).

The model factorises as ``Q = S Π`` where ``Π = diag(pi)`` and ``S`` is
symmetric — the property the whole SlimCodeML optimization rests on
(paper Eq. 2-5).  We therefore build ``S`` first (the *exchangeability*
matrix: ``kappa``/``omega`` factors over single-nucleotide codon pairs)
and derive ``Q``, keeping both so the engines can symmetrise without
re-deriving ``S`` from ``Q``.

Rate normalisation
------------------
Branch lengths are measured in expected substitutions per codon, so ``Q``
must be scaled to unit mean rate ``-sum_i pi_i q_ii = 1``.  For mixture
models (the branch-site model) CodeML applies a *single* scale factor
across all site-class matrices — computed from the class proportions — so
that a branch length means the same thing in every class.  Both modes are
supported via the ``scale`` argument of :func:`build_rate_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codon.classify import classification_table
from repro.codon.genetic_code import GeneticCode, UNIVERSAL
from repro.utils.numerics import validate_probability_vector

__all__ = [
    "CodonRateMatrix",
    "build_rate_matrix",
    "exchangeability_matrix",
    "exchangeability_derivatives",
    "mean_rate",
]


def exchangeability_matrix(
    kappa: float, omega: float, code: GeneticCode = UNIVERSAL
) -> np.ndarray:
    """Symmetric exchangeability factors ``R`` with ``q_ij = R_ij * pi_j``.

    ``R_ij`` is 0 for multi-nucleotide changes and otherwise the product
    of ``kappa`` (if the single change is a transition) and ``omega`` (if
    non-synonymous) per paper Eq. 1.  The diagonal is left at zero; it is
    fixed up when building ``Q``.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    table = classification_table(code)
    rate = np.zeros_like(table.single, dtype=float)
    rate[table.single] = 1.0
    rate[table.single & table.transition] *= kappa
    rate[table.single & ~table.synonymous] *= omega
    return rate


def exchangeability_derivatives(
    kappa: float, omega: float, code: GeneticCode = UNIVERSAL
) -> tuple[np.ndarray, np.ndarray]:
    """``∂R/∂κ`` and ``∂R/∂ω`` of :func:`exchangeability_matrix`.

    ``R_ij = κ^[transition]·ω^[non-synonymous]`` on single-nucleotide
    pairs, so each derivative keeps the entries that carry its factor,
    with that factor removed (well defined at ``ω = 0`` too).
    """
    table = classification_table(code)
    ts = table.single & table.transition
    ns = table.single & ~table.synonymous
    d_kappa = np.where(ts, np.where(ns, omega, 1.0), 0.0)
    d_omega = np.where(ns, np.where(ts, kappa, 1.0), 0.0)
    return d_kappa, d_omega


def mean_rate(q_unscaled: np.ndarray, pi: np.ndarray) -> float:
    """Expected substitution rate ``-sum_i pi_i q_ii`` of an unscaled Q."""
    return float(-np.dot(pi, np.diag(q_unscaled)))


@dataclass(frozen=True)
class CodonRateMatrix:
    """A built codon rate matrix together with its reversible factorisation.

    Attributes
    ----------
    q:
        The (possibly rescaled) instantaneous rate matrix, rows summing
        to zero.
    s:
        Symmetric matrix with ``Q = S Π`` (including the diagonal).
    pi:
        Equilibrium codon frequencies.
    kappa, omega:
        The Eq. 1 parameters this matrix was built from.
    scale:
        The factor the raw matrix was divided by (1.0 when unscaled).
    """

    q: np.ndarray
    s: np.ndarray
    pi: np.ndarray
    kappa: float
    omega: float
    scale: float

    @property
    def n_states(self) -> int:
        return self.q.shape[0]

    def raw_mean_rate(self) -> float:
        """Mean rate of the *unscaled* matrix (``scale`` × current rate)."""
        return mean_rate(self.q, self.pi) * self.scale

    def check_reversibility(self, atol: float = 1e-10) -> None:
        """Assert detailed balance ``pi_i q_ij = pi_j q_ji``; raises on failure."""
        flux = self.pi[:, None] * self.q
        if not np.allclose(flux, flux.T, atol=atol):
            raise AssertionError("detailed balance violated: Q is not reversible wrt pi")


def build_rate_matrix(
    kappa: float,
    omega: float,
    pi: np.ndarray,
    code: GeneticCode = UNIVERSAL,
    scale: float | str = "per_matrix",
) -> CodonRateMatrix:
    """Build the Eq. 1 rate matrix for given ``kappa``, ``omega``, ``pi``.

    Parameters
    ----------
    scale:
        ``"per_matrix"`` rescales so this matrix alone has unit mean rate;
        ``"none"`` leaves raw rates; a positive float divides Q by that
        factor (used for the shared mixture normalisation of the
        branch-site model).
    """
    pi = validate_probability_vector(pi, name="pi")
    if pi.shape[0] != code.n_states:
        raise ValueError(
            f"pi has {pi.shape[0]} entries but the genetic code has {code.n_states} sense codons"
        )
    if np.any(pi <= 0):
        raise ValueError("pi must be strictly positive for the reversible factorisation")

    r = exchangeability_matrix(kappa, omega, code)
    q = r * pi[None, :]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))

    if scale == "per_matrix":
        factor = mean_rate(q, pi)
        if factor <= 0:
            raise ValueError("degenerate rate matrix: zero mean rate")
    elif scale == "none":
        factor = 1.0
    elif isinstance(scale, (int, float)):
        factor = float(scale)
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {scale}")
    else:
        raise ValueError(f"unknown scale mode {scale!r}")

    q = q / factor
    # S = Q Π^{-1}: off-diagonal S_ij = R_ij / factor, diagonal q_ii / pi_i.
    s = q / pi[None, :]
    return CodonRateMatrix(q=q, s=s, pi=pi, kappa=kappa, omega=omega, scale=factor)
