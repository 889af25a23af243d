"""Symmetrisation and spectral decomposition of the codon rate matrix.

Paper §II-C1 / §III-A steps 1–2.  Because the model is time-reversible,
``Q = SΠ`` with ``S`` symmetric, so

    A := Π^{1/2} S Π^{1/2}        (Eq. 2)

is symmetric and similar to ``Q`` (``A = Π^{1/2} Q Π^{-1/2}``).  Its
eigenproblem is always well-conditioned (Moler & Van Loan) and solved
with LAPACK's ``dsyevr`` — multiple relatively robust representations —
which is exactly what ``scipy.linalg.eigh(driver="evr")`` calls.

One decomposition per distinct ω value serves *every* branch of the tree
(only the ``e^{Λt}`` rescaling depends on the branch length), so an
engine evaluation decomposes each distinct ω once and keeps the
:class:`SpectralDecomposition` for exactly as long as that evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from repro.codon.matrix import CodonRateMatrix
from repro.core.flops import FlopCounter, eigh_flops
from repro.core.recovery import RESIDUAL_TOL, NumericalEventRecorder
from repro.utils.numerics import validate_probability_vector, validate_square

__all__ = [
    "SpectralDecomposition",
    "PadeFallback",
    "symmetrize",
    "decompose",
    "decompose_guarded",
]


def symmetrize(rate_matrix: CodonRateMatrix) -> np.ndarray:
    """Return ``A = Π^{1/2} S Π^{1/2}`` (Eq. 2) for a built rate matrix.

    The result is numerically symmetrised (averaged with its transpose)
    so the symmetric eigensolver sees an exactly symmetric input.
    """
    pi = rate_matrix.pi
    sqrt_pi = np.sqrt(pi)
    a = (sqrt_pi[:, None] * rate_matrix.s) * sqrt_pi[None, :]
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition ``A = X Λ Xᵀ`` plus the Π^{±1/2} scalings.

    Attributes
    ----------
    eigenvalues:
        Real eigenvalues ``λ_1..λ_n`` of ``A`` (all ≤ 0 apart from the
        zero eigenvalue corresponding to the stationary distribution).
    eigenvectors:
        Orthonormal eigenvector matrix ``X`` stored Fortran-ordered so
        the BLAS kernels consume it without copies (paper §V-C storage
        rule of thumb).
    pi, sqrt_pi, inv_sqrt_pi:
        The stationary distribution and its elementwise square roots.
    rung:
        Which ladder rung produced this decomposition — the eigh driver
        name (``"evr"``/``"ev"``); feeds the engines' per-rung usage
        counters (``cache_stats()['rung_*']``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pi: np.ndarray
    sqrt_pi: np.ndarray
    inv_sqrt_pi: np.ndarray
    rung: str = "evr"

    @property
    def n_states(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct_a(self) -> np.ndarray:
        """Rebuild ``A`` from the factors (used by round-trip tests)."""
        x = self.eigenvectors
        return (x * self.eigenvalues[None, :]) @ x.T

    def reconstruct_q(self) -> np.ndarray:
        """Rebuild ``Q = Π^{-1/2} A Π^{1/2}`` from the factors."""
        a = self.reconstruct_a()
        return (self.inv_sqrt_pi[:, None] * a) * self.sqrt_pi[None, :]


def decompose(
    rate_matrix: CodonRateMatrix,
    driver: str = "evr",
    counter: Optional[FlopCounter] = None,
) -> SpectralDecomposition:
    """Spectrally decompose a codon rate matrix via its symmetric form.

    Parameters
    ----------
    rate_matrix:
        Output of :func:`repro.codon.matrix.build_rate_matrix`.
    driver:
        LAPACK driver for :func:`scipy.linalg.eigh`; ``"evr"`` (dsyevr /
        MRRR) is the paper's choice, ``"ev"`` (QR) is also accepted.
    counter:
        Optional flop accounting sink.
    """
    a = symmetrize(rate_matrix)
    validate_square(a, name="A")
    eigenvalues, eigenvectors = scipy.linalg.eigh(a, driver=driver)
    if counter is not None:
        counter.add("eigh(dsyevr)" if driver == "evr" else f"eigh({driver})", eigh_flops(a.shape[0]))
    pi = validate_probability_vector(rate_matrix.pi, name="pi")
    sqrt_pi = np.sqrt(pi)
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(eigenvalues),
        eigenvectors=np.asfortranarray(eigenvectors),
        pi=pi,
        sqrt_pi=sqrt_pi,
        inv_sqrt_pi=1.0 / sqrt_pi,
        rung=driver,
    )


@dataclass(frozen=True)
class PadeFallback:
    """Last rung of the fallback ladder: no usable eigendecomposition.

    When every eigensolver rung fails (LAPACK error or residual check),
    the engines fall back to building each branch's ``P(t)`` directly
    with :func:`scipy.linalg.expm` (Padé + scaling-and-squaring) on the
    stored generator ``Q`` — slower (one O(n³) expm per distinct branch
    length instead of one eigendecomposition per ω) but algorithmically
    independent of the spectral path that just failed.

    Quacks like :class:`SpectralDecomposition` where the engines care:
    it carries ``pi`` and ``n_states``.  ``ladder`` records why each
    eigensolver rung above was rejected — ``(driver, reason)`` pairs —
    so a later ``ladder_exhausted`` event (rung 4 failing too) can
    report the *whole* failure history rather than the last raw
    exception.
    """

    q: np.ndarray
    pi: np.ndarray
    #: Why each eigh rung was rejected: tuple of (driver, reason) pairs.
    ladder: tuple = ()

    #: Ladder-rung identity (see ``SpectralDecomposition.rung``).
    rung = "pade"

    @property
    def n_states(self) -> int:
        return self.q.shape[0]


#: What the guarded path can hand to an engine.
AnyDecomposition = Union[SpectralDecomposition, PadeFallback]


def _residual(a: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> float:
    """Relative reconstruction residual ``‖A − XΛXᵀ‖_max / max(1, ‖A‖_max)``."""
    recon = (eigenvectors * eigenvalues[None, :]) @ eigenvectors.T
    return float(np.max(np.abs(a - recon))) / max(1.0, float(np.max(np.abs(a))))


def decompose_guarded(
    rate_matrix: CodonRateMatrix,
    driver: str = "evr",
    counter: Optional[FlopCounter] = None,
    recorder: Optional[NumericalEventRecorder] = None,
) -> AnyDecomposition:
    """:func:`decompose` with the §II-C1 promise *checked* and a fallback ladder.

    Rungs, in order:

    1. ``eigh(driver=driver)`` — the engine's configured solver
       (``dsyevr``/MRRR for the slim engines);
    2. ``eigh(driver="ev")`` — the classic QR solver, skipped when it
       *is* the configured driver;
    3. :class:`PadeFallback` — per-branch ``scipy.linalg.expm``;
    4. (operator-level) the expm-free uniformized kernel
       (:mod:`repro.core.uniformization`) — engaged by the engines when
       a Padé-built ``P(t)`` fails its guard, so a Padé residual failure
       degrades gracefully instead of raising
       :class:`~repro.core.recovery.NumericalError`.

    A rung is rejected when LAPACK raises or when the reconstruction
    residual ``‖A − XΛXᵀ‖`` exceeds
    :data:`~repro.core.recovery.RESIDUAL_TOL` (relative);
    every rejection and every fallback is recorded on ``recorder``, and
    the returned :class:`PadeFallback` carries the per-rung rejection
    reasons on ``ladder`` for a potential ``ladder_exhausted`` report.
    """
    a = symmetrize(rate_matrix)
    validate_square(a, name="A")
    pi = validate_probability_vector(rate_matrix.pi, name="pi")
    sqrt_pi = np.sqrt(pi)

    ladder = [driver] + (["ev"] if driver != "ev" else [])
    ctx = {"kappa": float(rate_matrix.kappa), "omega": float(rate_matrix.omega)}
    rejections = []
    for rung, drv in enumerate(ladder):
        try:
            eigenvalues, eigenvectors = scipy.linalg.eigh(a, driver=drv)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
            rejections.append((drv, f"raised {type(exc).__name__}: {exc}"))
            if recorder is not None:
                recorder.record(
                    "eigh_failure", "eigen", f"eigh(driver={drv!r}) raised: {exc}",
                    driver=drv, **ctx,
                )
            continue
        residual = _residual(a, eigenvalues, eigenvectors)
        if not np.isfinite(residual) or residual > RESIDUAL_TOL:
            rejections.append((drv, f"residual {residual:.3e}"))
            if recorder is not None:
                recorder.record(
                    "eigh_residual", "eigen",
                    f"eigh(driver={drv!r}) residual {residual:.3e} "
                    f"> {RESIDUAL_TOL:.0e}",
                    driver=drv, residual=residual, **ctx,
                )
            continue
        if counter is not None:
            counter.add(
                "eigh(dsyevr)" if drv == "evr" else f"eigh({drv})",
                eigh_flops(a.shape[0]),
            )
        if rung > 0 and recorder is not None:
            recorder.record(
                "eigh_fallback", "eigen", drv, driver=drv, rung=rung, **ctx
            )
        return SpectralDecomposition(
            eigenvalues=np.ascontiguousarray(eigenvalues),
            eigenvectors=np.asfortranarray(eigenvectors),
            pi=pi,
            sqrt_pi=sqrt_pi,
            inv_sqrt_pi=1.0 / sqrt_pi,
            rung=drv,
        )
    if recorder is not None:
        recorder.record(
            "eigh_fallback", "eigen", "pade",
            rung=len(ladder), **ctx,
        )
    return PadeFallback(
        q=np.array(rate_matrix.q, dtype=float, copy=True),
        pi=pi,
        ladder=tuple(rejections),
    )

