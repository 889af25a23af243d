"""Transition-probability-matrix kernels: the paper's central optimization.

Given the spectral decomposition ``A = X Λ Xᵀ`` of the symmetrised rate
matrix, the transition matrix for branch length ``t`` is

    P(t) = Π^{-1/2} · e^{At} · Π^{1/2},        e^{At} = X e^{Λt} Xᵀ.

The three reconstruction paths implemented here differ only in how
``e^{At}`` (or its action on a vector) is computed:

``transition_matrix_einsum``  (Eq. 9 — CodeML v4.4c comparator)
    The same left-to-right product evaluated with numpy's non-BLAS
    contraction engine.  CodeML v4.4c contains *no* BLAS — its matrix
    products are hand-written portable C loops — so the faithful Python
    stand-in for the paper's comparator is a compiled-but-untuned
    contraction, not ``dgemm``.  (Calibration on this host: einsum
    ≈ 68 µs vs dsyrk-path ≈ 20 µs at n = 61, matching the paper's
    2–3× per-iteration kernel gap.)

``transition_matrix_gemm``  (Eq. 9 with ``dgemm`` — ablation)
    ``Ỹ = X · diag(e^{λ_i t})`` then ``Z = Ỹ Xᵀ`` with ``dgemm``:
    ≈ 2n³ flops.  This isolates the *algorithmic* half-flops claim from
    the BLAS-adoption claim: gemm-vs-syrk is Eq. 9 vs Eq. 10 with the
    BLAS held fixed.

``transition_matrix_syrk``  (Eq. 10–11 — SlimCodeML)
    ``Y = X · diag(e^{λ_i t/2})`` then ``Z = Y Yᵀ`` with ``dsyrk``:
    ≈ n³ flops — the paper's headline kernel improvement.

``symmetric_branch_matrix``  (Eq. 12–13 — post-paper improvement)
    ``M = Ŷ Ŷᵀ`` with ``Ŷ = Π^{-1/2} X e^{Λt/2}``; then
    ``P(t)·w = M·(Πw)`` for any CLV ``w``, so per-site propagation uses
    the *symmetric* ``M`` (``dsymv``/``dsymm``: half the matrix reads).

All kernels call the BLAS through :mod:`scipy.linalg.blas` so the
measured difference is the documented ``dgemm``/``dsyrk`` contract, the
same routines the paper links against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dsyrk

from repro.core.eigen import SpectralDecomposition
from repro.core.flops import (
    FlopCounter,
    gemm_flops,
    gemm_matrix_reads,
    syrk_flops,
)

__all__ = [
    "transition_matrix_einsum",
    "transition_matrix_gemm",
    "transition_matrix_syrk",
    "transition_matrix_scipy",
    "symmetric_branch_matrix",
    "stacked_syrk_operators",
    "stacked_symmetric_operators",
    "fill_symmetric_from_lower",
]


def _validate_t(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"branch length must be finite and non-negative, got {t}")
    return t


def _exp_eigenvalues(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """``exp(λ_i t)`` with the exponent clamped to the double range.

    A generator's eigenvalues are non-positive; any positive value is
    eigensolver rounding noise, and extreme parameter corners probed by
    the optimizer (huge ω with long branches) can push ``λt`` past the
    exp overflow threshold.  Clamping to [-745, 40] keeps the kernel
    finite everywhere without affecting any legitimate evaluation.
    """
    return np.exp(np.clip(eigenvalues * t, -745.0, 40.0))


def _apply_pi_scalings(z: np.ndarray, decomp: SpectralDecomposition) -> np.ndarray:
    """Step 5 of §III-A: ``P = Π^{-1/2} Z Π^{1/2}`` (O(n²) scalings)."""
    return (decomp.inv_sqrt_pi[:, None] * z) * decomp.sqrt_pi[None, :]


def fill_symmetric_from_lower(lower: np.ndarray) -> np.ndarray:
    """Mirror the lower triangle of a ``dsyrk`` result into a full matrix.

    ``dsyrk`` leaves the strict upper triangle as garbage (zeros here);
    ``L + Lᵀ`` then restoring the diagonal is the cheapest O(n²)
    vectorised mirror (~5× faster than masked ``np.tril`` copies at
    n = 61, which matters because this runs once per branch).
    """
    full = lower + lower.T
    diag = np.einsum("ii->i", full)
    diag *= 0.5
    return full


def transition_matrix_einsum(
    decomp: SpectralDecomposition,
    t: float,
    counter: Optional[FlopCounter] = None,
    clip_negative: bool = True,
) -> np.ndarray:
    """CodeML v4.4c comparator: Eq. 9 via a non-BLAS contraction.

    Identical arithmetic to :func:`transition_matrix_gemm` (≈2n³ flops),
    evaluated by ``np.einsum`` with ``optimize=False`` so that no vendor
    BLAS is involved — modelling CodeML's hand-written portable C loops
    (see the module docstring for the calibration rationale).
    """
    t = _validate_t(t)
    n = decomp.n_states
    x = decomp.eigenvectors
    diagonal = _exp_eigenvalues(decomp.eigenvalues, t)
    y_tilde = x * diagonal[None, :]
    z = np.einsum("ij,kj->ik", y_tilde, x, optimize=False)
    if counter is not None:
        counter.add(
            "expm:einsum(eq9)", gemm_flops(n, n, n), reads=2 * gemm_matrix_reads(n, n)
        )
    p = _apply_pi_scalings(z, decomp)
    if clip_negative:
        np.maximum(p, 0.0, out=p)
    return p


def transition_matrix_gemm(
    decomp: SpectralDecomposition,
    t: float,
    counter: Optional[FlopCounter] = None,
    clip_negative: bool = True,
) -> np.ndarray:
    """Baseline Eq. 9 path: ``Z = (X e^{Λt}) Xᵀ`` via ``dgemm`` (≈2n³ flops).

    This reproduces how CodeML v4.4c (Yang 2003 technical note)
    reconstructs ``P(t)`` — the comparator in every benchmark.

    Parameters
    ----------
    decomp:
        Per-ω spectral decomposition from :func:`repro.core.eigen.decompose`.
    t:
        Branch length (expected substitutions per codon), ``t ≥ 0``.
    counter:
        Optional flop accounting sink.
    clip_negative:
        Round-off can leave entries at ``-1e-17``; when True (default,
        matching PAML) such entries are clamped to zero.
    """
    t = _validate_t(t)
    n = decomp.n_states
    x = decomp.eigenvectors
    y_tilde = np.asfortranarray(x * _exp_eigenvalues(decomp.eigenvalues, t)[None, :])
    z = dgemm(1.0, y_tilde, x, trans_b=True)
    if counter is not None:
        counter.add("expm:dgemm", gemm_flops(n, n, n), reads=2 * gemm_matrix_reads(n, n))
    p = _apply_pi_scalings(z, decomp)
    if clip_negative:
        np.maximum(p, 0.0, out=p)
    return p


def transition_matrix_syrk(
    decomp: SpectralDecomposition,
    t: float,
    counter: Optional[FlopCounter] = None,
    clip_negative: bool = True,
) -> np.ndarray:
    """SlimCodeML Eq. 10–11 path: ``Z = YYᵀ``, ``Y = X e^{Λt/2}`` (≈n³ flops).

    The symmetric rank-k update writes only one triangle; the mirror copy
    is an O(n²) memory operation.  Arguments as in
    :func:`transition_matrix_gemm`.
    """
    t = _validate_t(t)
    n = decomp.n_states
    x = decomp.eigenvectors
    y = np.asfortranarray(x * _exp_eigenvalues(decomp.eigenvalues, 0.5 * t)[None, :])
    z_lower = dsyrk(1.0, y, lower=True)
    if counter is not None:
        counter.add("expm:dsyrk", syrk_flops(n, n), reads=gemm_matrix_reads(n, n))
    z = fill_symmetric_from_lower(z_lower)
    p = _apply_pi_scalings(z, decomp)
    if clip_negative:
        np.maximum(p, 0.0, out=p)
    return p


def transition_matrix_scipy(q: np.ndarray, t: float) -> np.ndarray:
    """Reference path: ``scipy.linalg.expm(Q t)`` (Padé/scaling-squaring).

    Used only by the test suite to cross-validate the decomposition
    kernels against an independent algorithm.
    """
    t = _validate_t(t)
    return scipy.linalg.expm(np.asarray(q, dtype=float) * t)


def symmetric_branch_matrix(
    decomp: SpectralDecomposition,
    t: float,
    counter: Optional[FlopCounter] = None,
) -> np.ndarray:
    """Eq. 12–13: symmetric ``M = Ŷ Ŷᵀ`` with ``P(t) w = M (Π w)``.

    ``Ŷ = Π^{-1/2} X e^{Λt/2}``.  The returned matrix is exactly
    symmetric (built by ``dsyrk`` + mirror), so CLV propagation can use
    symmetric BLAS kernels that read only half of it — the paper's §II-C2
    "further improvement", here powering the ``slim-v2`` engine.
    """
    t = _validate_t(t)
    n = decomp.n_states
    x = decomp.eigenvectors
    y_hat = np.asfortranarray(
        (decomp.inv_sqrt_pi[:, None] * x) * _exp_eigenvalues(decomp.eigenvalues, 0.5 * t)[None, :]
    )
    m_lower = dsyrk(1.0, y_hat, lower=True)
    if counter is not None:
        counter.add("expm:dsyrk(sym-branch)", syrk_flops(n, n), reads=gemm_matrix_reads(n, n))
    return fill_symmetric_from_lower(m_lower)


# ---------------------------------------------------------------------------
# Stacked (batched) operator builds
#
# All branch operators of one ω class share the decomposition, so the
# whole batch can be laid out in one F-ordered n×(n·B) buffer whose
# column block b is branch b's operator.  The O(n²) stages — the Ŷ
# scaling, the triangle mirror, the Π^{±1/2} scalings, the clip — run
# once as vectorised elementwise passes over the 3-D view
# ``stack.T.reshape(B, n, n)`` (element (b, j, i) aliases stack[i, b·n+j],
# i.e. slab b is operator b transposed).  The O(n³) stage stays one
# ``dsyrk`` per F-contiguous column-block view: on this host a fused
# wide GEMM is *not* faster (BLAS is already at peak at n = 61) and a
# GEMM reformulation of the rank-k update could not be bit-identical to
# the per-branch kernel.  Elementwise IEEE ops on identical operand
# pairs are bitwise deterministic regardless of shape or strides, and a
# dsyrk on an F-contiguous view has the same lda as a standalone call —
# so every column block is bit-for-bit the per-branch kernel's output.
# Only np.exp is layout-sensitive (SIMD path can differ by stride), so
# the exponent vectors are computed per branch on 1-D arrays exactly as
# :func:`_exp_eigenvalues` does.
# ---------------------------------------------------------------------------


def _exp_stack(eigenvalues: np.ndarray, ts: Sequence[float], half: bool) -> np.ndarray:
    """Rows of ``exp(λ t_b)`` (or ``t_b/2``), bit-identical to the 1-D kernel.

    The multiply and clamp are batched 2-D (elementwise ufuncs are
    stride-insensitive, and IEEE multiplication commutes bitwise), but
    ``np.exp`` must run on each contiguous 61-element row separately:
    its SIMD kernel's scalar tail handling depends on an element's
    position in the flattened buffer, so one exp over the (B, n) block
    would differ in the last few ulps from the per-branch kernel.
    """
    scaled = np.array(
        [0.5 * _validate_t(t) if half else _validate_t(t) for t in ts], dtype=float
    )
    args = scaled.reshape(-1, 1) * eigenvalues[None, :]
    np.clip(args, -745.0, 40.0, out=args)
    e = np.empty_like(args)
    for b in range(args.shape[0]):
        np.exp(args[b], out=e[b])
    return e


def _syrk_into_views(lower_stack: np.ndarray, y_stack: np.ndarray, n: int) -> None:
    """One ``dsyrk`` per column-block view, writing ``YYᵀ`` in place.

    ``lower_stack`` must be zero-initialised: BLAS only writes the lower
    triangle, and the mirror stage reads the (zero) strict upper half —
    exactly as the per-branch kernels do with scipy's zero-allocated
    result array.
    """
    n_branches = y_stack.shape[1] // n
    for b in range(n_branches):
        view = lower_stack[:, b * n : (b + 1) * n]
        res = dsyrk(1.0, y_stack[:, b * n : (b + 1) * n], c=view, lower=True, overwrite_c=1)
        if res is not view and not np.shares_memory(res, view):  # pragma: no cover
            view[...] = res


def _mirror_stack(lower_stack: np.ndarray, n: int) -> np.ndarray:
    """Vectorised :func:`fill_symmetric_from_lower` over all column blocks."""
    n_branches = lower_stack.shape[1] // n
    out = np.empty_like(lower_stack, order="F")
    l3 = lower_stack.T.reshape(n_branches, n, n)
    o3 = out.T.reshape(n_branches, n, n)
    np.add(l3, l3.transpose(0, 2, 1), out=o3)
    diag = np.einsum("bii->bi", o3)
    diag *= 0.5
    return out


def _y_stack(scaled_x: np.ndarray, exps: np.ndarray, n: int) -> np.ndarray:
    """``Y_b = scaled_x · diag(e_b)`` for all b, as one elementwise pass."""
    n_branches = exps.shape[0]
    y = np.empty((n, n * n_branches), order="F")
    y3 = y.T.reshape(n_branches, n, n)
    np.multiply(scaled_x.T[None, :, :], exps[:, :, None], out=y3)
    return y


def stacked_syrk_operators(
    decomp: SpectralDecomposition,
    ts: Sequence[float],
    counter: Optional[FlopCounter] = None,
    clip_negative: bool = True,
) -> np.ndarray:
    """Batched :func:`transition_matrix_syrk`: ``P(t_b)`` for every branch.

    Returns an F-ordered ``(n, n·B)`` stack whose column block b equals
    ``transition_matrix_syrk(decomp, ts[b])`` bit for bit.
    """
    n = decomp.n_states
    if len(ts) == 0:
        return np.empty((n, 0), order="F")
    exps = _exp_stack(decomp.eigenvalues, ts, half=True)
    y = _y_stack(decomp.eigenvectors, exps, n)
    lower = np.zeros((n, n * len(ts)), order="F")
    _syrk_into_views(lower, y, n)
    if counter is not None:
        counter.add(
            "expm:dsyrk",
            len(ts) * syrk_flops(n, n),
            reads=len(ts) * gemm_matrix_reads(n, n),
        )
    stack = _mirror_stack(lower, n)
    n_branches = len(ts)
    s3 = stack.T.reshape(n_branches, n, n)
    # _apply_pi_scalings, same operand order: (Π^{-1/2} z) first, then Π^{1/2}.
    # In the (b, j, i) view the row scaling is axis 2, the column axis 1.
    np.multiply(s3, decomp.inv_sqrt_pi[None, None, :], out=s3)
    np.multiply(s3, decomp.sqrt_pi[None, :, None], out=s3)
    if clip_negative:
        np.maximum(stack, 0.0, out=stack)
    return stack


def stacked_symmetric_operators(
    decomp: SpectralDecomposition,
    ts: Sequence[float],
    counter: Optional[FlopCounter] = None,
) -> np.ndarray:
    """Batched :func:`symmetric_branch_matrix`: ``M(t_b)`` for every branch.

    Returns an F-ordered ``(n, n·B)`` stack whose column block b equals
    ``symmetric_branch_matrix(decomp, ts[b])`` bit for bit.
    """
    n = decomp.n_states
    if len(ts) == 0:
        return np.empty((n, 0), order="F")
    exps = _exp_stack(decomp.eigenvalues, ts, half=True)
    scaled_x = decomp.inv_sqrt_pi[:, None] * decomp.eigenvectors
    y = _y_stack(scaled_x, exps, n)
    lower = np.zeros((n, n * len(ts)), order="F")
    _syrk_into_views(lower, y, n)
    if counter is not None:
        counter.add(
            "expm:dsyrk(sym-branch)",
            len(ts) * syrk_flops(n, n),
            reads=len(ts) * gemm_matrix_reads(n, n),
        )
    return _mirror_stack(lower, n)
