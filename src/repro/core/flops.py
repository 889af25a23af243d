"""Analytic floating-point and memory-traffic accounting.

The paper's central claim is arithmetic: reconstructing ``e^{At}`` as
``(X e^{Λt}) Xᵀ`` (``dgemm``) costs ≈2n³ flops while ``Y Yᵀ`` with
``Y = X e^{Λt/2}`` (``dsyrk``) costs ≈n³ (§II-C1, citing van de Geijn &
Quintana-Ortí).  This module encodes those cost models so tests and
benchmarks can verify the claimed ratio exactly, independent of
wall-clock noise, and so the engines can report how their work divides
between exponentials and CLV propagation.

Flop conventions (one fused multiply-add = 2 flops):

* ``gemm``  C(m×n) += A(m×k) B(k×n):          2·m·n·k
* ``syrk``  C(n×n) = A(n×k) Aᵀ (half stored):  k·n·(n+1)
* ``gemv``  y(m) = A(m×n) x:                   2·m·n
* ``symv``  y(n) = A(sym n×n) x:               2·n²  (but ~half the matrix reads)
* ``symm``  C(m×n) = A(sym m×m) B(m×n):        2·m²·n (half the A reads)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = [
    "FlopCounter",
    "blas_level",
    "gemm_flops",
    "gemv_flops",
    "symm_flops",
    "symv_flops",
    "syrk_flops",
    "eigh_flops",
    "gemm_matrix_reads",
]


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flops of a general matrix product C(m×n) = A(m×k)·B(k×n)."""
    return 2 * m * n * k


def syrk_flops(n: int, k: int) -> int:
    """Flops of a symmetric rank-k update C(n×n) = A(n×k)·Aᵀ (half stored)."""
    return k * n * (n + 1)


def gemv_flops(m: int, n: int) -> int:
    """Flops of a general matrix-vector product y(m) = A(m×n)·x."""
    return 2 * m * n


def symv_flops(n: int) -> int:
    """Flops of a symmetric matrix-vector product (same flops, half reads)."""
    return 2 * n * n


def symm_flops(m: int, n: int) -> int:
    """Flops of C(m×n) = A(sym m×m)·B(m×n)."""
    return 2 * m * m * n


def eigh_flops(n: int) -> int:
    """Rough cost of a dense symmetric eigendecomposition (≈ 9n³).

    Tridiagonalisation (≈4/3 n³) + MRRR eigenvalues/vectors + back
    transformation (≈2n³); the constant follows LAPACK working notes.
    Only the n³ scaling matters for our accounting.
    """
    return 9 * n * n * n


def gemm_matrix_reads(m: int, n: int) -> int:
    """Matrix elements touched when a general m×n operand is streamed once."""
    return m * n


#: Kernel substrings → BLAS level.  Matrix-matrix kernels (level 3) are
#: the ones the paper — and the batched engine — push work towards;
#: matrix-vector kernels (level 2) are what they displace.  ``symv`` and
#: ``gemv`` must be tested before ``symm``/``gemm`` since the names share
#: prefixes.  Anything unmatched (einsum reference paths, Padé fallback
#: scaling-and-squaring) counts as ``nonblas``.
_LEVEL_MARKERS = (
    ("symv", "blas2"),
    ("gemv", "blas2"),
    ("gemm", "blas3"),
    ("syrk", "blas3"),
    ("symm", "blas3"),
    ("eigh", "lapack"),
    ("syevr", "lapack"),
)


def blas_level(operation: str) -> str:
    """Classify a counter operation name into a BLAS level bucket.

    Returns one of ``"blas3"``, ``"blas2"``, ``"lapack"``, ``"nonblas"``.
    The classification is a pure function of the name, so counters need
    no extra state.
    """
    for marker, level in _LEVEL_MARKERS:
        if marker in operation:
            return level
    return "nonblas"


@dataclass
class FlopCounter:
    """Mutable accumulator of analytic flops and matrix-element reads.

    Engines and kernels call :meth:`add`; the benchmark harness reads
    :attr:`total_flops` / :attr:`by_operation` to report the arithmetic
    story next to the wall-clock one.
    """

    by_operation: Dict[str, int] = field(default_factory=dict)
    matrix_reads: Dict[str, int] = field(default_factory=dict)

    def add(self, operation: str, flops: int, reads: int = 0) -> None:
        self.by_operation[operation] = self.by_operation.get(operation, 0) + int(flops)
        if reads:
            self.matrix_reads[operation] = self.matrix_reads.get(operation, 0) + int(reads)

    @property
    def total_flops(self) -> int:
        return sum(self.by_operation.values())

    @property
    def by_level(self) -> Dict[str, int]:
        """Executed flops bucketed by BLAS level (blas3/blas2/lapack/nonblas)."""
        levels: Dict[str, int] = {}
        for op, fl in self.by_operation.items():
            level = blas_level(op)
            levels[level] = levels.get(level, 0) + fl
        return levels

    @property
    def blas3_fraction(self) -> float:
        """Fraction of executed flops spent in matrix-matrix (level-3) kernels.

        The paper's optimisation story in one number: per-site ``dgemv``
        loops push this down, batched ``dgemm``/``dsymm``/``dsyrk``
        push it towards 1.  Returns 0.0 on an empty counter.
        """
        total = self.total_flops
        if total == 0:
            return 0.0
        return self.by_level.get("blas3", 0) / total

    def reset(self) -> None:
        self.by_operation.clear()
        self.matrix_reads.clear()

    def summary(self) -> str:
        rows = sorted(self.by_operation.items(), key=lambda kv: -kv[1])
        lines = [
            f"{op:<28s} {fl:>16,d} flops  [{blas_level(op)}]" for op, fl in rows
        ]
        lines.append(f"{'TOTAL':<28s} {self.total_flops:>16,d} flops")
        levels = self.by_level
        if levels:
            parts = ", ".join(
                f"{level}={levels[level]:,d}"
                for level in ("blas3", "blas2", "lapack", "nonblas")
                if level in levels
            )
            lines.append(f"{'BY LEVEL':<28s} {parts}")
            lines.append(f"{'BLAS-3 FRACTION':<28s} {self.blas3_fraction:>16.4f}")
        return "\n".join(lines)
