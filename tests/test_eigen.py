"""Symmetrisation (Eq. 2) and spectral decomposition (§III-A step 2)."""

import numpy as np
import pytest

from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import decompose, symmetrize
from repro.core.flops import FlopCounter


@pytest.fixture(scope="module")
def pi():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet(np.full(61, 4.0))
    return raw / raw.sum()


@pytest.fixture(scope="module")
def matrix(pi):
    return build_rate_matrix(2.3, 0.6, pi)


class TestSymmetrize:
    def test_a_is_symmetric(self, matrix):
        a = symmetrize(matrix)
        assert np.allclose(a, a.T)

    def test_a_similar_to_q(self, matrix):
        # A = Π^{1/2} Q Π^{-1/2} shares Q's spectrum.
        a = symmetrize(matrix)
        eig_a = np.sort(np.linalg.eigvalsh(a))
        eig_q = np.sort(np.linalg.eigvals(matrix.q).real)
        assert np.allclose(eig_a, eig_q, atol=1e-9)

    def test_spectrum_nonpositive(self, matrix):
        # A generator's eigenvalues lie in the closed left half-plane.
        a = symmetrize(matrix)
        assert np.linalg.eigvalsh(a).max() <= 1e-10


class TestDecompose:
    @pytest.mark.parametrize("driver", ["evr", "ev"])
    def test_reconstructs_q(self, matrix, driver):
        d = decompose(matrix, driver=driver)
        assert np.allclose(d.reconstruct_q(), matrix.q, atol=1e-10)

    def test_eigenvectors_orthonormal(self, matrix):
        d = decompose(matrix)
        x = d.eigenvectors
        assert np.allclose(x.T @ x, np.eye(61), atol=1e-10)

    def test_zero_eigenvalue_present(self, matrix):
        # The stationary distribution gives exactly one zero eigenvalue.
        d = decompose(matrix)
        assert np.min(np.abs(d.eigenvalues)) < 1e-10

    def test_eigenvectors_fortran_ordered(self, matrix):
        d = decompose(matrix)
        assert d.eigenvectors.flags["F_CONTIGUOUS"]

    def test_counter_accounting(self, matrix):
        counter = FlopCounter()
        decompose(matrix, counter=counter)
        assert counter.by_operation.get("eigh(dsyevr)", 0) > 0

