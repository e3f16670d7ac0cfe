import numpy as np
import pytest

from cavityent.linalg import as_state_stack
from cavityent.model import SIGMA_Z
from oracles import eigvals_general_4x4, partial_trace, tensor


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(rng, n):
    m = random_complex(rng, n)
    rho = m @ m.conj().T
    return rho / rho.trace()


def test_single_matrix_becomes_a_stack_of_one():
    rho = np.eye(4) / 4
    out = as_state_stack(rho)
    assert out.shape == (1, 4, 4)
    assert out.dtype == complex
    assert np.array_equal(out[0], rho)


def test_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_state_stack(rho)
        stack = np.stack([np.eye(4, dtype=complex) / 4, rho])
        with pytest.raises(ValueError, match="non-finite"):
            as_state_stack(stack)


# The dense helpers of the test references (tests/oracles.py): the full-space
# Kronecker builds, the cavity trace and the eigenvalue route to the
# concurrence rest on them.


class TestTensor:
    def test_identity(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sz_i_ordering(self):
        # first factor is index-major
        assert np.allclose(tensor(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_associative(self):
        rng = np.random.default_rng(5)
        a, b, c = random_complex(rng, 2), random_complex(rng, 3), random_complex(rng, 2)
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        out = partial_trace(tensor(rho_a, rho_b), [2, 3], {0})
        assert np.allclose(out, rho_a)
        out_b = partial_trace(tensor(rho_a, rho_b), [2, 3], {1})
        assert np.allclose(out_b, rho_b)

    def test_bell_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = partial_trace(rho, [2, 2], {1})
        assert np.allclose(out, np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 8)
            out = partial_trace(rho, [2, 2, 2], {0, 2})
            assert abs(out.trace() - rho.trace()) < 1e-12

    def test_round_trip_scaling(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_complex(rng, 3)
            b = random_complex(rng, 4)
            out = partial_trace(tensor(a, b), [3, 4], {0})
            assert np.allclose(out, a * b.trace())

    def test_errors(self):
        rho = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 3], {0})
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 2], set())
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 2], {5})

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_density(rng, 6) for _ in range(3)])
        out = partial_trace(stack, [3, 2], {1})
        assert out.shape == (3, 2, 2)
        for rho, red in zip(stack, out):
            assert np.array_equal(red, partial_trace(rho, [3, 2], {1}))


class TestEigvalsGeneral:
    def test_diagonal(self):
        ev = eigvals_general_4x4(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(sorted(ev.real), [1, 2, 3, 4])
        assert np.abs(ev.imag).max() < 1e-12

    def test_nilpotent(self):
        m = np.diag(np.ones(3), 1).astype(complex)
        ev = eigvals_general_4x4(m)
        assert np.abs(ev).max() < 1e-3  # Jordan block: eigenvalues O(eps^(1/4))

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_complex(rng, 4)
            ev = eigvals_general_4x4(m)
            assert abs(ev.sum() - np.trace(m)) < 1e-8

    def test_characteristic_polynomial_residual(self):
        rng = np.random.default_rng(12)
        m = random_complex(rng, 4)
        scale = np.linalg.norm(m, 2)
        for lam in eigvals_general_4x4(m):
            assert abs(np.linalg.det(m - lam * np.eye(4))) <= 1e-8 * scale**4

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            eigvals_general_4x4(np.eye(3))
