import numpy as np
import pytest

from cavityent import analytic, evolution
from cavityent.model import (
    IDX_EG,
    IDX_GG,
    SystemParams,
    TwoQubitState,
    check_times,
    excitation_number,
    hamiltonian,
    initial_state,
    single_excitation_indices,
)


class TestSystemParams:
    def test_omega(self):
        p = SystemParams(g=1.0, delta=1.0)
        assert p.omega == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(g=0.0)
        with pytest.raises(ValueError):
            SystemParams(g=1.0, lambda_=1.5)
        with pytest.raises(ValueError):
            SystemParams(g=1.0, gamma=-0.1)
        with pytest.raises(ValueError):
            SystemParams(g=1.0, n_max=0)

    def test_dim(self):
        assert SystemParams(g=1.0, n_max=2).dim == 12


class TestHamiltonian:
    def test_coupling_matrix_element(self):
        p = SystemParams(g=0.7, delta=0.3)
        h = hamiltonian(p)
        # <0,e,g| H |1,g,g> = g
        assert h[IDX_EG, 4 + IDX_GG] == pytest.approx(0.7)

    def test_exactly_hermitian(self):
        p = SystemParams(g=1.0, delta=2.0, n_max=3)
        h = hamiltonian(p)
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_commutes_with_excitation_number(self):
        for delta in [0.0, 0.5, 5.0]:
            p = SystemParams(g=1.0, delta=delta, n_max=2)
            h = hamiltonian(p)
            n = excitation_number(p)
            assert np.abs(h @ n - n @ h).max() <= 1e-12 * p.g


class TestInitialState:
    def test_pure_excited(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=1.0))
        expected = np.zeros((8, 8))
        expected[IDX_EG, IDX_EG] = 1.0
        assert np.array_equal(rho, expected)

    def test_pure_ground(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=0.0))
        assert rho[IDX_GG, IDX_GG] == 1.0
        assert rho.trace() == 1.0

    def test_half_mixture(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=0.5))
        diag = np.diag(rho).real
        assert diag[IDX_EG] == 0.5
        assert diag[IDX_GG] == 0.5
        assert np.count_nonzero(rho) == 2


class TestExcitationNumber:
    def test_diagonal_values(self):
        p = SystemParams(g=1.0, n_max=1)
        n = excitation_number(p)
        assert np.abs(n - np.diag(np.diag(n))).max() == 0.0
        assert n[IDX_GG, IDX_GG] == 0.0          # |0,g,g>
        assert n[4 + IDX_EG, 4 + IDX_EG] == 2.0  # |1,e,g>

    def test_initial_expectation_is_lambda(self):
        p = SystemParams(g=1.0, lambda_=0.3)
        val = np.trace(excitation_number(p) @ initial_state(p)).real
        assert val == pytest.approx(0.3)


class TestTwoQubitState:
    def test_accepts_valid(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        TwoQubitState(rho)

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            TwoQubitState(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))


def test_single_excitation_indices():
    assert single_excitation_indices(1) == [1, 2, 3, 7]
    with pytest.raises(ValueError):
        single_excitation_indices(0)


TIME_ENTRY_POINTS = [
    analytic.rho_s_matrices,
    analytic.rho_s_analytic,
    analytic.rho_full_analytic,
    analytic.concurrence_closed,
    analytic.concurrence_dephased,
    analytic.sigma_zeta,
    analytic.bell_max_closed,
    evolution.evolve_spectral_grid,
    evolution.evolve_spectral,
    evolution.evolve_grid,
    evolution.evolve_rk4,
    evolution.evolve_rk4_grid,
    evolution.dephased_concurrence_oracle,
]


@pytest.mark.parametrize("bad", [-1.0, np.nan])
@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_time_entry_points_reject_bad_times(entry, bad):
    p = SystemParams(g=1.0, delta=0.5, lambda_=0.8, gamma=0.01)
    # the time check must be what raises, not a check on p
    with pytest.raises(ValueError, match="times"):
        entry(p, bad)


def test_check_times():
    assert np.array_equal(check_times([0.0, 2.5]), [0.0, 2.5])
    for bad in ([0.0, -1e-300], [np.inf], np.nan):
        with pytest.raises(ValueError):
            check_times(bad)
