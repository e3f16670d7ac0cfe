import numpy as np
import pytest

from cavityent import analytic, evolution
from cavityent.model import (
    SystemParams,
    excitation_number,
    hamiltonian,
    initial_state,
)


def params(**kw):
    kw.setdefault("g", 1.0)
    return SystemParams(**kw)


class TestSpectral:
    def test_t0_is_initial_state(self):
        p = params(delta=0.5, lambda_=0.7, gamma=0.02)
        assert np.abs(evolution.evolve_spectral(p, 0.0) - initial_state(p)).max() < 1e-14

    def test_matches_analytic_when_unitary(self):
        gts = np.linspace(0, 100, 2001)
        for delta in [0.0, 0.5, 5.0]:
            for lam in [0.6, 1.0]:
                p = params(delta=delta, lambda_=lam)
                full = evolution.evolve_spectral_grid(p, gts)
                red = evolution.reduce_to_atoms(full, p.n_max)
                assert np.abs(red - analytic.rho_s_matrices(p, gts)).max() < 1e-8

    def test_full_state_matches_analytic(self):
        p = params(delta=0.5)
        for gt in [0.3, 4.2, 77.7]:
            got = evolution.evolve_spectral(p, gt)
            assert np.abs(got - analytic.rho_full_analytic(p, gt)).max() < 1e-10

    def test_eigenbasis_populations_constant_under_dephasing(self):
        p = params(delta=0.5, gamma=0.05)
        w, v = np.linalg.eigh(hamiltonian(p))
        d0 = np.diag(v.conj().T @ initial_state(p) @ v)
        d1 = np.diag(v.conj().T @ evolution.evolve_spectral(p, 321.0) @ v)
        assert np.abs(d0 - d1).max() < 1e-12

    def test_state_invariants_along_grid(self):
        p = params(delta=1.0, lambda_=0.7, gamma=0.01)
        result = evolution.evolve_grid(p, np.linspace(0.01, 50, 400))
        for rho in result.states[::40]:
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert abs(rho.trace() - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-8

    def test_leakage_negligible(self):
        p = params(delta=0.5, lambda_=0.8, gamma=0.01)
        result = evolution.evolve_grid(p, np.linspace(0.1, 200, 500))
        assert result.leakage <= 1e-12

    def test_excitation_expectation_constant(self):
        p = params(delta=0.5, lambda_=0.7, gamma=0.02)
        n = excitation_number(p)
        states = evolution.evolve_spectral_grid(p, np.linspace(0, 80, 200))
        vals = np.einsum("ij,tji->t", n, states).real
        assert np.abs(vals - vals[0]).max() < 1e-10


class TestRK4:
    def test_resonant_concurrence(self):
        from cavityent.metrics import wootters_concurrence
        p = params(delta=0.0)
        for gt in [0.5, 1.5, 3.0]:
            rho = evolution.evolve_rk4(p, gt, check_step=False)
            red = evolution.reduce_to_atoms(rho, p.n_max)
            expected = (1.0 - np.cos(p.omega * gt)) / 4.0
            assert wootters_concurrence(red) == pytest.approx(expected, abs=1e-8)

    def test_commuting_state_is_stationary(self):
        # a mixture of H eigenprojectors commutes with H: rho stays put
        p = params(delta=0.7, gamma=0.03)
        h = hamiltonian(p)
        w, v = np.linalg.eigh(h)
        probs = np.linspace(1, 2, len(w))
        probs /= probs.sum()
        rho0 = (v * probs) @ v.conj().T
        rho = evolution._rk4_run(h, p.gamma, rho0, 5.0, 0.01)
        assert np.abs(rho - rho0).max() < 1e-10

    def test_agrees_with_spectral(self):
        p = params(delta=0.5, gamma=0.01)
        got = evolution.evolve_rk4(p, 5.0, dt=0.01 / p.omega, check_step=False)
        assert np.abs(got - evolution.evolve_spectral(p, 5.0)).max() < 1e-6

    def test_fourth_order_convergence(self):
        p = params(delta=0.5, gamma=0.01)
        ref = evolution.evolve_spectral(p, 3.0)
        dt = 0.1 / p.omega
        e1 = np.abs(evolution.evolve_rk4(p, 3.0, dt=dt, check_step=False) - ref).max()
        e2 = np.abs(evolution.evolve_rk4(p, 3.0, dt=dt / 2, check_step=False) - ref).max()
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_grid_matches_restarts_from_zero(self):
        # carrying the state along the grid agrees with integrating from
        # t = 0 to every grid point separately
        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        gts = np.linspace(0.0, 4.0, 9)
        grid = evolution.evolve_rk4_grid(p, gts)
        restarts = np.stack(
            [evolution.evolve_rk4(p, gt, check_step=False) for gt in gts]
        )
        assert np.abs(grid - restarts).max() < 1e-10
        with pytest.raises(ValueError):
            evolution.evolve_rk4_grid(p, [1.0, 0.5])

    def test_step_too_large_raises(self):
        p = params(delta=0.5)
        with pytest.raises(evolution.StepSizeError):
            evolution.evolve_rk4(p, 10.0, dt=1.2 / p.omega)

    def test_rejects_bad_args(self):
        p = params()
        with pytest.raises(ValueError):
            evolution.evolve_rk4(p, -1.0)
        with pytest.raises(ValueError):
            evolution.evolve_rk4(p, 1.0, dt=0.0)


class TestDephasedOracle:
    def test_matches_closed_form_grid(self):
        gts = np.linspace(0, 500, 5001)
        for delta in [0.0, 0.5, 1.0]:
            for gamma in [0.0, 0.01]:
                p = params(delta=delta, gamma=gamma)
                got = evolution.dephased_concurrence_oracle(p, gts)
                want = analytic.concurrence_dephased(p, gts)
                assert np.abs(got - want).max() < 1e-6

    def test_gamma_zero_matches_unitary_closed_form(self):
        p = params(delta=0.5)
        gts = np.linspace(0, 60, 601)
        got = evolution.dephased_concurrence_oracle(p, gts)
        assert np.abs(got - analytic.concurrence_closed(p, gts)).max() < 1e-9

    def test_strong_dephasing_reaches_stationary_value(self):
        p = params(delta=0.5, gamma=1.0)
        got = evolution.dephased_concurrence_oracle(p, 500.0)
        assert got == pytest.approx(analytic.stationary_concurrence(p), abs=1e-4)
