import numpy as np
import pytest

import oracles
from cavityent import analytic
from cavityent.model import IDX_EG, IDX_GG, SystemParams
from oracles import BELL_MINUS


def params(delta=0.0, lambda_=1.0, gamma=0.0):
    return SystemParams(g=1.0, delta=delta, lambda_=lambda_, gamma=gamma)


class TestReducedState:
    def test_t0_is_atomic_marginal(self):
        for lam in [0.0, 0.4, 1.0]:
            rho = analytic.rho_s_matrices(params(delta=0.7, lambda_=lam), 0.0)
            expected = np.zeros((4, 4), dtype=complex)
            expected[IDX_EG, IDX_EG] = lam
            expected[IDX_GG, IDX_GG] = 1.0 - lam
            assert np.abs(rho - expected).max() < 1e-14

    def test_resonant_half_period(self):
        p = params(delta=0.0)
        gt = np.pi / p.omega  # Omega t = pi
        rho = analytic.rho_s_matrices(p, gt)
        expected = 0.5 * np.outer(BELL_MINUS, BELL_MINUS.conj())
        expected[IDX_GG, IDX_GG] += 0.5
        assert np.abs(rho - expected).max() < 1e-12

    def test_pure_at_recurrence_times(self):
        for delta in [0.0, 0.5, 5.0]:
            p = params(delta=delta)
            for k in [1, 3, 10]:
                gt = 2.0 * np.pi * k * p.g / p.omega
                rho = analytic.rho_s_matrices(p, gt)
                purity = np.trace(rho @ rho).real
                assert abs(purity - 1.0) < 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            analytic.rho_s_matrices(params(), -1.0)


class TestFullState:
    """The printed atom-cavity state (tests/oracles.py) at n_max = 1."""

    def test_t0_equals_initial(self):
        for lam in [0.3, 1.0]:
            p = params(delta=0.5, lambda_=lam)
            assert np.abs(
                oracles.rho_full_analytic(p, 0.0) - oracles.full_initial_state(p, 1)
            ).max() < 1e-14

    def test_rejects_dephasing(self):
        for gamma in (0.01, np.nan):
            with pytest.raises(ValueError, match="gamma"):
                oracles.rho_full_analytic(params(delta=0.5, gamma=gamma), 1.0)

    def test_cavity_population_resonant_half_period(self):
        p = params(delta=0.0)
        gt = np.pi / p.omega
        rho = oracles.rho_full_analytic(p, gt)
        n_cav = np.kron(np.diag([0.0, 1.0]), np.eye(4))
        assert np.trace(n_cav @ rho).real == pytest.approx(0.5, abs=1e-12)

    def test_trace_one(self):
        p = params(delta=1.0, lambda_=0.6)
        for gt in [0.0, 0.7, 13.3, 400.0]:
            assert abs(oracles.rho_full_analytic(p, gt).trace() - 1.0) < 1e-10

    def test_partial_trace_matches_reduced(self):
        for delta in [0.0, 0.5, 5.0]:
            for lam in [0.6, 1.0]:
                p = params(delta=delta, lambda_=lam)
                for gt in [0.0, 0.9, 7.7, 123.4]:
                    full = oracles.rho_full_analytic(p, gt)
                    red = oracles.cavity_trace(full, 1)
                    rs = analytic.rho_s_matrices(p, gt)
                    assert np.abs(red - rs).max() < 1e-12


class TestConcurrenceClosed:
    def test_zero_at_t0(self):
        assert analytic.concurrence_closed(params(delta=0.8, lambda_=0.7), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_resonant_form(self):
        p = params(delta=0.0)
        gts = np.linspace(0, 30, 500)
        expected = (1.0 - np.cos(p.omega * gts)) / 4.0
        assert np.abs(analytic.concurrence_closed(p, gts) - expected).max() < 1e-12
        assert analytic.concurrence_closed(p, gts).max() <= 0.5

    def test_recurrence_values(self):
        p = params(delta=0.5)
        for k in [1, 5, 42]:
            gt = 2.0 * np.pi * k * p.g / p.omega
            expected = abs(np.sin(p.delta * k * np.pi / p.omega))
            assert analytic.concurrence_closed(p, gt) == pytest.approx(
                expected, abs=1e-10
            )


class TestConcurrenceDephased:
    def test_gamma_zero_reduces_to_closed(self):
        p = params(delta=0.7, lambda_=0.8, gamma=0.0)
        gts = np.linspace(0, 100, 700)
        assert np.array_equal(
            analytic.concurrence_dephased(p, gts),
            analytic.concurrence_closed(p, gts),
        )

    def test_long_time_limit(self):
        for delta in [0.0, 0.5, 2.0]:
            p = params(delta=delta, gamma=0.5)
            limit = 2.0 * p.lambda_ * p.g**2 / p.omega**2
            assert analytic.concurrence_dephased(p, 5000.0) == pytest.approx(
                limit, abs=1e-9
            )
        p0 = params(delta=0.0, gamma=0.5)
        assert analytic.concurrence_dephased(p0, 5000.0) == pytest.approx(0.25, abs=1e-9)

    def test_resonant_never_exceeds_half(self):
        p = params(delta=0.0, gamma=0.02)
        gts = np.linspace(0, 500, 20001)
        assert analytic.concurrence_dephased(p, gts).max() <= 0.5 + 1e-12


def sigma_zeta(p, gt):
    """sigma = C^2 from the sweep's read-out of the closed-form states and
    zeta = T_zz^2 from their diagonal, with the read-out's CHSH maximum
    checked against 2 sqrt(sigma + max(sigma, zeta))."""
    rho = analytic.rho_s_matrices(p, np.atleast_1d(gt))
    raw = oracles.x_state_readout(rho)
    conc, bell = raw["concurrence"], raw["bell_max"]
    d = np.diagonal(rho, axis1=1, axis2=2).real
    sig = conc**2
    zeta = (d[:, 0] - d[:, 1] - d[:, 2] + d[:, 3]) ** 2
    assert np.abs(bell - 2.0 * np.sqrt(sig + np.maximum(sig, zeta))).max() < 1e-14
    return sig, zeta


def bell_max_readout(p, gt):
    """CHSH maximum read off the closed-form reduced states."""
    states = analytic.rho_s_matrices(p, np.atleast_1d(gt))
    return oracles.x_state_readout(states)["bell_max"]


class TestSigmaZeta:
    def test_t0(self):
        sig, zeta = sigma_zeta(params(delta=1.3), 0.0)
        assert sig[0] == pytest.approx(0.0, abs=1e-14)
        assert zeta[0] == pytest.approx(1.0, abs=1e-14)

    def test_resonant_half_period(self):
        p = params(delta=0.0)
        sig, zeta = sigma_zeta(p, np.pi / p.omega)
        assert sig[0] == pytest.approx(0.25, abs=1e-12)
        assert zeta[0] == pytest.approx(0.0, abs=1e-12)

    def test_tsirelson_bound(self):
        for delta in [0.0, 0.3, 2.0]:
            p = params(delta=delta)
            gts = np.linspace(0, 200, 5000)
            assert bell_max_readout(p, gts).max() <= 2 * np.sqrt(2) + 1e-9


class TestBellMaxClosed:
    def test_product_state_at_t0(self):
        assert bell_max_readout(params(delta=0.4), 0.0)[0] == pytest.approx(2.0)

    def test_resonant_half_period(self):
        p = params(delta=0.0)
        assert bell_max_readout(p, np.pi / p.omega)[0] == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_resonant_never_violates(self):
        p = params(delta=0.0)
        gts = np.linspace(0, 500, 50001)
        assert bell_max_readout(p, gts).max() <= 2.0 + 1e-12


class TestRecurrences:
    def test_resonant_all_zero(self):
        _, _, c = analytic.recurrence_concurrences(params(delta=0.0), 50)
        assert np.abs(c).max() == 0.0

    def test_half_ratio_cycles(self):
        # Delta^2 = 8 g^2 / 3 makes Delta/Omega = 1/2, so C_k = |sin(k pi/2)|
        p = params(delta=np.sqrt(8.0 / 3.0))
        k, _, c = analytic.recurrence_concurrences(p, 8)
        assert np.allclose(c, [1, 0, 1, 0, 1, 0, 1, 0], atol=1e-12)

    def test_irrational_ratio_density(self):
        p = params(delta=0.5)
        counts = []
        for k_max in [100, 1000, 10000]:
            _, _, c = analytic.recurrence_concurrences(p, k_max)
            counts.append(len(np.unique(np.round(c, 6))))
        assert counts[0] < counts[1] < counts[2]

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            analytic.recurrence_concurrences(params(), 0)

    def test_rejects_mixed_or_dephased_start(self):
        # the law is the lambda = 1 unitary one; it must not be returned
        # for any other start
        for p in (params(delta=0.5, lambda_=0.7), params(delta=0.5, gamma=0.3),
                  params(delta=0.5, lambda_=0.7, gamma=0.3)):
            with pytest.raises(ValueError, match="lambda_ = 1 and gamma = 0"):
                analytic.recurrence_concurrences(p, 3)


class TestStationaryConcurrence:
    def test_resonant_quarter(self):
        assert analytic.stationary_concurrence(params(gamma=0.1)) == pytest.approx(0.25)

    def test_monotone_in_detuning(self):
        values = [
            analytic.stationary_concurrence(params(delta=d, gamma=0.1))
            for d in [0.0, 0.5, 1.0, 5.0, 50.0]
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_zero_for_ground_start(self):
        assert analytic.stationary_concurrence(params(lambda_=0.0, gamma=0.1)) == 0.0

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            analytic.stationary_concurrence(params(gamma=0.0))
