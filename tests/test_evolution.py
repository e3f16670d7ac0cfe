import re
import tracemalloc

import numpy as np
import pytest

import oracles
from cavityent import analytic, evolution, trajectory
from cavityent.model import SystemParams, hamiltonian, initial_state


def params(**kw):
    kw.setdefault("g", 1.0)
    return SystemParams(**kw)


class TestSpectral:
    def test_t0_is_initial_state(self):
        p = params(delta=0.5, lambda_=0.7, gamma=0.02)
        assert np.abs(evolution.evolve_spectral(p, 0.0) - initial_state(p)).max() < 1e-14

    def test_full_state_matches_analytic(self):
        p = params(delta=0.5)
        for gt in [0.3, 4.2, 77.7]:
            got = oracles.embed(evolution.evolve_spectral(p, gt), 1)
            assert np.abs(got - oracles.rho_full_analytic(p, gt)).max() < 1e-10

    def test_peak_memory_is_factor_plus_result(self):
        # the (n, 16) factor is exponentiated and scaled in place before the
        # one product, so the peak is about twice the result
        p = params(delta=0.5, gamma=0.01)
        gts = np.linspace(0.0, 500.0, 50001)
        evolution.evolve_spectral_grid(p, gts[:10])
        tracemalloc.start()
        try:
            states = evolution.evolve_spectral_grid(p, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * states.nbytes

    def test_eigenbasis_populations_constant_under_dephasing(self):
        p = params(delta=0.5, gamma=0.05)
        w, v = np.linalg.eigh(hamiltonian(p))
        d0 = np.diag(v.conj().T @ initial_state(p) @ v)
        d1 = np.diag(v.conj().T @ evolution.evolve_spectral(p, 321.0) @ v)
        assert np.abs(d0 - d1).max() < 1e-12

    def test_leakage_negligible(self):
        # the full-space solution never populates states outside the block
        p = params(delta=0.5, lambda_=0.8, gamma=0.01)
        for n_max in (1, 2):
            states = oracles.full_spectral_grid(p, np.linspace(0.1, 200, 500), n_max)
            assert oracles.leakage(states, n_max) <= 1e-12

    def test_excitation_expectation_constant(self):
        p = params(delta=0.5, lambda_=0.7, gamma=0.02)
        n = np.diag([1.0, 1.0, 0.0, 1.0])  # excitation number on the block
        states = evolution.evolve_spectral_grid(p, np.linspace(0, 80, 200))
        vals = np.einsum("ij,tji->t", n, states).real
        assert np.abs(vals - p.lambda_).max() < 1e-10


class TestRK4:
    def test_resonant_concurrence(self):
        from cavityent.metrics import wootters_concurrence_many
        p = params(delta=0.0)
        for gt in [0.5, 1.5, 3.0]:
            rho = evolution.evolve_rk4(p, gt, check_step=False)
            red = evolution.reduce_to_atoms(rho)
            expected = (1.0 - np.cos(p.omega * gt)) / 4.0
            assert wootters_concurrence_many(red)[0] == pytest.approx(expected, abs=1e-8)

    def test_commuting_state_is_stationary(self):
        # a mixture of H eigenprojectors commutes with H: rho stays put
        p = params(delta=0.7, gamma=0.03)
        h = hamiltonian(p)
        w, v = np.linalg.eigh(h)
        probs = np.linspace(1, 2, len(w))
        probs /= probs.sum()
        rho0 = (v * probs) @ v.conj().T
        prop = evolution._rk4_propagator(p, 5.0, 500)
        rho = (prop @ rho0.reshape(16)).reshape(4, 4)
        assert np.abs(rho - rho0).max() < 1e-10

    def test_default_step_count(self, monkeypatch):
        # the default step is 0.005 / (Omega sqrt(1 + (gamma Omega / 2)^2)):
        # 598 steps over gt = 1 here, and one for the zero-length interval
        counts = []
        propagator = evolution._rk4_propagator

        def recording(p, t, n_steps):
            counts.append(n_steps)
            return propagator(p, t, n_steps)

        monkeypatch.setattr(evolution, "_rk4_propagator", recording)
        evolution.evolve_rk4_grid(params(delta=0.5, lambda_=0.7, gamma=0.2), [0.0, 1.0])
        assert counts == [1, 598]

    def test_agrees_with_spectral(self):
        p = params(delta=0.5, gamma=0.01)
        got = evolution.evolve_rk4(p, 5.0, dt=0.01 / p.omega, check_step=False)
        assert np.abs(got - evolution.evolve_spectral(p, 5.0)).max() < 1e-6

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
        # dt >= 2 gt: one step against two, never one step against one
        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        for dt in (2.0, 1e6):
            with pytest.raises(evolution.StepSizeError):
                evolution.evolve_rk4(p, 1.0, dt=dt)

    def test_non_finite_result_raises(self):
        # a step far outside RK4's stability region makes the propagator power
        # overflow; NaN fails every comparison, so the step-halving check must
        # name the non-finite states, not pass them
        p = params(delta=0.5, gamma=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(evolution.StepSizeError, match="non-finite"):
                evolution.evolve_rk4(p, 1e4, dt=100.0)

    def test_overflowing_step_count_is_named(self):
        # the default step 0.005 / Omega is 5e-153 here, so interval / dt is inf;
        # gamma = 0 leaves the rounding bound at 0
        with pytest.raises(ValueError, match=re.escape(
                "the RK4 step count ceil(1e+200 / dt) overflows, dt = 5e-153")):
            evolution.evolve_rk4_grid(params(delta=1e150), [1e200])

    def test_rejects_bad_args(self):
        p = params()
        with pytest.raises(ValueError):
            evolution.evolve_rk4(p, -1.0)
        for dt in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                evolution.evolve_rk4(p, 1.0, dt=dt)

    @pytest.mark.parametrize("gamma", [400.0, 1000.0])
    def test_default_step_follows_stiff_dephasing(self, gamma):
        p = params(delta=0.5, lambda_=0.7, gamma=gamma)
        gts = [0.0, 0.5, 1.0]
        got = evolution.evolve_rk4_grid(p, gts)
        assert np.abs(got - evolution.evolve_spectral_grid(p, gts)).max() < 1e-8

    @pytest.mark.parametrize("kw, t", [(dict(delta=0.5, lambda_=0.7, gamma=0.01), 10.0),
                                       (dict(delta=-3.0, lambda_=0.7, gamma=0.5), 3.0)])
    @pytest.mark.parametrize("n_steps", [10**14, 2**50 - 1])
    def test_propagator_matches_expm_at_many_steps(self, kw, t, n_steps):
        # the truncation n |z|^5 / 120 is below 1e-40 at these steps; rounding
        # the one-step matrix relative to I erred by up to 4e-2 here
        from scipy.linalg import expm

        p = params(**kw)
        h, i4 = hamiltonian(p), np.eye(4)
        c = np.kron(h, i4) - np.kron(i4, h.T)
        want = expm(t * (-1j * c - p.gamma / 2.0 * (c @ c)))
        assert np.abs(evolution._rk4_propagator(p, t, n_steps) - want).max() < 1e-13

    def test_wrong_state_under_extreme_dephasing_is_refused(self):
        # at gamma = 1e25 the default step left L's kernel to rounding over
        # 1e27 steps, and the RK4 state came out finite but 0.379 from the
        # spectral one; every RK4 entry point now refuses it by the rounding
        # bound, before any propagator is formed
        p = params(delta=0.5, gamma=1e25)
        refusal = "^" + re.escape(
            "gt = 1 is past RK4's rounding bound: eps gamma gt = 2.22e+09 > 4e-11") + "$"
        for run in (lambda: evolution.evolve_rk4_grid(p, [1.0]),
                    lambda: evolution.evolve_rk4(p, 1.0),
                    lambda: trajectory.sweep(p, 1.0, 3, source=trajectory.RK4)):
            with pytest.raises(ValueError, match=refusal):
                run()

    def test_rounding_bound_is_eps_gamma_t_max(self):
        # refused just past eps gamma t_max = 4e-11 and not at it, where the
        # state is within 1e-10 of the spectral one; the bound reads the
        # largest time, whatever the grid's length
        p = params(delta=0.5, lambda_=0.7, gamma=1e4)
        t_max = evolution.RK4_ROUNDING_TOL / (evolution.EPS * p.gamma)
        gts = np.linspace(0.0, t_max, 5)
        got = evolution.evolve_rk4_grid(p, gts)
        assert np.abs(got - evolution.evolve_spectral_grid(p, gts)).max() < 1e-10
        for grid in ([np.nextafter(t_max, np.inf)], [0.0, 1.0, np.nextafter(t_max, np.inf)]):
            with pytest.raises(ValueError, match="past RK4's rounding bound"):
                evolution.evolve_rk4_grid(p, grid)
        # a bound that overflows reads inf, without a numpy warning, also for a numpy gamma
        p = params(delta=0.5, gamma=np.float64(1e300))
        with pytest.raises(ValueError, match=re.escape("eps gamma gt = inf > 4e-11")):
            evolution.evolve_rk4_grid(p, [1e300])

    def test_large_detuning_finishes(self):
        # about 2e10 steps of 0.005/Omega: log2 of that many matrix products
        p = params(delta=1e8)
        gts = [0.0, 0.5, 1.0]
        got = evolution.evolve_rk4_grid(p, gts)
        assert np.abs(got - evolution.evolve_spectral_grid(p, gts)).max() < 1e-6


SPACE_PARAMS = [
    dict(delta=0.0, lambda_=1.0),
    dict(delta=0.5, lambda_=0.7, gamma=0.01),
    dict(delta=-5.0, lambda_=0.6, gamma=0.2),
]


@pytest.mark.parametrize("n_max", [1, 2])
class TestFullSpaceOracle:
    """Block solutions embedded at cutoff n_max equal full-space runs."""

    def test_spectral_matches_full_space(self, n_max):
        gts = np.linspace(0.0, 60.0, 301)
        for kw in SPACE_PARAMS:
            p = params(**kw)
            block = evolution.evolve_spectral_grid(p, gts)
            assert block.shape == (len(gts), 4, 4)
            full = oracles.full_spectral_grid(p, gts, n_max)
            assert np.abs(oracles.embed(block, n_max) - full).max() < 1e-12
            reduced = oracles.cavity_trace(full, n_max)
            assert np.abs(evolution.reduce_to_atoms(block) - reduced).max() < 1e-12

    def test_rk4_matches_full_space(self, n_max):
        for kw in SPACE_PARAMS:
            p = params(**kw)
            # the library's default step: 0.005 over the Liouvillian's spectral radius
            dt = 0.005 / (p.omega * np.hypot(1.0, p.gamma * p.omega / 2.0))
            block = evolution.evolve_rk4(p, 2.5, check_step=False)
            assert block.shape == (4, 4)
            full = oracles.full_rk4(p, 2.5, n_max, dt)
            assert np.abs(oracles.embed(block, n_max) - full).max() < 1e-12
            assert oracles.leakage(full, n_max) <= 1e-12
            grid = evolution.evolve_rk4_grid(p, [0.0, 2.5])
            assert grid.shape == (2, 4, 4)
            assert np.abs(grid[1] - block).max() < 1e-12


class TestReduceToAtoms:
    def test_matches_cavity_trace_of_embedding(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        block = x @ np.swapaxes(x, -1, -2).conj()
        for n_max in (1, 2):
            want = oracles.cavity_trace(oracles.embed(block, n_max), n_max)
            assert np.array_equal(evolution.reduce_to_atoms(block), want)
        assert np.array_equal(evolution.reduce_to_atoms(block[0]), want[0])

    def test_rejects_other_cutoffs_and_shapes(self):
        rho = initial_state(params())
        for n_max in (0, 2, 4):
            with pytest.raises(ValueError, match="n_max"):
                evolution.reduce_to_atoms(rho, n_max)
        with pytest.raises(ValueError, match="4x4"):
            evolution.reduce_to_atoms(np.eye(8) / 8)


class TestTracedXEntries:
    STATES = evolution.evolve_spectral_grid(params(delta=0.5, lambda_=0.7, gamma=0.01),
                                            np.linspace(0.0, 9.0, 4))

    @pytest.mark.parametrize("entry, match", [(1e-300j, "X-states"), (np.nan, "non-finite")])
    @pytest.mark.parametrize("i, j", [(0, 2), (1, 2), (2, 0), (2, 1)])
    def test_rejects_ground_coherences(self, i, j, entry, match):
        # |0,gg> with |0,eg> or |0,ge> becomes a reduced coherence outside
        # the X pattern
        bad = self.STATES.copy()
        bad[2, i, j] = entry
        with pytest.raises(ValueError, match=match):
            evolution.traced_x_entries(bad)

    def test_ignores_one_photon_coherences(self):
        # the cavity trace drops every coherence of |1,gg>
        for k in range(3):
            for i, j in ((k, 3), (3, k)):
                states = self.STATES.copy()
                states[2, i, j] = 1e-300j
                evolution.traced_x_entries(states)


class TestDephasedOracle:
    def test_matches_closed_form_grid(self):
        gts = np.linspace(0, 500, 5001)
        for delta in [0.0, 0.5, 1.0]:
            p = params(delta=delta)
            got = evolution.dephased_concurrence_oracle(p, gts)
            want = analytic.concurrence_dephased(p, gts)
            assert np.abs(got - want).max() < 1e-6

    def test_gamma_zero_matches_unitary_closed_form(self):
        p = params(delta=0.5)
        gts = np.linspace(0, 60, 601)
        got = evolution.dephased_concurrence_oracle(p, gts)
        assert np.abs(got - analytic.concurrence_closed(p, gts)).max() < 1e-9

    def test_strong_dephasing_reaches_stationary_value(self):
        # also at the units-of-g twin of g = 2, Delta = 0.5, gamma = 1
        for delta, gamma in ((0.5, 1.0), (0.25, 2.0)):
            p = params(delta=delta, gamma=gamma)
            got = evolution.dephased_concurrence_oracle(p, 500.0)
            assert got == pytest.approx(analytic.stationary_concurrence(p), abs=1e-4)
