import re

import numpy as np
import pytest

import oracles
from cavityent import analytic, evolution
from cavityent.model import (
    IDX_EG,
    IDX_GG,
    SystemParams,
    check_times,
    hamiltonian,
    initial_state,
)

# block indices of |0,eg> and |0,gg>
B_EG, B_GG = 0, 2


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
        # the photon cutoff is not an input
        with pytest.raises(TypeError):
            SystemParams(g=1.0, n_max=2)

    @pytest.mark.parametrize("field", ["g", "delta", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        kw = {"g": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            SystemParams(**kw)

    @pytest.mark.parametrize("field", ["g", "delta"])
    @pytest.mark.parametrize("big", [1e200, 1e155, np.finfo(float).max, 1.01e150])
    def test_rejects_overflowing_rabi_frequency(self, field, big):
        # g is fixed at 1, and |delta| <= 1e150 keeps (Omega + |Delta|)^2 finite
        if field == "g":
            with pytest.raises(ValueError, match="g must be 1"):
                SystemParams(g=big)
            return
        for delta in (big, -big):
            with pytest.raises(ValueError, match=re.escape(
                    f"|delta| must be at most 1e150, got {big:g}")):
                SystemParams(g=1.0, delta=delta)

    def test_largest_finite_rabi_frequency_is_accepted(self):
        for delta in (1e150, -1e150):
            p = SystemParams(g=1.0, delta=delta)
            assert p.omega == pytest.approx(1e150)

    @pytest.mark.parametrize("g", [0.0, 0.7, 2.0, 1e-300, 1e150])
    def test_rejects_g_other_than_1(self, g):
        with pytest.raises(ValueError, match=re.escape(
                f"g must be 1 (delta is Delta/g, gamma is gamma g, times are gt), got {g}")):
            SystemParams(g=g, delta=0.5, gamma=0.1)

    def test_dim(self):
        p = SystemParams(g=1.0)
        assert p.dim == 4
        assert p.n_max == 1


class TestHamiltonian:
    def test_coupling_matrix_element(self):
        p = SystemParams(g=1.0, delta=0.3)
        h = hamiltonian(p)
        # <0,e,g| H |1,g,g> = <0,g,e| H |1,g,g> = g = 1; Delta on |0,eg>, |0,ge>
        assert h[0, 3] == h[1, 3] == 1.0
        assert h[0, 0] == h[1, 1] == 0.3
        assert np.count_nonzero(h) == 6

    def test_exactly_hermitian(self):
        p = SystemParams(g=1.0, delta=2.0)
        h = hamiltonian(p)
        assert np.abs(h - h.conj().T).max() == 0.0

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_block_of_full_space_hamiltonian(self, n_max):
        p = SystemParams(g=1.0, delta=-1.3)
        h = oracles.full_hamiltonian(p, n_max)
        idx = oracles.block_indices(n_max)
        assert np.array_equal(h[np.ix_(idx, idx)], hamiltonian(p))
        # H has no matrix element out of the block
        rest = np.setdiff1d(np.arange(len(h)), idx)
        assert not h[np.ix_(rest, idx)].any()

    def test_commutes_with_excitation_number(self):
        # the full-space H conserves N, so the one-excitation block is closed
        for delta in [0.0, 0.5, 5.0]:
            p = SystemParams(g=1.0, delta=delta)
            h = oracles.full_hamiltonian(p, 2)
            n = oracles.excitation_number(2)
            assert np.abs(h @ n - n @ h).max() <= 1e-12 * p.g


class TestInitialState:
    def test_pure_excited(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=1.0))
        expected = np.zeros((4, 4))
        expected[B_EG, B_EG] = 1.0
        assert np.array_equal(rho, expected)

    def test_pure_ground(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=0.0))
        assert rho[B_GG, B_GG] == 1.0
        assert rho.trace() == 1.0

    def test_half_mixture(self):
        rho = initial_state(SystemParams(g=1.0, lambda_=0.5))
        diag = np.diag(rho).real
        assert diag[B_EG] == 0.5
        assert diag[B_GG] == 0.5
        assert np.count_nonzero(rho) == 2

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_embeds_full_space_initial_state(self, n_max):
        p = SystemParams(g=1.0, lambda_=0.3)
        assert np.array_equal(
            oracles.embed(initial_state(p), n_max), oracles.full_initial_state(p, n_max)
        )


class TestExcitationNumber:
    def test_diagonal_values(self):
        n = oracles.excitation_number(1)
        assert np.abs(n - np.diag(np.diag(n))).max() == 0.0
        assert n[IDX_GG, IDX_GG] == 0.0          # |0,g,g>
        assert n[4 + IDX_EG, 4 + IDX_EG] == 2.0  # |1,e,g>
        # on the block: one excitation everywhere but |0,gg>
        idx = oracles.block_indices(1)
        assert np.array_equal(np.diag(n)[idx], [1.0, 1.0, 0.0, 1.0])

    def test_initial_expectation_is_lambda(self):
        p = SystemParams(g=1.0, lambda_=0.3)
        val = np.trace(oracles.excitation_number(1) @ oracles.full_initial_state(p, 1)).real
        assert val == pytest.approx(0.3)


def test_single_excitation_indices():
    assert oracles.block_indices(1) == [1, 2, 3, 7]
    with pytest.raises(ValueError):
        oracles.block_indices(0)


TIME_ENTRY_POINTS = [
    analytic.rho_s_matrices,
    oracles.rho_full_analytic,
    analytic.concurrence_closed,
    analytic.concurrence_dephased,
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


@pytest.mark.parametrize("entry", [evolution.evolve_spectral, evolution.evolve_rk4],
                         ids=lambda f: f.__name__)
def test_single_time_entry_points_reject_time_arrays(entry):
    # a second time must not be dropped silently
    p = SystemParams(g=1.0, delta=0.5, lambda_=0.8)
    for gts in ([1.0, 2.0], [1.0], np.array([[0.5]])):
        with pytest.raises(ValueError, match="single time"):
            entry(p, gts)
    assert entry(p, np.float64(1.0)).shape == (4, 4)


def test_check_times():
    assert np.array_equal(check_times([0.0, 2.5]), [0.0, 2.5])
    for bad in ([0.0, -1e-300], [np.inf], np.nan):
        with pytest.raises(ValueError):
            check_times(bad)
