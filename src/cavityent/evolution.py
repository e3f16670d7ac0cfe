"""Numeric evolution oracle for the dephasing master equation.

    d rho / dt = -i [H, rho] - (gamma/2) [H, [H, rho]]

States are 4x4 matrices on the reachable block (|0,eg>, |0,ge>, |0,gg>,
|1,gg>) of cavityent.model. H is time independent, so the exact solution
is spectral: in the H eigenbasis, rho_mn(t) = rho_mn(0) exp(-i w_mn t -
(gamma/2) w_mn^2 t) with w_mn = E_m - E_n. A fixed-step RK4 integrator of
the right-hand side is kept as an independent cross-check with a different
failure mode. reduce_to_atoms traces out the cavity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import wootters_concurrence_many
from .model import IDX_GG, SystemParams, check_times, hamiltonian, initial_state

# default unscaled RK4 step, in units of 1/Omega
_STEP_OMEGA = 0.005


class StepSizeError(RuntimeError):
    """RK4 step too large: step-halving discrepancy exceeded the bound."""


@dataclass(frozen=True)
class EvolutionResult:
    """Spectral-evolution trajectory of block states.

    times    scaled times gt (increasing)
    states   array (n_times, 4, 4) of block density matrices
    """

    times: np.ndarray
    states: np.ndarray


def _eigensystem(p: SystemParams):
    w, v = np.linalg.eigh(hamiltonian(p))
    return w, v


def evolve_spectral_grid(p: SystemParams, gts) -> np.ndarray:
    """Block states at each scaled time, shape (n, 4, 4)."""
    gts = np.atleast_1d(check_times(gts))
    w, v = _eigensystem(p)
    rho0 = v.conj().T @ initial_state(p) @ v
    omega_mn = w[:, None] - w[None, :]
    t = gts / p.g
    expo = (-1j * omega_mn - p.gamma / 2.0 * omega_mn**2) * t[:, None, None]
    return v @ (rho0 * np.exp(expo)) @ v.conj().T


def evolve_spectral(p: SystemParams, gt: float) -> np.ndarray:
    """Block state at a single scaled time."""
    return evolve_spectral_grid(p, [float(gt)])[0]


def reduce_to_atoms(states: np.ndarray, n_max: int = 1) -> np.ndarray:
    """Trace out the cavity from a block state or a stack of them.

    The |0,eg>, |0,ge>, |0,gg> sub-block becomes the atoms' (eg, ge, gg)
    sub-block and the |1,gg> population adds to gg; the |ee> level stays
    empty. n_max is the cavity cutoff the caller assumes; the block reaches
    one photon only, so any value other than 1 is rejected.
    """
    if n_max != 1:
        raise ValueError(f"block states reach n_max = 1 only, got {n_max}")
    states = np.asarray(states)
    if states.shape[-2:] != (4, 4):
        raise ValueError(f"block states must be 4x4, got {states.shape}")
    reduced = np.zeros(states.shape, dtype=complex)
    reduced[..., 1:, 1:] = states[..., :3, :3]
    reduced[..., IDX_GG, IDX_GG] += states[..., 3, 3]
    return reduced


def evolve_grid(p: SystemParams, gts) -> EvolutionResult:
    """Spectral evolution over a strictly increasing time grid."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    if np.any(np.diff(gts) <= 0):
        raise ValueError("times must be strictly increasing")
    return EvolutionResult(times=gts, states=evolve_spectral_grid(p, gts))


def _rhs(h: np.ndarray, gamma: float, rho: np.ndarray) -> np.ndarray:
    comm = h @ rho - rho @ h
    out = -1j * comm
    if gamma:
        out = out - gamma / 2.0 * (h @ comm - comm @ h)
    return out


def evolve_rk4(
    p: SystemParams,
    gt: float,
    dt: float | None = None,
    check_step: bool = True,
) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation up to scaled time gt.

    dt is the unscaled step (default 0.005/Omega). With check_step the run
    is repeated at dt/2 and a discrepancy above 1e-4 raises StepSizeError.
    """
    gt = check_times(gt)
    if dt is None:
        dt = _STEP_OMEGA / p.omega
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = hamiltonian(p)
    rho = _rk4_run(h, p.gamma, initial_state(p), gt / p.g, dt)
    if check_step:
        rho_half = _rk4_run(h, p.gamma, initial_state(p), gt / p.g, dt / 2.0)
        disc = np.abs(rho - rho_half).max()
        if disc > 1e-4:
            raise StepSizeError(
                f"step-halving discrepancy {disc:.3e} > 1e-4; reduce dt"
            )
    return rho


def evolve_rk4_grid(p: SystemParams, gts) -> np.ndarray:
    """RK4 block states at nondecreasing scaled times, shape (n, 4, 4).

    Each interval between grid points is integrated from the state at the
    previous point with the default step 0.005/Omega (no step-halving
    check), so the cost is linear in the grid length.
    """
    gts = np.atleast_1d(check_times(gts))
    if np.any(np.diff(gts) < 0):
        raise ValueError("times must be nondecreasing")
    h = hamiltonian(p)
    dt = _STEP_OMEGA / p.omega
    rho = initial_state(p)
    states = np.empty((len(gts), *rho.shape), dtype=complex)
    prev = 0.0
    for i, gt in enumerate(gts):
        rho = _rk4_run(h, p.gamma, rho, (gt - prev) / p.g, dt)
        states[i] = rho
        prev = gt
    return states


def _rk4_run(h, gamma, rho0, t_final, dt):
    rho = rho0.astype(complex)
    if t_final == 0:
        return rho
    n_steps = max(1, int(np.ceil(t_final / dt)))
    step = t_final / n_steps
    for _ in range(n_steps):
        k1 = _rhs(h, gamma, rho)
        k2 = _rhs(h, gamma, rho + step / 2.0 * k1)
        k3 = _rhs(h, gamma, rho + step / 2.0 * k2)
        k4 = _rhs(h, gamma, rho + step * k3)
        rho = rho + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def dephased_concurrence_oracle(p: SystemParams, gt):
    """Wootters concurrence of the cavity-traced spectral solution."""
    gts = np.atleast_1d(np.asarray(gt, dtype=float))
    reduced = reduce_to_atoms(evolve_spectral_grid(p, gts))
    out = wootters_concurrence_many(reduced)
    return float(out[0]) if np.ndim(gt) == 0 else out
