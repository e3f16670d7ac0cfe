"""Numeric evolution of the dephasing master equation: the spectral and
rk4 sweep sources (cavityent.trajectory) and the tests' check of the
closed forms.

    d rho / dt = -i [H, rho] - (gamma/2) [H, [H, rho]]

States are 4x4 matrices on the reachable block (|0,eg>, |0,ge>, |0,gg>,
|1,gg>) of cavityent.model. H is time independent, so the exact solution
is spectral: in the H eigenbasis, rho_mn(t) = rho_mn(0) exp(-i w_mn t -
(gamma/2) w_mn^2 t) with w_mn = E_m - E_n. A fixed-step RK4 integrator is
kept as an independent cross-check with a different failure mode: it needs
no eigendecomposition. The right-hand side is one 16x16 matrix L on
vec(rho), so n RK4 steps of length h are the n-th power of RK4's stability
polynomial at hL. The default step is 0.005 over L's spectral radius.
reduce_to_atoms traces out the cavity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import wootters_concurrence_many
from .model import IDX_GG, SystemParams, check_times, hamiltonian, initial_state


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


def evolve_spectral_grid(p: SystemParams, gts) -> np.ndarray:
    """Block states at each scaled time, shape (n, 4, 4)."""
    gts = np.atleast_1d(check_times(gts))
    w, v = np.linalg.eigh(hamiltonian(p))
    rho0 = v.conj().T @ initial_state(p) @ v
    omega_mn = w[:, None] - w[None, :]
    t = gts / p.g
    expo = (-1j * omega_mn - p.gamma / 2.0 * omega_mn**2) * t[:, None, None]
    return v @ (rho0 * np.exp(expo)) @ v.conj().T


def _single_time(gt):
    """gt unchanged; ValueError unless it is one time, not an array of them."""
    if np.ndim(gt):
        raise ValueError(f"expected a single time gt, got shape {np.shape(gt)}")
    return gt


def evolve_spectral(p: SystemParams, gt: float) -> np.ndarray:
    """Block state at a single scaled time."""
    return evolve_spectral_grid(p, _single_time(gt))[0]


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


def _rk4_propagator(p: SystemParams, t: float, n_steps: int) -> np.ndarray:
    """n_steps RK4 steps of length t / n_steps, as one 16x16 matrix on the
    row-major vec(rho).

    The right-hand side is vec' = L vec with L = -i C - (gamma/2) C^2 and
    C = H (x) I - I (x) H^T. On a linear right-hand side one RK4 step is its
    stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 at z = step * L.
    """
    h, i4 = hamiltonian(p), np.eye(4)
    c = np.kron(h, i4) - np.kron(i4, h.T)
    z = t / n_steps * (-1j * c - p.gamma / 2.0 * (c @ c))
    eye = np.eye(16)
    step = eye + z @ (eye + z / 2.0 @ (eye + z / 3.0 @ (eye + z / 4.0)))
    return np.linalg.matrix_power(step, n_steps)


def _rk4_grid(p: SystemParams, gts, dt: float | None, refine: int = 1) -> np.ndarray:
    """RK4 block states carried from t = 0 over each interval between
    nondecreasing scaled times in refine * ceil(interval / dt) equal steps;
    equal intervals share one propagator. dt defaults to evolve_rk4_grid's.
    """
    if dt is None:
        dt = 0.005 / (p.omega * math.hypot(1.0, p.gamma * p.omega / 2.0))
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    gts = np.atleast_1d(check_times(gts))
    if np.any(np.diff(gts) < 0):
        raise ValueError("times must be nondecreasing")
    vec = initial_state(p).reshape(16)
    states = np.empty((len(gts), 16), dtype=complex)
    propagators = {}
    for i, t in enumerate(np.diff(gts, prepend=0.0) / p.g):
        if t not in propagators:
            n_steps = refine * max(1, math.ceil(t / dt))
            propagators[t] = _rk4_propagator(p, t, n_steps)
        states[i] = vec = propagators[t] @ vec
    return states.reshape(-1, 4, 4)


def evolve_rk4(
    p: SystemParams,
    gt: float,
    dt: float | None = None,
    check_step: bool = True,
) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation up to scaled time gt.

    dt is the unscaled step; the default is evolve_rk4_grid's, 0.005 over
    the Liouvillian's spectral radius. The run takes n = ceil(gt / (g dt))
    equal steps as one power of the one-step propagator that
    evolve_rk4_grid uses. With check_step it is repeated with exactly 2n
    steps, and a discrepancy above 1e-4 raises StepSizeError.
    """
    gt = _single_time(gt)
    rho = _rk4_grid(p, gt, dt)[0]
    if check_step:
        disc = np.abs(rho - _rk4_grid(p, gt, dt, refine=2)[0]).max()
        if disc > 1e-4:
            raise StepSizeError(
                f"step-halving discrepancy {disc:.3e} > 1e-4; reduce dt"
            )
    return rho


def evolve_rk4_grid(p: SystemParams, gts) -> np.ndarray:
    """RK4 block states at nondecreasing scaled times, shape (n, 4, 4).

    Each interval between grid points is integrated from the state at the
    previous point (no step-halving check). The unscaled step is 0.005 over
    the Liouvillian's spectral radius Omega sqrt(1 + (gamma Omega / 2)^2),
    which keeps stiff dephasing inside RK4's stability region and is
    0.005/Omega without dephasing. The steps are one propagator raised to
    the step count, so the cost grows with the logarithm of that count.
    """
    return _rk4_grid(p, gts, None)


def dephased_concurrence_oracle(p: SystemParams, gt):
    """Wootters concurrence of the cavity-traced spectral solution."""
    gts = np.atleast_1d(np.asarray(gt, dtype=float))
    reduced = reduce_to_atoms(evolve_spectral_grid(p, gts))
    out = wootters_concurrence_many(reduced)
    return float(out[0]) if np.ndim(gt) == 0 else out
