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
reduce_to_atoms traces out the cavity; traced_x_entries reads only the
four reduced X-state entries that a sweep needs off block states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import IDX_GG, SystemParams, check_times, hamiltonian, initial_state


# a solution whose rounding bound exceeds ROUNDING_TOL would print noise and is refused;
# EPS is a Python float, so a bound that overflows reads inf without a numpy warning
EPS = float(np.finfo(float).eps)
ROUNDING_TOL = 1e-8
# RK4 rounds the dephasing along the stationary modes at every step; measured
# against the closed form, its metrics err by up to 25 eps gamma t_max and a
# pure state's linear entropy dips below 0 by up to 11, so RK4 is refused past
# eps gamma t_max = RK4_ROUNDING_TOL, which keeps both within the sweep's 1e-9
# range slack
RK4_ROUNDING_TOL = 4e-11


class StepSizeError(RuntimeError):
    """RK4 step too large: step-halving discrepancy exceeded the bound."""


@dataclass(frozen=True)
class EvolutionResult:
    """Spectral-evolution trajectory of block states.

    states   array (n_times, 4, 4) of block density matrices
    """

    states: np.ndarray


def evolve_spectral_grid(p: SystemParams, gts) -> np.ndarray:
    """Block states at each scaled time, shape (n, 4, 4).

    rho_ab(t) = sum_mn rho0_mn exp(-i w_mn t - (gamma/2) w_mn^2 t) v_am
    conj(v_bn) is one (n, 16) @ (16, 16) product with K[(m, n), (a, b)] =
    v_am conj(v_bn); the (n, 16) factor is formed in place, so the peak is it
    plus the result.
    """
    gts = np.atleast_1d(check_times(gts))
    w, v = np.linalg.eigh(hamiltonian(p))
    rho0 = v.conj().T @ initial_state(p) @ v
    omega_mn = w[:, None] - w[None, :]
    coef = -1j * omega_mn - p.gamma / 2.0 * omega_mn**2
    kernel = np.einsum("am,bn->mnab", v, v.conj()).reshape(16, 16)
    phases = np.multiply.outer(gts, coef.ravel())
    np.exp(phases, out=phases)
    phases *= rho0.ravel()
    return (phases @ kernel).reshape(-1, 4, 4)


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


def traced_x_entries(states: np.ndarray) -> tuple:
    """The cavity-traced X-state entries (rho_eg,eg, rho_ge,ge, rho_gg,gg,
    rho_eg,ge) of an (n, 4, 4) stack of block states, all but rho_gg,gg as
    views. The trace drops the |1,gg> coherences, so ValueError only if a
    coherence of |0,gg> with |0,eg> or |0,ge> is nonzero, naming non-finite
    states (a solver overflow) as the cause where there are any."""
    if states[:, :2, 2].any() or states[:, 2, :2].any():
        if not np.isfinite(states).all():
            raise ValueError("the solver produced non-finite reduced states")
        raise ValueError("reduced states are not X-states with an empty |ee> level")
    return (states[:, 0, 0].real, states[:, 1, 1].real,
            states[:, 2, 2].real + states[:, 3, 3].real, states[:, 0, 1])


def evolve_grid(p: SystemParams, gts) -> EvolutionResult:
    """Spectral evolution over a strictly increasing time grid."""
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    if np.any(np.diff(gts) <= 0):
        raise ValueError("times must be strictly increasing")
    return EvolutionResult(states=evolve_spectral_grid(p, gts))


def _rk4_propagator(p: SystemParams, t: float, n_steps: int) -> np.ndarray:
    """n_steps RK4 steps of length t / n_steps, as one 16x16 matrix on the
    row-major vec(rho).

    The right-hand side is vec' = L vec with L = -i C - (gamma/2) C^2 and
    C = H (x) I - I (x) H^T. On a linear right-hand side one RK4 step is its
    stability polynomial I + E, E = z + z^2/2 + z^3/6 + z^4/24 at z = step * L.
    The power keeps E apart from I, squared as 2E + E^2 and joined as
    A + B + AB, so rounding E relative to I does not grow with the steps.
    """
    h, i4 = hamiltonian(p), np.eye(4)
    c = np.kron(h, i4) - np.kron(i4, h.T)
    z = t / n_steps * (-1j * c - p.gamma / 2.0 * (c @ c))
    eye = np.eye(16)
    e = z @ (eye + z / 2.0 @ (eye + z / 3.0 @ (eye + z / 4.0)))
    power = np.zeros_like(e)
    while True:
        if n_steps & 1:
            power += e + power @ e
        n_steps >>= 1
        if not n_steps:
            return eye + power
        e = 2.0 * e + e @ e


def _rk4_grid(p: SystemParams, gts, dt: float | None, refine: int = 1) -> np.ndarray:
    """RK4 block states carried from t = 0 over each interval between
    nondecreasing scaled times in refine * ceil(interval / dt) equal steps;
    equal intervals share one propagator. dt defaults to evolve_rk4_grid's.
    ValueError past RK4's rounding bound eps gamma t_max = RK4_ROUNDING_TOL.
    """
    if dt is None:
        dt = 0.005 / p.radius
    elif not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    gts = np.atleast_1d(check_times(gts))
    if np.any(np.diff(gts) < 0):
        raise ValueError("times must be nondecreasing")
    t_max = float(gts.max(initial=0.0))
    if (rounding := EPS * float(p.gamma) * t_max) > RK4_ROUNDING_TOL:
        raise ValueError(f"gt = {t_max:g} is past RK4's rounding bound: "
                         f"eps gamma gt = {rounding:.3g} > {RK4_ROUNDING_TOL:g}")
    vec = initial_state(p).reshape(16)
    states = np.empty((len(gts), 16), dtype=complex)
    propagators = {}
    for i, t in enumerate(np.diff(gts, prepend=0.0).tolist()):
        if t not in propagators:
            if not t / dt < math.inf:
                raise ValueError(f"the RK4 step count ceil({t:g} / dt) overflows, dt = {dt:g}")
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

    dt is the step in gt; the default is evolve_rk4_grid's, 0.005 over
    the Liouvillian's spectral radius. The run takes n = ceil(gt / dt)
    equal steps as one power of the one-step propagator that
    evolve_rk4_grid uses. With check_step it is repeated with exactly 2n
    steps, and a discrepancy above 1e-4, or non-finite states from either
    run, raise StepSizeError.
    """
    gt = _single_time(gt)
    rho = _rk4_grid(p, gt, dt)[0]
    if check_step:
        disc = np.abs(rho - _rk4_grid(p, gt, dt, refine=2)[0]).max()
        # NaN fails every comparison, so a non-finite result is named first
        if not np.isfinite(disc):
            raise StepSizeError("RK4 produced non-finite states; the step-halving check fails")
        if disc > 1e-4:
            raise StepSizeError(
                f"step-halving discrepancy {disc:.3e} > 1e-4; reduce dt"
            )
    return rho


def evolve_rk4_grid(p: SystemParams, gts) -> np.ndarray:
    """RK4 block states at nondecreasing scaled times, shape (n, 4, 4).

    Each interval between grid points is integrated from the state at the
    previous point (no step-halving check). The step is 0.005 over the
    Liouvillian's spectral radius Omega sqrt(1 + (gamma Omega / 2)^2),
    which keeps stiff dephasing inside RK4's stability region and is
    0.005/Omega without dephasing. The steps are one propagator raised to
    the step count, so the cost grows with the logarithm of that count.
    ValueError past RK4's rounding bound, eps gamma gt_max = 4e-11.
    """
    return _rk4_grid(p, gts, None)


def dephased_concurrence_oracle(p: SystemParams, gt):
    """Wootters concurrence of the cavity-traced spectral solution."""
    from .metrics import wootters_concurrence_many  # only the oracles need it

    gts = np.atleast_1d(np.asarray(gt, dtype=float))
    reduced = reduce_to_atoms(evolve_spectral_grid(p, gts))
    out = wootters_concurrence_many(reduced)
    return float(out[0]) if np.ndim(gt) == 0 else out
