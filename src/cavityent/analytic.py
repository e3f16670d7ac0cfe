"""Closed-form dynamics of the two-atom/cavity system.

The printed term list for the reduced density matrix ends in "+h.c."; it
is interpreted as rho = X + X^dagger over the *entire* term list
(Hermitian diagonal terms included, hence doubled). That is the only
reading consistent with trace one and with the t = 0 atomic marginal, and
it is cross-checked against the numeric evolution oracle in the tests.

The four entries that fix the reduced X-state (the analytic sweep source,
read out in cavityent.trajectory) and the (..., 4, 4) matrices built from
them, the closed-form concurrence (the tests' reference for the sweeps),
the recurrence series and the stationary concurrence.

All public time arguments are the dimensionless scaled time gt, finite and
nonnegative; conversion to physical time happens exactly once at each
function boundary.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .model import SystemParams, check_times


def x_state_entries(p: SystemParams, gt):
    """The entries (rho_eg,eg, rho_ge,ge, rho_gg,gg, rho_eg,ge) that fix the
    reduced two-atom X-state on a grid of scaled times, arrays of gt's shape;
    the other entries are 0 but rho_ge,eg = conj(rho_eg,ge).

    Exact for every lambda_ and for pure phase decoherence at rate gamma: a
    coherence at frequency w, Omega (every cos Omega t term) or
    (Omega +- Delta)/2 (the two B+/B- coherence exponentials), decays as
    exp(-gamma w^2 t / 2), exactly 1 at gamma = 0. With
    |B+-> = (|eg> +- |ge>)/sqrt 2 the term list X = c+ |B+><B+| +
    c- |B-><B-| + c_gg |gg><gg| + c_x |B+><B-| is, on (|eg>, |ge>),
    (1/2)[[c+ + c- + c_x, c+ - c- - c_x], [c+ - c- + c_x, c+ + c- - c_x]].
    c+, c- and c_gg are real, so the nonzero entries of rho = X + X^dagger are
      rho_eg,eg = c+ + c- + Re c_x,  rho_ge,ge = c+ + c- - Re c_x,
      rho_gg,gg = 2 c_gg,  rho_eg,ge = conj(rho_ge,eg) = c+ - c- - i Im c_x.
    """
    t = check_times(gt) / p.g
    omega, r, lam, gamma = p.omega, p.delta / p.omega, p.lambda_, p.gamma
    # damping factors formed where used: held as three named arrays, in any order, they
    # raised the tracemalloc peak of one 50 001-time call from 4.70 to 5.85 MiB
    cos_ot = np.cos(omega * t) * np.exp(-gamma * t / 2.0 * omega**2)
    c_plus = lam / 8.0 * (1.0 + r * r + (1.0 - r * r) * cos_ot)
    c_minus = lam / 4.0
    c_gg = p.g**2 * lam / omega**2 * (1.0 - cos_ot) + (1.0 - lam) / 2.0
    c_cross = lam / 4.0 * (
        (1.0 - r) * np.exp(1j * (omega + p.delta) * t / 2.0)
        * np.exp(-gamma * t / 8.0 * (omega + p.delta) ** 2)
        + (1.0 + r) * np.exp(-1j * (omega - p.delta) * t / 2.0)
        * np.exp(-gamma * t / 8.0 * (omega - p.delta) ** 2)
    )
    c_sum, eg_ge = c_plus + c_minus, (c_plus - c_minus) - 1j * c_cross.imag
    return c_sum + c_cross.real, c_sum - c_cross.real, 2.0 * c_gg, eg_ge


def rho_s_matrices(p: SystemParams, gt) -> np.ndarray:
    """Reduced two-atom density matrices on a grid of scaled times, shape
    gt.shape + (4, 4), built from x_state_entries."""
    eg_eg, ge_ge, gg_gg, eg_ge = x_state_entries(p, gt)
    rho = np.zeros(eg_ge.shape + (4, 4), dtype=complex)
    # |ee>, |eg>, |ge>, |gg> at indices 0..3
    rho[..., 1, 1], rho[..., 2, 2], rho[..., 3, 3] = eg_eg, ge_ge, gg_gg
    rho[..., 1, 2], rho[..., 2, 1] = eg_ge, eg_ge.conj()
    return rho


def concurrence_dephased(p: SystemParams, gt):
    """Closed-form concurrence lambda*sqrt(A^2 + B^2) under pure phase
    decoherence at rate gamma: 2|rho_eg,ge| of x_state_entries (Wootters),
    the sweep's own expression; lambda A = 2(c+ - c-), lambda B = 2 Im c_x."""
    out = 2.0 * np.abs(x_state_entries(p, gt)[3])
    return out if out.ndim else float(out)


def concurrence_closed(p: SystemParams, gt):
    """Closed-form concurrence lambda*sqrt(A^2 + B^2) of the reduced state
    (unitary: gamma is ignored)."""
    return concurrence_dephased(dataclasses.replace(p, gamma=0.0), gt)


def recurrence_concurrences(p: SystemParams, k_max: int):
    """Pure-state recurrence series (k, gt_k, C_k).

    At gt_k = 2 k pi g / Omega the lambda_ = 1 reduced state is pure with
    concurrence |sin(Delta k pi / Omega)|. The law holds only for that
    unitary, pure start: ValueError unless lambda_ = 1 and gamma = 0.
    """
    if p.lambda_ != 1.0 or p.gamma != 0.0:
        raise ValueError("the recurrence law needs lambda_ = 1 and gamma = 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k = np.arange(1, k_max + 1)
    gt_k = 2.0 * np.pi * k * p.g / p.omega
    c_k = np.abs(np.sin(p.delta * k * np.pi / p.omega))
    return k, gt_k, c_k


def stationary_concurrence(p: SystemParams) -> float:
    """Long-time dephased concurrence 2 * lambda * g^2 / Omega^2."""
    if p.gamma <= 0:
        raise ValueError("stationary state requires gamma > 0")
    return 2.0 * p.lambda_ * p.g**2 / p.omega**2

