"""Independent references the tests compare the library against.

Full-space reference for the block solvers. The library evolves 4x4 states on the reachable block (|0,eg>, |0,ge>,
|0,gg>, |1,gg>) of cavityent.model. This module rebuilds the Kronecker
atom-cavity space with an explicit photon cutoff n_max: dimension
4 (n_max + 1), cavity-major |n> (x) |atom1> (x) |atom2>, with the atomic
pair order of cavityent.model. Tests embed block states into it, compare
them with full-space runs and check that no population leaves the block.

Full-space RK4 runs use the classical per-step loop, rk4_run, so they check
the library's matrix-power RK4 against an independent integrator.

The reduced state in the printed projector form, with its coefficients
written out as printed, checks the library's entry-by-entry closed form.

Two-qubit references: the Werner and MEMS states, the eigenvalue route to
the Wootters concurrence, the MEMS excess of sampled states and linear
interpolation along a frontier curve. x_state_readout reads the sweep's
four metrics off whole (n, 4, 4) reduced X-states, after checking every
entry outside the X pattern.

The references build on three small dense helpers: the Kronecker product
tensor, the partial trace and the general 4x4 eigenvalue solver.

plane_trajectory wraps given (M, C) arrays in a Trajectory, so that the
plane reductions, which take nothing else, can be checked on point sets no
sweep produces.
"""
from math import prod
from typing import Iterable, Sequence

import numpy as np

from cavityent.frontier import BELL_FRONTIER, mems_concurrence_at
from cavityent.metrics import linear_entropy_many, wootters_concurrence_many
from cavityent.model import (
    IDX_EE,
    IDX_EG,
    IDX_GE,
    IDX_GG,
    SPIN_FLIP,
    SystemParams,
    check_times,
)
from cavityent.trajectory import Trajectory, _x_entry_readout

BELL_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |e><g|
SIGMA_MINUS = SIGMA_PLUS.conj().T

_I2 = np.eye(2, dtype=complex)
_N_E = SIGMA_PLUS @ SIGMA_MINUS


def tensor(a, b) -> np.ndarray:
    """Kronecker product, first-factor-index major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``rho`` is one square matrix or a stack (..., d, d). ``dims`` are the
    subsystem dimensions in tensor order; ``keep`` holds the (zero-based)
    indices of subsystems retained in the output.
    """
    rho = np.asarray(rho)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    d = prod(dims)
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"dims {dims} do not match matrix shape {rho.shape}")
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = keep + [i + n for i in keep]
    batch = rho.shape[:-2]
    reduced = np.einsum(
        rho.reshape(batch + tuple(dims + dims)),
        [Ellipsis] + row + col,
        [Ellipsis] + out,
    )
    d_keep = prod(dims[i] for i in keep)
    return reduced.reshape(batch + (d_keep, d_keep))


def eigvals_general_4x4(m) -> np.ndarray:
    """Eigenvalues (unordered) of a general complex 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return np.linalg.eigvals(m)


def _three_kron(c, a1, a2) -> np.ndarray:
    return tensor(c, tensor(a1, a2))


def destroy(n_levels: int) -> np.ndarray:
    """Truncated annihilation operator on n_levels Fock states."""
    return np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)


def full_hamiltonian(p: SystemParams, n_max: int) -> np.ndarray:
    """Rotating-frame Hamiltonian Delta * (atomic excitations) + couplings."""
    nc = n_max + 1
    a = destroy(nc)
    ic = np.eye(nc, dtype=complex)
    h = p.delta * (_three_kron(ic, _N_E, _I2) + _three_kron(ic, _I2, _N_E))
    coupling = _three_kron(a, SIGMA_PLUS, _I2) + _three_kron(a, _I2, SIGMA_PLUS)
    return h + p.g * (coupling + coupling.conj().T)


def excitation_number(n_max: int) -> np.ndarray:
    """Total excitation N = a^dag a + sum_i sigma_+^(i) sigma_-^(i)."""
    nc = n_max + 1
    ic = np.eye(nc, dtype=complex)
    n_cav = np.diag(np.arange(nc, dtype=float)).astype(complex)
    return (
        _three_kron(n_cav, _I2, _I2)
        + _three_kron(ic, _N_E, _I2)
        + _three_kron(ic, _I2, _N_E)
    )


def full_initial_state(p: SystemParams, n_max: int) -> np.ndarray:
    """rho(0): vacuum cavity, atom 1 mixed with weight lambda_, atom 2 ground."""
    dim = 4 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[IDX_EG, IDX_EG] = p.lambda_          # |0, e, g>
    rho[IDX_GG, IDX_GG] = 1.0 - p.lambda_    # |0, g, g>
    return rho


def block_indices(n_max: int) -> list[int]:
    """Full-space indices of the block basis |0,eg>, |0,ge>, |0,gg>, |1,gg>."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [IDX_EG, IDX_GE, IDX_GG, 4 + IDX_GG]


def embed(states, n_max: int) -> np.ndarray:
    """Block states (..., 4, 4) placed into the full space at cutoff n_max."""
    states = np.asarray(states)
    dim = 4 * (n_max + 1)
    full = np.zeros(states.shape[:-2] + (dim, dim), dtype=complex)
    idx = np.array(block_indices(n_max))
    full[..., idx[:, None], idx[None, :]] = states
    return full


def full_spectral_grid(p: SystemParams, gts, n_max: int) -> np.ndarray:
    """Exact spectral solution of the dephasing master equation in the full
    space, shape (n, dim, dim)."""
    gts = np.atleast_1d(check_times(gts))
    w, v = np.linalg.eigh(full_hamiltonian(p, n_max))
    rho0 = v.conj().T @ full_initial_state(p, n_max) @ v
    omega_mn = w[:, None] - w[None, :]
    t = gts / p.g
    expo = (-1j * omega_mn - p.gamma / 2.0 * omega_mn**2)[None] * t[:, None, None]
    return np.einsum("ab,tbc,cd->tad", v, rho0[None] * np.exp(expo), v.conj().T)


def _rhs(h: np.ndarray, gamma: float, rho: np.ndarray) -> np.ndarray:
    comm = h @ rho - rho @ h
    out = -1j * comm
    if gamma:
        out = out - gamma / 2.0 * (h @ comm - comm @ h)
    return out


def rk4_run(h, gamma, rho0, t_final, dt):
    """Classical per-step RK4 loop on the master equation for any
    Hamiltonian h: ceil(t_final / dt) equal steps from rho0."""
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


def full_rk4(p: SystemParams, gt: float, n_max: int, dt: float) -> np.ndarray:
    """Full-space state at scaled time gt from the per-step RK4 loop."""
    return rk4_run(
        full_hamiltonian(p, n_max), p.gamma, full_initial_state(p, n_max), gt / p.g, dt
    )


def cavity_trace(states, n_max: int) -> np.ndarray:
    """Two-atom states from full-space states (..., dim, dim)."""
    return partial_trace(states, [n_max + 1, 4], {1})


def leakage(states, n_max: int) -> float:
    """Max total population outside the block."""
    pops = np.einsum("...ii->...i", np.asarray(states)).real
    outside = np.ones(pops.shape[-1], dtype=bool)
    outside[block_indices(n_max)] = False
    return float(pops[..., outside].sum(axis=-1).max())


def rho_full_analytic(p: SystemParams, gt: float) -> np.ndarray:
    """Printed closed-form atom-cavity density matrix at scaled time gt and
    n_max = 1 (unitary only: ValueError unless gamma == 0)."""
    gt = check_times(gt)
    if p.gamma != 0:
        raise ValueError("rho_full_analytic is unitary; gamma must be 0")
    t = gt / p.g
    omega = p.omega
    r = p.delta / omega
    lam = p.lambda_
    cos_ot = np.cos(omega * t)

    gg = np.zeros(4, dtype=complex)
    gg[IDX_GG] = 1.0
    p00 = np.diag([1.0, 0.0]).astype(complex)
    p11 = np.diag([0.0, 1.0]).astype(complex)
    p01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    proj_bp = np.outer(BELL_PLUS, BELL_PLUS.conj())
    proj_bm = np.outer(BELL_MINUS, BELL_MINUS.conj())
    proj_gg = np.outer(gg, gg.conj())

    c_plus = lam / 8.0 * (1.0 + r * r + (1.0 - r * r) * cos_ot)
    c_cross = lam / 4.0 * (
        (1.0 - r) * np.exp(1j * (omega + p.delta) * t / 2.0)
        + (1.0 + r) * np.exp(-1j * (omega - p.delta) * t / 2.0)
    )
    x = c_plus * np.kron(p00, proj_bp)
    x += p.g**2 * lam / omega**2 * (1.0 - cos_ot) * np.kron(p11, proj_gg)
    x += lam / 4.0 * np.kron(p00, proj_bm)
    x += (
        np.sqrt(2.0) * p.g * lam / (2.0 * omega)
        * (r * (1.0 - cos_ot) + 1j * np.sin(omega * t))
        * np.kron(p01, np.outer(BELL_PLUS, gg.conj()))
    )
    x += (
        np.sqrt(2.0) * p.g * lam / (2.0 * omega)
        * (
            np.exp(1j * (omega - p.delta) * t / 2.0)
            - np.exp(-1j * (omega + p.delta) * t / 2.0)
        )
        * np.kron(p01, np.outer(BELL_MINUS, gg.conj()))
    )
    x += c_cross * np.kron(p00, np.outer(BELL_PLUS, BELL_MINUS.conj()))
    x += (1.0 - lam) / 2.0 * np.kron(p00, proj_gg)
    return x + x.conj().T


def rho_s_term_list(p: SystemParams, gt) -> np.ndarray:
    """Reduced two-atom states in the printed projector form, X + X^dagger
    with X = c+ |B+><B+| + c- |B-><B-| + c_gg |gg><gg| + c_x |B+><B-| and the
    coefficients as printed:
      c+ = (lambda/8)(1 + r^2 + (1 - r^2) cos Omega t),  c- = lambda/4,
      c_gg = (g^2 lambda / Omega^2)(1 - cos Omega t) + (1 - lambda)/2,
      c_x = (lambda/4)((1 - r) e^{i(Omega + Delta)t/2} + (1 + r) e^{-i(Omega - Delta)t/2}),
    r = Delta/Omega, each oscillation e^{iwt} dephased to
    e^{iwt - gamma w^2 t/2}; shape gt.shape + (4, 4)."""
    t = check_times(gt) / p.g
    omega, r, lam = p.omega, p.delta / p.omega, p.lambda_

    def wave(w):
        return np.exp(1j * w * t - p.gamma * w * w * t / 2.0)

    cos_ot = wave(omega).real
    c_x = lam / 4.0 * ((1.0 - r) * wave((omega + p.delta) / 2.0)
                       + (1.0 + r) * wave(-(omega - p.delta) / 2.0))
    gg = np.zeros(4, dtype=complex)
    gg[IDX_GG] = 1.0
    c_plus = lam / 8.0 * (1.0 + r**2 + (1.0 - r**2) * cos_ot)
    c_gg = p.g**2 * lam / omega**2 * (1.0 - cos_ot) + (1.0 - lam) / 2.0
    terms = (
        (c_plus, np.outer(BELL_PLUS, BELL_PLUS.conj())),
        (lam / 4.0, np.outer(BELL_MINUS, BELL_MINUS.conj())),
        (c_gg, np.outer(gg, gg.conj())),
        (c_x, np.outer(BELL_PLUS, BELL_MINUS.conj())),
    )
    x = sum(np.asarray(c)[..., None, None] * proj for c, proj in terms)
    return x + np.swapaxes(x, -1, -2).conj()


def x_entries(states) -> tuple:
    """Views of the entries (rho_eg,eg, rho_ge,ge, rho_gg,gg, rho_eg,ge) of
    an (n, 4, 4) stack of reduced states; ValueError unless every entry but
    the diagonal and the eg-ge coherence is zero (an X-state with an empty
    |ee> level)."""
    # |ee>, |eg>, |ge>, |gg> at indices 0..3
    off_x = (states[:, 0], states[:, :, 0], states[:, 1:3, 3], states[:, 3, 1:3])
    if any(block.any() for block in off_x):
        raise ValueError("reduced states are not X-states with an empty |ee> level")
    return states[:, 1, 1].real, states[:, 2, 2].real, states[:, 3, 3].real, states[:, 1, 2]


def x_state_readout(states) -> dict:
    """The sweep's raw metrics (trajectory._x_entry_readout) of an (n, 4, 4)
    stack of reduced X-states, after x_entries' check."""
    return _x_entry_readout(*x_entries(states))


def werner_matrix(p_bell: float) -> np.ndarray:
    """Werner state p |B+><B+| + (1-p) I/4."""
    if not 0.0 <= p_bell <= 1.0:
        raise ValueError("Werner parameter must be in [0, 1]")
    return p_bell * np.outer(BELL_PLUS, BELL_PLUS.conj()) + (
        1.0 - p_bell
    ) / 4.0 * np.eye(4, dtype=complex)


def mems_matrix(c: float) -> np.ndarray:
    """Maximally entangled mixed state with concurrence c.

    X-structured with corner coherence c/2 and corner populations
    g(c) = c/2 for c >= 2/3 else 1/3.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("concurrence must be in [0, 1]")
    g = c / 2.0 if c >= 2.0 / 3.0 else 1.0 / 3.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[IDX_EE, IDX_EE] = g
    rho[IDX_GG, IDX_GG] = g
    rho[IDX_EG, IDX_EG] = 1.0 - 2.0 * g
    rho[IDX_EE, IDX_GG] = c / 2.0
    rho[IDX_GG, IDX_EE] = c / 2.0
    return rho


def mems_excess(samples: np.ndarray) -> float:
    """Max amount by which sampled states exceed the MEMS curve in (M, C)."""
    m = linear_entropy_many(samples)
    c = wootters_concurrence_many(samples)
    return float((c - mems_concurrence_at(np.clip(m, 0.0, 8.0 / 9.0))).max())


def wootters_concurrence_eigvals(state, clip: float = -1e-10) -> float:
    """Concurrence via the eigenvalues of rho * rho_tilde.

    Independent of the singular-value route of the library; tiny negative
    real parts above ``clip`` are zeroed before the square roots.
    """
    rho = np.asarray(state, dtype=complex)
    rho_tilde = SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    ev = eigvals_general_4x4(rho @ rho_tilde).real
    if ev.min() < clip:
        raise ValueError(f"rho*rho_tilde eigenvalue {ev.min():.3e} below {clip}")
    lam = np.sqrt(np.clip(ev, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def curve_value_at(curve, m) -> np.ndarray:
    """Interpolation of a FrontierCurve's value at linear entropy m.

    The Bell envelope is interpolated in squared value: both analytic
    branches of the envelope have |B|^2 linear in M, so this is exact
    between knots and avoids chord sag under the concave curve.
    """
    if curve.kind == BELL_FRONTIER:
        sq = np.interp(m, curve.points[:, 0], curve.points[:, 1] ** 2)
        return np.sqrt(sq)
    return np.interp(m, curve.points[:, 0], curve.points[:, 1])


def plane_trajectory(m: np.ndarray, c: np.ndarray) -> Trajectory:
    """Trajectory with the (M, C) points (m, c) and a mixed start."""
    return Trajectory(
        params=SystemParams(g=1.0, delta=0.5, lambda_=0.7),
        gt=np.arange(len(m), dtype=float),
        plane=np.column_stack([m, c]),
        bell_max=np.full(len(m), 2.0),
    )
