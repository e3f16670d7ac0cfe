"""Physical model: parameters, basis conventions, Hamiltonian, initial state.

Two identical two-level atoms couple symmetrically to one cavity mode that
starts in vacuum. We work in the rotating frame where only the detuning
Delta = omega_0 - omega and the coupling g appear; the dropped multiple of
the conserved excitation number contributes only sector-global phases.

The initial state holds at most one excitation, and both the Hamiltonian
and the phase-dephasing term conserve excitation number. Every state
therefore stays in the 4-dimensional reachable block, and the Hamiltonian
and initial state are given there; no cavity cutoff is involved.

Basis conventions (fixed once, everything downstream depends on them):
  * single atom: index 0 = |e>, index 1 = |g>
  * atomic pair: |ee>, |eg>, |ge>, |gg> at indices 0..3
  * block:       |0,eg>, |0,ge>, |0,gg>, |1,gg> at indices 0..3
                 (|n, atom1 atom2> with n cavity photons)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# atomic pair indices
IDX_EE, IDX_EG, IDX_GE, IDX_GG = 0, 1, 2, 3

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# y (x) y spin flip, used by the concurrence
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the two-atom/cavity system.

    g       coupling strength (> 0)
    delta   detuning Delta = omega_0 - omega (any sign)
    lambda_ initial excited population of atom 1, in [0, 1]
    gamma   phase decoherence rate (>= 0; units of time)

    g, delta, gamma, Omega^2 = Delta^2 + 8 g^2 and gamma g must be finite, and
    |Delta/g| must be at most 1e150.
    """

    g: float
    delta: float = 0.0
    lambda_: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("g", "delta", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        # float products overflow to inf, where ** would raise OverflowError
        delta, g, gamma = float(self.delta), float(self.g), float(self.gamma)
        if not np.isfinite(delta * delta + 8.0 * g * g):
            raise ValueError(
                f"Omega^2 = Delta^2 + 8 g^2 overflows for delta = {self.delta}, g = {self.g}"
            )
        # a sweep runs in units of g, where gamma g must be finite and
        # (Omega/g + |Delta/g|)^2 must not overflow
        if not (abs(delta / g) <= 1e150 and np.isfinite(gamma * g)):
            raise ValueError(f"|Delta/g| must be at most 1e150 and gamma g finite, "
                             f"got {abs(delta / g):g} and {gamma * g:g}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda_ must be in [0, 1], got {self.lambda_}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    @property
    def omega(self) -> float:
        """Generalized Rabi frequency Omega = sqrt(Delta^2 + 8 g^2)."""
        return float(np.sqrt(self.delta**2 + 8.0 * self.g**2))

    @property
    def dim(self) -> int:
        """Dimension of the reachable block the states live in."""
        return 4

    @property
    def n_max(self) -> int:
        """Highest cavity photon number reached: the single excitation never
        puts a second photon in the cavity."""
        return 1


def check_times(gt) -> np.ndarray:
    """Scaled times gt as a float array; ValueError unless all finite and >= 0."""
    gt = np.asarray(gt, dtype=float)
    if not np.all(np.isfinite(gt) & (gt >= 0)):
        raise ValueError("times gt must be finite and nonnegative")
    return gt


def hamiltonian(p: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian on the block (|0,eg>, |0,ge>, |0,gg>,
    |1,gg>): Delta on |0,eg> and |0,ge>, and the coupling g between each of
    them and |1,gg>."""
    d, g = p.delta, p.g
    return np.array(
        [[d, 0, 0, g],
         [0, d, 0, g],
         [0, 0, 0, 0],
         [g, g, 0, 0]],
        dtype=complex,
    )


def initial_state(p: SystemParams) -> np.ndarray:
    """rho(0) on the block: vacuum cavity, atom 1 excited with weight
    lambda_, atom 2 ground."""
    return np.diag([p.lambda_, 0.0, 1.0 - p.lambda_, 0.0]).astype(complex)
