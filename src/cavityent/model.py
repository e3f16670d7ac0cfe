"""Physical model: parameters, basis conventions, Hamiltonian, initial state.

Two identical two-level atoms couple symmetrically to one cavity mode that
starts in vacuum. We work in the rotating frame where only the detuning
Delta = omega_0 - omega and the coupling g appear; the dropped multiple of
the conserved excitation number contributes only sector-global phases.
All is in units of g, so g = 1, delta is Delta/g, gamma is gamma g, times gt.

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

import math
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
    """Physical parameters of the two-atom/cavity system, in units of g.

    g       coupling strength, fixed at 1
    delta   detuning Delta/g, with Delta = omega_0 - omega (any sign, |delta| <= 1e150)
    lambda_ initial excited population of atom 1, in [0, 1]
    gamma   phase decoherence rate gamma g (>= 0, finite)
    """

    g: float
    delta: float = 0.0
    lambda_: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.g != 1.0:
            raise ValueError("g must be 1 (delta is Delta/g, gamma is gamma g, times are gt), "
                             f"got {self.g}")
        for name in ("delta", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # so that (Omega + |Delta|)^2 cannot overflow
        if not abs(self.delta) <= 1e150:
            raise ValueError(f"|delta| must be at most 1e150, got {abs(self.delta):g}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda_ must be in [0, 1], got {self.lambda_}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.radius < math.inf:
            raise ValueError("the Liouvillian's spectral radius Omega sqrt(1 + (gamma Omega/2)^2) "
                             f"overflows for gamma = {self.gamma:g}, Omega = {self.omega:g}, "
                             "so RK4 has no positive default step")

    @property
    def omega(self) -> float:
        """Generalized Rabi frequency Omega/g = sqrt((Delta/g)^2 + 8)."""
        return float(np.sqrt(self.delta**2 + 8.0))

    @property
    def radius(self) -> float:
        """The Liouvillian's spectral radius, a bound on every decay rate gamma w^2/2."""
        return self.omega * math.hypot(1.0, self.gamma * self.omega / 2.0)

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
    |1,gg>) over g: Delta/g on |0,eg> and |0,ge>, and the coupling 1 between
    each of them and |1,gg>."""
    d = p.delta
    return np.array(
        [[d, 0, 0, 1],
         [0, d, 0, 1],
         [0, 0, 0, 0],
         [1, 1, 0, 0]],
        dtype=complex,
    )


def initial_state(p: SystemParams) -> np.ndarray:
    """rho(0) on the block: vacuum cavity, atom 1 excited with weight
    lambda_, atom 2 ground."""
    return np.diag([p.lambda_, 0.0, 1.0 - p.lambda_, 0.0]).astype(complex)
