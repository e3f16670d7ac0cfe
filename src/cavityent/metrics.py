"""State functionals of any two-qubit state: concurrence, linear entropy,
purity, CHSH violation. Each takes one 4x4 density matrix or an (n, 4, 4)
stack, checked by cavityent.linalg.as_state_stack, and returns one value per
state. The sweeps read theirs off the X-state (cavityent.trajectory); these
general routes serve the MEMS audit, the acceptance gate and the tests.

The Wootters eigenvalues lambda_i are computed as the singular values of
K = L^T (sigma_y (x) sigma_y) L with rho = L L^dagger, which is algebraically
identical to the square roots of the eigenvalues of rho*rho_tilde but avoids
taking square roots of near-zero eigenvalues of a non-Hermitian product.
Measured against a 50-digit mpmath reference on near-pure and
near-separable states (admixture weight 1e-4 to 1e-12), this route errs by
at most 1.8e-15 and the eigenvalue route by up to 2.2e-8: about 7 decimal
digits gained (tests/test_precision.py).
"""
from __future__ import annotations

import numpy as np

from .linalg import as_state_stack
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, SPIN_FLIP

_PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# stacked sigma_n (x) sigma_m, row-major in (n, m)
_PAULI_PAIRS = np.stack(
    [np.kron(sn, sm) for sn in _PAULI for sm in _PAULI]
)


def wootters_concurrence_many(states) -> np.ndarray:
    """Wootters concurrence."""
    rhos = as_state_stack(states)
    w, v = np.linalg.eigh(rhos)
    w = np.clip(w, 0.0, None)
    ell = v * np.sqrt(w)[..., None, :]
    k = np.swapaxes(ell, -1, -2) @ SPIN_FLIP @ ell
    s = np.linalg.svd(k, compute_uv=False)
    c = s[..., 0] - s[..., 1:].sum(axis=-1)
    return np.maximum(c, 0.0)


def purity_many(states) -> np.ndarray:
    """Tr rho^2."""
    rhos = as_state_stack(states)
    return np.einsum("tab,tba->t", rhos, rhos).real


def linear_entropy_many(states) -> np.ndarray:
    """M = (4/3)(1 - Tr rho^2)."""
    return 4.0 / 3.0 * (1.0 - purity_many(states))


def bell_max_many(states) -> np.ndarray:
    """Maximal CHSH value 2*sqrt(k1 + k2).

    k1, k2 are the two largest eigenvalues of T^T T, i.e. the squares of the
    two largest singular values of the correlation matrix
    T[n, m] = Tr(rho sigma_n (x) sigma_m).
    """
    rhos = as_state_stack(states)
    t = np.einsum("pij,tji->tp", _PAULI_PAIRS, rhos).real.reshape(-1, 3, 3)
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * np.sqrt(s[:, 0] ** 2 + s[:, 1] ** 2)
