"""Exact check of the dephased reduced state analytic.rho_s_matrices.

On the block (|0,eg>, |0,ge>, |0,gg>, |1,gg>), |0,gg> (energy 0) and
B- = (|0,eg> - |0,ge>)/sqrt(2) (energy Delta) are decoupled eigenstates,
and {B+, |1,gg>} couples through sqrt(2) g: the 2x2 [[Delta, sqrt(2) g],
[sqrt(2) g, 0]] with energies (Delta +- Omega)/2. sympy builds this
eigensystem exactly and verifies it. Each coherence of rho(0) in the
eigenbasis is damped by exp(-gamma w^2 t / 2), the cavity is traced out,
and the result is evaluated to 30 digits at rational parameter points.
"""
import numpy as np
import pytest
import sympy as sp

from cavityent import analytic
from cavityent.model import SystemParams

DELTA, LAM, GAMMA, T = sp.symbols("Delta lambda gamma t", real=True)
G = sp.symbols("g", positive=True)
OMEGA = sp.sqrt(DELTA**2 + 8 * G**2)

H = sp.Matrix([
    [DELTA, 0, 0, G],
    [0, DELTA, 0, G],
    [0, 0, 0, 0],
    [G, G, 0, 0],
])


def _eigensystem():
    s2 = sp.sqrt(2)
    b_plus = sp.Matrix([1, 1, 0, 0]) / s2
    b_minus = sp.Matrix([1, -1, 0, 0]) / s2
    ket_gg = sp.Matrix([0, 0, 1, 0])
    ket_1gg = sp.Matrix([0, 0, 0, 1])
    energies = [sp.Integer(0), DELTA, (DELTA + OMEGA) / 2, (DELTA - OMEGA) / 2]
    doublet = [
        (e * b_plus + s2 * G * ket_1gg) / sp.sqrt(e**2 + 2 * G**2)
        for e in energies[2:]
    ]
    return energies, sp.Matrix.hstack(ket_gg, b_minus, *doublet)


ENERGIES, V = _eigensystem()


def _reduced_state():
    """Exact cavity-traced state in the atomic order (ee, eg, ge, gg)."""
    rho0 = sp.diag(LAM, 0, 1 - LAM, 0)
    rho0_eig = V.T * rho0 * V
    rho_eig = sp.Matrix(4, 4, lambda m, n: rho0_eig[m, n] * sp.exp(
        -sp.I * (ENERGIES[m] - ENERGIES[n]) * T
        - GAMMA * (ENERGIES[m] - ENERGIES[n]) ** 2 * T / 2
    ))
    block = V * rho_eig * V.T
    reduced = sp.zeros(4, 4)
    reduced[1:, 1:] = block[:3, :3]
    reduced[3, 3] += block[3, 3]
    return reduced


_REDUCED = _reduced_state()


def test_eigensystem_is_exact():
    residual = H * V - V * sp.diag(*ENERGIES)
    assert sp.simplify(residual) == sp.zeros(4, 4)
    assert sp.simplify(V.T * V) == sp.eye(4)


R = sp.Rational
# (Delta/g, lambda, gamma*g, gt), g = 1
POINTS = [
    (0, 1, 0, R(7, 3)),
    (R(1, 2), R(7, 10), 0, 50),
    (R(1, 2), 1, R(1, 100), R(123, 4)),
    (1, R(3, 5), R(1, 100), 60),
    (5, R(9, 10), R(1, 10), R(17, 2)),
    (R(-3, 2), R(1, 2), R(1, 50), 40),
    (R(1, 100), 1, 0, R(311, 7)),
    (2, 0, R(1, 3), 5),
    (0, R(2, 5), 1, 3),
    (R(7, 4), R(1, 4), R(1, 1000), 0),
]


@pytest.mark.parametrize("point", POINTS, ids=[f"p{i}" for i in range(len(POINTS))])
def test_rho_s_matrices_matches_exact_state(point):
    delta, lam, gamma, gt = point
    exact = _REDUCED.subs({G: 1, DELTA: delta, LAM: lam, GAMMA: gamma, T: gt})
    want = np.array(exact.evalf(30).tolist(), dtype=complex)
    p = SystemParams(g=1.0, delta=float(delta), lambda_=float(lam), gamma=float(gamma))
    got = analytic.rho_s_matrices(p, float(gt))
    assert np.abs(got - want).max() < 1e-13
