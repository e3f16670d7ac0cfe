"""Accuracy of the Wootters concurrence on nearly singular states.

The reference is the eigenvalue route evaluated at 50 digits: the square
roots of the eigenvalues of rho * rho_tilde from mpmath.eig. The states are
built at 50 digits and rounded to float64 only for the library, so the
measured error includes the effect of that rounding.

Two families, each over an admixture weight eps from 1e-4 to 1e-12 and
random local unitaries (which leave the concurrence unchanged):
  near-separable  (1 - eps) |eg><eg| + eps |B+><B+|, concurrence exactly eps
  near-pure       (1 - eps) |psi><psi| + eps I/4, psi = cos t |eg> + sin t |ge>
"""
import mpmath as mp
import numpy as np

from cavityent.metrics import wootters_concurrence_many
from oracles import wootters_concurrence_eigvals

DIGITS = 50
EPSILONS = [10.0**-k for k in range(4, 13)]
STATES_PER_EPS = 6
# worst error measured over 540 such states (numpy 2.4): 1.8e-15 by the
# singular-value route, 2.2e-8 by the eigenvalue route
SVD_ERROR_BOUND = 5e-15


def _kron(a, b):
    out = mp.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def _projector(*amplitudes):
    v = mp.matrix(list(amplitudes))
    return v * v.transpose_conj()


def _local_unitary(rng):
    def su2():
        a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
        half = rng.uniform(0.0, np.pi) / 2
        c, s = mp.cos(half), mp.sin(half)
        return mp.matrix([[c * mp.expj(a), -s * mp.expj(b)],
                          [s * mp.expj(-b), c * mp.expj(-a)]])

    return _kron(su2(), su2())


def concurrence_mp(rho):
    """Wootters concurrence from mpmath.eig of rho * rho_tilde."""
    sy = mp.matrix([[0, -1j], [1j, 0]])
    flip = _kron(sy, sy)
    ev = mp.eig(rho * (flip * rho.conjugate() * flip), left=False, right=False)
    lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in ev), reverse=True)
    return max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def _states(rng):
    """(family, eps, 50-digit state, exact concurrence or None)."""
    eg = _projector(0, 1, 0, 0)
    bell = _projector(0, 1, 1, 0) / 2
    for eps_f in EPSILONS:
        eps = mp.mpf(eps_f)
        for _ in range(STATES_PER_EPS):
            u = _local_unitary(rng)
            sep = u * ((1 - eps) * eg + eps * bell) * u.transpose_conj()
            yield "near-separable", eps_f, sep, eps
            t = rng.uniform(0.1, 1.4)
            psi = _projector(0, mp.cos(t), mp.sin(t), 0)
            pure = u * ((1 - eps) * psi + eps * mp.eye(4) / 4) * u.transpose_conj()
            yield "near-pure", eps_f, pure, None


def test_singular_value_route_against_50_digit_reference():
    rng = np.random.default_rng(2001)
    worst = {"svd": 0.0, "eig": 0.0}
    with mp.workdps(DIGITS):
        for family, eps, rho_mp, exact in _states(rng):
            ref = concurrence_mp(rho_mp)
            if exact is not None:
                # the reference itself is good far below the float64 errors
                assert abs(ref - exact) < mp.mpf(10) ** -25
            rho = np.array(rho_mp.tolist(), dtype=complex)
            svd = abs(wootters_concurrence_many(rho)[0] - float(ref))
            eig = abs(wootters_concurrence_eigvals(rho, clip=-1.0) - float(ref))
            assert svd < SVD_ERROR_BOUND, (family, eps, svd)
            worst["svd"] = max(worst["svd"], svd)
            worst["eig"] = max(worst["eig"], eig)
    print(f"\nworst |C - C_ref|: singular values {worst['svd']:.1e}, "
          f"eigenvalues of rho*rho_tilde {worst['eig']:.1e}")
    # the gain the metrics docstring states: about 7 decimal digits
    assert worst["eig"] > 1e6 * worst["svd"]

