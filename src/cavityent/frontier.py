"""Reference curves and plane analytics in the (linear entropy, value) plane.

Curves:
  * Werner: p |B+><B+| + (1-p) I/4, p in [1/3, 1].
  * MEMS:   the standard concurrence-vs-linear-entropy frontier family,
    validated in-repo by an optimization/sampling oracle rather than trusted.
  * Bell frontier: closed-form upper envelope of the maximal CHSH value vs
    linear entropy, audited in the tests by sampling and local search.

Also: epsilon-coverage of a frontier by a trajectory, and continued-fraction
classification of Delta/Omega (floating-point ratios are always rational;
"irrational" is operationalized relative to a tolerance and a denominator
horizon).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import SystemParams

TSIRELSON = 2.0 * np.sqrt(2.0)
# plane coordinates are refused beyond it, so no squared distance overflows
PLANE_LIMIT = 1e150


def frozen_plane_array(values, name: str) -> np.ndarray:
    """values as a read-only float array, copied if writable or not owning its
    data; ValueError naming ``name`` if one is non-finite or beyond PLANE_LIMIT."""
    array = np.asarray(values, dtype=float)
    # NaN fails every comparison, and min and max allocate nothing
    if not -PLANE_LIMIT <= array.min(initial=0.0) <= array.max(initial=0.0) <= PLANE_LIMIT:
        raise ValueError(f"{name} must be finite and within {PLANE_LIMIT:g}")
    if array.flags.writeable or not array.flags.owndata:
        array = array.copy()
        array.flags.writeable = False
    return array


def clipped_within(values: np.ndarray, lo: float, hi: float, slack: float, name: str):
    """values clipped in place onto [lo, hi]; ValueError naming ``name`` if one is
    non-finite (NaN fails the one comparison) or lies more than ``slack`` outside."""
    if values.size and not lo - slack <= values.min() <= values.max() <= hi + slack:
        raise ValueError(f"{name} must be finite and within [{lo:g}, {hi:g}], "
                         f"got [{values.min()}, {values.max()}]")
    return np.clip(values, lo, hi, out=values)


WERNER = "werner"
MEMS_CM = "mems"
BELL_FRONTIER = "bell"
CURVE_KINDS = (WERNER, MEMS_CM, BELL_FRONTIER)

EFFECTIVELY_RATIONAL = "EFFECTIVELY_RATIONAL"
EFFECTIVELY_IRRATIONAL = "EFFECTIVELY_IRRATIONAL"


@dataclass(frozen=True)
class FrontierCurve:
    """Sampled boundary curve: points[:, 0] = linear entropy (increasing),
    points[:, 1] = frontier value (concurrence or CHSH maximum)."""

    kind: str
    points: np.ndarray

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}; expected one of {CURVE_KINDS}")
        pts = frozen_plane_array(self.points, f"{self.kind} curve points")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError(f"curve needs an (n, 2) array with n >= 2, got shape {pts.shape}")
        if np.any(pts[1:, 0] <= pts[:-1, 0]):
            raise ValueError("linear entropy must be strictly increasing")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class CoverageReport:
    min_distance: float
    fraction_covered: float


@dataclass(frozen=True)
class RationalityReport:
    ratio: float
    convergents: list[tuple[int, int]]
    best_q: int | None

    @property
    def classification(self) -> str:
        return EFFECTIVELY_IRRATIONAL if self.best_q is None else EFFECTIVELY_RATIONAL


def _owned_curve(kind: str, points: np.ndarray) -> FrontierCurve:
    """A curve from a builder's fresh points, made read-only so that they are stored uncopied."""
    points.flags.writeable = False
    return FrontierCurve(kind, points)


def werner_curve(n_points: int) -> FrontierCurve:
    """(M, C) curve of Werner states for p in [1/3, 1]."""
    p = np.linspace(1.0, 1.0 / 3.0, n_points)  # M increases as p drops
    m = 1.0 - p * p
    c = (3.0 * p - 1.0) / 2.0
    return _owned_curve(WERNER, np.column_stack([m, c]))


def mems_linear_entropy(c) -> np.ndarray:
    """Linear entropy of the MEMS with concurrence c (branchwise closed form)."""
    c = np.asarray(c, dtype=float)
    return np.where(
        c >= 2.0 / 3.0,
        8.0 / 3.0 * c * (1.0 - c),
        8.0 / 9.0 - 2.0 / 3.0 * c * c,
    )


def mems_concurrence_at(m) -> np.ndarray:
    """Frontier concurrence at linear entropy m (inverse of the MEMS curve)."""
    m = clipped_within(np.array(m, dtype=float), 0.0, 8.0 / 9.0, 1e-12, "linear entropy")
    upper = (1.0 + np.sqrt(np.clip(1.0 - 1.5 * m, 0.0, None))) / 2.0
    lower = np.sqrt(np.clip(1.5 * (8.0 / 9.0 - m), 0.0, None))
    out = np.where(m <= 16.0 / 27.0, upper, lower)
    return out if out.ndim else float(out)


def mems_curve(n_points: int) -> FrontierCurve:
    """(M, C) frontier curve sampled over c in [0, 1]."""
    c = np.linspace(1.0, 0.0, n_points)  # M increases as c drops
    m = mems_linear_entropy(c)
    return _owned_curve(MEMS_CM, np.column_stack([m, c]))


def random_two_qubit_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure states mixed with I/4 at uniform weight; shape (n, 4, 4)."""
    vec = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    pure = vec[:, :, None] * vec.conj()[:, None, :]
    x = rng.uniform(0.0, 1.0, size=n)[:, None, None]
    return (1.0 - x) * pure + x * np.eye(4)[None] / 4.0


def mems_oracle_excess(samples: int, seed: int) -> float:
    """Optimization oracle for the MEMS curve.

    Draws seeded random states, locally perturbs the 32 closest to the
    frontier, and reports the worst excess of concurrence over the curve.
    A positive return larger than ~1e-3 would mean the closed-form family
    is not actually the frontier.
    """
    # imported here: only the oracles need the general-state metrics
    from .metrics import linear_entropy_many, wootters_concurrence_many

    rng = np.random.default_rng(seed)
    states = random_two_qubit_states(samples, rng)
    m = linear_entropy_many(states)
    c = wootters_concurrence_many(states)
    gap = mems_concurrence_at(np.clip(m, 0.0, 8.0 / 9.0)) - c
    worst = -float(gap.min())
    # hill-climb from the closest states
    for idx in np.argsort(gap)[:32]:
        rho = states[idx]
        best_gap = gap[idx]
        scale = 0.02  # shrunk by 0.9 after each rejected step
        for _ in range(200):
            pert = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            pert = (pert + pert.conj().T) / 2.0
            cand = rho + scale * pert
            w, v = np.linalg.eigh(cand)
            w = np.clip(w, 0.0, None)
            cand = (v * w) @ v.conj().T
            cand /= cand.trace().real
            g = float(
                mems_concurrence_at(
                    np.clip(linear_entropy_many(cand[None])[0], 0.0, 8.0 / 9.0)
                )
                - wootters_concurrence_many(cand[None])[0]
            )
            if g < best_gap:
                best_gap, rho = g, cand
            else:
                scale *= 0.9
        worst = max(worst, -best_gap)
    return worst


def bell_envelope_candidate(m) -> np.ndarray:
    """Maximal CHSH value over all two-qubit states at linear entropy m.

    By the Horodecki criterion |B|^2 is 4 times the sum of the two largest
    squared singular values of the correlation matrix T. Maximizing it over
    the Bell-diagonal tetrahedron at fixed purity gives |B|^2 = 4(2 - 3M/2)
    for M <= 2/3 (two-Bell-state mixtures) and |B|^2 = 12(1 - M) above
    (rank-deficient T, t3 = 0); cf. Munro, Nemoto & White, J. Mod. Opt. 48,
    1239 (2001). That no other state lies above it is audited in the tests.
    """
    m = np.asarray(m, dtype=float)
    return np.where(
        m <= 2.0 / 3.0,
        2.0 * np.sqrt(np.clip(2.0 - 1.5 * m, 0.0, None)),
        2.0 * np.sqrt(np.clip(3.0 * (1.0 - m), 0.0, None)),
    )


def bell_frontier(n_points: int) -> FrontierCurve:
    """Upper envelope of the maximal CHSH value vs linear entropy.

    The closed-form envelope (bell_envelope_candidate) on a uniform M grid
    over [0, 1]. For n_points >= 3 the interior knot nearest to the branch
    point M = 2/3 is moved onto it; two points are just the endpoints 0
    and 1.
    """
    grid = np.linspace(0.0, 1.0, n_points)
    # keep the branch point an exact knot so squared-value interpolation
    # is exact on both branches; the endpoints stay 0 and 1
    interior = grid[1:-1]
    if interior.size:
        interior[np.argmin(np.abs(interior - 2.0 / 3.0))] = 2.0 / 3.0
    return _owned_curve(
        BELL_FRONTIER, np.column_stack([grid, bell_envelope_candidate(grid)])
    )


def _polyline_resample(points: np.ndarray) -> np.ndarray:
    """Resample a polyline uniformly by arc length to 4096 points."""
    n = 4096
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    u = np.linspace(0.0, s[-1], n)
    x = np.interp(u, s, points[:, 0])
    y = np.interp(u, s, points[:, 1])
    return np.column_stack([x, y])


def coverage(traj, curve: FrontierCurve, epsilon: float) -> CoverageReport:
    """Epsilon-coverage of a MEMS or Werner ``curve`` by a Trajectory's
    (M, C) points.

    The curve is resampled to 4096 points by arc length; the covered
    fraction is the share of them within epsilon of a trajectory point.
    One PlaneIndex query capped at epsilon is exact at or below epsilon,
    above it elsewhere and exact at the smallest distance, so both numbers
    equal those of all 4096 exact distances.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError("epsilon must be positive and finite")
    if curve.kind not in (MEMS_CM, WERNER):
        raise ValueError(f"coverage needs a MEMS or Werner curve, not {curve.kind!r}")
    dense = _polyline_resample(curve.points)
    dist = traj.tree.query(dense, cap=epsilon)
    # uniform arc-length resampling: covered fraction is a sample mean
    return CoverageReport(
        min_distance=float(dist.min()),
        fraction_covered=np.count_nonzero(dist <= epsilon) / len(dense),
    )


def continued_fraction_convergents(x: Fraction, q_max: int) -> list[tuple[int, int]]:
    """Convergents (p, q) of x with q <= q_max, in lowest terms, q increasing."""
    convergents: list[tuple[int, int]] = []
    a0 = x.numerator // x.denominator  # floor
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    rem = x - a0
    while q_cur <= q_max:
        convergents.append((p_cur, q_cur))
        if rem == 0:
            break
        x = 1 / rem
        a = x.numerator // x.denominator
        rem = x - a
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
    return convergents


def classify_ratio(p: SystemParams, tol: float, q_max: int) -> RationalityReport:
    """Continued-fraction rationality report for Delta/Omega."""
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError("tol must be positive and finite")
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    ratio = p.delta / p.omega
    exact = Fraction(ratio)
    convergents = continued_fraction_convergents(exact, q_max)
    # the first convergent within tol, else the best approximation with a
    # denominator up to q_max if that is within tol
    best_q = next((q for pq, q in convergents if abs(ratio - pq / q) < tol), None)
    best = exact.limit_denominator(q_max)
    if best_q is None and abs(ratio - best.numerator / best.denominator) < tol:
        best_q = best.denominator
    return RationalityReport(ratio=ratio, convergents=convergents, best_q=best_q)
