"""Time-grid sweeps producing metric trajectories.

A sweep takes the reduced two-atom states on a uniform grid of scaled times
from one of three sources:

  analytic  closed-form reduced states (analytic.rho_s_matrices)
  spectral  exact spectral solution of the master equation, cavity-traced
  rk4       fixed-step RK4 integration of the master equation (cross-check)

and reads (concurrence, linear entropy, maximal CHSH value, purity) off
them in one X-state read-out for every source. Raw metrics must be finite
and lie in their physical ranges within 1e-9; they are then clipped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, evolution
from .frontier import (
    BELL_FRONTIER,
    CURVE_KINDS,
    MEMS_CM,
    TSIRELSON,
    FrontierCurve,
    _distance_bounds,
    mems_linear_entropy,
    plane_tree,
)
from .model import SystemParams, check_times

ANALYTIC = "analytic"
SPECTRAL = "spectral"
RK4 = "rk4"

# each source's (n, 4, 4) reduced states, with the solvers looked up at call
# time so that a wrapper installed on the module attribute sees every call
_REDUCED_STATES = {
    ANALYTIC: lambda p, gts: analytic.rho_s_matrices(p, gts),
    SPECTRAL: lambda p, gts: evolution.reduce_to_atoms(evolution.evolve_spectral_grid(p, gts)),
    RK4: lambda p, gts: evolution.reduce_to_atoms(evolution.evolve_rk4_grid(p, gts)),
}
SOURCES = tuple(_REDUCED_STATES)


@dataclass(frozen=True)
class Trajectory:
    params: SystemParams
    source: str
    gt: np.ndarray
    concurrence: np.ndarray
    linear_entropy: np.ndarray
    bell_max: np.ndarray
    purity: np.ndarray

    def __len__(self) -> int:
        return len(self.gt)

    def plane_points(self, kind: str = "mems") -> np.ndarray:
        """(M, C) points, or (M, |B|max) for the Bell frontier kind."""
        if kind not in CURVE_KINDS:
            raise ValueError(f"unknown plane kind {kind!r}; expected one of {CURVE_KINDS}")
        value = self.bell_max if kind == BELL_FRONTIER else self.concurrence
        return np.column_stack([self.linear_entropy, value])


_RANGE_SLACK = 1e-9
_RANGES = {
    "concurrence": (0.0, 1.0),
    "linear_entropy": (0.0, 1.0),
    "bell_max": (0.0, TSIRELSON),
    "purity": (0.25, 1.0),
}


def _clip_to_ranges(raw: dict) -> dict:
    """Each raw metric clipped into its range; ValueError if it holds a
    non-finite value or strays outside by more than _RANGE_SLACK."""
    out = {}
    for name, values in raw.items():
        lo, hi = _RANGES[name]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has non-finite values")
        if values.min() < lo - _RANGE_SLACK or values.max() > hi + _RANGE_SLACK:
            raise ValueError(
                f"{name} out of range [{values.min()}, {values.max()}]"
            )
        out[name] = np.clip(values, lo, hi)
    return out


def _x_state_readout(states: np.ndarray) -> dict:
    """The four raw sweep metrics of an (n, 4, 4) stack of X-states with an
    empty |ee> level, keyed like _RANGES; ValueError if any entry but the
    diagonal and the eg-ge coherence is nonzero, naming non-finite states
    (a solver overflow) as the cause where there are any.

    Then C = 2|rho_eg,ge| (Wootters), and the correlation matrix has the
    singular values C (twice) and |T_zz|, T_zz = rho_ee - rho_eg - rho_ge +
    rho_gg, so the Horodecki criterion gives 2 sqrt(C^2 + max(C^2, T_zz^2)).
    T_zz is taken from the whole diagonal, not as 2 rho_gg - 1, which
    assumes trace one. Tr rho^2 is the squared diagonal's sum plus
    2|rho_eg,ge|^2 = C^2/2 (Yu & Eberly), and M = (4/3)(1 - Tr rho^2).
    """
    # |ee>, |eg>, |ge>, |gg> at indices 0..3; views, so the stack is not copied
    off_x = (states[:, 0], states[:, :, 0], states[:, 1:3, 3], states[:, 3, 1:3])
    if any(block.any() for block in off_x):
        if not np.isfinite(states).all():
            raise ValueError("the solver produced non-finite reduced states")
        raise ValueError("reduced states are not X-states with an empty |ee> level")
    conc = 2.0 * np.abs(states[:, 1, 2])
    diag = np.diagonal(states, axis1=1, axis2=2).real
    t_zz = diag[:, 0] - diag[:, 1] - diag[:, 2] + diag[:, 3]
    purity = (diag**2).sum(axis=1) + conc**2 / 2.0
    return {
        "concurrence": conc,
        "linear_entropy": 4.0 / 3.0 * (1.0 - purity),
        "bell_max": 2.0 * np.sqrt(conc**2 + np.maximum(conc**2, t_zz**2)),
        "purity": purity,
    }


def sweep(
    p: SystemParams, gt_max: float, n_steps: int, source: str = ANALYTIC
) -> Trajectory:
    """Uniform time-grid sweep of all trajectory metrics."""
    if check_times(gt_max) == 0:
        raise ValueError("gt_max must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    gts = np.linspace(0.0, gt_max, n_steps)
    # an overflow shows up as non-finite states, which the read-out and the
    # range check report, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _x_state_readout(_REDUCED_STATES[source](p, gts))
    return Trajectory(params=p, source=source, gt=gts, **_clip_to_ranges(raw))


def mirror_symmetry_check(traj: Trajectory, curve: FrontierCurve) -> float:
    """Mirror asymmetry score of the (M, C) pattern.

    The score is the symmetric Hausdorff distance between the trajectory's
    plane points and their mirror image about the horizontal axis at half
    the MEMS concurrence corresponding to the initial linear entropy; a
    small score means the pattern is close to mirror symmetric. The
    reflection is an isometry and its own inverse, so the two directed
    distances are equal and one directed query gives the score; only the
    reflected points whose distance bounds (frontier._distance_bounds) can
    reach the largest one are queried exactly. Undefined for a pure initial
    state, lambda = 0 or 1 (the initial linear entropy (8/3) lambda
    (1 - lambda) is 0 and the axis degenerates).
    """
    if not 0.0 < traj.params.lambda_ < 1.0:
        raise ValueError("mirror axis undefined unless 0 < lambda_ < 1")
    if curve.kind != MEMS_CM:
        raise ValueError(f"mirror axis is defined by the MEMS curve, not {curve.kind!r}")
    m0 = float(traj.linear_entropy[0])
    axis = float(np.interp(m0, curve.points[:, 0], curve.points[:, 1])) / 2.0
    pts = traj.plane_points()
    reflected = pts.copy()
    reflected[:, 1] = 2.0 * axis - reflected[:, 1]
    tree = plane_tree(pts)
    lower, upper = _distance_bounds(tree, reflected)
    return float(tree.query(reflected[upper >= lower.max()])[0].max())


def initial_linear_entropy(p: SystemParams) -> float:
    """Linear entropy of the t = 0 reduced state, (8/3) lambda (1 - lambda)."""
    return 8.0 / 3.0 * p.lambda_ * (1.0 - p.lambda_)


def min_mems_distance(traj: Trajectory) -> float:
    """Smallest Euclidean (M, C)-plane distance to the MEMS frontier,
    sampled at 4097 points; only the samples whose distance bounds
    (frontier._distance_bounds) can reach the smallest one are queried."""
    c = np.linspace(1.0, 0.0, 4097)
    curve_pts = np.column_stack([mems_linear_entropy(c), c])
    tree = plane_tree(traj.plane_points())
    lower, upper = _distance_bounds(tree, curve_pts)
    return float(tree.query(curve_pts[lower <= upper.min()])[0].min())


__all__ = [
    "ANALYTIC",
    "SPECTRAL",
    "RK4",
    "SOURCES",
    "Trajectory",
    "sweep",
    "mirror_symmetry_check",
    "initial_linear_entropy",
    "min_mems_distance",
]
