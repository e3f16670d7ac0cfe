"""Time-grid sweeps producing metric trajectories.

A sweep takes the entries (rho_eg,eg, rho_ge,ge, rho_gg,gg, rho_eg,ge) of
the reduced two-atom X-states on a uniform grid of scaled times from one
of three sources:

  analytic  closed-form entries (analytic.x_state_entries)
  spectral  exact spectral solution of the master equation, cavity-traced
  rk4       fixed-step RK4 integration of the master equation (cross-check)

and reads (concurrence, linear entropy, maximal CHSH value) off them in
one read-out for every source, in blocks of _BLOCK times whose temporaries
do not grow with the grid; an RK4 block starts from t = 0. Numeric block
states must trace to X-states (evolution.traced_x_entries). Raw metrics
must be finite and lie in their physical ranges within 1e-9; they are then
clipped. A trajectory stores gt_max, the plane and bell_max, read-only.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic, evolution, frontier
from .frontier import MEMS_CM, TSIRELSON, FrontierCurve, frozen_plane_array, mems_curve
from .model import SystemParams, check_times

ANALYTIC = "analytic"
SPECTRAL = "spectral"
RK4 = "rk4"

# times per block, so a block's temporaries (1 MiB for the spectral factor
# or the RK4 states, each (4096, 16) complex) are the same for every grid
_BLOCK = 4096
_MIRROR_QUERIES = 64  # reflected points that the mirror score queries at a time

# each source's X-state entries (rho_eg,eg, rho_ge,ge, rho_gg,gg, rho_eg,ge)
# at a block of times, with the functions looked up at call time so that a
# wrapper installed on the module attribute sees every call
_X_STATE_ENTRIES = {
    ANALYTIC: lambda p, gts: analytic.x_state_entries(p, gts),
    SPECTRAL: lambda p, gts: evolution.traced_x_entries(evolution.evolve_spectral_grid(p, gts)),
    RK4: lambda p, gts: evolution.traced_x_entries(evolution.evolve_rk4_grid(p, gts)),
}
SOURCES = tuple(_X_STATE_ENTRIES)


@dataclass(frozen=True)
class Trajectory:
    params: SystemParams
    gt_max: float
    plane: np.ndarray
    bell_max: np.ndarray
    # the sweep's uniform grid of scaled times from 0, M and C as read-only
    # views of the (n, 2) plane's columns, and Tr rho^2 = 1 - (3/4) M
    gt = property(lambda self: np.linspace(0.0, self.gt_max, len(self)))
    linear_entropy = property(lambda self: self.plane[:, 0])
    concurrence = property(lambda self: self.plane[:, 1])
    purity = property(lambda self: 1.0 - 0.75 * self.plane[:, 0])

    def __post_init__(self):
        # checked and stored read-only, so no write can leave the cached index stale
        for name in ("plane", "bell_max"):
            object.__setattr__(self, name, frozen_plane_array(getattr(self, name), name))
        if self.bell_max.ndim != 1 or self.plane.shape != (len(self.bell_max), 2):
            raise ValueError("plane and bell_max must have shapes (n, 2) and (n,), "
                             f"got {self.plane.shape} and {self.bell_max.shape}")
        if len(self.plane) == 0:
            raise ValueError("a trajectory needs at least one time")
        object.__setattr__(self, "gt_max", float(check_times(evolution._single_time(self.gt_max))))

    def __len__(self) -> int:
        return len(self.plane)

    @cached_property
    def tree(self):
        """PlaneIndex over the (M, C) points, built at the first use and shared
        by the MEMS and Werner coverage, min_mems_distance and the mirror score."""
        return PlaneIndex(self.plane)


# the plane index's points per leaf, Morton cells per axis and pairs pruned at once
_LEAF = 32
_CELLS = 65535.0
_PAIRS = 2048


class PlaneIndex:
    """Exact nearest-neighbour distances to fixed (n, 2) points, numpy only.

    The points (``data``, not copied) are sorted by the Morton code of their
    16-bit cells into leaves of _LEAF, the last padded with its last point,
    under a 4-ary hierarchy of bounding boxes. A query's seed, its distance
    to the nearest point of the leaf that its code falls in, bounds its
    nearest distance from above (0 on a point sharing its cell with no
    other). ``query`` descends from the seed, or from the cap's bound if
    lower, _PAIRS (query, box) pairs at a time: a box's farthest corner
    lowers the squared bound, and a box not nearer than the bound is
    dropped; the leaves left give the minimum of dx*dx + dy*dy. Rounding is
    monotone, so the box bounds hold for the rounded distances and an
    uncapped answer is the brute-force one bit for bit.
    """

    def __init__(self, points: np.ndarray):
        self.data = points
        self._lo = points.min(axis=0)
        span = points.max(axis=0) - self._lo
        self._scale = np.divide(_CELLS, span, out=np.zeros(2), where=span > 0)
        codes = self._codes(points)
        order = np.argsort(codes, kind="stable")
        order = np.concatenate([order, np.repeat(order[-1:], -len(order) % _LEAF)])
        self._first = codes[order[::_LEAF]]
        self._x, self._y = (points[order, k].reshape(-1, _LEAF) for k in (0, 1))
        # a box is (lo_x, lo_y, -hi_x, -hi_y), so a parent is the minimum of
        # its children and an empty box is all inf
        levels = [np.stack([self._x.min(1), self._y.min(1), -self._x.max(1), -self._y.max(1)])]
        while levels[-1].shape[1] > 1:
            levels[-1] = np.pad(levels[-1], ((0, 0), (0, -levels[-1].shape[1] % 4)),
                                constant_values=np.inf)
            levels.append(levels[-1].reshape(4, -1, 4).min(axis=2))
        self._levels = levels[::-1]

    def _codes(self, q: np.ndarray) -> np.ndarray:
        cells = q - self._lo
        cells *= self._scale
        np.clip(cells, 0.0, _CELLS, out=cells)
        # each cell index's 16 bits spread to the even bits, then x and y interleaved
        code = cells.astype(np.uint32)
        for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
            code = (code | (code << shift)) & mask
        return code[:, 0] | (code[:, 1] << 1)

    def _leaf_sq(self, qx, qy, leaves) -> np.ndarray:
        """Squared distance from each query to the nearest point of its leaf."""
        out = np.empty(len(leaves))
        for lo in range(0, len(leaves), _PAIRS // 8):
            part = slice(lo, lo + _PAIRS // 8)
            dx, dy = self._x[leaves[part]], self._y[leaves[part]]
            dx -= qx[part, None]
            dy -= qy[part, None]
            dx *= dx
            dy *= dy
            dx += dy
            dx.min(axis=1, out=out[part])
        return out

    def _seed_sq(self, q: np.ndarray) -> np.ndarray:
        """Each query's squared seed."""
        leaf = np.searchsorted(self._first, self._codes(q), side="right") - 1
        return self._leaf_sq(q[:, 0], q[:, 1], np.maximum(leaf, 0))

    def _descend(self, qx, qy, bound, depth, owner, box) -> None:
        """Lower each query's squared bound, in place, to the least squared
        distance under its (query, box) pairs at depth, depth first (pruning
        in _prune, so that its temporaries are freed before the recursion)."""
        owner, box = _prune(qx, qy, bound, self._levels[depth][:, box], owner, box)
        if depth == len(self._levels) - 1:
            np.minimum.at(bound, owner, self._leaf_sq(qx[owner], qy[owner], box))
            return
        for lo in range(0, len(owner), _PAIRS // 4):
            part = slice(lo, lo + _PAIRS // 4)
            self._descend(qx, qy, bound, depth + 1, np.repeat(owner[part], 4),
                          (4 * box[part, None] + np.arange(4)).ravel())

    def query(self, queries: np.ndarray, cap: float = np.inf) -> np.ndarray:
        """Distance from each (n, 2) query to its nearest point, capped: the
        squared bounds start at most at C = max(smallest seed^2, the square of
        the double after ``cap``, the least normal double), so sqrt(C) > cap.
        The descent lowers a bound only to squared distances or box corners,
        never below the exact d^2, so each answer is sqrt(min(d^2, C)): exact
        where d is at most ``cap`` or the smallest seed, above ``cap`` and at
        most d elsewhere, and exact everywhere at the default cap, inf."""
        if not cap >= 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        queries = frozen_plane_array(queries, "queries")
        bound = self._seed_sq(queries)
        after = math.nextafter(cap, math.inf)
        np.minimum(bound, max(bound.min(initial=np.inf), after * after, sys.float_info.min),
                   out=bound)
        for lo in range(0, len(queries), _PAIRS):
            owner = np.arange(lo, min(lo + _PAIRS, len(queries)))
            self._descend(queries[:, 0], queries[:, 1], bound, 0, owner, np.zeros_like(owner))
        return np.sqrt(bound, out=bound)

    def seeds(self, queries: np.ndarray) -> np.ndarray:
        """Each query's seed, an upper bound on its nearest distance."""
        return np.sqrt(self._seed_sq(frozen_plane_array(queries, "queries")))


def _prune(qx, qy, bound, boxes, owner, box):
    """The (query, box) pairs whose box distance is below the query's squared
    bound, after lowering that bound to each box's farthest corner."""
    x, y = qx[owner], qy[owner]
    # lo - q and q - hi = (-hi) + q on each axis: the far corner is the larger
    # magnitude, and q lies outside the box where either one is positive
    lo_x, lo_y, hi_x, hi_y = boxes[0] - x, boxes[1] - y, boxes[2] + x, boxes[3] + y
    far_x = np.maximum(np.abs(lo_x), np.abs(hi_x))
    far_y = np.maximum(np.abs(lo_y), np.abs(hi_y))
    np.minimum.at(bound, owner, far_x * far_x + far_y * far_y)
    near_x = np.maximum(np.maximum(lo_x, hi_x), 0.0)
    near_y = np.maximum(np.maximum(lo_y, hi_y), 0.0)
    keep = near_x * near_x + near_y * near_y < bound[owner]
    return owner[keep], box[keep]


_RANGE_SLACK = 1e-9
_RANGES = {
    "concurrence": (0.0, 1.0),
    "linear_entropy": (0.0, 1.0),
    "bell_max": (0.0, TSIRELSON),
}


def _clip_to_ranges(raw: dict) -> dict:
    """raw, each metric of _RANGES clipped in place onto its range."""
    for name, (lo, hi) in _RANGES.items():
        frontier.clipped_within(raw[name], lo, hi, _RANGE_SLACK, name)
    return raw


def _x_entry_readout(eg_eg, ge_ge, gg_gg, eg_ge) -> dict:
    """The three raw sweep metrics of X-states with an empty |ee> level, from
    their entries, keyed like _RANGES.

    C = 2|rho_eg,ge| (Wootters), and the correlation matrix has the
    singular values C (twice) and |T_zz|, T_zz = rho_gg - rho_eg - rho_ge,
    so the Horodecki criterion gives 2 sqrt(C^2 + max(C^2, T_zz^2)).
    T_zz is taken from the diagonal, not as 2 rho_gg - 1, which assumes
    trace one. Tr rho^2 is the squared diagonal's sum plus
    2|rho_eg,ge|^2 = C^2/2 (Yu & Eberly), and M = (4/3)(1 - Tr rho^2).
    """
    conc = 2.0 * np.abs(eg_ge)
    t_zz = -eg_eg - ge_ge + gg_gg
    purity = eg_eg**2 + ge_ge**2 + gg_gg**2 + conc**2 / 2.0
    return {
        "concurrence": conc,
        "linear_entropy": 4.0 / 3.0 * (1.0 - purity),
        "bell_max": 2.0 * np.sqrt(conc**2 + np.maximum(conc**2, t_zz**2)),
    }


def sweep(
    p: SystemParams, gt_max: float, n_steps: int, source: str = ANALYTIC
) -> Trajectory:
    """Uniform time-grid sweep of all trajectory metrics; ValueError past
    the phase-precision bound eps (Omega + |Delta|) gt_max <= 1e-8, and for
    rk4 past its rounding bound eps gamma gt_max <= 4e-11."""
    if check_times(gt_max) == 0:
        raise ValueError("gt_max must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    # every source computes its phases, up to (Omega + |Delta|) gt, in doubles
    phase_error = evolution.EPS * (p.omega + abs(float(p.delta))) * float(gt_max)
    if phase_error > evolution.ROUNDING_TOL:
        raise ValueError(
            f"gt_max = {gt_max:g} is past the phase-precision bound: "
            f"eps (Omega + |Delta|) gt_max = {phase_error:.3g} > {evolution.ROUNDING_TOL:g}"
        )
    gts = np.linspace(0.0, gt_max, n_steps)
    entries = _X_STATE_ENTRIES[source]
    plane = np.empty((n_steps, 2))
    raw = {"concurrence": plane[:, 1], "linear_entropy": plane[:, 0],
           "bell_max": np.empty(n_steps)}
    # an overflow shows up as non-finite states, which the read-out and the
    # range check report, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, _BLOCK):
            part = _x_entry_readout(*entries(p, gts[lo:lo + _BLOCK]))
            for name, values in part.items():
                raw[name][lo:lo + _BLOCK] = values
    _clip_to_ranges(raw)
    for column in (plane, raw["bell_max"]):
        column.flags.writeable = False
    return Trajectory(p, float(gt_max), plane, raw["bell_max"])


def mirror_symmetry_check(traj: Trajectory, curve: FrontierCurve) -> float:
    """Mirror asymmetry score of the (M, C) pattern.

    The score is the symmetric Hausdorff distance between the trajectory's
    plane points and their mirror image about the horizontal axis at half
    the MEMS concurrence corresponding to the initial linear entropy; a
    small score means the pattern is close to mirror symmetric. The
    reflection is an isometry and its own inverse, so the two directed
    distances are equal and one directed query gives the score.

    The points are reflected in blocks of _BLOCK, so the temporaries do not
    grow with the trajectory, and the score is kept as a running maximum.
    Each reflected point's seed (PlaneIndex.seeds) bounds its nearest
    distance from above. While some seed in the block lies above the score,
    the _MIRROR_QUERIES largest such points are queried exactly and the score
    is raised to their largest distance. The score is always an exact
    distance and a point never queried lies within its seed, so within the
    score: it equals the largest nearest distance of all reflected points.
    Undefined for a pure initial state, lambda = 0 or 1 (the initial linear
    entropy (8/3) lambda (1 - lambda) is 0 and the axis degenerates), and
    for an initial linear entropy outside the curve's span, where
    interpolation would clamp.
    """
    if not 0.0 < traj.params.lambda_ < 1.0:
        raise ValueError("mirror axis undefined unless 0 < lambda_ < 1")
    if curve.kind != MEMS_CM:
        raise ValueError(f"mirror axis is defined by the MEMS curve, not {curve.kind!r}")
    m0 = float(traj.linear_entropy[0])
    m_lo, m_hi = curve.points[0, 0], curve.points[-1, 0]
    if not m_lo <= m0 <= m_hi:
        raise ValueError(f"m0 = {m0} lies outside the MEMS curve's span [{m_lo}, {m_hi}]")
    axis = float(np.interp(m0, curve.points[:, 0], curve.points[:, 1])) / 2.0
    score = 0.0
    for lo in range(0, len(traj), _BLOCK):
        reflected = traj.plane[lo:lo + _BLOCK] * (1.0, -1.0)
        reflected += (0.0, 2.0 * axis)
        seeds = traj.tree.seeds(reflected)
        while (above := np.flatnonzero(seeds > score)).size:
            top = above[np.argsort(seeds[above])[-_MIRROR_QUERIES:]]
            seeds[top] = traj.tree.query(reflected[top])
            score = max(score, seeds[top].max())
    return float(score)


def initial_linear_entropy(p: SystemParams) -> float:
    """Linear entropy of the t = 0 reduced state, (8/3) lambda (1 - lambda)."""
    return 8.0 / 3.0 * p.lambda_ * (1.0 - p.lambda_)


def min_mems_distance(traj: Trajectory) -> float:
    """Smallest Euclidean (M, C)-plane distance to the MEMS frontier,
    sampled at 4097 points: one query capped at 0, exact at its minimum,
    which lies within the smallest seed."""
    return float(traj.tree.query(mems_curve(4097).points, cap=0.0).min())
