import dataclasses
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from cavityent import analytic, evolution, frontier, metrics, trajectory
from cavityent.frontier import TSIRELSON, coverage, mems_curve, werner_curve
from cavityent.model import SystemParams


def params(**kw):
    kw.setdefault("g", 1.0)
    return SystemParams(**kw)


class TestSweep:
    def test_grid_and_initial_point(self):
        traj = trajectory.sweep(params(delta=0.5), 50.0, 501)
        assert len(traj) == 501
        assert traj.gt[0] == 0.0
        assert traj.gt[-1] == 50.0
        assert traj.concurrence[0] == pytest.approx(0.0, abs=1e-12)
        assert traj.purity[0] == pytest.approx(1.0)
        assert traj.bell_max[0] == pytest.approx(2.0)

    def test_initial_linear_entropy_matches_closed_form(self):
        for lam in [0.3, 0.6, 0.9, 1.0]:
            p = params(delta=0.5, lambda_=lam)
            traj = trajectory.sweep(p, 10.0, 11)
            assert traj.linear_entropy[0] == pytest.approx(
                trajectory.initial_linear_entropy(p), abs=1e-12
            )

    def test_sources_agree(self):
        p = params(delta=0.5, lambda_=0.8, gamma=0.01)
        a = trajectory.sweep(p, 5.0, 21, source=trajectory.ANALYTIC)
        s = trajectory.sweep(p, 5.0, 21, source=trajectory.SPECTRAL)
        r = trajectory.sweep(p, 5.0, 21, source=trajectory.RK4)
        for field in ["concurrence", "linear_entropy", "bell_max", "purity"]:
            av, sv, rv = (getattr(t, field) for t in (a, s, r))
            assert np.abs(av - sv).max() < 1e-8
            assert np.abs(sv - rv).max() < 1e-6

    def test_resonant_peak_concurrence(self):
        p = params(delta=0.0)
        traj = trajectory.sweep(p, 50.0, 5001)
        assert traj.concurrence.max() == pytest.approx(0.5, abs=1e-4)
        assert traj.bell_max.max() <= 2.0 + 1e-9

    def test_out_of_range_raw_metric_raises(self, monkeypatch):
        # a raw value outside the physical range must not be clipped away
        def too_large(eg_eg, ge_ge, gg_gg, eg_ge):
            n = len(eg_eg)
            return {"concurrence": np.zeros(n), "linear_entropy": np.zeros(n),
                    "bell_max": np.full(n, TSIRELSON + 1e-6)}

        monkeypatch.setattr(trajectory, "_x_entry_readout", too_large)
        with pytest.raises(ValueError, match="bell_max"):
            trajectory.sweep(params(delta=0.5), 10.0, 11)

    @pytest.mark.parametrize("name, lo, hi", [
        ("concurrence", 0.0, 1.0), ("linear_entropy", 0.0, 1.0), ("bell_max", 0.0, TSIRELSON),
    ])
    def test_raw_metric_within_slack_is_clipped(self, monkeypatch, name, lo, hi):
        # rounding may carry a raw value up to 1e-9 past its range: it is
        # accepted and clipped onto the bound
        def slightly_beyond(eg_eg, ge_ge, gg_gg, eg_ge):
            raw = {key: np.full(len(eg_eg), 0.5) for key in ("concurrence", "linear_entropy",
                                                             "bell_max")}
            raw[name][0::2] = hi + 5e-10
            raw[name][1::2] = lo - 5e-10
            return raw

        monkeypatch.setattr(trajectory, "_x_entry_readout", slightly_beyond)
        column = getattr(trajectory.sweep(params(delta=0.5), 10.0, 11), name)
        assert np.array_equal(column, np.where(np.arange(11) % 2, lo, hi))

    def test_sweep_calls_no_general_metric(self, monkeypatch):
        # all four columns come from the X-state read-out, for every source,
        # and the numeric sources read their entries straight off the block
        # states, without building the cavity-traced matrices
        def refuse(*args, **kwargs):
            raise AssertionError("sweep called a general metric or the cavity trace")

        names = [name for name, fn in vars(metrics).items()
                 if callable(fn) and getattr(fn, "__module__", None) == metrics.__name__]
        assert "purity_many" in names and "linear_entropy_many" in names
        for name in names:
            monkeypatch.setattr(metrics, name, refuse)
        monkeypatch.setattr(evolution, "reduce_to_atoms", refuse)
        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        for source in trajectory.SOURCES:
            traj = trajectory.sweep(p, 5.0, 21, source=source)
            assert traj.purity[0] == pytest.approx(0.58)

    def test_readout_rejects_non_x_states(self):
        # the tests' read-out of whole reduced stacks checks all 11 entries
        # outside the X pattern
        general = frontier.random_two_qubit_states(8, np.random.default_rng(3))
        with pytest.raises(ValueError, match="X-states"):
            oracles.x_state_readout(general)
        # one tiny entry anywhere outside the X pattern is enough
        x = analytic.rho_s_matrices(params(delta=0.5, lambda_=0.7), np.linspace(0, 9, 4))
        oracles.x_state_readout(x)
        outside = [(i, j) for i in range(4) for j in range(4)
                   if 0 in (i, j) or {i, j} in ({1, 3}, {2, 3})]
        assert len(outside) == 11
        for i, j in outside:
            bad = x.copy()
            bad[2, i, j] = 1e-300j
            with pytest.raises(ValueError, match="X-states"):
                oracles.x_state_readout(bad)

    @pytest.mark.parametrize("solver, source", [("evolve_spectral_grid", trajectory.SPECTRAL),
                                                ("evolve_rk4_grid", trajectory.RK4)])
    @pytest.mark.parametrize("entry, match", [(1e-300j, "X-states"), (np.nan, "non-finite")])
    def test_numeric_sources_keep_the_x_pattern_check(
            self, monkeypatch, solver, source, entry, match):
        # one block entry that the cavity trace puts at |eg><gg|, outside the X pattern
        solve = getattr(evolution, solver)

        def corrupted(p, gts):
            states = solve(p, gts)
            states[2, 0, 2] = entry
            return states

        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        trajectory.sweep(p, 5.0, 21, source=source)
        monkeypatch.setattr(evolution, solver, corrupted)
        with pytest.raises(ValueError, match=match):
            trajectory.sweep(p, 5.0, 21, source=source)

    def test_spectral_sweep_checks_the_last_block(self, monkeypatch):
        # the spectral source runs in blocks of times: a bad entry in the
        # last, partial block must still fail the X-pattern check
        solve = evolution.evolve_spectral_grid
        n_steps = 2 * trajectory._BLOCK + 1
        gt_max = 50.0

        def corrupted(p, gts):
            states = solve(p, gts)
            if gts[-1] == gt_max:
                states[-1, 0, 2] = 1e-300j
            return states

        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        monkeypatch.setattr(evolution, "evolve_spectral_grid", corrupted)
        with pytest.raises(ValueError, match="X-states"):
            trajectory.sweep(p, gt_max, n_steps, source=trajectory.SPECTRAL)

    def test_sweep_columns_are_read_only(self):
        # a Trajectory caches its plane index, which must not go stale; the
        # purity is a new array at every read, so a write into one changes
        # no later read
        traj = trajectory.sweep(params(delta=0.5), 10.0, 11)
        for name in ("gt", "plane", "concurrence", "linear_entropy", "bell_max"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(traj, name)[0] = 0.5
        purity = traj.purity
        purity[0] = 0.5
        assert traj.purity[0] == 1.0

    def test_direct_trajectory_does_not_go_stale(self):
        # a write into the caller's plane after a plane reduction must not
        # leave the cached index answering for other points than the columns
        rng = np.random.default_rng(5)
        plane = rng.uniform(0.0, 8.0 / 9.0, (100, 2))
        fresh = oracles.plane_trajectory(plane[:, 0], plane[:, 1])
        traj = dataclasses.replace(fresh, plane=plane)
        trajectory.min_mems_distance(traj)
        plane[:, 1] = 0.0
        assert trajectory.min_mems_distance(traj) == trajectory.min_mems_distance(fresh)

    def test_direct_trajectory_copies_a_plane_view(self):
        # a read-only view's base stays writable for the caller, so only a
        # read-only plane that owns its data is kept as it is
        rng = np.random.default_rng(7)
        owned = rng.uniform(0.0, 8.0 / 9.0, (1000, 2))
        view = owned.view()
        view.flags.writeable = False
        traj = oracles.plane_trajectory(owned[:, 0], owned[:, 1])
        traj = dataclasses.replace(traj, plane=view)
        fresh = dataclasses.replace(traj, plane=owned.copy())
        trajectory.min_mems_distance(traj)
        owned[:] = rng.uniform(0.0, 8.0 / 9.0, (1000, 2))
        assert not np.shares_memory(traj.plane, owned)
        assert trajectory.min_mems_distance(traj) == trajectory.min_mems_distance(fresh)

    @pytest.mark.parametrize("name, column", [("plane", 0), ("plane", 1), ("gt", ...),
                                              ("bell_max", ...)],
                             ids=["0-linear entropy M", "1-concurrence C", "gt", "bell_max"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(1e150, 2e150), -1e200])
    def test_trajectory_rejects_non_finite_plane_points(self, name, column, bad):
        # refused when built, before a NaN could reach the index's cell codes
        # or a coordinate past frontier.PLANE_LIMIT overflow a squared distance;
        # the times and the CHSH maxima are held to the same rule (column ...
        # indexes a 1-D array by its row alone)
        given = {"gt": np.arange(5.0), "plane": np.full((5, 2), 0.25),
                 "bell_max": np.full(5, 2.0)}
        given[name][3, column] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be finite and within 1e\+150$"):
            trajectory.Trajectory(params(delta=0.5), **given)

    def test_direct_trajectory_copies_every_writable_array(self):
        # every writable array is stored as a frozen copy, and the caller's
        # arrays stay writable
        rng = np.random.default_rng(6)
        given = {"gt": np.arange(100.0), "plane": rng.uniform(0.0, 8.0 / 9.0, (100, 2)),
                 "bell_max": rng.uniform(0.0, TSIRELSON, 100)}
        traj = trajectory.Trajectory(params(delta=0.5), **given)
        for name, array in given.items():
            stored = getattr(traj, name)
            assert not np.shares_memory(stored, array)
            assert np.array_equal(stored, array)
            assert not stored.flags.writeable
            assert array.flags.writeable

    def test_trajectory_keeps_read_only_columns(self):
        traj = trajectory.sweep(params(delta=0.5), 10.0, 11)
        again = trajectory.Trajectory(
            params=traj.params, gt=traj.gt, plane=traj.plane, bell_max=traj.bell_max)
        for name in ("gt", "plane", "bell_max"):
            assert getattr(again, name) is getattr(traj, name)

    def test_trajectory_rejects_misshapen_columns(self):
        # every column is 1-D with one entry per time, and plane has one
        # (M, C) row per time: a misshapen array fails when the Trajectory
        # is built, not inside a later reduction
        traj = trajectory.sweep(params(delta=0.5), 10.0, 100)
        for name in ("gt", "bell_max"):
            column = getattr(traj, name)
            bad = [column[:, None], column[0]] + ([] if name == "gt" else [column[:50]])
            for value in bad:
                with pytest.raises(ValueError, match=f"^{name} must be 1-D"):
                    dataclasses.replace(traj, **{name: value})
        for value in (traj.concurrence, np.zeros((100, 3)), traj.plane[:-1]):
            with pytest.raises(ValueError, match=r"^plane must have shape \(100, 2\)"):
                dataclasses.replace(traj, plane=value)

    @pytest.mark.parametrize("source", trajectory.SOURCES)
    def test_sweep_peak_memory(self, source):
        # every source yields the four X-state entries block by block into
        # the columns, which are clipped in place: the peak is one block's
        # temporaries (1 MiB for a numeric source) beside the four stored columns
        p = params(delta=0.5)
        trajectory.sweep(p, 500.0, 101, source=source)
        tracemalloc.start()
        try:
            traj = trajectory.sweep(p, 500.0, 50001, source=source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = (traj.gt, traj.concurrence, traj.linear_entropy, traj.bell_max)
        bound = 2.0 if source == trajectory.ANALYTIC else 2.5
        assert peak <= bound * sum(column.nbytes for column in returned)

    def test_rk4_sweep_across_blocks(self):
        # each RK4 block is integrated from t = 0 on its own: across three
        # blocks the sweep stays within RK4's tolerance of the spectral
        # solution and close to one RK4 run carried over the whole grid
        p = params(delta=0.5, lambda_=0.7, gamma=0.01)
        n_steps = 2 * trajectory._BLOCK + 1
        rk4 = trajectory.sweep(p, 500.0, n_steps, source=trajectory.RK4)
        spectral = trajectory.sweep(p, 500.0, n_steps, source=trajectory.SPECTRAL)
        reduced = evolution.reduce_to_atoms(evolution.evolve_rk4_grid(p, rk4.gt))
        whole = trajectory._clip_to_ranges(oracles.x_state_readout(reduced))
        for name, column in whole.items():
            assert np.abs(getattr(rk4, name) - getattr(spectral, name)).max() < 1e-6
            assert np.abs(getattr(rk4, name) - column).max() < 1e-9

    def test_non_finite_raw_metric_raises(self):
        # NaN fails every range comparison, so it is checked on its own
        for bad in (np.nan, np.inf, -np.inf):
            raw = {"concurrence": np.array([0.5, bad]), "purity": np.ones(2)}
            with pytest.raises(ValueError, match="concurrence"):
                trajectory._clip_to_ranges(raw)

    def test_rejects_bad_args(self):
        p = params()
        with pytest.raises(ValueError):
            trajectory.sweep(p, 0.0, 100)
        for gt_max in (np.nan, np.inf):
            with pytest.raises(ValueError):
                trajectory.sweep(p, gt_max, 100)
        with pytest.raises(ValueError):
            trajectory.sweep(p, 10.0, 1)
        with pytest.raises(ValueError):
            trajectory.sweep(p, 10.0, 100, source="euler")


class TestPlanePatterns:
    def test_coverage_shrinks_with_detuning(self):
        curve = mems_curve(1001)
        near = trajectory.sweep(params(delta=0.5), 500.0, 20001)
        far = trajectory.sweep(params(delta=5.0), 500.0, 20001)
        rep_near = coverage(near, curve, epsilon=0.02)
        rep_far = coverage(far, curve, epsilon=0.02)
        assert rep_near.fraction_covered > rep_far.fraction_covered

    def test_mirror_symmetry_small_for_mixed_start(self):
        p = params(delta=0.5, lambda_=0.7)
        traj = trajectory.sweep(p, 500.0, 20001)
        score = trajectory.mirror_symmetry_check(traj, mems_curve(2001))
        assert score < 0.05

    @pytest.mark.parametrize("lambda_", [1.0, 0.0])
    def test_mirror_check_rejects_pure_start(self, lambda_):
        # both ends are pure: the initial linear entropy (8/3) lambda
        # (1 - lambda) vanishes at lambda = 0 and at lambda = 1
        traj = trajectory.sweep(params(delta=0.5, lambda_=lambda_), 10.0, 51)
        with pytest.raises(ValueError, match="lambda"):
            trajectory.mirror_symmetry_check(traj, mems_curve(101))

    @pytest.mark.parametrize("build", [frontier.bell_frontier, werner_curve],
                             ids=["bell", "werner"])
    def test_mirror_check_rejects_other_curves(self, build):
        # the axis is half the MEMS concurrence at the initial entropy
        traj = trajectory.sweep(params(delta=0.5, lambda_=0.7), 10.0, 51)
        with pytest.raises(ValueError, match="MEMS"):
            trajectory.mirror_symmetry_check(traj, build(101))

    def test_mirror_check_rejects_m0_outside_the_curve(self):
        # interpolation would clamp M = 0.95 to the curve's end at 8/9
        traj = oracles.plane_trajectory(np.array([0.95, 0.5]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match=r"m0 = 0\.95 .*\[0\.0, 0\.888"):
            trajectory.mirror_symmetry_check(traj, mems_curve(5))

    def test_mirror_check_rejects_a_grid_not_starting_at_zero(self):
        # the axis is read off the t = 0 point, so a sweep cut to start at
        # gt = 1 would be scored about another axis
        traj = trajectory.sweep(params(delta=0.5, lambda_=0.7), 10.0, 101)
        cut = trajectory.Trajectory(traj.params, traj.gt[10:], traj.plane[10:],
                                    traj.bell_max[10:])
        with pytest.raises(ValueError, match=r"gt starts at 1\.0"):
            trajectory.mirror_symmetry_check(cut, mems_curve(2001))

    def test_entropy_dip_below_initial_for_low_lambda(self):
        # lambda = 0.6 dips below its starting mixedness, 0.7 and 0.9 do not
        dips = {}
        for lam in [0.6, 0.7, 0.9]:
            p = params(delta=0.5, lambda_=lam)
            traj = trajectory.sweep(p, 500.0, 50001)
            m0 = trajectory.initial_linear_entropy(p)
            dips[lam] = float(traj.linear_entropy.min()) < m0 - 1e-6
        assert dips == {0.6: True, 0.7: False, 0.9: False}

    def test_tree_holds_the_plane_points(self):
        traj = trajectory.sweep(params(delta=0.5), 10.0, 51)
        pts = traj.tree.data
        assert pts.shape == (51, 2)
        assert np.array_equal(pts[:, 0], traj.linear_entropy)
        assert np.array_equal(pts[:, 1], traj.concurrence)


def nearest_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact distance from each query to its nearest point, by brute force
    over all pairs (in chunks of queries, to bound memory). The squared
    distances are formed in place and the square root is taken after the
    minimum, which it does not change."""
    out = np.empty(len(queries))
    for i in range(0, len(queries), 512):
        dx = queries[i:i + 512, 0, None] - points[None, :, 0]
        dy = queries[i:i + 512, 1, None] - points[None, :, 1]
        dx *= dx
        dy *= dy
        dx += dy
        out[i:i + 512] = dx.min(axis=1)
    return np.sqrt(out)


def random_trajectory(seed: int, n: int, repeats: int) -> trajectory.Trajectory:
    """n random (M, C) points, the whole set repeated ``repeats`` times."""
    rng = np.random.default_rng(seed)
    m = np.tile(rng.uniform(0.0, 8.0 / 9.0, n), repeats)
    c = np.tile(rng.uniform(0.0, 1.0, n), repeats)
    return oracles.plane_trajectory(m, c)


PLANE_CASES = {
    "one-point": lambda: random_trajectory(0, 1, 1),
    "two-points-retraced": lambda: random_trajectory(1, 2, 3),
    "random-40": lambda: random_trajectory(2, 40, 1),
    "random-300": lambda: random_trajectory(3, 300, 1),
    "random-25-retraced-40x": lambda: random_trajectory(4, 25, 40),
    # periodic (Delta = 0): the points retrace one closed curve
    "resonant-sweep": lambda: trajectory.sweep(
        params(delta=0.0, lambda_=0.7), 500.0, 5001
    ),
}


@pytest.mark.parametrize("case", PLANE_CASES)
def test_plane_analytics_match_brute_force(case):
    traj = PLANE_CASES[case]()
    pts = np.column_stack([traj.linear_entropy, traj.concurrence])
    for curve in (mems_curve(257), werner_curve(257)):
        dist = nearest_distances(frontier._polyline_resample(curve.points), pts)
        rep = coverage(traj, curve, epsilon=0.02)
        assert rep.min_distance == pytest.approx(dist.min(), abs=1e-12)
        assert rep.fraction_covered == pytest.approx(
            np.mean(dist <= 0.02), abs=1e-12
        )

    c = np.linspace(1.0, 0.0, 4097)
    mems_pts = np.column_stack([frontier.mems_linear_entropy(c), c])
    assert trajectory.min_mems_distance(traj) == pytest.approx(
        nearest_distances(mems_pts, pts).min(), abs=1e-12
    )

    curve = mems_curve(257)
    axis = np.interp(traj.linear_entropy[0], *curve.points.T) / 2.0
    reflected = pts * [1.0, -1.0] + [0.0, 2.0 * axis]
    hausdorff = max(
        nearest_distances(pts, reflected).max(),
        nearest_distances(reflected, pts).max(),
    )
    assert trajectory.mirror_symmetry_check(traj, curve) == pytest.approx(
        hausdorff, abs=1e-12
    )


def test_empty_trajectory_is_refused_when_built():
    # so no plane reduction meets one, where coverage would have no nearest
    # distance, min_mems_distance would read inf and the mirror score would
    # find no initial point; one point is enough for all three
    with pytest.raises(ValueError, match="at least one time"):
        oracles.plane_trajectory(np.empty(0), np.empty(0))
    traj = oracles.plane_trajectory(np.array([0.3]), np.array([0.4]))
    curve = mems_curve(257)
    for value in (
        coverage(traj, curve, epsilon=0.02).min_distance,
        trajectory.min_mems_distance(traj),
        trajectory.mirror_symmetry_check(traj, curve),
    ):
        assert np.isfinite(value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 15, 16, 17, 2 * trajectory._BLOCK + 1]) | st.integers(18, 3000),
    repeats=st.integers(1, 3),
    duplicated=st.booleans(),
    shuffled=st.booleans(),
    pick=st.floats(0.0, 1.0),
)
# always a mirror over several blocks of _BLOCK points, in curve order, where
# later blocks can leave no candidate
@example(seed=0, n=2 * trajectory._BLOCK + 1, repeats=1, duplicated=False, shuffled=False, pick=0.5)
@example(seed=1, n=2 * trajectory._BLOCK + 1, repeats=3, duplicated=True, shuffled=False, pick=0.5)
# the smallest sizes, one to seventeen points, on every run
@example(seed=2, n=1, repeats=1, duplicated=False, shuffled=False, pick=0.5)
@example(seed=3, n=2, repeats=2, duplicated=True, shuffled=False, pick=0.3)
@example(seed=4, n=15, repeats=1, duplicated=False, shuffled=True, pick=0.7)
@example(seed=5, n=16, repeats=1, duplicated=False, shuffled=False, pick=0.2)
@example(seed=6, n=17, repeats=1, duplicated=False, shuffled=False, pick=0.9)
@example(seed=7, n=17, repeats=2, duplicated=True, shuffled=True, pick=0.5)
def test_pruned_reductions_equal_unpruned_queries(seed, n, repeats, duplicated, shuffled, pick):
    # a smooth closed-looking curve, retraced, with points doubled, in
    # curve order or shuffled: the capped queries of coverage and of the
    # MEMS distance and the mirror score's seeds must give the reductions
    # of the exact distances, whatever the order
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, rng.uniform(1.0, 60.0), n)
    w, phase = rng.uniform(0.2, 3.0, 2), rng.uniform(0.0, 2 * np.pi, 2)
    m = 0.45 + 0.4 * np.sin(w[0] * t + phase[0])
    c = 0.5 + 0.45 * np.sin(w[1] * t + phase[1])
    m, c = np.tile(m, repeats), np.tile(c, repeats)
    if duplicated:
        m, c = np.repeat(m, 2), np.repeat(c, 2)
    if shuffled:
        order = rng.permutation(len(m))
        m, c = m[order], c[order]
    traj = oracles.plane_trajectory(m, c)
    pts = np.column_stack([m, c])

    curve = mems_curve(257)
    axis = np.interp(m[0], *curve.points.T) / 2.0
    reflected = pts * [1.0, -1.0] + [0.0, 2.0 * axis]
    assert trajectory.mirror_symmetry_check(traj, curve) == traj.tree.query(reflected).max()

    c_knots = np.linspace(1.0, 0.0, 4097)
    mems_pts = np.column_stack([frontier.mems_linear_entropy(c_knots), c_knots])
    assert trajectory.min_mems_distance(traj) == traj.tree.query(mems_pts).min()

    for curve in (mems_curve(257), werner_curve(257)):
        dist = traj.tree.query(frontier._polyline_resample(curve.points))
        # epsilon exactly one of the distances: the cap is a tie
        epsilon = float(np.sort(dist)[int(pick * (len(dist) - 1))])
        assume(epsilon > 0.0)
        rep = coverage(traj, curve, epsilon=epsilon)
        assert rep.min_distance == dist.min()
        assert rep.fraction_covered == np.mean(dist <= epsilon)


def plane_points(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n (M, C)-like points of one kind: random, random out to the plane
    limit with the first on a corner of it, near-duplicate piles (a few
    places, each retraced to within 1e-13), on a line with one axis of zero
    span, or all identical."""
    if kind == "random":
        return rng.uniform(0.0, 1.0, (n, 2))
    if kind == "far":
        points = rng.uniform(-frontier.PLANE_LIMIT, frontier.PLANE_LIMIT, (n, 2))
        points[0] = rng.choice([-1.0, 1.0], 2) * frontier.PLANE_LIMIT
        return points
    if kind == "piles":
        places = rng.uniform(0.0, 1.0, (max(1, n // 40), 2))
        return places[rng.integers(0, len(places), n)] + rng.uniform(-1e-13, 1e-13, (n, 2))
    if kind == "flat":
        points = np.column_stack([rng.uniform(0.0, 1.0, n), np.full(n, rng.uniform())])
        return points[:, ::rng.choice([1, -1])]
    return np.full((n, 2), rng.uniform(0.0, 1.0, 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "far", "piles", "flat", "identical"]),
    n=st.sampled_from([1, 31, 32, 33, 127, 128, 129, 1023, 1024, 1025]) | st.integers(2, 3000),
    cap=st.sampled_from([0.0, "a distance", 1e-300, 1e200, np.float64(sys.float_info.max), np.inf]),
    count=st.sampled_from([0, 1, 400]),
)
@example(seed=0, kind="random", n=1, cap=0.0, count=400)
@example(seed=1, kind="piles", n=1025, cap="a distance", count=400)
@example(seed=2, kind="flat", n=32, cap=1e-300, count=1)
@example(seed=3, kind="identical", n=129, cap=np.float64(sys.float_info.max), count=0)
@example(seed=4, kind="far", n=300, cap=1e200, count=400)
def test_index_distances_equal_brute_force(seed, kind, n, cap, count):
    # queries inside the points' box, on the points and up to 100 units
    # outside it; the index's distances are the brute-force ones bit for
    # bit, and the seeds bound them from above, also with points out to the
    # plane limit, whose squared distances reach 8e300 without overflow
    rng = np.random.default_rng(seed)
    points = plane_points(kind, n, rng)
    traj = oracles.plane_trajectory(points[:, 0], points[:, 1])
    lo, hi = points.min(axis=0), points.max(axis=0)
    on = points[rng.integers(0, n, 100)]
    queries = np.concatenate([rng.uniform(lo, hi, (200, 2)), on,
                              rng.uniform(lo - 100.0, hi + 100.0, (100, 2))])
    exact = traj.tree.query(queries)
    assert np.array_equal(exact, nearest_distances(queries, points))
    seeds = traj.tree.seeds(queries)
    assert np.all(seeds >= exact)
    # a point's seed is 0 unless another point shares its 16-bit cell,
    # which only piles and points on a line do
    if kind in ("random", "identical"):
        assert np.all(traj.tree.seeds(on) == 0.0)
    # the first count queries capped: exact up to the cap or their smallest
    # seed, and above the cap but not above the exact distance elsewhere
    if isinstance(cap, str):
        cap = exact[rng.integers(0, len(exact))]
    capped = traj.tree.query(queries[:count], cap)
    exact = exact[:count]
    sure = exact <= max(cap, seeds[:count].min(initial=np.inf))
    assert np.array_equal(capped[sure], exact[sure])
    assert np.all(capped <= exact)
    assert np.all(capped[~sure] > cap)
    for bad in (-1e-300, np.nan):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            traj.tree.query(queries[:count], bad)


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_coverage_and_mems_distance_working_memory(delta):
    # the index prunes at most a few thousand (query, box) pairs and scans
    # a few hundred leaves at once, so coverage and the MEMS distance stay,
    # like the mirror score, below the size of the (n, 2) plane array
    traj = trajectory.sweep(params(delta=delta, lambda_=0.7), 500.0, 50001)
    tree = traj.tree
    for reduce in (lambda: coverage(traj, mems_curve(257), epsilon=0.02),
                   lambda: coverage(traj, werner_curve(257), epsilon=0.02),
                   lambda: trajectory.min_mems_distance(traj)):
        tracemalloc.start()
        try:
            reduce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tree.data.nbytes


def test_plane_reductions_load_no_scipy():
    code = (
        "import sys\n"
        "from cavityent import frontier, trajectory\n"
        "from cavityent.model import SystemParams\n"
        "traj = trajectory.sweep(SystemParams(g=1.0, delta=0.5, lambda_=0.7), 50.0, 5001)\n"
        "mems = frontier.mems_curve(257)\n"
        "frontier.coverage(traj, mems, 0.02)\n"
        "frontier.coverage(traj, frontier.werner_curve(257), 0.02)\n"
        "trajectory.min_mems_distance(traj)\n"
        "trajectory.mirror_symmetry_check(traj, mems)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"


def counting_index(monkeypatch) -> list:
    """Make each trajectory's plane index add the number of queries it
    answers to the last entry of the returned list."""
    build = trajectory.PlaneIndex
    asked = []

    class CountingIndex:
        def __init__(self, points):
            self.index = build(points)

        def query(self, queries, cap=np.inf):
            asked[-1] += len(queries)
            return self.index.query(queries, cap)

        def __getattr__(self, name):
            return getattr(self.index, name)

    monkeypatch.setattr(trajectory, "PlaneIndex", CountingIndex)
    return asked


def test_plane_reductions_query_a_fraction_of_their_rows(monkeypatch):
    # on the periodic Delta = 0 sweep an unpruned query scans all 1 563
    # leaves of 32 points; the seeds, the caps and the box descent leave
    # each reduction at most 10 leaf scans per query, seeds included
    # (measured: 6.3 for the MEMS coverage, 6.9 for the Werner coverage,
    # 7.8 for the MEMS distance and 1.0 for the mirror score)
    scan = trajectory.PlaneIndex._leaf_sq
    scanned = []

    def counting_scan(self, qx, qy, leaves):
        scanned[-1] += len(leaves)
        return scan(self, qx, qy, leaves)

    monkeypatch.setattr(trajectory.PlaneIndex, "_leaf_sq", counting_scan)
    traj = trajectory.sweep(params(delta=0.0, lambda_=0.7), 500.0, 50001)
    curve = mems_curve(257)
    for reduce, queries in (
        (lambda: coverage(traj, curve, epsilon=0.02), 4096),
        (lambda: coverage(traj, werner_curve(257), epsilon=0.02), 4096),
        (lambda: trajectory.min_mems_distance(traj), 4097),
        (lambda: trajectory.mirror_symmetry_check(traj, curve), 50001),
    ):
        scanned.append(0)
        reduce()
        assert 0 < scanned[-1] <= 10 * queries


def test_mirror_score_queries_few_rows_exactly(monkeypatch):
    # at Delta = 0.5 the score is only 0.004, below most chords between
    # neighbouring points, but above nearly every seed: 226 of 50 001
    # reflected points are queried exactly (42 280 with distance bounds)
    asked = counting_index(monkeypatch)
    traj = trajectory.sweep(params(delta=0.5, lambda_=0.7), 500.0, 50001)
    asked.append(0)
    trajectory.mirror_symmetry_check(traj, mems_curve(257))
    assert 0 < asked[-1] < 1000


def test_plane_reductions_share_one_tree(monkeypatch):
    # the MEMS and Werner coverage, the MEMS distance and the mirror score
    # of one sweep all query the trajectory's one cached (M, C) index
    build = trajectory.PlaneIndex
    built = []

    def counting_build(points):
        built.append(len(points))
        return build(points)

    monkeypatch.setattr(trajectory, "PlaneIndex", counting_build)
    traj = trajectory.sweep(params(delta=0.5, lambda_=0.7), 50.0, 5001)
    mems = mems_curve(257)
    coverage(traj, mems, epsilon=0.02)
    coverage(traj, werner_curve(257), epsilon=0.02)
    trajectory.min_mems_distance(traj)
    trajectory.mirror_symmetry_check(traj, mems)
    assert built == [5001]


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_mirror_score_working_memory(delta):
    # the reflected points are scored block by block, so the mirror score's
    # temporaries stay below the size of the (n, 2) plane array
    traj = trajectory.sweep(params(delta=delta, lambda_=0.7), 500.0, 50001)
    curve = mems_curve(257)
    tree = traj.tree
    tracemalloc.start()
    try:
        trajectory.mirror_symmetry_check(traj, curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tree.data.nbytes


def test_plane_reductions_keep_one_copy_of_the_points():
    # the index is built over the sweep's read-only (n, 2) plane array
    # without a copy, and M and C are views of its two columns
    traj = trajectory.sweep(params(delta=0.5, lambda_=0.7), 50.0, 5001)
    trajectory.min_mems_distance(traj)
    assert traj.tree.data is traj.plane
    for column in (traj.linear_entropy, traj.concurrence):
        assert column.base is traj.plane


class TestDephasedSweep:
    @pytest.mark.parametrize("delta, lambda_, gamma", [
        (0.5, 0.7, 0.0), (0.0, 1.0, 0.0), (5.0, 0.6, 0.0), (1.0, 0.9, 0.01), (-2.0, 0.3, 0.2),
    ])
    def test_concurrence_is_the_closed_form_bit_for_bit(self, delta, lambda_, gamma):
        # the closed form is the sweep's own 2|rho_eg,ge|, so what the tests
        # and the acceptance gate check is exactly what a CSV prints
        p = params(delta=delta, lambda_=lambda_, gamma=gamma)
        traj = trajectory.sweep(p, 500.0, 50001)
        want = np.clip(analytic.concurrence_dephased(p, traj.gt), 0.0, 1.0)
        assert np.array_equal(traj.concurrence, want)

    def test_purity_decays_toward_stationary_mixture(self):
        p = params(delta=0.0, gamma=0.05)
        traj = trajectory.sweep(p, 2000.0, 2001)
        assert traj.purity[-1] < traj.purity[0]
        # stationary reduced state: eigenprojector mixture of the
        # single-excitation doublet plus the ground population
        assert traj.concurrence[-1] == pytest.approx(
            analytic.stationary_concurrence(p), abs=1e-6
        )

