from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import oracles
from cavityent import frontier, metrics, trajectory
from cavityent.model import SystemParams

_BELL_KETS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) / np.sqrt(2)
_BELL_PROJECTORS = np.einsum("ka,kb->kab", _BELL_KETS, _BELL_KETS.conj())


def bell_diagonal(x):
    """Bell-diagonal state with weights |x| (normalized here)."""
    w = np.abs(x)
    return np.tensordot(w / w.sum(), _BELL_PROJECTORS, 1)


def general_state(x):
    """Full-rank state A A^dagger / Tr from 32 real parameters."""
    a = (x[:16] + 1j * x[16:]).reshape(4, 4)
    rho = a @ a.conj().T
    return rho / rho.trace().real


def envelope_excess_search(build, starts, m_target, maxfev):
    """Nelder-Mead search for a large CHSH value near linear entropy m_target.

    Returns the largest excess over the Bell envelope among the results,
    each measured at its own linear entropy.
    """

    def objective(x):
        rho = build(x)[None]
        m = metrics.linear_entropy_many(rho)[0]
        return -(metrics.bell_max_many(rho)[0] - 1600.0 * (m - m_target) ** 2)

    worst = -np.inf
    for x0 in starts:
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-13},
        )
        rho = build(res.x)[None]
        m = metrics.linear_entropy_many(rho)[0]
        excess = metrics.bell_max_many(rho)[0] - frontier.bell_envelope_candidate(m)
        worst = max(worst, float(excess))
    return worst


def project_to_states(h):
    """Nearest positive, trace-one matrices to Hermitian h (..., 4, 4):
    negative eigenvalues are set to zero, then the trace is scaled to 1."""
    w, v = np.linalg.eigh(h)
    rho = (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def mems_x_states(rng, n_c=1001, scales=(1e-2, 1e-3, 1e-5, 1e-7), repeats=3):
    """X-states around the MEMS family: the |ee>, |eg> and |gg> populations
    and the |ee><gg| coherence of oracles.mems_matrix(c) perturbed, |ge>
    left empty (so the rank is at most 3), projected back onto states."""
    base = np.stack([oracles.mems_matrix(c) for c in np.linspace(0.0, 1.0, n_c)])
    out = []
    for scale in scales:
        for _ in range(repeats):
            h = base.copy()
            for i in (0, 1, 3):
                h[:, i, i] += scale * rng.standard_normal(n_c)
            dz = scale * (rng.standard_normal(n_c) + 1j * rng.standard_normal(n_c))
            h[:, 0, 3] += dz
            h[:, 3, 0] += dz.conj()
            out.append(project_to_states(h))
    return np.concatenate(out)


def hilbert_schmidt_states(n, rng, k=4):
    """G G^dagger / Tr with G a 4 x k complex Ginibre matrix: the
    Hilbert-Schmidt measure for k = 4, the induced measure of rank k below
    (Zyczkowski & Sommers, J. Phys. A 34, 7111 (2001))."""
    g = rng.standard_normal((n, 4, k)) + 1j * rng.standard_normal((n, 4, k))
    rho = g @ np.swapaxes(g, -1, -2).conj()
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestFrontierCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            frontier.FrontierCurve("werner", np.zeros((1, 2)))
        with pytest.raises(ValueError):
            frontier.FrontierCurve("werner", np.array([[0.0, 1.0], [0.0, 0.5]]))

    def test_rejects_unknown_kind(self):
        # coverage and the mirror score read the kind to refuse a curve of
        # another plane; a typo must not pass for one of theirs
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        for kind in ("bel", "MEMS", ""):
            with pytest.raises(ValueError, match="kind"):
                frontier.FrontierCurve(kind, pts)
        for kind in frontier.CURVE_KINDS:
            assert frontier.FrontierCurve(kind, pts).kind == kind

    def test_rejects_non_finite_points(self):
        # NaN fails every comparison, so the monotonicity check alone passes
        # it; a knot past the plane limit would overflow a squared distance
        for bad in (np.nan, np.inf, np.nextafter(1e150, 2e150), -1e200):
            for idx in ((0, 0), (1, 0), (1, 1)):
                pts = np.array([[0.0, 1.0], [0.5, 0.7], [1.0, 0.0]])
                pts[idx] = bad
                with pytest.raises(ValueError, match="werner curve points must be finite"):
                    frontier.FrontierCurve("werner", pts)
        lim = frontier.PLANE_LIMIT
        curve = frontier.FrontierCurve("mems", np.array([[-lim, lim], [lim, -lim]]))
        traj = oracles.plane_trajectory(np.array([lim]), np.array([lim]))
        rep = frontier.coverage(traj, curve, epsilon=lim)
        assert rep.min_distance == pytest.approx(np.sqrt(2.0) * lim, rel=1e-6)
        # a nearest-distance query is held to the same limit: up to it the
        # answer is the brute-force one (beyond it, see the next test)
        points = np.array([[-lim, lim], [lim, -lim], [0.0, 0.0]])
        traj = oracles.plane_trajectory(points[:, 0], points[:, 1])
        for q in ([lim, lim], [-lim, 0.0], [0.5, -lim]):
            exact = np.sqrt(((points - q) ** 2).sum(axis=1)).min()
            assert traj.tree.query(np.array([q]))[0] == exact

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(1e150, 2e150), -1e200])
    def test_curve_trajectory_and_query_share_one_refusal(self, bad):
        # one rule (frozen_plane_array) holds a curve's points, a trajectory's
        # plane and an index query to the plane limit, with one message form
        lim = frontier.PLANE_LIMIT
        edge = np.array([[0.0, lim], [0.5, -lim], [1.0, 0.0]])
        frontier.FrontierCurve("mems", edge)
        traj = oracles.plane_trajectory(edge[:, 0], edge[:, 1])
        assert np.array_equal(traj.tree.query(edge), np.zeros(3))
        pts = edge.copy()
        pts[1, 1] = bad
        for name, refuse in (
            ("mems curve points", lambda: frontier.FrontierCurve("mems", pts)),
            ("plane", lambda: oracles.plane_trajectory(pts[:, 0], pts[:, 1])),
            ("queries", lambda: traj.tree.query(pts)),
            ("queries", lambda: traj.tree.seeds(pts)),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be finite and within 1e\+150$"):
                refuse()

    def test_validated_curve_cannot_change(self):
        # the curve's points are stored read-only, copied from a caller's
        # array or a view of one, so the reductions that read them later see
        # what was checked
        assert not frontier.mems_curve(257).points.flags.writeable
        given = frontier.mems_curve(257).points.copy()
        view = given.view()
        view.flags.writeable = False
        traj = trajectory.sweep(SystemParams(g=1.0, delta=0.5, lambda_=0.7), 50.0, 5001)
        for points in (given, view):
            curve = frontier.FrontierCurve("mems", points)
            assert not np.shares_memory(curve.points, given)
            before = (frontier.coverage(traj, curve, 0.02),
                      trajectory.mirror_symmetry_check(traj, curve))
            given[:, 1] *= 0.5
            assert (frontier.coverage(traj, curve, 0.02),
                    trajectory.mirror_symmetry_check(traj, curve)) == before
            given[:, 1] *= 2.0

    def test_linear_interpolation(self):
        curve = frontier.FrontierCurve("werner", np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert oracles.curve_value_at(curve, 0.25) == pytest.approx(0.75)

    def test_bell_kind_interpolates_squared_value(self):
        pts = np.array([[0.0, 2.0], [1.0, 1.0]])
        curve = frontier.FrontierCurve(frontier.BELL_FRONTIER, pts)
        assert oracles.curve_value_at(curve, 0.5) == pytest.approx(np.sqrt((4.0 + 1.0) / 2.0))


class TestWerner:
    def test_matrix_properties(self):
        rho = oracles.werner_matrix(0.5)
        assert abs(rho.trace() - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho).min() >= 0.0

    def test_curve_matches_state_functionals(self):
        for p in [0.4, 0.7, 1.0]:
            rho = oracles.werner_matrix(p)
            m = metrics.linear_entropy_many(rho)[0]
            c = metrics.wootters_concurrence_many(rho)[0]
            curve = frontier.werner_curve(2001)
            assert oracles.curve_value_at(curve, m) == pytest.approx(c, abs=1e-6)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            oracles.werner_matrix(1.2)
        with pytest.raises(ValueError):
            frontier.werner_curve(1)


class TestMems:
    def test_matrix_functionals_match_closed_forms(self):
        for c in [0.0, 0.3, 2.0 / 3.0, 0.8, 1.0]:
            rho = oracles.mems_matrix(c)
            assert abs(rho.trace() - 1.0) < 1e-14
            assert metrics.wootters_concurrence_many(rho)[0] == pytest.approx(c, abs=1e-12)
            assert metrics.linear_entropy_many(rho)[0] == pytest.approx(
                float(frontier.mems_linear_entropy(c)), abs=1e-12
            )

    def test_branch_point_continuity(self):
        eps = 1e-9
        below = frontier.mems_linear_entropy(2.0 / 3.0 - eps)
        above = frontier.mems_linear_entropy(2.0 / 3.0 + eps)
        assert abs(float(below) - float(above)) < 1e-8
        assert float(frontier.mems_linear_entropy(2.0 / 3.0)) == pytest.approx(
            16.0 / 27.0
        )

    def test_inverse_round_trip(self):
        c = np.linspace(0.0, 1.0, 501)
        m = frontier.mems_linear_entropy(c)
        assert np.abs(frontier.mems_concurrence_at(m) - c).max() < 1e-12

    def test_inverse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            frontier.mems_concurrence_at(0.95)

    def test_inverse_rejects_non_finite(self):
        # NaN fails both range comparisons and would be clipped into range
        for bad in (np.nan, np.inf, -np.inf, [0.1, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                frontier.mems_concurrence_at(bad)

    def test_dominates_random_samples(self):
        rng = np.random.default_rng(17)
        states = frontier.random_two_qubit_states(20_000, rng)
        assert oracles.mems_excess(states) <= 1e-12

    def test_audit_with_samplers_that_reach_the_frontier(self):
        rng = np.random.default_rng(7111)
        states = np.concatenate(
            [mems_x_states(rng)]
            + [hilbert_schmidt_states(20_000, rng, k) for k in (2, 3, 4)]
        )
        m = metrics.linear_entropy_many(states)
        c = metrics.wootters_concurrence_many(states)
        gap = frontier.mems_concurrence_at(np.clip(m, 0.0, 8.0 / 9.0)) - c
        # no state lies above the frontier
        assert gap.min() >= -1e-12
        # and the audit is not vacuous: some state comes close on each branch,
        # the lower one taken where the frontier concurrence is above 1/3
        upper = m < 16.0 / 27.0
        lower = (m > 16.0 / 27.0) & (m < 0.8)
        assert gap[upper].min() < 1e-3
        assert gap[lower].min() < 1e-3


    def test_oracle_finds_states_above_a_lowered_frontier(self, monkeypatch):
        # mems_oracle_excess is not vacuous: against a frontier 10% too low
        # it reports the states above it (0.073 to 0.081 over seeds 0-2)
        true = frontier.mems_concurrence_at
        monkeypatch.setattr(frontier, "mems_concurrence_at", lambda m: 0.9 * true(m))
        assert frontier.mems_oracle_excess(2000, seed=0) > 0.05


class TestBellFrontier:
    def test_candidate_endpoints_and_branch(self):
        assert frontier.bell_envelope_candidate(0.0) == pytest.approx(
            frontier.TSIRELSON
        )
        assert frontier.bell_envelope_candidate(1.0) == pytest.approx(0.0, abs=1e-12)
        # both branches meet at M = 2/3 with |B| = 2
        assert frontier.bell_envelope_candidate(2.0 / 3.0) == pytest.approx(2.0)
        lo = frontier.bell_envelope_candidate(2.0 / 3.0 - 1e-10)
        hi = frontier.bell_envelope_candidate(2.0 / 3.0 + 1e-10)
        assert abs(float(lo) - float(hi)) < 1e-8

    def test_envelope_dominates_fresh_samples(self):
        curve = frontier.bell_frontier(n_points=129)
        rng = np.random.default_rng(99)
        states = frontier.random_two_qubit_states(50_000, rng)
        m = metrics.linear_entropy_many(states)
        b = metrics.bell_max_many(states)
        excess = b - oracles.curve_value_at(curve, m)
        assert excess.max() <= 1e-6

    def test_envelope_monotone_and_bounded(self):
        curve = frontier.bell_frontier(n_points=129)
        vals = curve.points[:, 1]
        assert vals[0] == pytest.approx(frontier.TSIRELSON)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals.max() <= frontier.TSIRELSON + 1e-12

    def test_curve_is_envelope_with_exact_branch_knot(self):
        curve = frontier.bell_frontier(n_points=257)
        m, b = curve.points.T
        assert m[0] == 0.0 and m[-1] == 1.0
        assert 2.0 / 3.0 in m
        assert np.array_equal(b, frontier.bell_envelope_candidate(m))

    @pytest.mark.parametrize("n_points", [2, 3, 4])
    def test_small_grid_keeps_endpoints(self, n_points):
        m = frontier.bell_frontier(n_points=n_points).points[:, 0]
        assert len(m) == n_points
        assert m[0] == 0.0 and m[-1] == 1.0
        # the branch point is a knot only when there is an interior knot
        assert (2.0 / 3.0 in m) == (n_points >= 3)

    def test_bell_diagonal_search_stays_below_envelope(self):
        rng = np.random.default_rng(5)
        worst = -np.inf
        for m_target in np.linspace(0.0, 0.95, 17):
            starts = [np.array([0.5, 0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])]
            starts += [rng.dirichlet(np.ones(4)) for _ in range(2)]
            worst = max(
                worst, envelope_excess_search(bell_diagonal, starts, m_target, 400)
            )
        assert worst <= 1e-9

    def test_general_state_search_stays_below_envelope(self):
        rng = np.random.default_rng(6)
        worst = -np.inf
        for m_target in np.linspace(0.05, 0.95, 7):
            starts = [rng.standard_normal(32) for _ in range(2)]
            worst = max(
                worst, envelope_excess_search(general_state, starts, m_target, 3000)
            )
        assert worst <= 1e-9


class TestCoverage:
    def curve(self):
        return frontier.FrontierCurve(
            "werner", np.column_stack([np.linspace(0, 1, 11), np.linspace(1, 0, 11)])
        )

    def test_full_coverage(self):
        traj = oracles.plane_trajectory(np.linspace(0, 1, 2000), np.linspace(1, 0, 2000))
        rep = frontier.coverage(traj, self.curve(), epsilon=0.01)
        assert rep.fraction_covered == 1.0
        assert rep.min_distance < 1e-3

    def test_partial_coverage(self):
        # points only over the first half of the diagonal
        traj = oracles.plane_trajectory(np.linspace(0, 0.5, 1000), np.linspace(1, 0.5, 1000))
        rep = frontier.coverage(traj, self.curve(), epsilon=0.01)
        assert 0.4 < rep.fraction_covered < 0.6

    def test_offset_trajectory(self):
        traj = oracles.plane_trajectory(np.linspace(0, 1, 500), np.linspace(1, 0, 500) - 0.1)
        rep = frontier.coverage(traj, self.curve(), epsilon=0.05)
        assert rep.fraction_covered == 0.0
        assert rep.min_distance == pytest.approx(0.1 / np.sqrt(2), abs=1e-3)

    def test_epsilon_equal_to_a_distance_along_a_ray(self):
        # the distance to one point changes nearly linearly along a straight
        # curve, so many resampled points lie close to an epsilon that is one
        # of the distances, and the query capped at epsilon must place each
        # on the same side of it as its exact distance
        curve = self.curve()
        for m, c in ([1.2, -0.2], [-0.3, 1.3]):
            traj = oracles.plane_trajectory(np.array([m]), np.array([c]))
            dist = traj.tree.query(frontier._polyline_resample(curve.points))
            for epsilon in dist[1:64]:
                rep = frontier.coverage(traj, curve, epsilon)
                assert rep.fraction_covered == np.mean(dist <= epsilon)
                assert rep.min_distance == dist.min()

    def test_rejects_bad_epsilon(self):
        traj = oracles.plane_trajectory(np.zeros(3), np.zeros(3))
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                frontier.coverage(traj, self.curve(), epsilon=epsilon)

    def test_rejects_bell_frontier(self):
        # coverage is measured in the (M, C) plane; the Bell frontier lies
        # in the (M, |B|max) plane, so its distances to M and C mean nothing
        traj = oracles.plane_trajectory(np.linspace(0, 1, 50), np.linspace(1, 0, 50))
        with pytest.raises(ValueError, match="'bell'"):
            frontier.coverage(traj, frontier.bell_frontier(129), epsilon=0.01)


class TestRationality:
    def test_convergents_of_pi_like_fraction(self):
        x = Fraction(355, 113)
        conv = frontier.continued_fraction_convergents(x, 200)
        assert (3, 1) in conv
        assert (22, 7) in conv
        assert conv[-1] == (355, 113)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        x=st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
        q_max=st.integers(1, 10**4),
    )
    def test_convergents_distinct_bounded_and_exact(self, x, q_max):
        conv = frontier.continued_fraction_convergents(x, q_max)
        assert conv
        assert len(set(conv)) == len(conv)
        assert all(q <= q_max for _, q in conv)
        if x.denominator <= q_max:
            assert conv[-1] == (x.numerator, x.denominator)

    def test_exact_rational_ratio(self):
        # Delta/Omega = 1/2 exactly when Delta^2 = 8 g^2 / 3... floating point
        # makes it approximate, but well within any reasonable tolerance
        p = SystemParams(g=1.0, delta=np.sqrt(8.0 / 3.0))
        rep = frontier.classify_ratio(p, tol=1e-9, q_max=1000)
        assert rep.classification == frontier.EFFECTIVELY_RATIONAL
        assert rep.best_q == 2

    def test_zero_detuning_rational(self):
        rep = frontier.classify_ratio(SystemParams(g=1.0), tol=1e-9, q_max=100)
        assert rep.classification == frontier.EFFECTIVELY_RATIONAL
        assert rep.best_q == 1

    def test_generic_detuning_irrational(self):
        p = SystemParams(g=1.0, delta=0.5)
        rep = frontier.classify_ratio(p, tol=1e-12, q_max=1000)
        assert rep.classification == frontier.EFFECTIVELY_IRRATIONAL
        assert rep.best_q is None

    def test_loose_tolerance_flips_classification(self):
        p = SystemParams(g=1.0, delta=0.5)
        rep = frontier.classify_ratio(p, tol=1e-2, q_max=1000)
        assert rep.classification == frontier.EFFECTIVELY_RATIONAL

    def test_rejects_bad_args(self):
        p = SystemParams(g=1.0)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                frontier.classify_ratio(p, tol=tol, q_max=100)
        with pytest.raises(ValueError):
            frontier.classify_ratio(p, tol=1e-6, q_max=1)
