"""Property tests of the closed forms over (Delta, lambda, gamma, gt).

Each example compares a closed form with an independent route: the
cavity-traced spectral solution of the master equation, the Wootters
concurrence and the correlation-matrix CHSH maximum of the closed-form
state. The sweep's X-state read-out is compared with the last two on
closed-form and spectral states, and its linear entropy and the sweep's
purity with the general routes on the states of every sweep source. The
analytic sweep, read off the closed-form X-state entries, is compared exactly with
the read-out of the closed-form (n, 4, 4) states. The entry-by-entry
closed-form state is compared with the printed projector form. The RK4 solver is compared with the
spectral one, with dephasing up to gamma = 1000. Every sweep that passes
the phase-precision bound agrees between the analytic and spectral
sources within 1e-8. The four X-state entries
that the numeric sweep sources read off block states are compared bit for
bit with the entries of the cavity-traced matrices. The runs are
derandomized, so every run checks the same examples.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cavityent import analytic, evolution, metrics, trajectory
from cavityent.model import SystemParams

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

params = st.builds(
    SystemParams,
    g=st.just(1.0),
    delta=st.floats(-5.0, 5.0),
    lambda_=st.floats(0.0, 1.0),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
)
times = st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8).map(np.array)


@SETTINGS
@given(p=params, gts=times)
def test_closed_form_state_matches_spectral(p, gts):
    spectral = evolution.reduce_to_atoms(evolution.evolve_spectral_grid(p, gts))
    assert np.abs(analytic.rho_s_matrices(p, gts) - spectral).max() < 1e-8


@SETTINGS
@given(p=params, gts=times)
def test_closed_form_state_matches_term_list(p, gts):
    assert np.abs(analytic.rho_s_matrices(p, gts) - oracles.rho_s_term_list(p, gts)).max() < 1e-15


@SETTINGS
@given(p=params, gts=times)
def test_closed_form_state_is_a_density_matrix(p, gts):
    # the spectral product computes rho_ab and rho_ba in separate dot
    # products, so its Hermiticity is checked, not built in
    for rho in (analytic.rho_s_matrices(p, gts), evolution.evolve_spectral_grid(p, gts)):
        assert np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max() < 1e-14
        assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


@SETTINGS
@given(p=params, gts=times)
def test_closed_form_concurrence_matches_wootters(p, gts):
    wootters = metrics.wootters_concurrence_many(analytic.rho_s_matrices(p, gts))
    assert np.abs(analytic.concurrence_dephased(p, gts) - wootters).max() < 1e-9


@SETTINGS
@given(p=params, gts=times)
def test_closed_form_chsh_matches_correlation_matrix(p, gts):
    # the sweep's X-state read-out against the general Wootters and
    # correlation-matrix routes, on closed-form and spectral states
    spectral = evolution.reduce_to_atoms(evolution.evolve_spectral_grid(p, gts))
    for states in (analytic.rho_s_matrices(p, gts), spectral):
        raw = oracles.x_state_readout(states)
        assert np.abs(raw["concurrence"] - metrics.wootters_concurrence_many(states)).max() < 1e-12
        assert np.abs(raw["bell_max"] - metrics.bell_max_many(states)).max() < 1e-12


stiff_params = st.builds(
    SystemParams,
    g=st.just(1.0),
    delta=st.floats(-5.0, 5.0),
    lambda_=st.floats(0.0, 1.0),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
)
sorted_times = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).map(
    lambda ts: np.array(sorted(ts))
)


@SETTINGS
@given(p=stiff_params, gts=sorted_times)
def test_rk4_matches_spectral(p, gts):
    rk4 = evolution.evolve_rk4_grid(p, gts)
    assert np.abs(rk4 - evolution.evolve_spectral_grid(p, gts)).max() < 1e-8
    # RK4 keeps the reduced states X-shaped (or the read-out raises), and
    # the read-out's CHSH holds where RK4 drifts off trace one
    reduced = evolution.reduce_to_atoms(rk4)
    bell = oracles.x_state_readout(reduced)["bell_max"]
    assert np.abs(bell - metrics.bell_max_many(reduced)).max() < 1e-12


@SETTINGS
@given(p=stiff_params, gts=sorted_times,
       solve=st.sampled_from([evolution.evolve_spectral_grid, evolution.evolve_rk4_grid]))
def test_traced_entries_are_the_reduced_entries(p, gts, solve):
    # the sweep reads the four entries straight off the block states, bit
    # for bit what the cavity-traced matrices hold
    states = solve(p, gts)
    got = evolution.traced_x_entries(states)
    for g, w in zip(got, oracles.x_entries(evolution.reduce_to_atoms(states))):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


resonant_or_detuned = st.builds(
    SystemParams,
    g=st.just(1.0),
    delta=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    lambda_=st.floats(0.0, 1.0),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
)


@SETTINGS
@given(p=resonant_or_detuned, gt_max=st.floats(1e-3, 10.0), n_steps=st.integers(2, 8),
       source=st.sampled_from(trajectory.SOURCES))
def test_readout_purity_matches_general_routes(p, gt_max, n_steps, source):
    # the grid is one block, so the states below are the ones the sweep reads
    traj = trajectory.sweep(p, gt_max, n_steps, source)
    if source == trajectory.ANALYTIC:
        states = analytic.rho_s_matrices(p, traj.gt)
    else:
        solve = {trajectory.SPECTRAL: evolution.evolve_spectral_grid,
                 trajectory.RK4: evolution.evolve_rk4_grid}[source]
        states = evolution.reduce_to_atoms(solve(p, traj.gt))
    raw = oracles.x_state_readout(states)
    assert np.abs(raw["linear_entropy"] - metrics.linear_entropy_many(states)).max() < 1e-12
    assert np.abs(traj.purity - metrics.purity_many(states)).max() < 1e-12


@SETTINGS
@given(p=resonant_or_detuned, gt_max=st.floats(1e-3, 500.0),
       n_steps=st.integers(2, 64) | st.sampled_from([4095, 4096, 4097, 8193]))
def test_analytic_sweep_is_the_stack_readout(p, gt_max, n_steps):
    # the entries the analytic source yields and the (n, 4, 4) closed-form
    # states are one closed form: every column is read out identically,
    # also across the sweep's blocks of 4096 times
    traj = trajectory.sweep(p, gt_max, n_steps)
    states = analytic.rho_s_matrices(p, traj.gt)
    want = trajectory._clip_to_ranges(oracles.x_state_readout(states))
    for name, column in want.items():
        assert np.array_equal(getattr(traj, name), column)


# g over 303 decades, with gamma drawn as gamma*g and Delta as Delta/g, or
# on its own, so that Delta/g also reaches past 1e150 and past the doubles
far_params = st.builds(
    lambda g, delta_over_g, delta, lambda_, gamma_times_g: dict(
        g=g, delta=delta if delta_over_g is None else delta_over_g * g, lambda_=lambda_,
        gamma=gamma_times_g / g),
    g=st.floats(-300.0, 3.0).map(lambda k: 10.0**k),
    delta_over_g=st.floats(-5.0, 5.0) | st.floats(-1e8, 1e8) | st.none(),
    delta=st.floats(-1e12, 1e12),
    lambda_=st.floats(0.0, 1.0),
    gamma_times_g=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
)


def _far(g, delta, lambda_=1.0, gamma=0.0):
    return dict(g=g, delta=delta, lambda_=lambda_, gamma=gamma)


@SETTINGS
@given(kw=far_params, gt_max=st.floats(-320.0, 18.0).map(lambda e: 10.0**e))
# the sources differ by 1.1 at gt_max = 1e17, which must be refused, and
# by 3.3e-9 at 1e7 (bound 7.5e-9); at Delta = 1e8 and gt_max = 0.2 by 4.5e-9;
# at g = 1e-6 the time 1e12 / g is as far out as 1e18 at g = 1
@example(kw=_far(1.0, 0.5), gt_max=1e17)
@example(kw=_far(1.0, 0.5), gt_max=1e7)
@example(kw=_far(1.0, 1e8), gt_max=0.2)
@example(kw=_far(1e-6, 0.0), gt_max=1e12)
# Delta/g = 1e310 overflowed the spectral source's H/g; Omega^2 underflows
# at g = 1e-300; at g = 1e-154, gamma t = gamma*g gt / g^2 overflowed and the
# closed form's damping read 0, 3.0e-3 off the spectral concurrence
@example(kw=_far(1e-300, 1e10), gt_max=1e-310)
@example(kw=_far(1e-300, 5e-301, 0.7), gt_max=1.0)
@example(kw=_far(1e-154, 0.0, 0.5, 0.1 / 1e-154), gt_max=40.0)
@example(kw=_far(1.0, -1e150, 0.3, 0.05), gt_max=1e-160)
def test_accepted_sweeps_agree_across_sources(kw, gt_max):
    # every (p, gt_max) that SystemParams and the sweep's phase bound accept
    # runs on all three sources. The phases (Omega + |Delta|) t, t = gt/g,
    # carry an absolute error of about eps per unit, so a sweep is refused
    # past eps (Omega + |Delta|) gt_max / g = 1e-8. The sweep depends on g
    # only through Delta/g and gamma*g, so the same sweep at g = 1 is refused
    # alike, or equal bit for bit
    try:
        p = SystemParams(**kw)
    except ValueError as exc:
        assert str(exc).startswith("|Delta/g| must be at most 1e150")
        assert not abs(kw["delta"] / kw["g"]) <= 1e150
        return
    unit = SystemParams(g=1.0, delta=p.delta / p.g, lambda_=p.lambda_, gamma=p.gamma * p.g)
    try:
        closed = trajectory.sweep(p, gt_max, 3)
    except ValueError as exc:
        assert "phase-precision bound" in str(exc)
        with pytest.raises(ValueError, match="phase-precision bound"):
            trajectory.sweep(unit, gt_max, 3)
        return
    assert np.array_equal(trajectory.sweep(unit, gt_max, 3).plane, closed.plane)
    spectral = trajectory.sweep(p, gt_max, 3, source=trajectory.SPECTRAL)
    trajectory.sweep(p, gt_max, 3, source=trajectory.RK4)
    for name in ("concurrence", "linear_entropy", "bell_max", "purity"):
        assert np.abs(getattr(closed, name) - getattr(spectral, name)).max() < 1e-8
