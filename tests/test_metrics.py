import numpy as np
import pytest

from cavityent import metrics
from cavityent.frontier import random_two_qubit_states
from oracles import BELL_PLUS, werner_matrix, wootters_concurrence_eigvals

METRICS = [
    metrics.wootters_concurrence_many,
    metrics.purity_many,
    metrics.linear_entropy_many,
    metrics.bell_max_many,
]


BELL = np.outer(BELL_PLUS, BELL_PLUS.conj())


class TestConcurrence:
    def test_bell_state(self):
        assert metrics.wootters_concurrence_many(BELL)[0] == pytest.approx(1.0)

    def test_product_state(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert metrics.wootters_concurrence_many(rho)[0] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert metrics.wootters_concurrence_many(np.eye(4) / 4)[0] == 0.0

    def test_werner_family(self):
        # C = max(0, (3p - 1)/2)
        for p in [0.1, 1 / 3, 0.5, 0.8, 1.0]:
            expected = max(0.0, (3 * p - 1) / 2)
            got = metrics.wootters_concurrence_many(werner_matrix(p))[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_two_routes_agree_on_random_states(self):
        rng = np.random.default_rng(13)
        states = random_two_qubit_states(200, rng)
        many = metrics.wootters_concurrence_many(states)
        for rho, c in zip(states, many):
            assert wootters_concurrence_eigvals(rho) == pytest.approx(
                c, abs=1e-7
            )

    def test_rejects_bad_shape(self):
        # every metric reads its input through cavityent.linalg.as_state_stack
        bad_shapes = [np.eye(2) / 2, np.eye(3) / 3, np.broadcast_to(np.eye(3) / 3, (5, 3, 3)),
                      np.full(4, 0.25), np.broadcast_to(np.eye(4) / 4, (2, 2, 4, 4))]
        bad_values = []
        for value in (np.nan, np.inf, -np.inf):
            rho = np.eye(4, dtype=complex) / 4
            rho[0, 3] = rho[3, 0] = value
            bad_values += [rho, np.stack([np.eye(4) / 4, rho])]
        bad_values.append(np.full((4, 4), np.nan))
        for metric in METRICS:
            for states in bad_shapes:
                with pytest.raises(ValueError, match=r"expected a \(4, 4\) matrix"):
                    metric(states)
            for states in bad_values:
                with pytest.raises(ValueError, match="non-finite"):
                    metric(states)


class TestPurityEntropy:
    def test_pure_state(self):
        assert metrics.purity_many(BELL)[0] == pytest.approx(1.0)
        assert metrics.linear_entropy_many(BELL)[0] == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4
        assert metrics.purity_many(rho)[0] == pytest.approx(0.25)
        assert metrics.linear_entropy_many(rho)[0] == pytest.approx(1.0)

    def test_stack_matches_scalar(self):
        rng = np.random.default_rng(14)
        states = random_two_qubit_states(50, rng)
        many = metrics.linear_entropy_many(states)
        for rho, m in zip(states, many):
            assert metrics.linear_entropy_many(rho)[0] == pytest.approx(m, abs=1e-14)

    def test_range_on_random_states(self):
        rng = np.random.default_rng(15)
        m = metrics.linear_entropy_many(random_two_qubit_states(500, rng))
        assert m.min() >= -1e-12
        assert m.max() <= 1.0 + 1e-12


class TestBellMax:
    def test_bell_state_tsirelson(self):
        assert metrics.bell_max_many(BELL)[0] == pytest.approx(
            2 * np.sqrt(2), abs=1e-12
        )

    def test_product_state(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert metrics.bell_max_many(rho)[0] == pytest.approx(2.0, abs=1e-12)

    def test_werner_violation_threshold(self):
        # |B| = 2 sqrt(2) p crosses 2 at p = 1/sqrt(2)
        assert metrics.bell_max_many(werner_matrix(0.8))[0] > 2.0
        assert metrics.bell_max_many(werner_matrix(0.6))[0] < 2.0
        p_crit = 1 / np.sqrt(2)
        assert metrics.bell_max_many(werner_matrix(p_crit))[0] == pytest.approx(
            2.0, abs=1e-12
        )

    def test_tsirelson_bound_random(self):
        rng = np.random.default_rng(16)
        b = metrics.bell_max_many(random_two_qubit_states(500, rng))
        assert b.max() <= 2 * np.sqrt(2) + 1e-9
