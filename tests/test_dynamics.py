import numpy as np
import pytest

from loschmidt.dynamics import TrajectoryEscapeError, check_escape, map_step
from loschmidt.hamiltonians import (
    ZERO_TERM,
    cosine_potential,
    hamiltonian_1d,
    harmonic_potential,
    polynomial_term,
    quadratic_kinetic,
)

HARMONIC = hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0))
KICKED_ROTOR = hamiltonian_1d(quadratic_kinetic(1.0), cosine_potential(5.0))


def orbit(q, p, h, n_steps, tau):
    """Positions and momenta x_0 .. x_N of the map orbit from (q, p), one row
    per step, with the escape guard after every step as in the estimators."""
    qs, ps = [np.asarray(q, dtype=float)], [np.asarray(p, dtype=float)]
    for _ in range(n_steps):
        q, p = map_step(q, p, h, tau)
        check_escape(q, p)
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


def numerical_jacobian(h, q, p, tau, eps=1e-5):
    """Finite-difference Jacobian of one map step at a 1D phase-space point."""
    out = np.empty((2, 2))
    for j, dv in enumerate(((eps, 0.0), (0.0, eps))):
        qp, pp = map_step(np.array([q + dv[0]]), np.array([p + dv[1]]), h, tau)
        qm, pm = map_step(np.array([q - dv[0]]), np.array([p - dv[1]]), h, tau)
        out[0, j] = (qp[0] - qm[0]) / (2 * eps)
        out[1, j] = (pp[0] - pm[0]) / (2 * eps)
    return out


def test_map_step_harmonic_arithmetic():
    q, p = map_step(np.array([1.0]), np.array([0.0]), HARMONIC, tau=0.1)
    assert q[0] == pytest.approx(1.0, abs=0)
    assert p[0] == pytest.approx(-0.1, abs=0)


def test_map_step_free_flight():
    h = hamiltonian_1d(quadratic_kinetic(1.0), ZERO_TERM)
    qs, ps = orbit(np.array([0.5]), np.array([2.0]), h, 10, tau=0.3)
    np.testing.assert_allclose(qs[:, 0], 0.5 + 2.0 * 0.3 * np.arange(11))
    np.testing.assert_allclose(ps[:, 0], 2.0)


def test_map_step_order_drift_then_kick():
    # the momentum kick must use the *new* position
    h = hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, 1.0))  # V = q
    q, p = map_step(np.array([0.0]), np.array([1.0]), h, tau=0.5)
    assert q[0] == 0.5
    assert p[0] == 1.0 - 0.5  # gradient of q is 1 regardless, but position moved
    h2 = hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0))
    q2, p2 = map_step(np.array([0.0]), np.array([1.0]), h2, tau=0.5)
    assert p2[0] == pytest.approx(1.0 - 0.5 * q2[0], abs=0)


def test_kicked_rotor_jacobian_unit_determinant():
    rng = np.random.default_rng(2)
    for _ in range(8):
        q, p = rng.uniform(0, 2 * np.pi), rng.uniform(-3, 3)
        jac = numerical_jacobian(KICKED_ROTOR, q, p, tau=1.0)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "h",
    [
        HARMONIC,
        KICKED_ROTOR,
        hamiltonian_1d(quadratic_kinetic(0.7), polynomial_term(0.0, 0.3, 0.5, -0.1, 0.05)),
    ],
)
def test_symplectic_all_families(h):
    rng = np.random.default_rng(7)
    for _ in range(5):
        q, p = rng.normal(scale=1.5, size=2)
        jac = numerical_jacobian(h, q, p, tau=0.2)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-8


def test_harmonic_period_return_first_order_in_tau():
    # after one period the orbit returns to x0 within O(tau); check the
    # linear envelope under tau halving and the global-error slope ~1
    # against the continuous solution
    returns, globals_ = [], []
    for tau in (0.02, 0.01):
        n = round(2 * np.pi / tau)
        qs, ps = orbit(np.array([1.0]), np.array([0.0]), HARMONIC, n, tau)
        returns.append(np.hypot(qs[-1, 0] - 1.0, ps[-1, 0] - 0.0))
        t = tau * np.arange(n + 1)
        globals_.append(np.max(np.hypot(qs[:, 0] - np.cos(t), ps[:, 0] + np.sin(t))))
    assert returns[0] <= 2.0 * 0.02 and returns[1] <= 2.0 * 0.01
    assert 1.6 < globals_[0] / globals_[1] < 2.4


def test_energy_drift_first_order_in_tau():
    drifts = []
    for tau in (0.02, 0.01):
        n = round(2 * np.pi / tau)
        energy = HARMONIC.value(*orbit(np.array([1.0]), np.array([0.0]), HARMONIC, n, tau))
        drifts.append(np.max(np.abs(energy - energy[0])))
    assert 1.6 < drifts[0] / drifts[1] < 2.4


def test_linear_potential_closed_form():
    beta = 0.7
    h = hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, beta))
    _, ps = orbit(np.array([0.0]), np.array([1.0]), h, 20, 0.1)
    np.testing.assert_allclose(ps[:, 0], 1.0 - np.arange(21) * 0.1 * beta, rtol=0, atol=1e-15)


def test_trajectory_consecutive_points_satisfy_map():
    # the estimators step whole ensembles (leading axes) in one call; each
    # member's orbit must be the one its own point maps out
    rng = np.random.default_rng(3)
    q0, p0 = rng.uniform(0, 2 * np.pi, size=(8, 1)), rng.uniform(-3, 3, size=(8, 1))
    qs, ps = orbit(q0, p0, KICKED_ROTOR, 25, 1.0)
    for i in range(8):
        qi, pi = orbit(q0[i], p0[i], KICKED_ROTOR, 25, 1.0)
        assert np.max(np.abs(qs[:, i] - qi)) < 1e-12
        assert np.max(np.abs(ps[:, i] - pi)) < 1e-12


def test_escape_guard_triggers():
    # inverted quartic potential ejects the trajectory
    h = hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, 0.0, 0.0, 0.0, -1.0))
    with pytest.raises(TrajectoryEscapeError, match="escaped"):
        orbit(np.array([3.0]), np.array([0.0]), h, 500, 0.5)
