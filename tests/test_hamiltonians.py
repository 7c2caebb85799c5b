from math import perm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from loschmidt.dynamics import map_step
from loschmidt.hamiltonians import (
    CoordFunction,
    SeparableHamiltonian,
    cosine_potential,
    expansion_remainder,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    quadratic_kinetic,
    ZERO_TERM,
)
from loschmidt.presets import load


def displaced_ho_pair_raw():
    # H' = p^2/2 + (q - 1/2)^2 / 2, H'' = p^2/2 + (q + 1/2)^2 / 2
    kin = quadratic_kinetic(1.0)
    h_prime = hamiltonian_1d(kin, harmonic_potential(1.0, +0.5))
    h_double = hamiltonian_1d(kin, harmonic_potential(1.0, -0.5))
    return make_pair(h_prime, h_double)


def diff_k_pair_raw():
    kin = quadratic_kinetic(1.0)
    return make_pair(
        hamiltonian_1d(kin, harmonic_potential(1.0)),
        hamiltonian_1d(kin, harmonic_potential(1.21)),
    )


# ---------------------------------------------------------------------------
# coordinate functions


def test_coord_function_trims_and_validates():
    f = CoordFunction((1.0, 2.0, 0.0, 0.0))
    assert f.coeffs == (1.0, 2.0)
    with pytest.raises(ValueError, match="degree"):
        CoordFunction((0.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def test_coord_function_algebra():
    f = polynomial_term(1.0, 2.0) + cosine_potential(3.0)
    g = 2.0 * f
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(g.value(x), 2 * f.value(x), rtol=0, atol=0)
    assert (f - f).is_zero


@pytest.mark.parametrize(
    "term",
    [
        polynomial_term(0.3, -1.2, 0.7, 0.05, -0.01),
        cosine_potential(5.0),
        polynomial_term(0.0, 0.0, 0.5) + cosine_potential(1.3),
    ],
)
def test_derivatives_match_central_differences(term):
    # the first and second derivatives must agree with finite differences to 1e-6 relative
    rng = np.random.default_rng(42)
    x = rng.uniform(-2.0, 2.0, size=12)
    h1, h2 = 1e-6, 1e-4
    fd1 = (term.value(x + h1) - term.value(x - h1)) / (2 * h1)
    fd2 = (term.value(x + h2) - 2 * term.value(x) + term.value(x - h2)) / h2**2
    scale1 = np.maximum(np.abs(fd1), 1.0)
    scale2 = np.maximum(np.abs(fd2), 1.0)
    assert np.all(np.abs(term.derivative(1, x) - fd1) / scale1 < 1e-6)
    assert np.all(np.abs(term.derivative(2, x) - fd2) / scale2 < 1e-6)


def test_hamiltonian_evaluation_shapes():
    h = SeparableHamiltonian(
        (quadratic_kinetic(), quadratic_kinetic(2.0)),
        (harmonic_potential(1.0), harmonic_potential(2.0)),
    )
    q = np.zeros((7, 2))
    p = np.ones((7, 2))
    assert h.value(q, p).shape == (7,)
    assert h.potential_d1(q).shape == (7, 2)
    with pytest.raises(ValueError, match="components"):
        h.value(np.zeros((7, 3)), p)


def test_separability_no_cross_terms():
    h = hamiltonian_1d(quadratic_kinetic(), harmonic_potential(2.0))
    rng = np.random.default_rng(0)
    q, p = rng.normal(size=(2, 20, 1))
    total = h.value(q, p)
    np.testing.assert_allclose(
        total, h.kinetic_value(p) + h.potential_value(q), rtol=0, atol=0
    )


# ---------------------------------------------------------------------------
# pairs


def test_make_pair_displaced_ho_coefficients():
    # H' = p^2/2 + (q - 1/2)^2/2, H'' = p^2/2 + (q + 1/2)^2/2
    pair = displaced_ho_pair_raw()
    # average: p^2/2 + q^2/2 + 1/8
    assert pair.average.potential[0].coeffs == (0.125, 0.0, 0.5)
    assert pair.average.kinetic[0].coeffs == (0.0, 0.0, 0.5)
    # perturbation: q
    assert pair.delta.potential[0].coeffs == (0.0, 1.0)
    assert all(t.is_zero for t in pair.delta.kinetic)


def test_make_pair_identity_case():
    h = hamiltonian_1d(quadratic_kinetic(), harmonic_potential(1.3))
    pair = make_pair(h, h)
    assert all(t.is_zero for t in pair.delta.kinetic + pair.delta.potential)
    assert pair.average == h


def test_make_pair_different_force_constants():
    pair = make_pair(
        hamiltonian_1d(quadratic_kinetic(), harmonic_potential(1.0)),
        hamiltonian_1d(quadratic_kinetic(), polynomial_term(0.0, 0.0, 0.5 * 1.21)),
    )
    np.testing.assert_allclose(pair.delta.potential[0].coeffs, (0.0, 0.0, 0.105))
    np.testing.assert_allclose(pair.average.potential[0].coeffs, (0.0, 0.0, 0.5525))


def test_make_pair_dimension_mismatch():
    h1 = hamiltonian_1d(quadratic_kinetic(), harmonic_potential())
    h2 = SeparableHamiltonian(h1.kinetic * 2, h1.potential * 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_pair(h1, h2)


@settings(max_examples=50, deadline=None)
@given(
    c1=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    c2=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    probe=st.floats(-2, 2),
)
def test_pair_identities_pointwise(c1, c2, probe):
    h1 = hamiltonian_1d(quadratic_kinetic(), CoordFunction(tuple(c1)))
    h2 = hamiltonian_1d(quadratic_kinetic(), CoordFunction(tuple(c2)))
    pair = make_pair(h1, h2)
    q = np.array([probe])
    p = np.array([0.37])
    avg = pair.average.value(q, p)
    expected_avg = 0.5 * (h1.value(q, p) + h2.value(q, p))
    assert abs(avg - expected_avg) <= 1e-12 * max(1.0, abs(expected_avg))
    delta = pair.delta.value(q, p)
    expected_delta = h2.value(q, p) - h1.value(q, p)
    assert abs(delta - expected_delta) <= 1e-12 * max(1.0, abs(expected_delta))


def test_swap_negates_delta_preserves_average():
    pair = diff_k_pair_raw()
    swapped = pair.swapped()
    rng = np.random.default_rng(3)
    q, p = rng.normal(size=(2, 16, 1))
    np.testing.assert_allclose(
        swapped.average.value(q, p), pair.average.value(q, p), rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(
        swapped.delta.value(q, p), -pair.delta.value(q, p), rtol=1e-12, atol=1e-15
    )


# ---------------------------------------------------------------------------
# expansion remainder


def test_remainder_displaced_ho_vanishes_at_order_one():
    pair = displaced_ho_pair_raw()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = (rng.normal(size=1), rng.normal(size=1))
        dx = (rng.normal(size=1), rng.normal(size=1))
        r = expansion_remainder(pair, x, dx, order=1)
        assert abs(r) < 1e-12


def test_remainder_diff_k_vanishes_at_order_two():
    pair = diff_k_pair_raw()
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = (rng.normal(size=1), rng.normal(size=1))
        dx = (rng.normal(size=1), rng.normal(size=1))
        assert abs(expansion_remainder(pair, x, dx, order=2)) < 1e-12


def test_remainder_quartic_example_direct_arithmetic():
    # V' = q^4, V'' = q^4 + q at x = (1, 0), dx = (0.2, 0), order 1.
    # Oracle: evaluate both sides of the defining expression directly.
    kin = quadratic_kinetic(1.0)
    h_lo = hamiltonian_1d(kin, polynomial_term(0.0, 0.0, 0.0, 0.0, 1.0))
    h_hi = hamiltonian_1d(kin, polynomial_term(0.0, 1.0, 0.0, 0.0, 1.0))
    pair = make_pair(h_lo, h_hi)

    q, dq = 1.0, 0.2
    lhs = ((q + dq / 2) ** 4 + (q + dq / 2)) - (q - dq / 2) ** 4
    delta_h = q  # perturbation q at the midpoint
    avg_grad_term = (4 * q**3 + 0.5) * dq  # d/dq of (q^4 + q/2), times dq
    expected = lhs - (delta_h + avg_grad_term)
    assert expected != 0.0

    got = expansion_remainder(
        pair, (np.array([q]), np.array([0.0])), (np.array([dq]), np.array([0.0])), 1
    )
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_remainder_order_zero_iff_constant_average_affine_delta():
    # gradient pair: average vanishes, delta affine -> order-0 remainder = 0
    h_lo = hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, -0.5))
    h_hi = hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, +0.5))
    grad_pair = make_pair(h_lo, h_hi)
    x = (np.array([0.7]), np.array([-0.3]))
    dx = (np.array([0.4]), np.array([0.2]))
    assert abs(expansion_remainder(grad_pair, x, dx, 0)) < 1e-12
    # displaced HO: average is not constant -> order-0 remainder nonzero
    assert abs(expansion_remainder(displaced_ho_pair_raw(), x, dx, 0)) > 1e-8


@pytest.mark.parametrize("order", range(6))
def test_remainder_order_scaling(order):
    # remainder at order n must shrink like |dx|^(n+1): log-log slope >= n + 0.9.
    # Orders 0-2 on quartic wells; orders 3-5 on a cosine pair, where no order
    # is exact, at displacements that keep the remainder far above rounding
    kin = quadratic_kinetic(1.0)
    if order <= 2:
        v_lo = polynomial_term(0.0, 0.0, 0.5, -0.10, 0.05)
        v_hi = polynomial_term(0.0, 0.0, 0.55, -0.12, 0.055)
        scales = np.logspace(-3, -1, 9)
    else:
        v_lo, v_hi = cosine_potential(0.5), cosine_potential(1.5)
        scales = np.logspace(-1.5, -0.5, 9)
    pair = make_pair(hamiltonian_1d(kin, v_lo), hamiltonian_1d(kin, v_hi))
    x = (np.array([0.9]), np.array([0.4]))
    direction = (np.array([0.8]), np.array([0.6]))
    rem = np.array(
        [
            abs(expansion_remainder(pair, x, (s * direction[0], s * direction[1]), order))
            for s in scales
        ]
    )
    slope = np.polyfit(np.log(scales), np.log(rem), 1)[0]
    assert slope >= order + 0.9


def test_remainder_rejects_bad_order():
    # any nonnegative integer is an order; a bool is not
    pair = displaced_ho_pair_raw()
    x = (np.array([0.0]), np.array([0.0]))
    for order in (-1, 1.5, True):
        with pytest.raises(ValueError, match="order"):
            expansion_remainder(pair, x, x, order)


# ---------------------------------------------------------------------------
# Horner evaluation against numpy's polyval


DERIVATIVES = range(6)  # j = 0 (the value) to 5, past the largest degree, 4


def _polyval_reference(term, x):
    """Derivatives j = 0 to 5 as polyval of per-call coefficient lists, the
    cosine's derivative, +cos, -sin, -cos, +sin for j % 4 = 0 to 3, added."""
    c, a = term.coeffs, term.cos_amp
    refs = []
    for j in DERIVATIVES:
        ref = npoly.polyval(x, [perm(k, j) * c[k] for k in range(j, len(c))] or [0.0])
        if a:
            trig = np.cos(x) if j % 2 == 0 else np.sin(x)
            ref = ref + a * trig if j % 4 in (0, 3) else ref - a * trig
        refs.append(ref)
    return refs


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


_COEFF = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])
_POINT = st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=5),
    cos_amp=st.sampled_from([0.0, 0.7]) | st.floats(-3.0, 3.0),
    points=st.lists(_POINT, min_size=1, max_size=8),
    shape=st.sampled_from(["scalar", "vector", "column"]),
)
def test_coord_function_matches_polyval_bit_for_bit(coeffs, cos_amp, points, shape):
    term = CoordFunction(tuple(coeffs), cos_amp)
    x = {
        "scalar": points[0],
        "vector": np.array(points),
        "column": np.array(points)[:, None],
    }[shape]
    got = [term.derivative(j, x) for j in DERIVATIVES]
    for ours, ref in zip(got, _polyval_reference(term, x), strict=True):
        assert _same_bits(ours, ref)
    assert _same_bits(term.value(x), got[0])


def test_coord_function_keeps_signed_zero_of_polyval():
    # polyval seeds with c[-1] + x * 0: a -0.0 constant at x >= 0 gives +0.0
    term = CoordFunction((-0.0,))
    for x in (0.0, -0.0, 2.0, -2.0, np.array([0.0, -0.0, 2.0, -2.0])):
        assert _same_bits(term.value(x), _polyval_reference(term, x)[0])


def test_coord_function_keeps_complex_input():
    term = CoordFunction((0.5, -1.0, 0.25, 0.1), cos_amp=0.3)
    z = np.array([0.3 + 0.2j, -1.1 - 0.4j])
    got = [term.derivative(j, z) for j in DERIVATIVES]
    for ours, ref in zip(got, _polyval_reference(term, z), strict=True):
        assert ours.dtype == np.complex128
        assert _same_bits(ours, ref)


def test_separable_hamiltonian_keeps_complex_input():
    # a complexified orbit evaluates the pair at complex (q, p); casting to
    # real would drop the imaginary part (pair.delta.value read 0.00625 here)
    pair = load("cubic_perturbation").pair
    q = np.array([[0.5 + 0.2j], [-1.2 + 0.0j]])  # two points, one coordinate
    p = np.array([[0.1 - 0.3j], [0.7 + 0.4j]])
    for h in (pair.delta, pair.average, pair.h_prime):
        (kin,), (pot,) = h.kinetic, h.potential
        x, y = q[:, 0], p[:, 0]
        np.testing.assert_array_equal(h.value(q, p), kin.value(y) + pot.value(x))
        np.testing.assert_array_equal(h.kinetic_d1(p), kin.derivative(1, y)[:, None])
        np.testing.assert_array_equal(h.potential_d1(q), pot.derivative(1, x)[:, None])
        np.testing.assert_array_equal(h.kinetic_d2(p), kin.derivative(2, y)[:, None])
        np.testing.assert_array_equal(h.potential_d2(q), pot.derivative(2, x)[:, None])
    assert pair.delta.value(q, p)[0] == pytest.approx(0.00325 + 0.0071j, abs=1e-12)

    tau, avg = 0.05, pair.average
    q_new, p_new = map_step(q, p, avg, tau)
    expected_q = q + tau * avg.kinetic[0].derivative(1, p)
    expected_p = p - tau * avg.potential[0].derivative(1, expected_q)
    np.testing.assert_array_equal(q_new, expected_q)
    np.testing.assert_array_equal(p_new, expected_p)
    assert np.all(q_new.imag != 0.0) and np.all(p_new.imag != 0.0)
