import tracemalloc

import numpy as np
import pytest
from scipy import stats

from loschmidt.states import GaussianComponent, InitialState, sample, wigner_density


def wavefunction_1d(comp, q, hbar=1.0):
    s = comp.sigma[0]
    return (np.pi * s**2) ** -0.25 * np.exp(
        -((q - comp.center_q[0]) ** 2) / (2 * s**2)
        + 1j * comp.center_p[0] * (q - comp.center_q[0]) / hbar
    )


def wigner_transform_oracle(comp, q, p, hbar=1.0):
    """Direct transform integral of |psi><psi| on a fine xi grid.

    Uses the operator matrix element <q - xi/2| rho |q + xi/2>, i.e.
    psi(q - xi/2) psi*(q + xi/2).
    """
    xi = np.linspace(-30 * comp.sigma[0], 30 * comp.sigma[0], 20001)
    integrand = (
        wavefunction_1d(comp, q - xi / 2, hbar)
        * np.conj(wavefunction_1d(comp, q + xi / 2, hbar))
        * np.exp(1j * p * xi / hbar)
    )
    return np.trapezoid(integrand, xi).real


# ---------------------------------------------------------------------------
# construction


def test_component_validation():
    with pytest.raises(ValueError, match="sigma"):
        GaussianComponent([0.0], [0.0], [-1.0])
    with pytest.raises(ValueError, match="weight"):
        GaussianComponent([0.0], [0.0], [1.0], weight=1.5)
    with pytest.raises(ValueError, match="shape"):
        GaussianComponent([0.0, 1.0], [0.0], [1.0])


def test_state_weight_sum_enforced():
    a = GaussianComponent([0.0], [0.0], [1.0], 0.6)
    b = GaussianComponent([3.0], [0.0], [1.0], 0.6)
    with pytest.raises(ValueError, match="weights sum"):
        InitialState((a, b))
    with pytest.raises(ValueError, match="component"):
        InitialState(())


def test_sigma_broadcast_over_coordinates():
    comp = GaussianComponent([0.0, 1.0], [0.0, 0.0], [2.0])
    np.testing.assert_allclose(comp.sigma, [2.0, 2.0])


# ---------------------------------------------------------------------------
# Wigner density


def test_wigner_center_value_against_transform_integral():
    comp = GaussianComponent([0.0], [0.0], [1.0])
    state = InitialState((comp,))
    got = wigner_density(state, np.array([0.0]), np.array([0.0]))
    assert got == pytest.approx(2.0, abs=1e-12)
    oracle = wigner_transform_oracle(comp, 0.0, 0.0)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_wigner_matches_transform_integral_at_probe_points():
    comp = GaussianComponent([0.4], [-1.1], [0.8])
    state = InitialState((comp,))
    rng = np.random.default_rng(5)
    for _ in range(4):
        q, p = rng.normal(size=2)
        got = wigner_density(state, np.array([q]), np.array([p]))
        assert got == pytest.approx(wigner_transform_oracle(comp, q, p), abs=1e-8)


def test_wigner_tail_decay():
    state = InitialState.gaussian([0.0], [0.0], [1.0])
    assert wigner_density(state, np.array([6.5]), np.array([0.0])) < 1e-12
    assert wigner_density(state, np.array([0.0]), np.array([6.5])) < 1e-12


def test_wigner_two_component_mixture_at_centers():
    a = GaussianComponent([-6.0], [0.0], [0.5], 0.5)
    b = GaussianComponent([+6.0], [0.0], [0.5], 0.5)
    state = InitialState((a, b))
    # components are >= 10 sigma apart: each center sees only its own peak
    val = wigner_density(state, np.array([-6.0]), np.array([0.0]))
    assert val == pytest.approx(0.5 * 2.0, abs=1e-12)


def test_wavefunction_normalization_on_grid():
    comp = GaussianComponent([0.3], [1.2], [0.7])
    q = np.linspace(-12, 12, 2**14)
    prob = np.abs(wavefunction_1d(comp, q)) ** 2
    assert np.trapezoid(prob, q) == pytest.approx(1.0, abs=1e-10)


def test_wigner_normalization_quadrature():
    # h^-D integral of rho_W equals one
    hbar = 1.0
    state = InitialState.gaussian([0.2], [-0.4], [1.3])
    q = np.linspace(-12, 12, 801)
    p = np.linspace(-8, 8, 801)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    rho = wigner_density(state, qq[..., None], pp[..., None], hbar)
    integral = np.trapezoid(np.trapezoid(rho, p, axis=1), q)
    assert integral / (2 * np.pi * hbar) == pytest.approx(1.0, abs=1e-8)


def test_wigner_momentum_marginal_reproduces_position_density():
    comp = GaussianComponent([0.5], [0.7], [0.9])
    state = InitialState((comp,))
    q = np.linspace(-3, 4, 41)
    p = np.linspace(-10, 10, 4001)
    rho = wigner_density(state, q[:, None, None], p[None, :, None])
    marginal = np.trapezoid(rho, p, axis=1) / (2 * np.pi)
    expected = np.abs(wavefunction_1d(comp, q)) ** 2
    np.testing.assert_allclose(marginal, expected, atol=1e-6)


def test_wigner_dimension_mismatch():
    state = InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="coordinates"):
        wigner_density(state, np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# sampling


def test_sample_moments_single_component():
    state = InitialState.gaussian([1.0], [-2.0], [1.0])
    q, p = sample(state, 100000, seed=123)
    for arr, target, var in ((q, 1.0, 0.5), (p, -2.0, 0.5)):
        stderr = arr.std(ddof=1) / np.sqrt(len(arr))
        assert abs(arr.mean() - target) < 4 * stderr
    assert q.var(ddof=1) == pytest.approx(0.5, rel=0.05)  # sigma^2 / 2


def test_sample_determinism_bitwise():
    state = InitialState.gaussian([0.0, 1.0], [0.5, 0.0], [1.0, 2.0])
    q1, p1 = sample(state, 512, seed=9)
    q2, p2 = sample(state, 512, seed=9)
    assert np.array_equal(q1, q2) and np.array_equal(p1, p2)
    q3, _ = sample(state, 512, seed=10)
    assert not np.array_equal(q1, q3)


def test_sample_mixture_weights():
    a = GaussianComponent([-5.0], [0.0], [0.5], 0.25)
    b = GaussianComponent([+5.0], [0.0], [0.5], 0.75)
    state = InitialState((a, b))
    q, _ = sample(state, 40000, seed=4)
    frac_right = np.mean(q[:, 0] > 0)
    assert frac_right == pytest.approx(0.75, abs=0.01)


def test_sample_histogram_chi2_against_wigner():
    # target density is the normalised Wigner function, which for this state
    # factorises into normals N(0, sigma^2/2) x N(0, hbar^2/(2 sigma^2));
    # exact bin probabilities via the normal CDF, chi^2 p-value > 0.001
    hbar, sigma = 1.0, 1.0
    state = InitialState.gaussian([0.0], [0.0], [sigma])
    n = 100000
    q, p = sample(state, n, seed=77, hbar=hbar)
    edges = np.linspace(-3.2, 3.2, 17)
    counts, _, _ = np.histogram2d(q[:, 0], p[:, 0], bins=[edges, edges])
    cdf_q = stats.norm.cdf(edges, scale=sigma / np.sqrt(2))
    cdf_p = stats.norm.cdf(edges, scale=hbar / (sigma * np.sqrt(2)))
    prob = np.outer(np.diff(cdf_q), np.diff(cdf_p))
    expected = n * prob
    mask = expected > 10
    chi2 = np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask])
    dof = mask.sum() - 1
    p_value = stats.chi2.sf(chi2, dof)
    assert p_value > 0.001
    # and the CDF-based bin probabilities are consistent with wigner_density
    # (midpoint rule, so compare only where the density is not tail-curved)
    centers = 0.5 * (edges[1:] + edges[:-1])
    qq, pp = np.meshgrid(centers, centers, indexing="ij")
    dens = wigner_density(state, qq[..., None], pp[..., None], hbar) / (
        2 * np.pi * hbar
    )
    cell = np.diff(edges)[0] ** 2
    central = prob > 5e-3
    np.testing.assert_allclose((dens * cell)[central], prob[central], rtol=0.05)


def expression_sample(state, n, seed, hbar=1.0):
    """``sample`` as it was: each coordinate from one expression, on
    temporaries of the chosen components' rows."""
    rng = np.random.Generator(np.random.Philox(seed))
    comps = state.components
    if len(comps) == 1:
        idx = np.zeros(n, dtype=np.intp)
    else:
        cum = np.cumsum([c.weight for c in comps])
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")
    centers_q = np.stack([c.center_q for c in comps])
    centers_p = np.stack([c.center_p for c in comps])
    sigmas = np.stack([c.sigma for c in comps])
    zq = rng.standard_normal((n, state.dims))
    zp = rng.standard_normal((n, state.dims))
    q = centers_q[idx] + zq * sigmas[idx] / np.sqrt(2.0)
    p = centers_p[idx] + zp * hbar / (sigmas[idx] * np.sqrt(2.0))
    return q, p


@pytest.mark.parametrize("state", [
    InitialState.gaussian([0.3], [-1.2], [0.7]),
    InitialState.gaussian([0.0, 1.0], [0.5, 0.0], [1.0, 2.0]),
    InitialState((GaussianComponent([-1.0, 0.2], [0.3, 0.1], [0.8, 1.1], 0.3),
                  GaussianComponent([1.5, 0.0], [-0.2, 0.0], [1.2, 0.7], 0.7))),
])
def test_sample_scales_in_place_with_the_bits_of_the_expressions(state):
    # one component takes nothing beside its result, 16 bytes a point and
    # coordinate, and numpy's fixed-size buffers (the expressions took 56 bytes);
    # a mixture still takes temporaries
    n = 200_000
    sample(state, 10, seed=1, hbar=0.6)  # the first draw sets up lazily
    tracemalloc.start()
    try:
        q, p = sample(state, n, seed=5, hbar=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_q, want_p = expression_sample(state, n, seed=5, hbar=0.6)
    assert q.tobytes() == want_q.tobytes() and p.tobytes() == want_p.tobytes()
    if len(state.components) == 1:
        assert peak <= 16 * n * state.dims + 2**20, peak


def test_sample_rejects_bad_count():
    state = InitialState.gaussian([0.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="sample"):
        sample(state, 0, seed=1)
