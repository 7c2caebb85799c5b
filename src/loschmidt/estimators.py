"""Phase-space estimators of the fidelity amplitude.

Three approximations of increasing order are provided: ``f0`` averages static
phases of the perturbation over the initial Wigner density, ``f1_dr`` is the
dephasing representation (phases accumulated along classical trajectories of
the reference Hamiltonian), and ``f2_mc`` replaces the deterministic momentum
update by a stochastic draw weighted with a smeared (complex Gaussian) delta
function.  ``f1_dr`` and ``f2_mc`` share one orbit loop over
``dynamics.map_step`` and differ only in the kick: the classical momentum
update (a delta function) at first order, the smeared draw at second order.
``f2_gaussian_chain`` evaluates the same second-order object in
closed form when the dynamics is quadratic and the perturbation is a
quadratic potential: one forward pass carries a complex 2x2 Gaussian in
(q, p) through the steps, so all N values cost O(N), and each Gaussian
integral takes the principal-branch log of a pivot with positive real part.

All Monte Carlo reductions run over fixed, index-ordered batches so results
are reproducible bit-for-bit for a given seed regardless of how work is
scheduled.  Within one series the time steps reuse a single path ensemble,
so errors are correlated across time (flagged in the metadata).

Each step of a Monte Carlo estimator costs one phase factor per sample.
``f0`` runs no orbit, so its phasors follow the recurrence
z_n = z_{n-1} exp(-i tau dH / hbar): one complex product per sample and step
instead of a complex ``exp``.  Every 64 steps (``_F0_REANCHOR_STEPS``) they are
recomputed directly as exp(-i t_n dH / hbar), so the rounding of the products
never builds up over more than 64 of them; the mean then stays within a few
1e-16 of the direct form.  The orbit loop builds exp(-i tau phi / hbar) from
``cos`` and ``sin`` of the real phase into one reused buffer, which gives the
bits of the complex ``exp`` for less time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import check_escape, map_step
from .hamiltonians import HamiltonianPair
from .series import FidelitySeries
from .states import InitialState, sample

DEFAULT_ERROR_BATCHES = 32
# f2_mc proposal width in units of hbar * sqrt(pi * |a_n|)
PROPOSAL_WIDTH_FACTOR = 2.0
# f0 advances its phasors by one step's factor and recomputes them directly
# every this many steps, so rounding cannot accumulate beyond it
_F0_REANCHOR_STEPS = 64
_SINGULAR_RTOL = 1e-12


class SingularExponentError(RuntimeError):
    """Raised when a pivot of the chain's Gaussian integrals is numerically zero."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Run parameters shared by the Monte Carlo estimators."""

    n_traj: int
    seed: int
    tau: float
    n_steps: int
    hbar: float = 1.0
    degenerate_a_threshold: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError("n_traj must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        for name in ("tau", "hbar", "degenerate_a_threshold"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)

    @property
    def run_meta(self) -> dict:
        """The run fields every series records in its meta, in this order."""
        return {"n_traj": self.n_traj, "seed": self.seed, "tau": self.tau,
                "n_steps": self.n_steps, "hbar": self.hbar}


# ---------------------------------------------------------------------------
# fixed-order reductions


def _batch_starts(n: int, n_batches: int) -> np.ndarray:
    b = min(n_batches, n)
    return (np.arange(b) * n) // b


def _ordered_sum(x: np.ndarray, starts: np.ndarray):
    """Sum in fixed index order via per-batch partial sums."""
    if len(starts) == 1:
        return x.sum()
    return np.add.reduceat(x, starts).sum()


def _mean_stderr(z: np.ndarray, starts: np.ndarray):
    """Mean of complex samples and the standard error of that mean
    (real/imaginary sample variances combined in quadrature)."""
    n = z.shape[0]
    mean = _ordered_sum(z, starts) / n
    if n < 2:
        return mean, 0.0
    spread = _ordered_sum(np.abs(z - mean) ** 2, starts)
    return mean, float(np.sqrt(spread / (n - 1) / n))


_BOOTSTRAP_RESAMPLES = 400
_BOOTSTRAP_SEED = 202406  # fixed plan: part of the estimator definition


@lru_cache(maxsize=8)
def _bootstrap_plan(n_batches: int) -> np.ndarray:
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([_BOOTSTRAP_SEED, n_batches]))
    )
    return rng.integers(0, n_batches, size=(_BOOTSTRAP_RESAMPLES, n_batches))


def _weighted_mean_stderr(w: np.ndarray, z: np.ndarray, starts: np.ndarray):
    """Self-normalised weighted complex mean with bootstrap error bars.

    The value is sum(w z) / sum(w), whose numerator and denominator share
    the heavy weights, so the ratio stays on the right scale even when the
    weight distribution degenerates.  The error bar resamples the fixed
    per-batch partial sums (a batch bootstrap of the ratio), which tracks the
    skewed sampling distribution better than the per-batch spread alone.
    """
    wz = w * z
    if len(starts) > 1:
        num = np.add.reduceat(wz, starts)
        den = np.add.reduceat(w, starts)
    else:
        num = np.array([wz.sum()])
        den = np.array([w.sum()])
    value = num.sum() / den.sum()
    b = len(starts)
    if b < 2:
        return value, 0.0
    idx = _bootstrap_plan(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        boots = num[idx].sum(axis=1) / den[idx].sum(axis=1)
    boots = boots[np.isfinite(boots)]
    if boots.size < 2:
        return value, float("inf")
    spread = np.mean(np.abs(boots - boots.mean()) ** 2)
    return value, float(np.sqrt(spread))


# ---------------------------------------------------------------------------
# zeroth order: static phase average


def f0(state: InitialState, pair: HamiltonianPair, config: EstimatorConfig) -> FidelitySeries:
    """Static average exp(-i t dH(x0) / hbar) over the initial Wigner density.

    No trajectories are run; the estimator is exact whenever the average
    Hamiltonian is constant and the perturbation affine in phase space.
    The phasors advance by one step's factor and are recomputed directly
    every ``_F0_REANCHOR_STEPS`` steps (see the module docstring).
    """
    times = config.times
    meta = {
        "estimator": "f0",
        **config.run_meta,
        "correlated_time_steps": True,
    }
    if pair.delta.is_zero:
        return FidelitySeries(times, np.ones_like(times, dtype=complex),
                              np.zeros_like(times), meta)
    q, p = sample(state, config.n_traj, config.seed, config.hbar)
    phi = pair.delta.value(q, p)
    starts = _batch_starts(config.n_traj, DEFAULT_ERROR_BATCHES)
    values = np.empty(len(times), dtype=complex)
    stderr = np.empty(len(times))
    # the direct form of step 1, whose t = times[1] is tau as a float64
    step = np.exp(-1j * np.float64(config.tau) / config.hbar * phi)
    for n, t in enumerate(times):
        if n % _F0_REANCHOR_STEPS == 0:
            z = np.exp(-1j * t / config.hbar * phi)
        else:
            z *= step
        values[n], stderr[n] = _mean_stderr(z, starts)
    return FidelitySeries(times, values, stderr, meta)


# ---------------------------------------------------------------------------
# first and second order: one orbit loop


def _orbit_loop(state, pair, config, h, reduce, kick=None):
    """Follow the kick map of ``h`` and record reduce(exp(-i tau phi / hbar)).

    phi accumulates dH(q_{j+1}, p_j) as described in ``f1_dr``.  ``reduce``
    receives one phasor buffer that the next step overwrites.
    ``kick(q, p)``, when given, replaces the classical momenta after each
    step has been recorded.
    """
    tau, hbar = config.tau, config.hbar
    q, p = sample(state, config.n_traj, config.seed, hbar)
    starts = _batch_starts(config.n_traj, DEFAULT_ERROR_BATCHES)
    phi = np.zeros(config.n_traj)
    theta = np.empty(config.n_traj)
    z = np.empty(config.n_traj, dtype=complex)
    values = np.empty(config.n_steps + 1, dtype=complex)
    stderr = np.empty(config.n_steps + 1)
    values[0], stderr[0] = 1.0 + 0.0j, 0.0
    for n in range(1, config.n_steps + 1):
        q_new, p_new = map_step(q, p, h, tau)
        phi += pair.delta.value(q_new, p)
        # rebind before the reduction so the old momenta are freed early
        q, p = q_new, p_new
        check_escape(q, p)
        # z = exp(-1j * tau / hbar * phi), bit for bit: that argument has a
        # zero real part and the imaginary part -tau / hbar * phi
        np.multiply(phi, -tau / hbar, out=theta)
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        values[n], stderr[n] = reduce(z, starts)
        if kick is not None:
            p = kick(q, p)
    return values, stderr


def f1_dr(
    state: InitialState,
    pair: HamiltonianPair,
    config: EstimatorConfig,
    reference: str = "average",
) -> FidelitySeries:
    """Dephasing representation: phase average along classical trajectories.

    Each sampled point follows the kick map of the reference Hamiltonian;
    the accumulated phase is tau * sum_j dH(q_{j+1}, p_j), i.e. the potential
    part of the perturbation is evaluated at the new position and the kinetic
    part at the old momentum.  ``reference='h_prime'`` propagates with the
    unperturbed Hamiltonian instead of the average one, which demonstrably
    breaks exactness even for displaced harmonic oscillators.
    """
    if reference not in ("average", "h_prime"):
        raise ValueError(f"unknown reference {reference!r}")
    h_ref = pair.average if reference == "average" else pair.h_prime
    values, stderr = _orbit_loop(state, pair, config, h_ref, _mean_stderr)
    meta = {
        "estimator": "f1",
        "reference": reference,
        **config.run_meta,
        "correlated_time_steps": True,
    }
    return FidelitySeries(config.times, values, stderr, meta)


def _require_position_perturbation(state, pair):
    if state.dims != 1 or pair.dims != 1:
        raise ValueError("second-order estimators support one degree of freedom only")
    if not all(t.is_zero for t in pair.delta.kinetic):
        raise ValueError("perturbation must be momentum independent")


def f2_mc(state: InitialState, pair: HamiltonianPair, config: EstimatorConfig) -> FidelitySeries:
    """Second-order estimator with stochastic (smeared) momentum propagation.

    Positions advance classically.  Whenever the local curvature of the
    perturbing potential matters (|a_n| above the degeneracy threshold) the
    momentum is drawn from a Gaussian proposal centred on the classical
    update and the path weight picks up the ratio of the smeared delta
    function to the proposal density; otherwise the momentum update is the
    classical one with unit weight, which reproduces the dephasing
    representation path by path.

    The proposal width is calibrated so the Fresnel phase b**2/(4a) sweeps
    at least 4*pi across +-2 sigma at a width factor of 2:
    sigma_prop = PROPOSAL_WIDTH_FACTOR * hbar * sqrt(pi * |a_n|).
    """
    _require_position_perturbation(state, pair)
    tau, hbar = config.tau, config.hbar
    n = config.n_traj
    # proposal draws come from a child stream so they can never collide with
    # the initial-condition sampler stream
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([config.seed, 1]))
    )
    weight = np.ones(n, dtype=complex)
    planck = 2.0 * np.pi * hbar

    def smeared_kick(q, p):
        nonlocal weight
        a = tau / (8.0 * hbar) * pair.delta.potential_d2(q)[..., 0]
        smear = np.abs(a) >= config.degenerate_a_threshold
        if not np.any(smear):
            return p
        a_safe = np.where(smear, a, 1.0)
        abs_a = np.abs(a_safe)
        sigma_prop = PROPOSAL_WIDTH_FACTOR * hbar * np.sqrt(np.pi * abs_a)
        # the drawn momentum is the classical one plus sigma_prop * xi, so the
        # offset b and the proposal density come from xi without cancellation
        xi = rng.standard_normal(n)
        b = sigma_prop * xi / hbar
        smeared_delta = (
            np.sqrt(np.pi / abs_a)
            / planck
            * np.exp(1j * (b**2 / (4.0 * a_safe) - np.pi * np.sign(a_safe) / 4.0))
        )
        proposal = np.exp(-0.5 * xi**2) / (sigma_prop * np.sqrt(2.0 * np.pi))
        weight = weight * np.where(smear, smeared_delta / proposal, 1.0)
        # rescale to dodge overflow in the products; the reported value
        # and error are ratios in the weights, so a common factor
        # cancels exactly
        peak = np.max(np.abs(weight))
        if peak > 1e250:
            weight = weight / peak
        return np.where(smear, p[..., 0] + sigma_prop * xi, p[..., 0])[:, None]

    # each step is recorded with the weight accumulated so far: the current
    # step's momentum factor integrates to one and would only add variance
    values, stderr = _orbit_loop(
        state, pair, config, pair.average,
        lambda z, starts: _weighted_mean_stderr(weight, z, starts),
        smeared_kick,
    )

    mags = np.abs(weight)
    peak = mags.max()
    if peak > 0 and np.isfinite(peak):
        r = mags / peak
        ess = r.sum() ** 2 / (r**2).sum()
    else:
        ess = 0.0
    if ess < 0.01 * n:
        warnings.warn(
            f"second-order path weights degenerated: effective sample size "
            f"{ess:.1f} of {n}; the reported error bars are wide but honest",
            RuntimeWarning,
            stacklevel=2,
        )
    meta = {
        "estimator": "f2_mc",
        **config.run_meta,
        "degenerate_a_threshold": config.degenerate_a_threshold,
        "effective_sample_size": float(ess),
        "correlated_time_steps": True,
    }
    return FidelitySeries(config.times, values, stderr, meta)


# ---------------------------------------------------------------------------
# second order, closed form for quadratic chains


def _quadratic_coeffs(term, what: str, max_degree: int = 2):
    if term.cos_amp != 0.0 or term.degree > max_degree:
        raise ValueError(f"{what} must be polynomial of degree <= {max_degree}")
    c = term.coeffs + (0.0,) * (max_degree + 1 - len(term.coeffs))
    return c[: max_degree + 1]


def _substitute(a, b, c, m, s):
    """Rewrite exp(-x^T a x / 2 + b . x + c) under the change x -> m x + s."""
    a_s = a @ s
    return m.T @ a @ m, m.T @ (b - a_s), c + b @ s - 0.5 * (s @ a_s)


def _integrate_out(a, b, c, j, step, scale=None):
    """Integrate exp(-x^T a x / 2 + b . x + c) over the variable x_j.

    Returns the Gaussian in the remaining variables and the pivot ratio
    |a_jj| / scale, where ``scale`` defaults to max|a|.  Every pivot the
    chain meets has a positive real part, so the principal-branch log of the
    pivot selects the square root reached continuously from the real case.
    """
    pivot = a[j, j]
    ratio = abs(pivot) / (np.abs(a).max() if scale is None else scale)
    if not ratio > _SINGULAR_RTOL:
        raise SingularExponentError(
            f"singular exponent matrix at step {step}: pivot ratio {ratio:.3e} "
            f"<= {_SINGULAR_RTOL:g}; change tau or degenerate_a_threshold"
        )
    keep = [i for i in range(len(b)) if i != j]
    col = a[keep, j]
    a_new = a[np.ix_(keep, keep)] - np.outer(col, col) / pivot
    b_new = b[keep] - col * (b[j] / pivot)
    c_new = c + b[j] ** 2 / (2.0 * pivot) + 0.5 * (np.log(2.0 * np.pi) - np.log(pivot))
    return a_new, b_new, c_new, ratio


def f2_gaussian_chain(
    state: InitialState, pair: HamiltonianPair, config: EstimatorConfig
) -> FidelitySeries:
    """Closed-form second-order fidelity for quadratic chains.

    Requires a single Gaussian initial state, quadratic kinetic and potential
    parts of the average Hamiltonian and a quadratic perturbing potential.
    The integrand is then a Markov chain in (q_k, p_k), and one forward pass
    carries the Gaussian g(q, p) = exp(-x^T A x / 2 + b . x + c) of the
    current phase-space point, with A complex symmetric 2x2.  Each step
    shears q by the drift, multiplies in the perturbation phase, reads f(n)
    as the integral of g (two 1-D Gaussian integrals), shears p by the
    classical kick and, unless the chain is degenerate, convolves p with the
    normalised Fresnel kernel of the smeared momentum update.  All N values
    cost O(N); each 1-D integral has a pivot with positive real part, whose
    principal-branch log gives the square-root branch.  The result is exact
    (deterministic, stderr = 0), which makes this the reference the Monte
    Carlo version is validated against.
    """
    _require_position_perturbation(state, pair)
    if len(state.components) != 1:
        raise ValueError("closed-form chain needs a single Gaussian component")
    comp = state.components[0]
    _, t1, t2 = _quadratic_coeffs(pair.average.kinetic[0], "kinetic part")
    _, v1, v2 = _quadratic_coeffs(pair.average.potential[0], "average potential")
    d0, d1, d2 = _quadratic_coeffs(pair.delta.potential[0], "perturbing potential")
    # both branch potentials must individually be quadratic as well
    _quadratic_coeffs(pair.h_prime.potential[0], "unperturbed potential")

    tau, hbar = config.tau, config.hbar
    a_fresnel = tau * d2 / (4.0 * hbar)
    degenerate = abs(a_fresnel) < config.degenerate_a_threshold

    # initial Wigner density exp(-(q-qbar)^2/sq^2 - (p-pbar)^2/sp^2) / (pi hbar)
    x0 = np.array([comp.center_q[0], comp.center_p[0]])
    a = np.diag([2.0 / comp.sigma[0] ** 2, 2.0 * comp.sigma[0] ** 2 / hbar**2]) + 0j
    b = a @ x0
    c = -np.log(np.pi * hbar) - 0.5 * (x0 @ b)
    # drift q_old = q - 2 tau t2 p - tau t1
    drift_m = np.array([[1.0, -2.0 * tau * t2], [0.0, 1.0]])
    drift_s = np.array([-tau * t1, 0.0])
    # kick p_old = p + tau (v1 + 2 v2 q), less the momentum smear eta when the
    # Fresnel kernel C exp(i eta^2 / (4 a hbar^2)) is integrated out
    kick_m = np.array([[1.0, 0.0, 0.0], [2.0 * tau * v2, 1.0, -1.0]])
    kick_s = np.array([0.0, tau * v1])
    if degenerate:
        kick_m = kick_m[:, :2]
    else:
        fresnel_k = -1j / (2.0 * a_fresnel * hbar**2)
        log_fresnel_c = (
            -np.log(2.0 * np.pi * hbar)
            + 0.5 * np.log(np.pi / abs(a_fresnel))
            - 1j * np.pi * np.sign(a_fresnel) / 4.0
        )

    times = config.times
    values = np.empty(len(times), dtype=complex)
    values[0] = 1.0
    min_ratio = 1.0  # a ratio of one or more is a well-conditioned pivot
    for n in range(1, len(times)):
        a, b, c = _substitute(a, b, c, drift_m, drift_s)
        a[0, 0] += 2j * tau * d2 / hbar
        b[0] -= 1j * tau * d1 / hbar
        c -= 1j * tau * d0 / hbar
        scale = np.abs(a).max()
        a_q, b_q, c_n, r_p = _integrate_out(a, b, c, 1, n, scale)
        _, _, c_n, r_q = _integrate_out(a_q, b_q, c_n, 0, n, scale)
        values[n] = np.exp(c_n)
        min_ratio = min(min_ratio, r_p, r_q)
        if n == len(times) - 1:
            break
        a, b, c = _substitute(a, b, c, kick_m, kick_s)
        if not degenerate:
            a[2, 2] += fresnel_k
            a, b, c, r_eta = _integrate_out(a, b, c + log_fresnel_c, 2, n)
            min_ratio = min(min_ratio, r_eta)
    meta = {
        "estimator": "f2_gaussian",
        **config.run_meta,
        "n_traj": None,  # deterministic: no ensemble and no seed
        "seed": None,
        "degenerate_chain": bool(degenerate),
        "chain_min_pivot_ratio": float(min_ratio),
    }
    return FidelitySeries(times, values, np.zeros(len(times)), meta)
