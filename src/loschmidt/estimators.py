"""Phase-space estimators of the fidelity amplitude.

Three approximations of increasing order are provided: ``f0`` averages static
phases of the perturbation over the initial Wigner density, ``f1_dr`` is the
dephasing representation (phases accumulated along classical trajectories of
the reference Hamiltonian), and ``f2_mc`` smears the deterministic momentum
update with a Fresnel (complex Gaussian) kernel.  ``f1_dr`` and ``f2_mc``
share one orbit loop over ``dynamics.map_step`` and differ only in the kick:
the classical momentum update (a delta function) at first order, a smeared
draw at second order wherever the curvature of the perturbing potential is
not an exact zero.  When the average Hamiltonian is quadratic, ``f2_mc``
draws each smear on the kernel's steepest-descent line (the Lefschetz
thimble), so every path has weight one and the orbit continues at complex
(q, p); other averages keep a one-dimensional real-axis sampler with
complex importance weights.
``f2_gaussian_chain`` evaluates the same second-order object in closed form
when the dynamics is quadratic and the perturbation is a quadratic
potential, as one O(N) chain per coordinate and component.  Both refuse a
perturbation with a kinetic part.

All Monte Carlo reductions run over fixed, index-ordered batches so results
are reproducible bit-for-bit for a given seed regardless of how work is
scheduled.  The orbit loop steps an ensemble of at least
2 * ``_MIN_CHUNK_TRAJ`` trajectories in chunks of whole batches, one per CPU
the process may run on, on threads (numpy releases the GIL in its array
loops); every draw is keyed by its batch and every sum runs in batch order,
so the results are the same bits for any CPU count.  Within one series the
time steps reuse a single path ensemble, so errors are correlated across
time (flagged in the metadata).
"""
from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .dynamics import check_escape, map_step
from .hamiltonians import EXACT, HamiltonianPair, predicted_exactness
from .series import FidelitySeries
from .states import InitialState, sample

DEFAULT_ERROR_BATCHES = 32
# f2_mc proposal width in units of hbar * sqrt(pi * |a_n|)
PROPOSAL_WIDTH_FACTOR = 2.0
# f0 advances its phasors by one step's factor and recomputes them directly
# every this many steps, so rounding cannot accumulate beyond it
_F0_REANCHOR_STEPS = 64
_SINGULAR_RTOL = 1e-12
# the orbit loop splits the ensemble only into chunks of about this many
# trajectories or more: below it, handing a chunk to a thread costs more than
# the chunk's arithmetic
_MIN_CHUNK_TRAJ = 50_000
_TINY = np.finfo(float).tiny


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

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError("n_traj must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        for name in ("tau", "hbar"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

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
    num = np.add.reduceat(w * z, starts)
    den = np.add.reduceat(w, starts)
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
    The phasors follow z_n = z_{n-1} exp(-i tau dH / hbar), one complex
    product per sample and step instead of a complex ``exp``, and are
    recomputed directly every ``_F0_REANCHOR_STEPS`` steps, so the rounding
    of the products never builds up over more than that many of them; the
    mean stays within a few 1e-16 of the direct form.
    """
    times = config.times
    meta = {
        "estimator": "f0",
        **config.run_meta,
        "correlated_time_steps": True,
    }
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


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batch_edges(n: int) -> list:
    """Bounds of the error batches of n samples: batch b is edges[b]:edges[b + 1]."""
    return [*_batch_starts(n, DEFAULT_ERROR_BATCHES).tolist(), n]


def _chunks(n: int, split: bool = True) -> list:
    """The chunks the orbit loop advances: (batches, lo, hi) per chunk, a
    contiguous run of whole error batches and its trajectories lo:hi.  There
    is one chunk per available CPU, but no more than leave each chunk about
    ``_MIN_CHUNK_TRAJ`` trajectories, and one chunk without ``split``."""
    edges = _batch_edges(n)
    batches = len(edges) - 1
    count = max(1, min(_available_cpus(), n // _MIN_CHUNK_TRAJ, batches)) if split else 1
    cuts = [(c * batches) // count for c in range(count + 1)]
    return [(range(b0, b1), edges[b0], edges[b1]) for b0, b1 in zip(cuts[:-1], cuts[1:])]


_pool = None  # works every chunk but the caller's; made on the first split
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(tasks) -> None:
    """Run the callables ``tasks``: the first on the calling thread, the
    others on the shared pool.  Returns once every task has finished; the
    first exception in task order is then raised."""
    global _pool
    if len(tasks) == 1:
        tasks[0]()
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            # one thread per CPU besides the caller's: a thread more would
            # only add a malloc arena
            _pool = ThreadPoolExecutor(max(1, _available_cpus() - 1), "loschmidt-chunk")
    futures = [_pool.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        for future in futures:
            future.exception()  # waits for the task, whatever the caller's outcome
    for future in futures:
        future.result()


def _orbit_chunk(q, p, z, h, delta, config, kick):
    """The step of one chunk's orbit: ``step(last)`` advances (q, p) and phi
    by one step, writes the chunk's phasors into its slice ``z`` of the
    shared buffer and, unless ``last``, kicks the momenta for the next step."""
    tau, hbar = config.tau, config.hbar
    phi = np.zeros(len(z))
    theta = np.empty(len(z))

    def step(last):
        nonlocal q, p, phi
        q_new, p_new = map_step(q, p, h, tau)
        phi += delta.value(q_new, p)
        # rebind before the phasor so the old momenta are freed early
        q, p = q_new, p_new
        check_escape(q, p)
        # z = exp(-1j * tau / hbar * phi), bit for bit for real phi: that
        # argument has a zero real part and the imaginary part -tau / hbar * phi
        np.multiply(phi.real, -tau / hbar, out=theta)
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        if phi.dtype.kind == "c":
            np.multiply(phi.imag, tau / hbar, out=theta)
            np.exp(theta, out=theta)
            np.multiply(z.real, theta, out=z.real)
            np.multiply(z.imag, theta, out=z.imag)
        if kick is not None and not last:
            p = kick(q, p)
            if p.dtype.kind == "c" and phi.dtype.kind != "c":
                phi = phi.astype(complex)  # the orbit leaves the real axis

    return step


def _orbit_loop(state, pair, config, h, reduce, kick=None, split=True):
    """Follow the kick map of ``h`` and record reduce(exp(-i tau phi / hbar)).

    phi accumulates dH(q_{j+1}, p_j) as described in ``f1_dr``.  ``reduce``
    receives one phasor buffer that the next step overwrites.  ``kick``,
    when given, maps a range of error batches to the kick of their
    trajectories, ``kick(batches)(q, p)``, which replaces the classical
    momenta after every step but the last.  A kick may return complex
    momenta; from then on the orbit, phi and the phasor are complex, and the
    phasor is exp(tau Im phi / hbar) (cos, sin)(-tau Re phi / hbar).

    The ensemble advances in contiguous chunks of whole error batches
    (``_chunks``), one per available CPU from 2 * ``_MIN_CHUNK_TRAJ``
    trajectories on.  Per step, each chunk runs its own orbit, phasor and
    kick (``_orbit_chunk``); the calling thread works the first chunk and a
    shared thread pool the others.  ``reduce`` then runs on the whole buffer,
    in batch order.  Every element sees the same operations however the
    ensemble is split, so the results are bit-identical for any CPU count.
    An exception in a chunk is raised once every chunk of its step has
    finished, the first in chunk order.  ``split=False`` keeps one chunk, for
    a kick or a reduction whose state spans the whole ensemble.
    """
    n_traj = config.n_traj
    q, p = sample(state, n_traj, config.seed, config.hbar)
    z = np.empty(n_traj, dtype=complex)
    steps = [
        _orbit_chunk(q[lo:hi], p[lo:hi], z[lo:hi], h, pair.delta, config,
                     None if kick is None else kick(batches))
        for batches, lo, hi in _chunks(n_traj, split)
    ]
    del q, p  # the chunks hold the sampled ensemble until their first step
    starts = _batch_starts(n_traj, DEFAULT_ERROR_BATCHES)
    values = np.empty(config.n_steps + 1, dtype=complex)
    stderr = np.empty(config.n_steps + 1)
    values[0], stderr[0] = 1.0 + 0.0j, 0.0
    for n in range(1, config.n_steps + 1):
        _run_chunks([partial(step, n == config.n_steps) for step in steps])
        values[n], stderr[n] = reduce(z, starts)
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
    if state.dims != pair.dims:
        raise ValueError("state and Hamiltonian dimensions differ")
    if not all(t.is_zero for t in pair.delta.kinetic):
        raise ValueError("perturbation must be momentum independent")


def _thimble_kick(pair, config, batches=None):
    """The smeared momentum update drawn on its steepest-descent line, for
    the trajectories of the error batches ``batches`` (a range; all of them
    by default).

    One step smears each classical momentum with the normalised Fresnel
    kernel C exp(i eta^2 / (4 a hbar^2)), a = tau V_delta''(q) / (8 hbar) of
    its coordinate.  On the line eta = sqrt(i a) t that kernel is the normal
    density of t with variance 2 hbar^2, so eta = sqrt(i a) sqrt(2) hbar xi
    with xi standard normal, and every path weight is exactly one.  Either
    root serves, since xi is symmetric.  Where a is an exact zero, eta is an
    exact zero.  An affine V_delta has a = 0 everywhere, which the pair
    tells without a look at the orbit: its kick returns the momenta as
    given, and the orbit stays real.

    Draws come from one Philox stream per error batch, keyed
    (seed, 1, batch), so they do not depend on how the ensemble is split.
    """
    if all(t.cos_amp == 0.0 and t.degree <= 1 for t in pair.delta.potential):
        return lambda q, p: p
    edges = _batch_edges(config.n_traj)
    batches = range(len(edges) - 1) if batches is None else batches
    lo = edges[batches.start]
    slices = [slice(edges[b] - lo, edges[b + 1] - lo) for b in batches]
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 1, b])))
        for b in batches
    ]
    # reused buffers: a fresh ensemble-sized array costs more (page faults)
    # than the arithmetic done on it here
    t, small, g = np.empty((3, edges[batches.stop] - lo, pair.dims))
    # sqrt(a) sqrt(2) hbar = sqrt(V_delta'') sqrt(tau hbar) / 2
    scale = 0.5 * np.sqrt(config.tau * config.hbar)

    def kick(q, p):
        u = pair.delta.potential_d2(q).astype(complex, copy=False)
        # a root of i u from real operations that cancel nothing: with
        # t = sqrt(2 (|u| + |Im u|)) it is t / 2 + i Re(u) / t where the sign
        # bit of Im u is set and Re(u) / t + i t / 2 elsewhere
        np.add(np.abs(u.imag, out=t), np.abs(u), out=t)
        np.sqrt(np.multiply(t, 2.0, out=t), out=t)
        # t is 0 only where u is 0, and above 1e-162 elsewhere, so flooring it
        # at the smallest normal float gives eta = 0 there and no other change
        np.divide(u.real, np.maximum(t, _TINY, out=small), out=small)
        larger = np.multiply(t, 0.5, out=t)
        # select by g in {0, 1}: exact products, and no branch on a random sign
        g[...] = np.signbit(u.imag)
        root = np.empty_like(u)  # becomes the new momenta
        np.multiply(g, larger, out=root.real)
        np.multiply(g, small, out=root.imag)
        g_not = np.subtract(1.0, g, out=g)
        root.real += np.multiply(g_not, small, out=small)
        root.imag += np.multiply(g_not, larger, out=larger)
        xi = t
        for stream, sl in zip(streams, slices):
            stream.standard_normal(out=xi[sl])
        np.multiply(root, np.multiply(xi, scale, out=xi), out=root)
        root += p
        return root

    return kick


def _real_axis_f2(state, pair, config):
    """The momentum smear sampled on the real axis with complex path weights.

    Wherever a_n != 0 the momentum is drawn from a Gaussian proposal centred
    on the classical update and the path weight picks up the ratio of the
    smeared delta function to the proposal density.  The proposal width is
    calibrated so the Fresnel phase b**2/(4a) sweeps at least 4*pi across
    +-2 sigma at a width factor of 2:
    sigma_prop = PROPOSAL_WIDTH_FACTOR * hbar * sqrt(pi * |a_n|).
    The weight modulus is heavy-tailed, so the reduction is a self-normalised
    weighted mean with batch-bootstrap error bars.  Returns the values, the
    errors and the effective sample size of the weights the last step was
    recorded with.
    """
    if pair.dims != 1:
        raise ValueError("f2_mc off the thimble supports one degree of freedom only")
    tau, hbar = config.tau, config.hbar
    n = config.n_traj
    # proposal draws come from a child stream so they can never collide with
    # the initial-condition sampler stream
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([config.seed, 1]))
    )
    weight = np.ones(n, dtype=complex)
    following = None  # the weight after the last smear, once its step is recorded
    planck = 2.0 * np.pi * hbar

    def smeared_kick(q, p):
        nonlocal following
        a = tau / (8.0 * hbar) * pair.delta.potential_d2(q)[..., 0]
        smear = a != 0.0
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
        following = weight * np.where(smear, smeared_delta / proposal, 1.0)
        # rescale to dodge overflow in the products; the reported value
        # and error are ratios in the weights, so a common factor
        # cancels exactly
        peak = np.max(np.abs(following))
        if peak > 1e250:
            following = following / peak
        return np.where(smear, p[..., 0] + sigma_prop * xi, p[..., 0])[:, None]

    def record(z, starts):
        # each step is recorded with the weight accumulated before its own
        # smear, whose momentum factor integrates to one and would only add
        # variance; the loop kicks before it records, so the new weight
        # takes over only here
        nonlocal weight, following
        recorded = _weighted_mean_stderr(weight, z, starts)
        if following is not None:
            weight, following = following, None
        return recorded

    # one chunk: the weights, the proposal stream and the rescale are global
    values, stderr = _orbit_loop(
        state, pair, config, pair.average, record, lambda batches: smeared_kick, split=False
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
            stacklevel=3,
        )
    return values, stderr, float(ess)


def f2_mc(state: InitialState, pair: HamiltonianPair, config: EstimatorConfig) -> FidelitySeries:
    """Second-order estimator with stochastic (smeared) momentum propagation.

    Positions advance classically along the average Hamiltonian.  Wherever
    the local curvature of the perturbing potential is nonzero (a_n != 0)
    the momentum update is smeared by a Fresnel kernel; where a_n is an
    exact zero the smear is the delta function itself, which reproduces the
    dephasing representation path by path.

    The contour of the smear depends on the average Hamiltonian
    (``meta["f2_contour"]``):

    - ``"thimble"``, when every average term is a polynomial of degree <= 2:
      each draw lies on the kernel's steepest-descent line
      (``_thimble_kick``), every path weight is one, the orbit continues at
      complex (q, p), and the reduction is the plain mean with its standard
      error, as for ``f1_dr``.  By Cauchy's theorem this is the same
      second-order integral, and the linear complexified flow cannot blow up.
    - ``"real"`` otherwise: real momenta with complex importance weights
      (``_real_axis_f2``, one coordinate only), whose heavy tails call for a
      bootstrap and a RuntimeWarning when the effective sample size is < 1%.

    ``meta["effective_sample_size"]`` is ``n_traj`` on the thimble.
    """
    _require_position_perturbation(state, pair)
    average_terms = pair.average.kinetic + pair.average.potential
    if all(t.cos_amp == 0.0 and t.degree <= 2 for t in average_terms):
        kick = partial(_thimble_kick, pair, config)
        values, stderr = _orbit_loop(state, pair, config, pair.average, _mean_stderr, kick)
        contour, ess = "thimble", float(config.n_traj)
    else:
        values, stderr, ess = _real_axis_f2(state, pair, config)
        contour = "real"
    meta = {
        "estimator": "f2_mc",
        **config.run_meta,
        "f2_contour": contour,
        "effective_sample_size": ess,
        "correlated_time_steps": True,
    }
    return FidelitySeries(config.times, values, stderr, meta)


# ---------------------------------------------------------------------------
# second order, closed form for quadratic chains


def _quadratic_coeffs(term):
    return (term.coeffs + (0.0, 0.0))[:3]


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
            f"<= {_SINGULAR_RTOL:g}; change tau or the initial width"
        )
    keep = [i for i in range(len(b)) if i != j]
    col = a[keep, j]
    a_new = a[np.ix_(keep, keep)] - np.outer(col, col) / pivot
    b_new = b[keep] - col * (b[j] / pivot)
    c_new = c + b[j] ** 2 / (2.0 * pivot) + 0.5 * (np.log(2.0 * np.pi) - np.log(pivot))
    return a_new, b_new, c_new, ratio


def _chain_1d(comp, pair, d, config):
    """The chain of coordinate d for one component: its N + 1 values, its
    smallest pivot ratio and whether it skips the Fresnel step.  One forward
    pass carries the Gaussian g = exp(-x^T A x / 2 + b . x + c) of x = (q, p),
    A complex symmetric 2x2.  Each step shears q by the drift, multiplies in
    the perturbation phase, reads f(n) as the integral of g (two 1-D Gaussian
    integrals), shears p by the classical kick and, unless the curvature d2
    of delta-V is an exact zero, convolves p with the normalised Fresnel
    kernel of the smeared momentum update.  Every pivot has a positive real
    part, whose principal-branch log gives the square-root branch.
    """
    _, t1, t2 = _quadratic_coeffs(pair.average.kinetic[d])
    _, v1, v2 = _quadratic_coeffs(pair.average.potential[d])
    d0, d1, d2 = _quadratic_coeffs(pair.delta.potential[d])

    tau, hbar = config.tau, config.hbar
    a_fresnel = tau * d2 / (4.0 * hbar)
    degenerate = d2 == 0.0

    # initial Wigner density exp(-(q-qbar)^2/sq^2 - (p-pbar)^2/sp^2) / (pi hbar)
    x0 = np.array([comp.center_q[d], comp.center_p[d]])
    a = np.diag([2.0 / comp.sigma[d] ** 2, 2.0 * comp.sigma[d] ** 2 / hbar**2]) + 0j
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

    values = np.empty(config.n_steps + 1, dtype=complex)
    values[0] = 1.0
    min_ratio = 1.0  # a ratio of one or more is a well-conditioned pivot
    for n in range(1, config.n_steps + 1):
        a, b, c = _substitute(a, b, c, drift_m, drift_s)
        a[0, 0] += 2j * tau * d2 / hbar
        b[0] -= 1j * tau * d1 / hbar
        c -= 1j * tau * d0 / hbar
        scale = np.abs(a).max()
        a_q, b_q, c_n, r_p = _integrate_out(a, b, c, 1, n, scale)
        _, _, c_n, r_q = _integrate_out(a_q, b_q, c_n, 0, n, scale)
        values[n] = np.exp(c_n)
        min_ratio = min(min_ratio, r_p, r_q)
        if n == config.n_steps:
            break
        a, b, c = _substitute(a, b, c, kick_m, kick_s)
        if not degenerate:
            a[2, 2] += fresnel_k
            a, b, c, r_eta = _integrate_out(a, b, c + log_fresnel_c, 2, n)
            min_ratio = min(min_ratio, r_eta)
    return values, min_ratio, degenerate


def f2_gaussian_chain(
    state: InitialState, pair: HamiltonianPair, config: EstimatorConfig
) -> FidelitySeries:
    """Closed-form second-order fidelity for quadratic chains.

    Accepts a pair iff ``predicted_exactness`` calls ``f2_gaussian`` exact on
    it.  The Hamiltonians are separable and each component is a product, so
    f = sum_k w_k prod_d f_{k,d}, one O(N) chain per component and coordinate
    (``_chain_1d``); ``meta["degenerate_chain"]`` says no coordinate takes the
    Fresnel step.  The result is exact (deterministic, stderr = 0), the
    reference the Monte Carlo version is validated against.
    """
    _require_position_perturbation(state, pair)
    if predicted_exactness(pair)["f2_gaussian"] != EXACT:
        raise ValueError("closed-form chain needs polynomial terms of degree <= 2")
    comps = state.components
    chains = [[_chain_1d(c, pair, d, config) for d in range(pair.dims)] for c in comps]
    terms = [c.weight * reduce(np.multiply, [f for f, *_ in row]) for c, row in zip(comps, chains)]
    meta = {
        "estimator": "f2_gaussian",
        **config.run_meta,
        "n_traj": None,  # deterministic: no ensemble and no seed
        "seed": None,
        "degenerate_chain": all(skip for row in chains for _, _, skip in row),
        "chain_min_pivot_ratio": float(min(r for row in chains for _, r, _ in row)),
    }
    return FidelitySeries(config.times, reduce(np.add, terms), np.zeros(config.n_steps + 1), meta)
