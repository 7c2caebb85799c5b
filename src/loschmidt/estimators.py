"""Phase-space estimators of the fidelity amplitude.

Three approximations of increasing order are provided: ``f0`` averages static
phases of the perturbation over the initial Wigner density, by quadrature,
``f1_dr`` is the dephasing representation (phases accumulated along
classical trajectories of the reference Hamiltonian), and ``f2_mc`` smears
the deterministic momentum update with a Fresnel (complex Gaussian) kernel.
``f1_dr`` and ``f2_mc`` share one orbit loop over the in-place
``dynamics.drift`` and ``dynamics.kick``, the kernel of
``dynamics.map_step``, and differ only in the kick: the classical momentum
update (a delta function) at first order and for an affine perturbing
potential, a smeared draw at second order wherever the curvature of the
perturbing potential is not an exact zero.  When the average Hamiltonian is
quadratic, ``f2_mc`` draws each smear on the kernel's steepest-descent line
(the Lefschetz thimble), so every path has weight one and the orbit
continues at complex (q, p); other averages keep a one-dimensional
real-axis sampler with complex importance weights.  ``f2_gaussian_chain``
evaluates the same second-order object in closed form when the dynamics is
quadratic and the perturbation a quadratic potential, as one O(N) chain per
coordinate and component.  Both refuse a perturbation with a kinetic part.

Every estimator, ``qgrid.fidelity_exact`` included, returns the series that
``EstimatorConfig.series`` builds, so every meta has one layout: the
estimator's name, the run's fields and the estimator's own entries.  ``f0``
and the chain are deterministic.  The Monte Carlo reductions run over
fixed, index-ordered batches, so results are the same bits for a given seed
however work is scheduled.  ``f1_dr`` and the thimble ``f2_mc`` make one
call, ``_ensemble_series``, with or without a kick; in the scope that
``cli.run`` opens, a kick-free ensemble is computed once and shared by the
two.  It cuts an ensemble into chunks of whole batches, about
``_CHUNK_TRAJ`` trajectories each, or, where the chunks fork, one per CPU
if that is more and each chunk still carries ``_CHUNK_TRAJ_STEPS``
trajectory-steps; each chunk is a generator of its phasors stepped and
reduced from the first step to the last.  Each CPU the process may run on
works a contiguous run of the chunks in a process of its own: the caller
the first run, and a worker forked after sampling each other run (threads
would wait on the GIL between numpy's array loops); a caller that runs
other Python threads, which a fork would not copy, starts a thread for
each other run instead.  Both kinds of worker run one body, which pipes
the pickled per-chunk moments, or the exception, back.  So at most one
chunk per CPU holds buffers; a chunk that raises, or an interrupt while
the caller waits for its workers, stops the others after their current
step through a shared stop byte, no chunk starts after that, and every
worker ends before the call returns.  Every draw is keyed by its batch and
every sum runs in batch order, so the results are the same bits for any
CPU count and either kind of worker.  A chunk steps in its slice of the
sample and in buffers it allocates once, so a step takes no fresh
ensemble-sized array (and no page fault), and peak memory is the sample,
16 bytes per trajectory and coordinate, plus a few chunks, whatever n_traj
is: a running chunk of one coordinate holds about 40 bytes per trajectory
for ``f1_dr`` and 100 for the thimble.  The real-axis ``f2_mc`` stays one
chunk of the whole ensemble, as its weights and its bootstrap span it.

Within one series the time steps reuse a single path ensemble, so errors
are correlated across time (flagged in the metadata).  The thimble's
standard error can grow faster than exponentially with the strength of the
perturbation; ``f2_mc`` raises ``ThimbleDivergenceError`` at the first step
where it exceeds 1, which no amplitude of modulus at most 1 needs.
"""
from __future__ import annotations

import mmap
import numbers
import os
import pickle
import threading
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .dynamics import check_escape, drift
from .dynamics import kick as classical_kick
from .hamiltonians import EXACT, HamiltonianPair, predicted_exactness
from .series import FidelitySeries, NumericalError
from .states import InitialState, sample

DEFAULT_ERROR_BATCHES = 32
# f2_mc proposal width in units of hbar * sqrt(pi * |a_n|)
PROPOSAL_WIDTH_FACTOR = 2.0
_SINGULAR_RTOL = 1e-12
# an ensemble is cut into chunks of about this many trajectories, so a
# chunk's buffers stay small whatever n_traj is; a chunk pays, on every step,
# the fixed cost of each numpy call, and chunks of 12 500 made f1 and f2_mc
# 17% slower at 1e5 trajectories where 25 000 did not
_CHUNK_TRAJ = 25_000
# where the chunks fork, an ensemble is cut into at least one chunk per
# available CPU once each chunk carries this many trajectory-steps (n_traj *
# n_steps per chunk).  Forking and reaping a worker costs about 7 ms; on 2
# CPUs, for cubic_perturbation, two chunks against one took f1 at 1e4
# trajectories from 7.5 to 12.4 ms at 20 steps, 16 to 20 ms at 50, 42 to 33
# ms at 100 and 83 to 66 ms at 252, and the thimble f2_mc from 44 to 37 ms
# at 50 steps.  On threads two chunks took f1 from 87 to 123 ms at 252
# steps, and f2_mc from 232 to 370 ms
_CHUNK_TRAJ_STEPS = 500_000
_TINY = np.finfo(float).tiny


class SingularExponentError(NumericalError):
    """Raised when a pivot of the chain's Gaussian integrals is numerically zero."""


class ThimbleDivergenceError(NumericalError):
    """Raised when the thimble ``f2_mc``'s standard error exceeds 1, which
    the amplitude itself, at most 1 in modulus, never does."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Run parameters of an estimator, recorded in every series' meta;
    ``n_traj`` and ``seed`` are None for a deterministic run."""

    n_traj: int | None
    seed: int | None
    tau: float
    n_steps: int
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n_traj", "seed", "n_steps"):
            value = getattr(self, name)
            if name == "n_steps" or value is not None:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_traj is not None and self.n_traj < 1:
            raise ValueError("n_traj must be positive")
        if self.seed is not None and self.seed < 0:
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

    def series(self, estimator: str, values, stderr=None, **meta) -> FidelitySeries:
        """The series of ``values`` at ``times``, with the meta
        ``{"estimator", **run_meta, **meta}``.  Without ``stderr`` the run is
        deterministic: zero stderr, and ``n_traj`` and ``seed`` None."""
        run = self.run_meta
        if stderr is None:
            run.update(n_traj=None, seed=None)
            stderr = np.zeros(self.n_steps + 1)
        return FidelitySeries(self.times, values, stderr, {"estimator": estimator, **run, **meta})


# ---------------------------------------------------------------------------
# fixed-order reductions


def _moments(starts, counts, z, theta):
    """Sum S_b and two-pass moment M2_b = sum |z - S_b / n_b|^2 of each batch
    b of ``z``, which starts at starts[b] and holds counts[b] samples.
    Overwrites z with the deviations, batch by batch in place, and the float
    buffer ``theta`` of z's length with their squared moduli."""
    sums = np.add.reduceat(z, starts)
    for lo, n, mean in zip(starts.tolist(), counts.tolist(), sums / counts):
        z[lo : lo + n] -= mean
    np.abs(z, out=theta)
    np.square(theta, out=theta)
    return sums, np.add.reduceat(theta, starts)


def _merge_moments(sums: np.ndarray, m2s: np.ndarray, counts: np.ndarray):
    """Per row, the mean of complex samples and its standard error from the
    ``_moments`` of their batches, one column per batch in batch order.  The
    spread sum_b [M2_b + n_b |S_b / n_b - mean|^2] is the pairwise merge of
    Chan, Golub and LeVeque (1983), with the real and imaginary variances
    combined in quadrature.  A diverging ensemble gives inf or nan without
    a numpy warning; the series' checks report it."""
    n = int(counts.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        mean = sums.sum(axis=1) / n
        if n < 2:
            return mean, np.zeros(len(mean))
        spread = (m2s + counts * np.abs(sums / counts - mean[:, None]) ** 2).sum(axis=1)
        return mean, np.sqrt(spread / (n - 1) / n)


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
# one ensemble driver, split over the available CPUs


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batch_edges(n: int) -> list:
    """Bounds of the error batches of n samples: batch b is edges[b]:edges[b + 1]."""
    b = min(DEFAULT_ERROR_BATCHES, n)
    return [(i * n) // b for i in range(b + 1)]


def _can_fork() -> bool:
    """Whether a split ensemble forks its workers: ``os.fork`` exists and no
    other Python thread is alive, whose locks a fork would copy."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _chunks(n: int, n_steps: int, fork: bool) -> list:
    """The chunks an ensemble of n samples stepped n_steps times is cut
    into: (batches, lo, hi) per chunk, a contiguous run of whole error
    batches and its samples lo:hi.  There are n // ``_CHUNK_TRAJ`` chunks.
    If ``fork``, so that the chunks run in forked workers, there is instead
    one per available CPU if that is more and each then carries at least
    ``_CHUNK_TRAJ_STEPS`` trajectory-steps (fewer CPUs' worth otherwise); on
    threads such a split is slower than one chunk.  There is at least one chunk and at most one
    per batch, balanced in batches.  So the default 1e4 trajectories at 252
    steps make one chunk per CPU up to five, and 1e5 make four chunks on up
    to four CPUs.  ``_run_chunks`` runs at most one chunk per CPU at a
    time."""
    edges = _batch_edges(n)
    batches = len(edges) - 1
    per_cpu = min(_available_cpus(), n * n_steps // _CHUNK_TRAJ_STEPS) if fork else 1
    count = max(1, min(max(n // _CHUNK_TRAJ, per_cpu), batches))
    cuts = [(c * batches) // count for c in range(count + 1)]
    return [(range(b0, b1), edges[b0], edges[b1]) for b0, b1 in zip(cuts[:-1], cuts[1:])]


class _StopFlag:
    """A stop flag that the caller shares with its chunk workers, forked
    processes or threads alike: one byte of an anonymous shared mmap.  A
    worker also reads it set once its caller has died, so a killed caller
    leaves no worker stepping."""

    def __init__(self):
        self._byte = mmap.mmap(-1, 1)
        self._caller = os.getpid()

    def set(self) -> None:
        self._byte[0] = 1

    def is_set(self) -> bool:
        return self._byte[0] == 1 or self._caller not in (os.getpid(), os.getppid())


def _run_in_order(tasks, stop) -> list:
    """The results of the callables ``tasks``, run one after another; none
    starts once the flag ``stop`` is set, and a task that raises sets it."""
    results = []
    try:
        for task in tasks:
            if stop.is_set():
                break
            results.append(task())
    except BaseException:
        stop.set()
        raise
    return results


def _send(run, stop, pipe) -> None:
    """The body of every chunk worker, forked or a thread: the results of
    ``_run_in_order(run, stop)``, or its exception, pickled down the file
    descriptor ``pipe``, which it closes.  An exception that does not
    survive a pickle goes as a RuntimeError with its type's name and its
    message.  A write to a pipe that its caller has closed ends the worker
    quietly."""
    try:
        with open(pipe, "wb") as stream:
            try:
                data = pickle.dumps((_run_in_order(run, stop), None), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                try:
                    pickle.loads(data := pickle.dumps((None, exc)))
                except Exception:  # an exception that does not survive a pickle
                    data = pickle.dumps((None, RuntimeError(f"{type(exc).__name__}: {exc}")))
            stream.write(data)
    except BrokenPipeError:  # its caller left without reading
        pass


def _fork_worker(run, stop, pipe, inherited):
    """Fork a worker that runs ``_send(run, stop, pipe)``; return a call that
    reaps it and gives its exit code.  The worker first closes the file
    descriptors ``inherited``, the read ends of its caller's pipes, so that
    a write to a pipe its caller has closed fails at once instead of waiting
    for a reader.  It ignores SIGINT, as the caller's stop byte ends its
    run, and leaves by ``os._exit``.  The caller's copy of ``pipe`` is
    closed."""
    try:
        pid = os.fork()
        if pid == 0:
            try:
                import signal

                for fd in inherited:
                    os.close(fd)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _send(run, stop, pipe)
                os._exit(0)
            finally:
                os._exit(1)
    finally:
        os.close(pipe)
    return lambda: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _thread_worker(run, stop, pipe, inherited):
    """Start a thread that runs ``_send(run, stop, pipe)``; return a call
    that joins it.  ``inherited`` is for ``_fork_worker``'s signature."""
    thread = threading.Thread(target=_send, args=(run, stop, pipe), name="loschmidt-chunk")
    try:
        thread.start()
    except RuntimeError:  # no thread started, so none will close the pipe
        os.close(pipe)
        raise
    return thread.join


def _read_to_end(pipes) -> dict:
    """Every byte of each file descriptor in ``pipes`` up to its end.  The
    waits are timed, which lets an interrupt through that only sets
    Python's flag, as _thread.interrupt_main() does."""
    import selectors  # here, as only a split ensemble needs it

    data = {fd: bytearray() for fd in pipes}
    with selectors.DefaultSelector() as selector:
        for fd in pipes:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select(timeout=0.1):
                block = os.read(key.fd, 1 << 20)
                data[key.fd] += block
                if not block:
                    selector.unregister(key.fd)
    return data


def _run_chunks(tasks, stop, fork: bool) -> list:
    """Run the callables ``tasks`` on at most one worker per available CPU
    and return their results in task order.  Each worker runs one
    contiguous run of the tasks in order: the caller the first run, and a
    worker started for each other run, a forked process if ``fork`` and a
    thread otherwise, which pipes its results back.  So at most one task per
    CPU runs at a time, and none starts once the shared flag ``stop`` is
    set.  The call sets ``stop`` as it ends, so an exception in the caller,
    an interrupt while it waits for the workers included, stops them.  It
    returns once every worker has ended and been reaped; the first
    exception in task order is then raised.  A worker's exception arrives
    through a pickle, from a thread as from a forked process, so it keeps
    no traceback.

    A fork copies only the calling thread, and with it the locks that other
    threads hold.  So ``_ensemble_series`` forks only without other Python
    threads (``_can_fork``); threads share the GIL.  Threads that Python
    does not see, such as a BLAS library's pool, do not stop a fork.
    OpenBLAS, which NumPy's wheels ship, ends its pool before each fork and
    starts it again when next called, so the worker inherits none of it; a
    library that keeps its threads makes Python 3.12 and later warn at each
    fork with a DeprecationWarning."""
    workers = min(_available_cpus(), len(tasks))
    if workers == 1:
        return _run_in_order(tasks, stop)
    cuts = [(w * len(tasks)) // workers for w in range(workers + 1)]
    runs = [tasks[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    start = _fork_worker if fork else _thread_worker
    reapers = {}  # the read end of each worker's pipe: its reaper
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            try:
                reapers[read] = start(run, stop, write, (read, *reapers))
            except BaseException:
                os.close(read)
                raise
        results = _run_in_order(runs[0], stop)
        payloads = _read_to_end(reapers)
    finally:
        # the workers stop, and every pipe closes before any worker is
        # reaped: as the caller holds the only read ends, a worker still
        # writing then fails at once
        stop.set()
        for read in reapers:
            os.close(read)
        codes = {read: reap() for read, reap in reapers.items()}
    for read, payload in payloads.items():
        if not payload:
            raise RuntimeError(f"a chunk worker sent no results (exit code {codes[read]})")
        done, error = pickle.loads(payload)
        if error is not None:
            raise error
        results += done
    return results


def _chunk_moments(steps, starts, counts, stop):
    """The ``_moments`` of every step of the generator ``steps``, stacked
    over the steps.  Ends once the flag ``stop`` is set, so a failing chunk
    stops the others after their current step.  Overflow and invalid values
    raise no numpy warning in the worker that runs the chunk: the divergence
    guard or the series' checks report a diverging ensemble."""
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for arrays in steps:
            rows.append(_moments(starts, counts, *arrays))
            if stop.is_set():
                break
    return tuple(map(np.array, zip(*rows)))


def _ensemble_size(config) -> int:
    """``config.n_traj``, refusing a config without an ensemble or a seed."""
    if config.n_traj is None or config.seed is None:
        raise ValueError("a Monte Carlo estimator needs n_traj and seed")
    return config.n_traj


# the kick-free ensembles computed in the innermost open ``_shared_ensembles``
# scope of this thread or task: (state, h, delta) ids and config -> those
# objects, kept so that no other object takes their ids, and the series
_SHARED = ContextVar("loschmidt_shared_ensembles", default=None)


@contextmanager
def _shared_ensembles():
    """A scope in which ``_ensemble_series`` computes each kick-free ensemble
    once: a later call with the same state, Hamiltonian and perturbation
    (each the same object) and an equal config gets copies of the first
    call's mean and standard error, the same bits.  So ``f1_dr`` on the
    average Hamiltonian and ``f2_mc`` on an affine perturbation, which
    follow one ensemble, share it.  Calls outside a scope never share."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _ensemble_series(state, config, h, delta, kick=None):
    """Mean and standard error at every step of the ``_orbit_phasors`` of
    ``h`` and ``delta`` over one sampled ensemble, cut into ``_chunks`` run
    by ``_run_chunks``; inside ``_shared_ensembles`` a kick-free ensemble is
    computed once.

    ``kick(batches)``, when given, builds the kick of the trajectories of a
    chunk's error batches (a range).  Each orbit steps in its chunk's slice
    of the sample, which is the one array of the call that grows with n
    beside the per-step records; a chunk's buffers are allocated when it
    starts and freed when it ends.  Every sample sees the same operations
    however the ensemble is cut, so the results are the same bits for any
    CPU count.
    """
    n = _ensemble_size(config)
    shared = _SHARED.get() if kick is None else None
    key = (id(state), id(h), id(delta), config)
    if shared is not None and key in shared:
        return tuple(part.copy() for part in shared[key][1])
    q, p = sample(state, n, config.seed, config.hbar)
    edges = np.array(_batch_edges(n))
    counts = np.diff(edges)
    stop, fork = _StopFlag(), _can_fork()
    tasks = []
    for batches, lo, hi in _chunks(n, config.n_steps, fork):
        steps = _orbit_phasors(h, delta, config, kick and kick(batches), q[lo:hi], p[lo:hi])
        tasks.append(partial(_chunk_moments, steps, edges[batches] - lo, counts[batches], stop))
    results = _run_chunks(tasks, stop, fork)
    sums, m2s = (np.concatenate(part, axis=1) for part in zip(*results))
    mean, stderr = _merge_moments(sums, m2s, counts)
    if shared is not None:
        shared[key] = (state, h, delta), (mean.copy(), stderr.copy())
    return mean, stderr


# ---------------------------------------------------------------------------
# zeroth order: static phase average, by quadrature


def _f0_factor(part, centre, width, config):
    """E[exp(-i t part(x) / hbar)], x ~ N(centre, width^2 / 2), at each t > 0
    of the run: the trapezoid rule in y = (x - centre) / width on [-12, 12],
    weights exp(-y^2) h / sqrt(pi), from 257 nodes, doubled (m -> 2m - 1)
    until the series moves by less than 1e-13.  Summed one time at a time,
    without BLAS, whose threads could change the bits."""
    previous, nodes = np.full(config.n_steps, np.inf), 257
    while nodes < 2**21:
        y, h = np.linspace(-12.0, 12.0, nodes, retstep=True)
        w = np.exp(-y * y) * (h / np.sqrt(np.pi))
        v = part.value(centre + width * y) * (-1j / config.hbar)
        series = np.array([(w * np.exp(t * v)).sum() for t in config.times[1:]])
        if np.max(np.abs(series - previous), initial=0.0) < 1e-13:
            return series
        previous, nodes = series, 2 * nodes - 1
    raise NumericalError(f"f0 quadrature unconverged at {nodes // 2 + 1} nodes; use fewer steps")


def f0(state: InitialState, pair: HamiltonianPair, config: EstimatorConfig) -> FidelitySeries:
    """Static average exp(-i t dH(x0) / hbar) over the initial Wigner density.

    Nothing is sampled.  dH is separable and each component's density a
    product of normals, so f0(t) = sum_k w_k prod_d I_q I_p, one
    ``_f0_factor`` per nonzero term: q ~ N(q0, sigma^2 / 2) and
    p ~ N(p0, hbar^2 / (2 sigma^2)).  Deterministic (stderr 0, no ``n_traj``
    or ``seed``); exact for a constant average Hamiltonian and affine dH.
    """
    pair.check_state(state)
    values = np.zeros(config.n_steps, dtype=complex)
    for c in state.components:
        term = c.weight
        for part, centre, width in [*zip(pair.delta.potential, c.center_q, c.sigma),
                                    *zip(pair.delta.kinetic, c.center_p, config.hbar / c.sigma)]:
            if not part.is_zero:
                term = term * _f0_factor(part, centre, width, config)
        values += term
    return config.series("f0", np.append(1.0, values))


# ---------------------------------------------------------------------------
# first and second order: one orbit loop


def _orbit_phasors(h, delta, config, kick, q, p):
    """The samples (q, p) followed along the kick map of ``h``, yielding
    (z, theta) with z = exp(-i tau phi / hbar) at every step, the first
    included.

    phi accumulates dH(q_{j+1}, p_j) as described in ``f1_dr``; the next
    step overwrites the buffers z and theta.  ``kick``, when given, is
    called as ``kick(q, p, work, real, smear)`` once a step is yielded, but
    for the last, and returns the momenta that replace the classical ones.
    A kick may return complex momenta; from then on the orbit, phi and the
    phasor are complex, and the phasor is exp(tau Im phi / hbar) (cos,
    sin)(-tau Re phi / hbar).

    Every step runs in place: ``dynamics.drift`` and ``dynamics.kick`` on q
    and p themselves (the caller's slice of the sample, which the orbit
    overwrites), in buffers allocated before the first step and, where the
    orbit turns complex, once more at that kick.  After that a step
    allocates no ensemble-sized array on polynomial terms (a cosine term
    takes temporaries, see ``CoordFunction``).  ``work``, of the orbit's
    dtype, takes every Hamiltonian evaluation, the kick's V'' included.
    Between a yield and the next phasor z and theta are free, so they are
    the starts of the scratch the escape check and the kick take: the float
    ``real`` and the complex ``smear``, both of q's shape.  Beside its
    slice of the sample, an orbit of one coordinate holds 40 bytes per
    trajectory while it is real (``f1_dr``) and about 100 once complex
    (the thimble ``f2_mc``), measured by tracemalloc.
    """
    tau, hbar = config.tau, config.hbar
    work = np.empty_like(q)
    real = np.empty(q.shape)
    smear = np.empty(q.shape, complex)
    phi = np.zeros(len(q))
    theta = real.reshape(-1)[:len(q)]
    z = smear.reshape(-1)[:len(q)]
    z[...] = 1.0
    yield z, theta
    for n in range(1, config.n_steps + 1):
        drift(q, p, h, tau, work)
        phi += delta.value(q, p, work[..., 0])
        classical_kick(q, p, h, tau, work)
        check_escape(q, p, real)
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
        yield z, theta
        if kick is not None and n < config.n_steps:
            p = kick(q, p, work, real, smear)
            if p.dtype != q.dtype:  # the orbit leaves the real axis
                q, phi = q.astype(complex), phi.astype(complex)
                work = np.empty_like(q)


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
    pair.check_state(state)
    if reference not in ("average", "h_prime"):
        raise ValueError(f"unknown reference {reference!r}")
    h_ref = pair.average if reference == "average" else pair.h_prime
    values, stderr = _ensemble_series(state, config, h_ref, pair.delta)
    return config.series("f1", values, stderr, reference=reference, correlated_time_steps=True)


def _require_position_perturbation(state, pair):
    pair.check_state(state)
    if not all(t.is_zero for t in pair.delta.kinetic):
        raise ValueError("perturbation must be momentum independent")


def _thimble_kick(pair, config, batches):
    """The smeared momentum update drawn on its steepest-descent line, for
    the trajectories of the error batches ``batches`` (a range).

    One step smears each classical momentum with the normalised Fresnel
    kernel C exp(i eta^2 / (4 a hbar^2)), a = tau V_delta''(q) / (8 hbar) of
    its coordinate.  On the line eta = sqrt(i a) t that kernel is the normal
    density of t with variance 2 hbar^2, so eta = sqrt(i a) sqrt(2) hbar xi
    with xi standard normal, and every path weight is exactly one.  Both
    roots of i a give that distribution; the principal one also commutes
    with conjugation, and swapping the pair conjugates the orbit and
    negates V_delta'', so ``f2_mc`` of the swapped pair is the conjugate
    series to the last bit.  Where a is an exact zero, eta is an exact
    zero.

    Draws come from one Philox stream per error batch, keyed
    (seed, 1, batch), so they do not depend on how the ensemble is split.
    The kick is called as ``kick(q, p, work, real, smear)`` and owns no
    buffer: it takes V_delta'' and then a real term of the root in ``work``
    (q's shape and dtype), the other real terms and the draws in the float
    ``real`` and eta in the complex ``smear`` (both of q's shape), and one
    boolean mask per call.
    Real momenta (the orbit's first smear) get p + eta in a fresh complex
    array, complex momenta p += eta in place.
    """
    edges = _batch_edges(config.n_traj)
    lo = edges[batches.start]
    slices = [slice(edges[b] - lo, edges[b + 1] - lo) for b in batches]
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 1, b])))
        for b in batches
    ]
    # sqrt(a) sqrt(2) hbar = sqrt(V_delta'') sqrt(tau hbar) / 2
    scale = 0.5 * np.sqrt(config.tau * config.hbar)

    def kick(q, p, work, t, root):
        # V_delta'' at q; on a real orbit u stays real, which gives the bits
        # of its complex form with a zero imaginary part
        u = pair.delta.potential_d2(q, work)
        # the principal root of i u from real operations that cancel nothing:
        # with t = sqrt(2 (|u| + |Im u|)) it is t / 2 + i Re(u) / t where
        # Im u <= 0 and |Re u| / t + i copysign(t / 2, Re u) elsewhere
        np.add(np.abs(u.imag, out=t), np.abs(u, out=root.real), out=t)
        np.sqrt(np.multiply(t, 2.0, out=t), out=t)
        # t is 0 only where u is 0, and above 1e-162 elsewhere, so flooring it
        # at the smallest normal float gives eta = 0 there and no other change
        small = np.divide(u.real, np.maximum(t, _TINY, out=root.imag), out=root.imag)
        larger = np.multiply(t, 0.5, out=t)
        # select by products with a bool mask g: exact, and no branch on a
        # random sign, where a masked copy (where=) takes 6 ns a value, not 1
        g = np.less_equal(u.imag, 0.0)
        np.multiply(g, larger, out=root.real)
        np.copysign(larger, u.real, out=larger)
        # u is read: work's memory takes |small|
        abs_small = np.abs(small, out=work.real)
        np.multiply(g, small, out=small)
        g_not = np.logical_not(g, out=g)
        root.real += np.multiply(g_not, abs_small, out=abs_small)
        root.imag += np.multiply(g_not, larger, out=larger)
        xi = t
        for stream, sl in zip(streams, slices):
            stream.standard_normal(out=xi[sl])
        np.multiply(root, np.multiply(xi, scale, out=xi), out=root)
        if p.dtype != root.dtype:
            return p + root
        p += root
        return p

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
    reduced with.
    """
    if pair.dims != 1:
        raise ValueError("f2_mc off the thimble supports one degree of freedom only")
    tau, hbar = config.tau, config.hbar
    n = _ensemble_size(config)
    # proposal draws come from a child stream so they can never collide with
    # the initial-condition sampler stream
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([config.seed, 1]))
    )
    weight = np.ones(n, dtype=complex)
    planck = 2.0 * np.pi * hbar

    def smeared_kick(q, p, *scratch):  # fresh arrays: one chunk, no reuse
        nonlocal weight
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
        weight = weight * np.where(smear, smeared_delta / proposal, 1.0)
        # rescale to dodge overflow in the products; the reported value
        # and error are ratios in the weights, so a common factor
        # cancels exactly
        peak = np.max(np.abs(weight))
        if peak > 1e250:
            weight = weight / peak
        return np.where(smear, p[..., 0] + sigma_prop * xi, p[..., 0])[:, None]

    # one chunk, as the weights, the proposal stream and the rescale span the
    # ensemble; a step is reduced with the weight from before its own smear,
    # whose momentum factor integrates to one and would only add variance
    starts = _batch_edges(n)[:-1]
    steps = _orbit_phasors(
        pair.average, pair.delta, config, smeared_kick, *sample(state, n, config.seed, config.hbar)
    )
    rows = [_weighted_mean_stderr(weight, z, starts) for z, _ in steps]
    values, stderr = map(np.array, zip(*rows))
    # f(0) is exactly one with no error; the ratio of step 0 rounds off it
    values[0], stderr[0] = 1.0, 0.0

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
      Its path phases can: at a large perturbation the standard error grows
      faster than exponentially, and ``ThimbleDivergenceError`` (exit 3)
      names the first step where it exceeds 1.
    - ``"real"`` otherwise: real momenta with complex importance weights
      (``_real_axis_f2``, one coordinate only), whose heavy tails call for a
      bootstrap and a RuntimeWarning when the effective sample size is < 1%.

    ``meta["effective_sample_size"]`` is ``n_traj`` on the thimble.
    """
    _require_position_perturbation(state, pair)
    if pair.average.degree <= 2:
        # an affine V_delta has a = 0 everywhere: no smear, and f1's orbit
        kick = partial(_thimble_kick, pair, config) if pair.delta.degree > 1 else None
        values, stderr = _ensemble_series(state, config, pair.average, pair.delta, kick)
        diverged = np.flatnonzero(stderr > 1.0)
        if diverged.size:
            n = diverged[0]
            raise ThimbleDivergenceError(
                f"f2_mc thimble diverged at step {n} (t = {config.times[n]:g}): "
                f"stderr {stderr[n]:.3g} > 1; use f2_gaussian, or fewer steps"
            )
        contour, ess = "thimble", float(config.n_traj)
    else:
        values, stderr, ess = _real_axis_f2(state, pair, config)
        contour = "real"
    return config.series("f2_mc", values, stderr, f2_contour=contour,
                         effective_sample_size=ess, correlated_time_steps=True)


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
    return config.series(
        "f2_gaussian", reduce(np.add, terms),
        degenerate_chain=all(skip for row in chains for _, _, skip in row),
        chain_min_pivot_ratio=float(min(r for row in chains for _, r, _ in row)),
    )
