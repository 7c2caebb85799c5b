"""Separable Hamiltonians H(q, p) = T(p) + V(q) with exact derivatives.

A Hamiltonian is a sum of one-coordinate terms, one kinetic and one potential
term per degree of freedom.  Each term is a polynomial of degree <= 4 plus an
optional cosine, so sums, differences and scalar multiples stay inside the
family and all derivatives reduce to exact coefficient arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_POLY_DEGREE = 4

EXACT = "exact"
APPROXIMATE = "approximate"


def _trimmed(coeffs) -> tuple[float, ...]:
    """Canonical coefficient tuple: floats, trailing zeros removed."""
    out = [float(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out) if out else (0.0,)


def _horner(x, c):
    """numpy's ``polyval(x, c)`` bit for bit, done in place on one array.

    polyval seeds with ``c[-1] + x * 0`` and steps ``c0 * x + c[k]``.  Past a
    constant, a trimmed ``c[-1]`` is nonzero, so for finite x the seed
    ``x * c[-1]`` gives the same bits one product sooner.  Every ``+ c[k]`` is
    kept, zeros included, so signed zeros match polyval too.  The dtype of
    ``x`` is kept (float64 at least, as with polyval's float64 coefficients)."""
    if len(c) == 1:
        return c[0] + x * 0
    out = x * c[-1]
    out += c[-2]
    for ck in c[-3::-1]:
        out *= x
        out += ck
    return out


@dataclass(frozen=True)
class CoordFunction:
    """Function of a single coordinate: polynomial plus A*cos(x).

    ``coeffs`` are polynomial coefficients in increasing order,
    ``cos_amp`` the amplitude of an additional cosine term.
    """

    coeffs: tuple[float, ...] = (0.0,)
    cos_amp: float = 0.0

    def __post_init__(self) -> None:
        coeffs = _trimmed(self.coeffs)
        if len(coeffs) > MAX_POLY_DEGREE + 1:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds supported "
                f"maximum {MAX_POLY_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "cos_amp", float(self.cos_amp))
        # Horner coefficients of the value and of both derivatives, computed
        # once, as the float64 scalars polyval would have built per call
        d1 = [k * coeffs[k] for k in range(1, len(coeffs))] or [0.0]
        d2 = [k * (k - 1) * coeffs[k] for k in range(2, len(coeffs))] or [0.0]
        for name, c in (("_c0", coeffs), ("_c1", d1), ("_c2", d2)):
            object.__setattr__(self, name, tuple(np.float64(ck) for ck in c))

    def value(self, x):
        out = _horner(x, self._c0)
        if self.cos_amp:
            out += self.cos_amp * np.cos(x)
        return out

    def d1(self, x):
        out = _horner(x, self._c1)
        if self.cos_amp:
            out -= self.cos_amp * np.sin(x)
        return out

    def d2(self, x):
        out = _horner(x, self._c2)
        if self.cos_amp:
            out -= self.cos_amp * np.cos(x)
        return out

    @property
    def is_zero(self) -> bool:
        return self.cos_amp == 0.0 and all(c == 0.0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Polynomial degree (cosine ignored)."""
        return len(self.coeffs) - 1

    def __add__(self, other: "CoordFunction") -> "CoordFunction":
        if not isinstance(other, CoordFunction):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0.0,) * (n - len(self.coeffs))
        b = other.coeffs + (0.0,) * (n - len(other.coeffs))
        return CoordFunction(
            tuple(x + y for x, y in zip(a, b)), self.cos_amp + other.cos_amp
        )

    def __mul__(self, factor: float) -> "CoordFunction":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return CoordFunction(
            tuple(factor * c for c in self.coeffs), factor * self.cos_amp
        )

    __rmul__ = __mul__

    def __neg__(self) -> "CoordFunction":
        return self * -1.0

    def __sub__(self, other: "CoordFunction") -> "CoordFunction":
        return self + (-other)


def polynomial_term(*coeffs: float) -> CoordFunction:
    """Polynomial c0 + c1*x + ... from coefficients in increasing order."""
    return CoordFunction(tuple(coeffs))


def quadratic_kinetic(mass: float = 1.0) -> CoordFunction:
    """Kinetic term p**2 / (2m)."""
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    return CoordFunction((0.0, 0.0, 0.5 / mass))


def harmonic_potential(k: float = 1.0, center: float = 0.0) -> CoordFunction:
    """Potential (k/2) (q - center)**2, expanded to exact coefficients."""
    return CoordFunction((0.5 * k * center**2, -k * center, 0.5 * k))


def cosine_potential(amplitude: float) -> CoordFunction:
    """Kick potential A*cos(q)."""
    return CoordFunction((0.0,), cos_amp=amplitude)


ZERO_TERM = CoordFunction((0.0,))


@dataclass(frozen=True)
class SeparableHamiltonian:
    """H(q, p) = sum_d [T_d(p_d) + V_d(q_d)], one term pair per coordinate.

    All evaluation methods accept arrays whose last axis runs over the
    coordinates (a bare scalar is accepted when dims == 1) and broadcast
    over any leading axes.
    """

    kinetic: tuple[CoordFunction, ...]
    potential: tuple[CoordFunction, ...]

    def __post_init__(self) -> None:
        kinetic = tuple(self.kinetic)
        potential = tuple(self.potential)
        if not kinetic:
            raise ValueError("at least one degree of freedom required")
        if len(kinetic) != len(potential):
            raise ValueError("kinetic and potential need one term per coordinate")
        object.__setattr__(self, "kinetic", kinetic)
        object.__setattr__(self, "potential", potential)

    @property
    def dims(self) -> int:
        return len(self.kinetic)

    def _coords(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.dtype != float and x.dtype.kind != "c":  # a complexified orbit stays complex
            x = x.astype(float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape[-1] != self.dims:
            raise ValueError(
                f"coordinate array has {x.shape[-1]} components, expected {self.dims}"
            )
        return x

    def _sum(self, terms, x):
        """Sum of the nonzero ``terms`` at their coordinates (zeros if none)."""
        x = self._coords(x)
        parts = [t.value(x[..., d]) for d, t in enumerate(terms) if not t.is_zero]
        return sum(parts[1:], parts[0]) if parts else ZERO_TERM.value(x[..., 0])

    def kinetic_value(self, p):
        return self._sum(self.kinetic, p)

    def potential_value(self, q):
        return self._sum(self.potential, q)

    def value(self, q, p):
        """H(q, p).  A part whose terms are all zero is skipped, so a
        momentum-independent delta-H costs one potential evaluation."""
        if all(t.is_zero for t in self.kinetic):
            return self.potential_value(q)
        if all(t.is_zero for t in self.potential):
            return self.kinetic_value(p)
        return self.kinetic_value(p) + self.potential_value(q)

    def _per_coord(self, terms, derivative, x):
        """Stack ``derivative`` of each term at its coordinate on the last axis."""
        x = self._coords(x)
        cols = [derivative(t, x[..., d]) for d, t in enumerate(terms)]
        # one coordinate: a view of the fresh column, not a stacked copy
        return cols[0][..., None] if len(cols) == 1 else np.stack(cols, axis=-1)

    def kinetic_d1(self, p):
        return self._per_coord(self.kinetic, CoordFunction.d1, p)

    def potential_d1(self, q):
        return self._per_coord(self.potential, CoordFunction.d1, q)

    def kinetic_d2(self, p):
        return self._per_coord(self.kinetic, CoordFunction.d2, p)

    def potential_d2(self, q):
        return self._per_coord(self.potential, CoordFunction.d2, q)

    @property
    def is_zero(self) -> bool:
        return all(t.is_zero for t in self.kinetic + self.potential)

    def __add__(self, other: "SeparableHamiltonian") -> "SeparableHamiltonian":
        if not isinstance(other, SeparableHamiltonian):
            return NotImplemented
        if other.dims != self.dims:
            raise ValueError("dimension mismatch in Hamiltonian sum")
        return SeparableHamiltonian(
            tuple(a + b for a, b in zip(self.kinetic, other.kinetic)),
            tuple(a + b for a, b in zip(self.potential, other.potential)),
        )

    def __mul__(self, factor: float) -> "SeparableHamiltonian":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return SeparableHamiltonian(
            tuple(t * factor for t in self.kinetic),
            tuple(t * factor for t in self.potential),
        )

    __rmul__ = __mul__

    def __sub__(self, other: "SeparableHamiltonian") -> "SeparableHamiltonian":
        return self + other * -1.0


def hamiltonian_1d(kinetic: CoordFunction, potential: CoordFunction) -> SeparableHamiltonian:
    return SeparableHamiltonian((kinetic,), (potential,))


@dataclass(frozen=True)
class HamiltonianPair:
    """Unperturbed/perturbed pair with derived average and difference.

    ``average`` = (h' + h'')/2 drives the reference dynamics, ``delta`` =
    h'' - h' generates the accumulated phase of the estimators.
    """

    h_prime: SeparableHamiltonian
    h_double_prime: SeparableHamiltonian
    average: SeparableHamiltonian
    delta: SeparableHamiltonian

    @property
    def dims(self) -> int:
        return self.h_prime.dims

    def swapped(self) -> "HamiltonianPair":
        return make_pair(self.h_double_prime, self.h_prime)


def make_pair(
    h_prime: SeparableHamiltonian, h_double_prime: SeparableHamiltonian
) -> HamiltonianPair:
    """Build a pair with exact average and difference Hamiltonians."""
    if h_prime.dims != h_double_prime.dims:
        raise ValueError(
            f"dimension mismatch: {h_prime.dims} vs {h_double_prime.dims}"
        )
    average = (h_prime + h_double_prime) * 0.5
    delta = h_double_prime - h_prime
    return HamiltonianPair(h_prime, h_double_prime, average, delta)


def expansion_remainder(pair: HamiltonianPair, x, dx, order: int):
    """Error of the truncated average/difference expansion at a phase-space point.

    Evaluates H''(x + dx/2) - H'(x - dx/2) minus its truncation in powers of
    the displacement ``dx``: order 0 keeps delta-H at the midpoint, order 1
    adds the first derivatives of the average Hamiltonian contracted with
    ``dx``, order 2 adds 1/8 of the second derivatives of delta-H contracted
    with ``dx**2``.  The remainder is O(|dx|**(order+1)).

    Parameters
    ----------
    x, dx : tuple of arrays
        Phase-space point ``(q, p)`` and displacement ``(dq, dp)``, last axis
        running over coordinates.
    order : int
        Truncation order, one of 0, 1, 2.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported expansion order {order}")
    q, p = x
    dq, dp = dx
    avg, delta = pair.average, pair.delta
    q = avg._coords(q)
    p = avg._coords(p)
    dq = avg._coords(dq)
    dp = avg._coords(dp)

    lhs = pair.h_double_prime.value(q + dq / 2, p + dp / 2) - pair.h_prime.value(
        q - dq / 2, p - dp / 2
    )
    trunc = delta.value(q, p)
    if order >= 1:
        trunc = trunc + np.sum(avg.kinetic_d1(p) * dp, axis=-1)
        trunc = trunc + np.sum(avg.potential_d1(q) * dq, axis=-1)
    if order >= 2:
        trunc = trunc + np.sum(delta.kinetic_d2(p) * dp**2, axis=-1) / 8.0
        trunc = trunc + np.sum(delta.potential_d2(q) * dq**2, axis=-1) / 8.0
    return lhs - trunc


def predicted_exactness(pair: HamiltonianPair) -> dict:
    """Verdict ``EXACT`` or ``APPROXIMATE`` of each estimator on ``pair``.

    The order-k estimator is exact when the order-k ``expansion_remainder``
    vanishes identically.  For terms of degree <= 4 plus a cosine, that is
    when no term carries a cosine and the degrees of the average Hamiltonian
    and of delta-H meet the bounds below; ``f2_gaussian`` also needs delta-H
    quadratic, as its closed form does.

    The verdicts follow the expansion, which treats q and p alike, and not
    what each estimator supports: ``f2_mc`` and ``f2_gaussian`` smear only
    the momentum, so they refuse a delta-H with a kinetic part even where the
    verdict is exact.
    """
    avg_terms = pair.average.kinetic + pair.average.potential
    delta_terms = pair.delta.kinetic + pair.delta.potential
    polynomial = all(t.cos_amp == 0.0 for t in avg_terms + delta_terms)
    avg = max(t.degree for t in avg_terms)
    delta = max(t.degree for t in delta_terms)
    exact = {
        "f0": avg == 0 and delta <= 1,
        "f1": avg <= 2 and delta <= 1,
        "f2_mc": avg <= 2 and delta <= 3,
        "f2_gaussian": avg <= 2 and delta <= 2,
    }
    return {name: EXACT if polynomial and ok else APPROXIMATE for name, ok in exact.items()}
