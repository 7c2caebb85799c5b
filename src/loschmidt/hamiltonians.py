"""Separable Hamiltonians H(q, p) = T(p) + V(q) with exact derivatives.

A Hamiltonian is a sum of one-coordinate terms, one kinetic and one potential
term per degree of freedom.  Each term is a polynomial of degree <= 4 plus an
optional cosine, so sums, differences and scalar multiples stay inside the
family and all derivatives reduce to exact coefficient arithmetic.
"""
from __future__ import annotations

import math
import numbers
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


def _horner(x, c, out=None):
    """numpy's ``polyval(x, c)`` bit for bit, done in place on one array:
    ``out`` when given (x's shape, not sharing memory with x), else a fresh one.

    polyval seeds with ``c[-1] + x * 0`` and steps ``c0 * x + c[k]``.  Past a
    constant, a trimmed ``c[-1]`` is nonzero, so for finite x the seed
    ``x * c[-1]`` gives the same bits one product sooner.  Every ``+ c[k]`` is
    kept, zeros included, so signed zeros match polyval too.  The dtype of
    ``x`` is kept (float64 at least, as with polyval's float64 coefficients)."""
    if len(c) == 1:
        return np.add(c[0], np.multiply(x, 0, out=out), out=out)
    out = np.multiply(x, c[-1], out=out)
    out += c[-2]
    for ck in c[-3::-1]:
        out *= x
        out += ck
    return out


_ZERO_TABLE = (np.float64(0.0),)  # the Horner table of a derivative past the degree
# d^j/dx^j cos(x) is sign * trig(x) with (sign, trig) = _COS_CYCLE[j % 4]
_COS_CYCLE = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos), (1.0, np.sin))


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
        # math, not numpy, whose per-call cost shows in a preset's set-up time
        for name, values in (("coeffs", coeffs), ("cos_amp", (self.cos_amp,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if len(coeffs) > MAX_POLY_DEGREE + 1:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds supported "
                f"maximum {MAX_POLY_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "cos_amp", float(self.cos_amp))
        # Horner table of the j-th derivative for each j up to the degree,
        # computed once, as the float64 scalars polyval would have built per
        # call: x**(k - j) has coefficient perm(k, j) * c_k
        object.__setattr__(self, "_tables", tuple(
            tuple(np.float64(math.perm(k, j) * coeffs[k]) for k in range(j, len(coeffs)))
            for j in range(len(coeffs))
        ))

    def derivative(self, j: int, x, out=None):
        """j-th derivative at ``x`` (j = 0 is the value), written to ``out``
        when given, as ``_horner`` does; a cosine term still takes two
        temporaries of x's size."""
        out = _horner(x, self._tables[j] if j < len(self._tables) else _ZERO_TABLE, out)
        if self.cos_amp:
            sign, trig = _COS_CYCLE[j % 4]
            out += (sign * self.cos_amp) * trig(x)
        return out

    def value(self, x, out=None):
        return self.derivative(0, x, out)

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

    def _sum(self, terms, x, out=None):
        """Sum of the nonzero ``terms`` at their coordinates (zeros if none),
        in coordinate order; every term after the first takes a temporary."""
        x = self._coords(x)
        parts = [(t, x[..., d]) for d, t in enumerate(terms) if not t.is_zero]
        (first, x0), *rest = parts or [(ZERO_TERM, x[..., 0])]
        out = first.value(x0, out)
        for t, xd in rest:
            np.add(out, t.value(xd), out=out)
        return out

    def kinetic_value(self, p, out=None):
        return self._sum(self.kinetic, p, out)

    def potential_value(self, q, out=None):
        return self._sum(self.potential, q, out)

    def value(self, q, p, out=None):
        """H(q, p), written to ``out`` when given.  A part whose terms are all
        zero is skipped, so a momentum-independent delta-H costs one potential
        evaluation; with both parts the potential one takes a temporary."""
        if all(t.is_zero for t in self.kinetic):
            return self.potential_value(q, out)
        if all(t.is_zero for t in self.potential):
            return self.kinetic_value(p, out)
        return np.add(self.kinetic_value(p, out), self.potential_value(q), out=out)

    def _per_coord(self, terms, j, x, out=None):
        """j-th derivative of each term at its coordinate, on the last axis of
        ``out`` (x's shape, not sharing memory with x; fresh if None)."""
        x = self._coords(x)
        if out is None:
            out = np.empty(x.shape, np.result_type(x, float))
        for d, t in enumerate(terms):
            t.derivative(j, x[..., d], out[..., d])
        return out

    def kinetic_d1(self, p, out=None):
        return self._per_coord(self.kinetic, 1, p, out)

    def potential_d1(self, q, out=None):
        return self._per_coord(self.potential, 1, q, out)

    def kinetic_d2(self, p, out=None):
        return self._per_coord(self.kinetic, 2, p, out)

    def potential_d2(self, q, out=None):
        return self._per_coord(self.potential, 2, q, out)

    @property
    def degree(self) -> float:
        """Largest polynomial degree of its terms; infinite if any term has a
        cosine."""
        terms = self.kinetic + self.potential
        if any(t.cos_amp != 0.0 for t in terms):
            return float("inf")
        return max(t.degree for t in terms)

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

    def check_state(self, state) -> None:
        """Refuse an initial state whose dimension is not the pair's."""
        if state.dims != self.dims:
            raise ValueError(
                f"state and Hamiltonian dimensions differ: {state.dims} vs {self.dims}"
            )

    def swapped(self) -> "HamiltonianPair":
        return make_pair(self.h_double_prime, self.h_prime)


class PairOverflowError(ValueError):
    """The average or the difference of two finite terms is not finite;
    ``part`` is "kinetic" or "potential"."""

    def __init__(self, part: str, d: int, combination: str) -> None:
        super().__init__(
            f"the {combination} of the {part} terms of coordinate {d} overflows"
        )
        self.part = part


def make_pair(
    h_prime: SeparableHamiltonian, h_double_prime: SeparableHamiltonian
) -> HamiltonianPair:
    """Build a pair with exact average and difference Hamiltonians; raises
    ``PairOverflowError`` naming the term whose average or difference
    overflows."""
    if h_prime.dims != h_double_prime.dims:
        raise ValueError(
            f"dimension mismatch: {h_prime.dims} vs {h_double_prime.dims}"
        )

    def combined(combination, op):
        parts = []
        for part in ("kinetic", "potential"):
            terms = []
            for d, (a, b) in enumerate(zip(getattr(h_prime, part), getattr(h_double_prime, part))):
                try:
                    # a CoordFunction refuses the non-finite coefficient of an overflow
                    terms.append(op(a, b))
                except ValueError:
                    raise PairOverflowError(part, d, combination) from None
            parts.append(tuple(terms))
        return SeparableHamiltonian(*parts)

    average = combined("average", lambda a, b: (a + b) * 0.5)
    delta = combined("difference", lambda a, b: b - a)
    return HamiltonianPair(h_prime, h_double_prime, average, delta)


def _truncated_part(pair: HamiltonianPair, part: str, x, y, order: int):
    """Sum over j <= ``order`` of c_j(x) (y/2)**j / j!, summed over the
    coordinates of one ``part`` ("kinetic" at (p, dp) or "potential" at
    (q, dq)), with c_j the j-th derivative of delta-H for even j and twice
    that of the average Hamiltonian for odd j."""
    total = 0.0
    for j in range(order + 1):
        h, weight = (pair.delta, 1.0) if j % 2 == 0 else (pair.average, 2.0)
        c_j = weight * h._per_coord(getattr(h, part), j, x)
        total = total + np.sum(c_j * (y / 2) ** j, axis=-1) / math.factorial(j)
    return total


def expansion_remainder(pair: HamiltonianPair, x, dx, order: int):
    """Error of the truncated average/difference expansion at a phase-space point.

    Evaluates H''(x + dx/2) - H'(x - dx/2) minus its Taylor expansion about
    ``x`` in powers of the displacement ``dx``, kept up to ``order``.  The
    term of order j holds the j-th derivatives of delta-H for even j (order 0
    is delta-H at the midpoint) and twice those of the average Hamiltonian
    for odd j, contracted with (dx/2)**j / j!.  The remainder is
    O(|dx|**(order+1)).

    Parameters
    ----------
    x, dx : tuple of arrays
        Phase-space point ``(q, p)`` and displacement ``(dq, dp)``, last axis
        running over coordinates.
    order : int
        Truncation order, any nonnegative integer.
    """
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
        raise ValueError(f"expansion order must be a nonnegative integer, got {order!r}")
    q, p, dq, dp = (pair.average._coords(a) for a in (*x, *dx))
    lhs = pair.h_double_prime.value(q + dq / 2, p + dp / 2) - pair.h_prime.value(
        q - dq / 2, p - dp / 2
    )
    return lhs - (
        _truncated_part(pair, "kinetic", p, dp, order)
        + _truncated_part(pair, "potential", q, dq, order)
    )


def _exact_at(pair: HamiltonianPair, order: int) -> bool:
    """Whether the order-``order`` truncation of ``pair`` is exact, i.e. its
    ``expansion_remainder`` vanishes identically: every term it leaves out,
    the j-th derivatives of the average Hamiltonian for odd j > order and of
    delta-H for even j > order, is zero.  That holds iff the ``degree`` of
    the average (infinite with a cosine) is below the smallest such odd j,
    and that of delta-H below the smallest such even j."""
    first_odd = order + 1 + order % 2
    first_even = order + 2 - order % 2
    return pair.average.degree < first_odd and pair.delta.degree < first_even


def predicted_exactness(pair: HamiltonianPair) -> dict:
    """Verdict ``EXACT`` or ``APPROXIMATE`` of each estimator on ``pair``.

    The order-k estimator (f0 at k = 0, f1 at 1, f2_mc and f2_gaussian at 2)
    is exact when its truncation is, by ``_exact_at``; ``f2_gaussian`` also
    needs delta-H of degree <= 2, as its closed form does.

    The verdicts follow the expansion, which treats q and p alike, and not
    what each estimator supports: ``f2_mc`` and ``f2_gaussian`` smear only
    the momentum, so they refuse a delta-H with a kinetic part even where the
    verdict is exact.
    """
    exact = {name: _exact_at(pair, k) for name, k in (("f0", 0), ("f1", 1), ("f2_mc", 2))}
    exact["f2_gaussian"] = exact["f2_mc"] and pair.delta.degree <= 2
    return {name: EXACT if ok else APPROXIMATE for name, ok in exact.items()}
