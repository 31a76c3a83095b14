"""Exact phase arithmetic for the roots of unity q and zeta, and the Gauss sum.

Conventions fixed here and relied on everywhere else:

* ``q = exp(2*pi*i/d)`` is the primitive d-th root of unity.
* ``zeta`` is a square root of q with ``zeta**(d*d) == 1``.  The branch is
  ``exp(i*pi/d)`` for even d and ``q**((d+1)//2)`` for odd d; both choices
  satisfy the two defining identities, and pinning one makes every
  phase-tagged value in the test suite deterministic.
* ``omega = d**-0.5 * sum(zeta**(j*j) for j in range(d))`` has modulus 1.

Exact scalars of the form ``zeta**a * d**(b/2)`` are kept as integer
exponents in :class:`PhaseExponent`; everything else (sums over Z_d) lives
in ordinary complex floats guarded by :class:`Tolerance`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "PhaseExponent",
    "Tolerance",
    "zeta",
    "zeta_exponent_base",
    "omega",
    "sqrt_omega_d",
    "equal_up_to_global_phase",
    "global_phase_deviation",
]


class DimensionError(ValueError):
    """Raised for qudit dimensions the operation cannot accept."""


def _check_dim(d: int, minimum: int = 1) -> None:
    if not isinstance(d, (int, np.integer)) or d < minimum:
        raise DimensionError(f"invalid dimension d={d!r} (need integer >= {minimum})")


def zeta_exponent_base(d: int) -> float:
    """Return beta such that zeta(d) = exp(i*pi*beta); beta = 1/d or (d+1)/d."""
    _check_dim(d)
    if d % 2 == 0:
        return 1.0 / d
    return (d + 1) / d


def zeta(d: int) -> complex:
    """The fixed square root of q = exp(2*pi*i/d) with zeta**(d*d) == 1."""
    return cmath.exp(1j * math.pi * zeta_exponent_base(d))


def omega(d: int) -> complex:
    """Normalized quadratic Gauss sum d**-0.5 * sum_j zeta**(j*j)."""
    _check_dim(d)
    z = zeta(d)
    return sum(z ** (j * j) for j in range(d)) / math.sqrt(d)


def sqrt_omega_d(d: int) -> complex:
    """Principal square root of omega(d)*d, argument in (-pi/2, pi/2].

    This normalizes the braid expansion; a sign flip would only contribute a
    global phase.
    """
    w = omega(d) * d
    r = cmath.sqrt(w)
    if r.real < 0 or (abs(r.real) < 1e-15 and r.imag < 0):
        r = -r
    return r


@dataclass(frozen=True)
class PhaseExponent:
    """Exact scalar zeta**zeta_exp * d**(sqrtd_exp/2), or the absorbing zero.

    ``zeta_exp`` is reduced modulo d*d (the order of zeta divides d*d for
    both branch choices).  ``sqrtd_exp`` may be negative.  Multiplication
    adds exponents; zero absorbs.
    """

    d: int
    zeta_exp: int = 0
    sqrtd_exp: int = 0
    zero_flag: bool = False

    def __post_init__(self) -> None:
        _check_dim(self.d)
        object.__setattr__(self, "zeta_exp", 0 if self.zero_flag else self.zeta_exp % (self.d * self.d))
        if self.zero_flag:
            object.__setattr__(self, "sqrtd_exp", 0)

    @classmethod
    def one(cls, d: int) -> "PhaseExponent":
        return cls(d)

    @classmethod
    def zero(cls, d: int) -> "PhaseExponent":
        return cls(d, zero_flag=True)

    def __mul__(self, other: "PhaseExponent") -> "PhaseExponent":
        if self.d != other.d:
            raise DimensionError("cannot multiply PhaseExponents of different dimension")
        if self.zero_flag or other.zero_flag:
            return PhaseExponent.zero(self.d)
        return PhaseExponent(self.d, self.zeta_exp + other.zeta_exp, self.sqrtd_exp + other.sqrtd_exp)

    def times_sqrtd(self, e: int = 1) -> "PhaseExponent":
        return self * PhaseExponent(self.d, sqrtd_exp=e)

    def conjugate(self) -> "PhaseExponent":
        if self.zero_flag:
            return self
        return PhaseExponent(self.d, -self.zeta_exp, self.sqrtd_exp)

    def to_complex(self) -> complex:
        if self.zero_flag:
            return 0j
        # reduce the angle exactly mod 2*pi before exponentiating; int / int
        # is correctly rounded, as float(Fraction) is
        num = (self.d + 1) * self.zeta_exp if self.d % 2 else self.zeta_exp
        angle = num % (2 * self.d) / self.d
        return cmath.exp(1j * math.pi * angle) * self.d ** (self.sqrtd_exp / 2)


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison tolerance for floating checks."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise ValueError(f"tolerance must be positive, got {self.eps!r}")


def global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Max-norm of a - c*b where c is the best unit phase read off from b.

    The phase is fixed by the largest-magnitude entry of b, so modulus
    mismatches are reported as genuine deviations rather than rescaled away.
    ``a`` may carry extra leading axes, a stack of candidates against the
    one b; the result is then an array with one deviation per leading index,
    each with its own phase c read off at the same pivot.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    lead = a.shape[: a.ndim - b.ndim]
    if a.shape[len(lead) :] != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows = a.reshape(lead + (b.size,))
    b = b.reshape(-1)
    if b.size == 0:
        dev = np.zeros(lead)
    else:
        idx = int(np.argmax(np.abs(b)))
        if abs(b[idx]) == 0.0:
            dev = np.max(np.abs(rows), axis=-1)
        else:
            ratio = rows[..., idx] / b[idx]
            # hypot rounds as abs() of one complex scalar does; np.abs of an
            # array may differ in the last bit
            mag = np.hypot(ratio.real, ratio.imag)
            c = np.divide(ratio, mag, out=np.ones_like(ratio), where=mag > 0)
            # with b spelled out to the stack's shape, numpy rounds each row's
            # product as for that row alone, one-entry rows included
            dev = np.max(np.abs(rows - c[..., None] * np.broadcast_to(b, rows.shape)), axis=-1)
    return dev if lead else float(dev)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: Tolerance = Tolerance()) -> bool:
    """True iff a == c*b entrywise (max norm) for some unit scalar c."""
    return global_phase_deviation(a, b) <= tol.eps
