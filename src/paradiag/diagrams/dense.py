"""Dense evaluation of layered diagrams on (C^d)^(x strings).

Each string carries C^d.  Charge k on string s acts as clock tails times a
shift,

    c_s(k) = (Zhat^-k)^(x (s-1)) (x) Xhat^k (x) 1 (x) ... ,

which satisfies c_s(k) c_t(l) = q**(k*l) c_t(l) c_s(k) for s < t.  The tail
direction is pinned by requiring the single-qudit dictionary (X = c_2,
Y = c_1^-1, Z = zeta c_1 c_2^-1) to hold exactly; it is a derived constant
of the build, not an input.

Caps and cups are the tensors

    cap = d**(-1/4) * sum_m zeta**(m*m) |m, -m>,      cup = cap^dagger,

so a closed loop evaluates to sqrt(d) and the resolution of the identity
holds on the nose.  The one relation these tensors miss is the zig-zag,
which they satisfy only up to d**(-1/2) per straightening; the evaluator
therefore multiplies by d**(excess/4) where ``excess`` is the turn count
beyond the strand topology's minimum (see ``ir.turn_excess``), computed once
per charge-free shape, since it depends on the caps and cups alone.  With that
normalization the dense value agrees with the symbolic rewrite value
exactly, not merely up to scale.

Every slice touches one or two adjacent strings, so each is one pass over a
free reshape of the C-contiguous tensor into (strings before, the strings
it touches, everything after, columns included); nothing is transposed.  A
charge rolls its string and applies its tails as one phase
q**(-k*(m_1 + ... + m_(s-1))), looked up from an exact integer exponent.  A
cap is one broadcast multiply and a cup one matrix product.

A braid is the charge sum sum_k c_p(k) c_(p+1)(-k) over the principal
sqrt(omega*d), mirrored and over the conjugate for the negative braid.  The
two charges of each term carry opposite tails on the strings before p,
which cancel, so the braid acts on strings p, p+1 alone: a d*d x d*d gate,
built once per d and handedness from the charge-sum definition and applied
as one matrix product.

The operator is finally restricted to the qudit basis, the images of the
charged caps pairing strings (2i-1, 2i): the adjoint of the one-pair
isometry is applied pair by pair, then the conjugate charge-order phase
once per output label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..algebra import Operator, StateVector
from ..scalars import PhaseExponent, sqrt_omega_d
from .ir import (
    BRAID_NEG,
    BRAID_POS,
    CAP,
    CHARGE,
    CUP,
    MULTICHARGE,
    Diagram,
    DiagramError,
    _SHAPE_CACHE_SIZE,
    _shape,
    _shape_diagram,
    turn_excess,
)

__all__ = ["DiagramValue", "evaluate_dense", "pair_isometry", "basis_isometry"]


@dataclass(frozen=True)
class DiagramValue:
    """Evaluated diagram: a d**n_out x d**n_in matrix in the qudit basis."""

    d: int
    n_in: int
    n_out: int
    array: np.ndarray

    def as_operator(self) -> Operator:
        if self.n_in != self.n_out:
            raise DiagramError(f"not square: {self.n_in} qudits in, {self.n_out} out")
        return Operator(self.d, self.n_in, self.array)

    def as_state(self) -> StateVector:
        if self.n_in != 0:
            raise DiagramError("diagram has inputs; not a state")
        return StateVector(self.d, self.n_out, self.array.reshape(-1))

    def scalar(self) -> complex:
        if self.n_in or self.n_out:
            raise DiagramError("diagram has boundary points; not a scalar")
        return complex(self.array.reshape(-1)[0])


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no slice can write into the cache."""
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _zeta_powers(d: int) -> np.ndarray:
    """zeta**e for e < d*d, each from its exactly reduced angle."""
    return _frozen(np.array([PhaseExponent(d, e).to_complex() for e in range(d * d)]))


def _digit_sums(d: int, n: int, power: int = 1) -> np.ndarray:
    """sum_i m_i**power over the n base-d digits m_i of each of 0 .. d**n - 1."""
    total = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        total = (total[:, np.newaxis] + np.arange(d) ** power).reshape(-1)
    return total


@lru_cache(maxsize=None)
def _cap_vector(d: int) -> np.ndarray:
    """The cap d**(-1/4) * sum_m zeta**(m*m) |m, -m> as a length-d*d vector."""
    m = np.arange(d)
    cap = np.zeros((d, d), dtype=complex)
    cap[m, -m % d] = _zeta_powers(d)[m * m] * d**-0.25
    return _frozen(cap.reshape(d * d))


@lru_cache(maxsize=None)
def pair_isometry(d: int) -> np.ndarray:
    """d*d x d isometry whose columns are the charged-cap qudit states.

    Each column is d**(-1/4) times the charged cap tensor (which itself
    carries d**(-1/4)), giving unit-norm, mutually orthogonal states.
    """
    m, k = np.arange(d)[:, None], np.arange(d)[None, :]
    iso = np.zeros((d * d, d), dtype=complex)
    iso[m * d + (k - m) % d, k] = d**-0.5 * _zeta_powers(d)[(m * m - 2 * k * m) % (d * d)]
    return _frozen(iso)


@lru_cache(maxsize=None)
def _pair_adjoint(d: int) -> np.ndarray:
    return _frozen(pair_isometry(d).conj().T.copy())


@lru_cache(maxsize=None)
def _order_phases(d: int, n: int) -> np.ndarray:
    """q**(+sum_{i<j} k_i k_j) over the n-qudit labels (k_1 most significant).

    This is the conjugate of the charge-order phase that ``basis_isometry``
    attaches to its columns; as a zeta exponent it is (sum k)**2 - sum k**2.
    """
    return _frozen(_zeta_powers(d)[(_digit_sums(d, n) ** 2 - _digit_sums(d, n, 2)) % (d * d)])


@lru_cache(maxsize=None)
def basis_isometry(d: int, n: int) -> np.ndarray:
    """Restriction to the n-qudit basis drawn as charged caps.

    Columns are tensor products of single-pair cap states times the tail
    phase q**(-sum_{i<j} k_i k_j) that the charge order (qudit 1 highest)
    produces when the clock tails of later charges sweep earlier pairs.
    """
    full = pair_isometry(d)
    for _ in range(n - 1):
        full = np.kron(full, pair_isometry(d))
    return _frozen(full * _order_phases(d, n).conj()[np.newaxis, :])


@lru_cache(maxsize=None)
def _tail(d: int, s: int, k: int) -> np.ndarray:
    """q**(-k*(m_1 + ... + m_(s-1))) over the strings before s, for 0 < k < d."""
    return _frozen(_zeta_powers(d)[(-2 * k * _digit_sums(d, s - 1)) % (d * d)])


def _apply_charge(tensor: np.ndarray, s: int, k: int, d: int) -> np.ndarray:
    """c_s(k) on a tensor whose rows are strings (C-contiguous, columns last).

    Returns shape (strings before s, string s, the rest): the shift rolls
    the middle axis by k, and one tail phase multiplies the first.
    """
    k = k % d
    if k == 0:
        return tensor
    view = tensor.reshape(d ** (s - 1), d, -1)
    tail = _tail(d, s, k)[:, np.newaxis, np.newaxis]
    out = np.empty_like(view)
    np.multiply(view[:, d - k :], tail, out=out[:, :k])
    np.multiply(view[:, : d - k], tail, out=out[:, k:])
    return out


@lru_cache(maxsize=None)
def _braid_gate(d: int, positive: bool) -> np.ndarray:
    """The braid on strings p, p+1 as a d*d x d*d gate, from its charge sum.

    Built on two strings with this module's charges; the tails each term
    would put on strings before p cancel (see the module docstring).
    """
    first, second = (1, 2) if positive else (2, 1)
    eye = np.eye(d * d, dtype=complex)
    gate = sum(_apply_charge(_apply_charge(eye, first, k, d), second, -k, d).reshape(d * d, d * d)
               for k in range(d))
    norm = 1.0 / sqrt_omega_d(d)
    return _frozen(gate * (norm if positive else np.conj(norm)))


def _apply_braid(tensor: np.ndarray, p: int, d: int, positive: bool) -> np.ndarray:
    return np.matmul(_braid_gate(d, positive), tensor.reshape(d ** (p - 1), d * d, -1))


def _apply_cap(tensor: np.ndarray, p: int, d: int) -> np.ndarray:
    return tensor.reshape(d ** (p - 1), 1, -1) * _cap_vector(d)[:, np.newaxis]


def _apply_cup(tensor: np.ndarray, p: int, d: int) -> np.ndarray:
    return np.matmul(_cap_vector(d).conj()[np.newaxis], tensor.reshape(d ** (p - 1), d * d, -1))


def _apply_multicharge(tensor: np.ndarray, items, d: int) -> np.ndarray:
    ks = [k for _, k in items]
    twist = -sum(ks[i] * ks[j] for i in range(len(ks)) for j in range(i + 1, len(ks))) % (d * d)
    out = tensor
    for p, k in reversed(items):  # rightmost charge acts first
        out = _apply_charge(out, p, k, d)
    if twist:  # a twist off 0 mod d*d needs a charge off 0 mod d, so out is a new array
        out *= _zeta_powers(d)[twist]
    return out


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _turn_excess(shape: tuple) -> int:
    """``turn_excess`` of every diagram of one charge-free shape."""
    return turn_excess(_shape_diagram(shape))


def evaluate_dense(diag: Diagram) -> DiagramValue:
    """Slice-by-slice dense value, restricted to the qudit basis.

    The input restriction is applied before the slices run, so the column
    space is d**n_in rather than d**top throughout.
    """
    d, n_in, n_out = diag.d, diag.n_in, diag.n_out
    cols = d**n_in
    tensor = basis_isometry(d, n_in) if n_in else np.ones((1, 1), dtype=complex)
    for s in diag.slices:
        if s.kind == CHARGE:
            tensor = _apply_charge(tensor, s.pos, s.k, d)
        elif s.kind == CAP:
            tensor = _apply_cap(tensor, s.pos, d)
        elif s.kind == CUP:
            tensor = _apply_cup(tensor, s.pos, d)
        elif s.kind in (BRAID_POS, BRAID_NEG):
            tensor = _apply_braid(tensor, s.pos, d, s.kind == BRAID_POS)
        elif s.kind == MULTICHARGE:
            tensor = _apply_multicharge(tensor, s.items, d)
    for i in range(n_out):  # output restriction, one string pair at a time
        tensor = np.matmul(_pair_adjoint(d), tensor.reshape(d**i, d * d, -1))
    scale = diag.scale.to_complex() * float(d) ** (_turn_excess(_shape(diag)) / 4)
    mat = tensor.reshape(d**n_out, cols) * (scale * _order_phases(d, n_out))[:, np.newaxis]
    return DiagramValue(d, n_in, n_out, mat)
