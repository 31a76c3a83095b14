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

Charges never touch the tensor.  A charge c_s(k) is a generalized Pauli, so
the evaluator carries a pending frame beside the tensor: zeta**e times
X**a_i Z**b_i on each string i, with the true value the frame applied to
the stored tensor.  A charge updates the frame with integers alone: its
tail Z**-k passes each X**a_i before s at the cost q**(-k*a_i)
(Z X = q X Z), so e -= 2*k*a_i and b_i -= k, and then a_s += k.  A
multicharge applies its items from the right and adds its twist to e, and
zeta**e joins the final scale, so charge phases stay exact integers until
that one multiply.

Every slice that does touch the tensor touches one or two adjacent
strings, so each is one pass over a free reshape of the C-contiguous tensor
into (strings before, the strings it touches, everything after, columns
included); nothing is transposed.  A cap is one broadcast multiply and
inserts two identity entries into the frame.  A cup, a braid and the
output restriction first absorb the frame of their two strings into their
small cached operator: right-multiplying by a Pauli pair is a column gather
and a phase, looked up per (d, a1, b1, a2, b2).  The absorbed operator is
then applied as one matrix product, and the two entries are reset (or, for
a cup, removed).

A braid is the charge sum sum_k c_p(k) c_(p+1)(-k) over the principal
sqrt(omega*d), mirrored and over the conjugate for the negative braid.  The
two charges of each term carry opposite tails on the strings before p,
which cancel, so the braid acts on strings p, p+1 alone: a d*d x d*d gate,
built once per d and handedness by summing the two-string frames of its
terms.

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


def _charge(a: list[int], b: list[int], s: int, k: int) -> int:
    """Push c_s(k) onto the frame X**a_i Z**b_i; return the zeta exponent it adds."""
    for i in range(s - 1):
        b[i] -= k
    a[s - 1] += k
    return -2 * k * sum(a[: s - 1])


@lru_cache(maxsize=1024)  # all d**4 keys up to d = 5; the relation suite uses 364
def _pauli_pair(d: int, a1: int, b1: int, a2: int, b2: int) -> tuple[np.ndarray, np.ndarray]:
    """X**a1 Z**b1 (x) X**a2 Z**b2 as a column gather ``idx`` and phase ``ph``.

    Column m1*d + m2 of the pair has its one entry, q**(b1*m1 + b2*m2), in
    row (m1 + a1, m2 + a2) mod d, so ``mat @ pair`` is ``mat[..., idx] * ph``.
    """
    m1, m2 = np.divmod(np.arange(d * d), d)
    idx = (m1 + a1) % d * d + (m2 + a2) % d
    return _frozen(idx), _frozen(_zeta_powers(d)[2 * (b1 * m1 + b2 * m2) % (d * d)])


def _absorb(mat: np.ndarray, a: list[int], b: list[int], p: int, d: int) -> np.ndarray:
    """``mat`` times the frame of strings p, p+1, whose entries are reset to identity."""
    key = (a[p - 1] % d, b[p - 1] % d, a[p] % d, b[p] % d)
    a[p - 1] = b[p - 1] = a[p] = b[p] = 0
    if not any(key):
        return mat
    idx, ph = _pauli_pair(d, *key)
    return mat[..., idx] * ph


@lru_cache(maxsize=None)
def _braid_gate(d: int, positive: bool) -> np.ndarray:
    """The braid on strings p, p+1 as a d*d x d*d gate, from its charge sum.

    Each term is a two-string frame; the tails it would put on strings
    before p cancel (see the module docstring).
    """
    first, second = (1, 2) if positive else (2, 1)
    eye = np.eye(d * d, dtype=complex)
    gate = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        a, b = [0, 0], [0, 0]
        e = _charge(a, b, first, k) + _charge(a, b, second, -k)
        gate += _absorb(eye, a, b, 1, d) * _zeta_powers(d)[e % (d * d)]
    norm = 1.0 / sqrt_omega_d(d)
    return _frozen(gate * (norm if positive else np.conj(norm)))


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
    a, b, e = [0] * diag.top, [0] * diag.top, 0  # the pending frame
    for s in diag.slices:
        p = s.pos
        if s.kind == CHARGE:
            e += _charge(a, b, p, s.k % d)
        elif s.kind == MULTICHARGE:
            for q, k in reversed(s.items):  # rightmost charge acts first
                e += _charge(a, b, q, k % d)
            ks = [k for _, k in s.items]
            e -= sum(ks[i] * ks[j] for i in range(len(ks)) for j in range(i + 1, len(ks)))
        elif s.kind == CAP:
            tensor = tensor.reshape(d ** (p - 1), 1, -1) * _cap_vector(d)[:, np.newaxis]
            a[p - 1 : p - 1] = [0, 0]
            b[p - 1 : p - 1] = [0, 0]
        elif s.kind == CUP:
            row = _absorb(_cap_vector(d).conj()[np.newaxis], a, b, p, d)
            tensor = np.matmul(row, tensor.reshape(d ** (p - 1), d * d, -1))
            del a[p - 1 : p + 1], b[p - 1 : p + 1]
        elif s.kind in (BRAID_POS, BRAID_NEG):
            gate = _absorb(_braid_gate(d, s.kind == BRAID_POS), a, b, p, d)
            tensor = np.matmul(gate, tensor.reshape(d ** (p - 1), d * d, -1))
    for i in range(n_out):  # output restriction, one string pair at a time
        adjoint = _absorb(_pair_adjoint(d), a, b, 2 * i + 1, d)
        tensor = np.matmul(adjoint, tensor.reshape(d**i, d * d, -1))
    scale = diag.scale.to_complex() * float(d) ** (_turn_excess(_shape(diag)) / 4)
    scale *= _zeta_powers(d)[e % (d * d)]
    mat = tensor.reshape(d**n_out, cols) * (scale * _order_phases(d, n_out))[:, np.newaxis]
    return DiagramValue(d, n_in, n_out, mat)
