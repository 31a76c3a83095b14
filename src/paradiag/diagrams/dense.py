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

Caps and input pairs stay out of the tensor too.  A cap is the shared
maximally entangled pair, and the restriction to input qudit k_j starts
string pair j in the charged cap state of column k_j, so each is held
beside the tensor as a small pending pair state: d x d for a cap, d x d x d
for input pair j, its last axis the column digit k_j.  Every string is
either a tensor string (an axis of the tensor, in string order) or a leg of
one pending pair.  The tensor's axes are its strings, then the column
digits it holds, in the order they entered; the pending frame covers
every string alike.  A pending pair enters the tensor only on a braid, on
a cup whose contraction would otherwise move a tensor axis past another
tensor string, or on an output qudit whose two strings are not the legs of
one pair; it enters in one broadcast multiply at its two legs, its column
digits appended, and nothing is transposed.  Every other event
updates the pending states:

* a cup on both legs of one pair closes a loop: a scalar, or a column
  factor for an input pair;
* a cup from a pending leg to a tensor string is the snake identity
  (teleportation): the pair's other leg takes over that string's axis
  through one d x d product on it, for each column digit the pair holds;
* a cup joining two pending pairs fuses them into one on their outer legs;
* the output restriction of a pending pair is a d-vector factor (d x d for
  an input pair) on the new output axis.

Every slice that does touch the tensor touches one or two strings that are
adjacent among its string axes, so each is one pass over a free reshape of
the C-contiguous tensor into (strings before, the strings it touches,
everything after, columns included).  A cup, a braid and the output
restriction first absorb the frame of their two strings into their small
cached operator: right-multiplying by a Pauli pair is a column gather and a
phase, looked up per (d, a1, b1, a2, b2).  The absorbed operator is then
applied as one matrix product, to the tensor or to the pending states, and
the two entries are reset (or, for a cup, removed).

A braid is the charge sum sum_k c_p(k) c_(p+1)(-k) over the principal
sqrt(omega*d), mirrored and over the conjugate for the negative braid.  The
two charges of each term carry opposite tails on the strings before p,
which cancel, so the braid acts on strings p, p+1 alone: a d*d x d*d gate,
built once per d and handedness by summing the two-string frames of its
terms.

The operator is finally restricted to the qudit basis, the images of the
charged caps pairing strings (2i-1, 2i): the adjoint of the one-pair
isometry is applied pair by pair, the columns are put in qudit order, and
the charge-order phase q**(-sum_{i<j} k_i k_j) of the input labels and its
conjugate for the output labels are applied once.
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

__all__ = ["DiagramValue", "evaluate_dense", "pair_isometry"]


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
def _cup_row(d: int) -> np.ndarray:
    """The cup, the adjoint of the cap, as a (1, d*d) row."""
    return _frozen(_cap_vector(d).conj()[np.newaxis])


@lru_cache(maxsize=None)
def _cap_pair(d: int) -> np.ndarray:
    """A cap as a pending pair state: (left leg, right leg, no column digit)."""
    return _frozen(_cap_vector(d).reshape(d, d, 1))


@lru_cache(maxsize=None)
def _input_pair(d: int) -> np.ndarray:
    """An input pair as a pending pair state: (left leg, right leg, column digit)."""
    return _frozen(pair_isometry(d).reshape(d, d, d))


@lru_cache(maxsize=None)
def _input_pairs(d: int, n: int) -> tuple[tuple[int, ...], tuple]:
    """The pending pair of each of the 2n input strings, and input pair j as (state, (j,))."""
    owner = tuple(j for j in range(n) for _ in (0, 1))
    return owner, tuple((_input_pair(d), (j,)) for j in range(n))


@lru_cache(maxsize=None)
def _order_phases(d: int, n: int) -> np.ndarray:
    """q**(+sum_{i<j} k_i k_j) over the n-qudit labels (k_1 most significant).

    The input labels carry its conjugate: the tail phase that the charge
    order (qudit 1 highest) produces when the clock tails of later charges
    sweep earlier pairs.  As a zeta exponent it is (sum k)**2 - sum k**2.
    """
    return _frozen(_zeta_powers(d)[(_digit_sums(d, n) ** 2 - _digit_sums(d, n, 2)) % (d * d)])


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


def _enter(tensor: np.ndarray | None, owner: list[int], pend: list, cols: list[int], pid: int,
           d: int) -> np.ndarray:
    """Multiply pending pair ``pid`` into the tensor at its two legs.

    One broadcast multiply: the tensor gets a unit axis at each leg and one
    after its columns, the state a unit axis for each run of tensor strings
    and for the tensor's columns, so nothing is transposed.  The pair's
    column digits go last.
    """
    state, pair_cols = pend[pid]
    pend[pid] = None
    cols += pair_cols
    if tensor is None:  # no tensor yet: the state is the tensor
        owner[:] = [-1 if o == pid else o for o in owner]
        return state
    t_shape, s_shape = [1], [1]
    for i, o in enumerate(owner):
        if o == -1:
            t_shape[-1] *= d
        elif o == pid:
            t_shape += [1, 1]
            s_shape += [d, 1]
            owner[i] = -1
    return tensor.reshape(t_shape + [-1, 1]) * state.reshape(s_shape + [1, -1])


def _other_leg(owner: list[int], leg: int) -> int:
    """The position of the other leg of the pending pair with a leg at ``leg``."""
    first = owner.index(owner[leg])
    return owner.index(owner[leg], leg + 1) if first == leg else first


def _take(owner: list[int], pend: list, leg: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Take the pending pair cupped at position ``leg`` off the pending list.

    Returns the position of its other leg, its state with axes (other leg,
    cupped leg, column digits), and its column digits.
    """
    outer = _other_leg(owner, leg)
    state, cols = pend[owner[leg]]
    pend[owner[leg]] = None
    return outer, state if outer < leg else state.swapaxes(0, 1), cols


def _snake(tensor: np.ndarray, before: int, turn: np.ndarray, state: np.ndarray,
           d: int) -> np.ndarray:
    """The snake identity: a pending leg cupped with the tensor string after ``before``.

    ``turn[x, y]`` is the cup between the pending leg x and the string y,
    ``state`` the pair as (other leg, x, column digits).  The other leg takes
    over the string's axis through the d x d product sum_x state[:, x] turn[x],
    one for each column digit, which are appended last.
    """
    snake = np.matmul(turn.T, state)  # (other leg, y, column digits)
    if snake.shape[2] == 1:
        return np.matmul(snake[:, :, 0], tensor.reshape(before, d, -1))
    return np.matmul(tensor.reshape(before, 1, d, -1).swapaxes(2, 3), snake.reshape(1, d, d, -1))


def _fuse(left: np.ndarray, turn: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Two pending pairs joined by a cup: one pair on their outer legs.

    ``left`` and ``right`` are the pairs as (outer leg, cupped leg, column
    digits), ``left`` the one whose outer leg lies further left, and
    ``turn[x, y]`` the cup between their cupped legs x and y.  The fused
    state's column digits are the left pair's, then the right pair's.
    """
    half = np.matmul(turn.T, left).swapaxes(1, 2)  # (left outer, left columns, y)
    fused = np.matmul(half[:, np.newaxis], right[np.newaxis])
    return fused.reshape(left.shape[0], right.shape[0], -1)


def _close(mat: np.ndarray, state: np.ndarray) -> np.ndarray:
    """A cup row or output adjoint ``mat`` on both legs of one pending pair.

    Returns the factor (rows of ``mat``, column digits of the pair).
    """
    return mat @ state.reshape(mat.shape[1], -1)


def _times(tensor: np.ndarray | None, before: int, factor: np.ndarray) -> np.ndarray:
    """The tensor times ``factor`` (rows, column digits), its rows a new axis after ``before``.

    The factor's column digits go last.  With no tensor yet, the factor is
    the tensor.
    """
    if tensor is None:
        return factor
    return tensor.reshape(before, 1, -1, 1) * factor.reshape(1, factor.shape[0], 1, -1)


def evaluate_dense(diag: Diagram) -> DiagramValue:
    """Slice-by-slice dense value, restricted to the qudit basis.

    The input pairs start as pending pair states, so the tensor holds only
    the column digits of the input pairs that have entered it.
    """
    d, n_in, n_out = diag.d, diag.n_in, diag.n_out
    dd = d * d
    tensor = None  # until a factor or a pending pair enters it
    cols: list[int] = []  # the input pairs whose column digit the tensor holds, in axis order
    owner, pend = _input_pairs(d, n_in)
    owner = list(owner)  # per string: its pending pair, or -1 on the tensor
    pend = list(pend)  # per pending pair: (state, column digits), or None once gone
    a, b, e = [0] * diag.top, [0] * diag.top, 0  # the pending frame
    scale, bent = 1.0, False  # bent: the diagram has a cap or a cup
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
            owner[p - 1 : p - 1] = [len(pend)] * 2
            pend.append((_cap_pair(d), ()))
            bent = True
            a[p - 1 : p - 1] = [0, 0]
            b[p - 1 : p - 1] = [0, 0]
        elif s.kind == CUP:
            row = _absorb(_cup_row(d), a, b, p, d)
            del a[p - 1 : p + 1], b[p - 1 : p + 1]
            bent = True
            left, right = owner[p - 1], owner[p]
            if left >= 0 and left == right:  # a loop
                state, pair_cols = pend[left]
                pend[left] = None
                value = _close(row, state)
                if pair_cols:
                    tensor = _times(tensor, 1, value)
                    cols += pair_cols
                else:
                    scale *= value[0, 0]
                del owner[p - 1 : p + 1]
                continue
            turn = row.reshape(d, d)
            if left >= 0 and right >= 0:
                outer_l, state_l, cols_l = _take(owner, pend, p - 1)
                outer_r, state_r, cols_r = _take(owner, pend, p)
                if outer_l < outer_r:
                    fused = (_fuse(state_l, turn, state_r), cols_l + cols_r)
                else:
                    fused = (_fuse(state_r, turn.T, state_l), cols_r + cols_l)
                owner[outer_l] = owner[outer_r] = len(pend)
                pend.append(fused)
                del owner[p - 1 : p + 1]
                continue
            if left >= 0 or right >= 0:
                leg, string = (p - 1, p) if left >= 0 else (p, p - 1)
                outer = _other_leg(owner, leg)
                if -1 in owner[min(outer, string) + 1 : max(outer, string)]:  # straddled
                    tensor = _enter(tensor, owner, pend, cols, owner[leg], d)
                else:
                    outer, state, pair_cols = _take(owner, pend, leg)
                    before = d ** owner[:string].count(-1)
                    tensor = _snake(tensor, before, turn if leg < string else turn.T, state, d)
                    cols += pair_cols
                    owner[outer] = -1
                    del owner[p - 1 : p + 1]
                    continue
            before = d ** owner[: p - 1].count(-1)
            tensor = np.matmul(row, tensor.reshape(before, dd, -1))
            del owner[p - 1 : p + 1]
        elif s.kind in (BRAID_POS, BRAID_NEG):
            for q in (p - 1, p):
                if owner[q] >= 0:
                    tensor = _enter(tensor, owner, pend, cols, owner[q], d)
            gate = _absorb(_braid_gate(d, s.kind == BRAID_POS), a, b, p, d)
            tensor = np.matmul(gate, tensor.reshape(d ** owner[: p - 1].count(-1), dd, -1))
    for i in range(n_out):  # output restriction, one string pair at a time
        adjoint = _absorb(_pair_adjoint(d), a, b, 2 * i + 1, d)
        if owner[i] >= 0 and owner[i] == owner[i + 1]:
            state, pair_cols = pend[owner[i]]
            pend[owner[i]] = None
            tensor = _times(tensor, d**i, _close(adjoint, state))
            cols += pair_cols
        else:
            for q in (i, i + 1):
                if owner[q] >= 0:
                    tensor = _enter(tensor, owner, pend, cols, owner[q], d)
            tensor = np.matmul(adjoint, tensor.reshape(d**i, dd, -1))
        owner[i : i + 2] = [-1]
    if n_in > 1 and cols != sorted(cols):
        order = (0,) + tuple(1 + cols.index(j) for j in range(n_in))
        tensor = tensor.reshape((d**n_out,) + (d,) * n_in).transpose(order)
    if bent:  # without caps and cups every strand is straight: no excess turns
        scale *= float(d) ** (_turn_excess(_shape(diag)) / 4)
    scale *= diag.scale.to_complex() * _zeta_powers(d)[e % dd]
    if n_out > 1:  # the order phase of a single label is 1
        scale = (scale * _order_phases(d, n_out))[:, np.newaxis]
    mat = np.full((1, 1), scale) if tensor is None else tensor.reshape(d**n_out, d**n_in) * scale
    if n_in > 1:
        mat *= _order_phases(d, n_in).conj()
    return DiagramValue(d, n_in, n_out, mat)
