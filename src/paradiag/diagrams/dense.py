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

Charges never touch an array.  A charge c_s(k) is a generalized Pauli, so
the evaluator carries a pending frame beside its factors (below): zeta**e
times X**a_i Z**b_i on each string i, with the true value the frame
applied to the stored factors.  A charge updates the frame with integers alone: its
tail Z**-k passes each X**a_i before s at the cost q**(-k*a_i)
(Z X = q X Z), so e -= 2*k*a_i and b_i -= k, and then a_s += k.  A
multicharge applies its items from the right and adds its twist to e, and
zeta**e joins the final scale, so charge phases stay exact integers until
that one multiply.

Caps, input pairs and everything built from them form a tensor network:
a list of factors joined by contractions.  A cap is the shared maximally
entangled pair, and the restriction to input qudit k_j starts string pair
j in the charged cap state of column k_j, so each starts as a factor of
its own: d x d for a cap, d x d x d for input pair j, its last axis the
column digit k_j.  A factor is an array and its column digits; the array's
axes are the factor's legs, the strings it holds in string order, then its
column digits.  Every string is a leg of exactly one factor, and the
pending frame covers every string alike.

Everything but the charge values is fixed by the charge-free shape, so
one walk of the slices per shape records a cached plan: for each cup,
braid and output qudit, the factor it acts on, the merge it needs first
and the reshape of its matrix product.  A merge multiplies two factors
into one in a single broadcast product: each run of one factor's legs is
one axis, of size 1 in the other, so the merged legs stay in string order
and nothing is transposed; the column digits are the first factor's, then
the second's.  A step's small cached operator first absorbs the frame of
its two adjacent strings (right-multiplying by a Pauli pair is a column
gather and a phase, looked up per (d, a1, b1, a2, b2)), then acts by one
matrix product on a free reshape of the factor's C-contiguous array into
(legs before, the two strings, everything after).  A cup drops both
strings, which can leave a factor with no legs (a closed loop: a scalar,
or a column factor); an output qudit turns its two strings into one output
leg.  At the end the live factors merge in order of creation.  The plan
also holds the turn excess and the most axes of any factor or operator,
which bounds the memory of an evaluation.

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
from typing import NamedTuple

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
    """A cap as a factor: (left leg, right leg), no column digit."""
    return _frozen(_cap_vector(d).reshape(d, d))


@lru_cache(maxsize=None)
def _input_pair(d: int) -> np.ndarray:
    """An input pair as a factor: (left leg, right leg, column digit)."""
    return _frozen(pair_isometry(d).reshape(d, d, d))


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


class _Plan(NamedTuple):
    """The factor steps of one charge-free shape, in evaluation order.

    A step ``(f, merge, view)`` first multiplies factor g into factor f if
    ``merge`` is ``(g, f's broadcast shape, g's)``, then its operator into
    f reshaped to ``view``, unless that is None (the final merges, which
    leave one factor).  ``order`` puts the final columns in qudit order;
    ``peak`` is the most axes of any factor or operator the steps build.
    """

    caps: int
    steps: tuple
    order: tuple | None
    excess: int
    peak: int


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _plan(shape: tuple) -> _Plan:
    """Walk the slices of a charge-free shape once, recording each factor step."""
    d, top, slices = shape
    cols: list = [(j,) for j in range(top // 2)]  # per factor: its column digits, or None once merged
    fac = [i // 2 for i in range(top)]  # per string: the factor that holds it
    steps: list = []
    peak = 3 if top else 0

    def merge(f: int, g: int) -> tuple:
        """Record g multiplied into f: each run of one factor's legs is one axis, size 1 in the other."""
        nonlocal peak
        x_shape, y_shape, last = [], [], None
        for o in fac:
            if o == last:
                (x_shape if o == f else y_shape)[-1] *= d
            elif o == f or o == g:
                x_shape.append(d if o == f else 1)
                y_shape.append(d if o == g else 1)
                last = o
        cols[f], cols[g] = cols[f] + cols[g], None
        fac[:] = [f if o == g else o for o in fac]
        peak = max(peak, fac.count(f) + len(cols[f]))
        return g, tuple(x_shape) + (-1, 1), tuple(y_shape) + (1, -1)

    def step(p: int, drop: int) -> int:
        """An operator on strings p, p+1 that leaves ``drop`` fewer legs; returns its factor."""
        nonlocal peak
        f, g = fac[p - 1], fac[p]
        merged = merge(f, g) if f != g else None
        steps.append((f, merged, (d ** fac[: p - 1].count(f), d * d, -1)))
        peak = max(peak, 4 - drop)  # the operator: (rows, d*d), rows = d**(2 - drop)
        return f

    for kind, p, _ in slices:
        if kind == CAP:
            fac[p - 1 : p - 1] = [len(cols)] * 2
            cols.append(())
            peak = max(peak, 2)
        elif kind == CUP:
            step(p, 2)
            del fac[p - 1 : p + 1]
        elif kind in (BRAID_POS, BRAID_NEG):
            step(p, 0)
    for i in range(len(fac) // 2):  # output restriction: strings 2i+1, 2i+2 become output leg i+1
        fac[i : i + 2] = [step(i + 1, 1)]
    live = [f for f, c in enumerate(cols) if c is not None]
    steps += [(live[0], merge(live[0], g), None) for g in live[1:]]
    c = cols[live[0]] if live else ()
    order = (0,) + tuple(1 + c.index(j) for j in range(len(c))) if list(c) != sorted(c) else None
    bent = any(kind in (CAP, CUP) for kind, _, _ in slices)  # else every strand is straight: no excess turns
    excess = turn_excess(_shape_diagram(shape)) if bent else 0
    return _Plan(len(cols) - top // 2, tuple(steps), order, excess, peak)


def _run(facs: list, step: tuple, mat: np.ndarray | None) -> None:
    """One step of a plan on the factor arrays ``facs``, with its operator ``mat``."""
    f, merge, view = step
    if merge is not None:
        g, x_shape, y_shape = merge
        facs[f], facs[g] = facs[f].reshape(x_shape) * facs[g].reshape(y_shape), None
    if view is not None:
        facs[f] = np.matmul(mat, facs[f].reshape(view))


def evaluate_dense(diag: Diagram) -> DiagramValue:
    """Slice-by-slice dense value, restricted to the qudit basis.

    The factor steps come from the cached plan of the diagram's shape; the
    charges only move the pending frame, which each step's operator absorbs.
    """
    d, n_in, n_out = diag.d, diag.n_in, diag.n_out
    plan = _plan(_shape(diag))
    facs: list = [_input_pair(d)] * n_in + [_cap_pair(d)] * plan.caps
    steps = iter(plan.steps)
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
            a[p - 1 : p - 1], b[p - 1 : p - 1] = [0, 0], [0, 0]
        elif s.kind == CUP:
            _run(facs, next(steps), _absorb(_cup_row(d), a, b, p, d))
            del a[p - 1 : p + 1], b[p - 1 : p + 1]
        elif s.kind in (BRAID_POS, BRAID_NEG):
            _run(facs, next(steps), _absorb(_braid_gate(d, s.kind == BRAID_POS), a, b, p, d))
    for i in range(n_out):  # output restriction, one string pair at a time
        _run(facs, next(steps), _absorb(_pair_adjoint(d), a, b, 2 * i + 1, d))
    for step in steps:  # the final merges
        _run(facs, step, None)
    tensor = next((x for x in facs if x is not None), None)  # all merged into one, if any
    if plan.order:
        tensor = tensor.reshape((d**n_out,) + (d,) * n_in).transpose(plan.order)
    scale = float(d) ** (plan.excess / 4) * (diag.scale.to_complex() * _zeta_powers(d)[e % (d * d)])
    if n_out > 1:  # the order phase of a single label is 1
        scale = (scale * _order_phases(d, n_out))[:, np.newaxis]
    mat = np.full((1, 1), scale) if tensor is None else tensor.reshape(d**n_out, d**n_in) * scale
    if n_in > 1:
        mat *= _order_phases(d, n_in).conj()
    return DiagramValue(d, n_in, n_out, mat)
