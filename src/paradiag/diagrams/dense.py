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
applied to the stored factors.  Its tail Z**-k passes each X**a_i before s
at the cost q**(-k*a_i) (Z X = q X Z), so a charge sets e -= 2*k*a_i and
b_i -= k, and then a_s += k.  A multicharge applies its items from the
right and adds its twist -sum_{i<j} k_i k_j to e.  Which strings a charge
touches is fixed by the shape, so the plan compiles the frame into
windows.  A string's window holds the charges since an operator last
absorbed its frame: those on the string, whose sum is a_i, and those on
strings to its right, whose sum is -b_i and each of which adds -2*k times
the window's a_i so far to e.  A multicharge's twist is a window of its
own, each item adding -k times the items before it.  A charge enters at
most one window per string and the twist of its multicharge, so a plan is
linear in the charges, and a batch's frame is a few gathers and running
sums over the charges' rows (``ir._params``), all read mod 2d, as the
zeta table of ``scalars`` is (a frame exponent is used mod d).  zeta**e
joins the final scale, so charge phases stay exact integers until that
one multiply.

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
braid and output qudit, the factor it acts on, the merge it needs first,
the reshape of its matrix product and the windows of the frame it
absorbs, and the windows of e.  A merge multiplies two factors into one
in a single broadcast product: each run of one factor's legs is one axis,
of size 1 in the other, so the merged legs stay in string order and
nothing is transposed; the column digits are the first factor's, then the
second's.
A step's small cached operator first absorbs the frame of its two
adjacent strings (right-multiplying by a Pauli pair is a column gather
and a phase, both computed from the digits a1, b1, a2, b2), then acts
by one matrix product on a free reshape of the factor's C-contiguous array
into (legs before, the two strings, everything after).  A cup drops both
strings, which can leave a factor with no legs (a closed loop: a scalar,
or a column factor); an output qudit turns its two strings into one output
leg.  At the end the live factors merge in order of creation.  The plan
also holds the turn excess and the most axes of any factor or operator,
which bounds the memory of an evaluation.

The evaluator takes one shape and a batch of charge rows (``ir._params``)
and scales, and ``evaluate_dense`` is a batch of one.  The windows map
the rows to every step's frame digits and to e; every factor array
carries the batch on its first axis (of size 1 until an operator that
depends on the charges meets it), and a step stacks each row's absorbed
operator into one (batch, rows, d*d) array for one stacked matrix product.

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
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from ..algebra import Operator, StateVector
from ..scalars import _frozen, _zeta, sqrt_omega_d
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
    _n_out,
    _params,
    _shape,
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
    cap[m, -m % d] = _zeta(d, m * m) * d**-0.25
    return _frozen(cap.reshape(d * d))


@lru_cache(maxsize=None)
def pair_isometry(d: int) -> np.ndarray:
    """d*d x d isometry whose columns are the charged-cap qudit states.

    Each column is d**(-1/4) times the charged cap tensor (which itself
    carries d**(-1/4)), giving unit-norm, mutually orthogonal states.
    """
    m, k = np.arange(d)[:, None], np.arange(d)[None, :]
    iso = np.zeros((d * d, d), dtype=complex)
    iso[m * d + (k - m) % d, k] = d**-0.5 * _zeta(d, m * m - 2 * k * m)
    return _frozen(iso)


@lru_cache(maxsize=None)
def _pair_adjoint(d: int) -> np.ndarray:
    return _frozen(np.conj(pair_isometry(d).T, order="C"))


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
    return _frozen(_zeta(d, _digit_sums(d, n) ** 2 - _digit_sums(d, n, 2)))


@lru_cache(maxsize=None)
def _pair_digits(d: int) -> np.ndarray:
    """The digits m1, m2 of each two-string index m1*d + m2, as a (2, 1, d*d) array."""
    return _frozen(np.array(np.divmod(np.arange(d * d), d))[:, np.newaxis])


def _pauli_pairs(d: int, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli pairs X**a1 Z**b1 (x) X**a2 Z**b2 as column gathers and phases.

    ``digits`` has rows a1, b1, a2, b2, each of any shape S; ``idx`` and
    ``ph`` have shape S + (d*d,).  Column m1*d + m2 of a pair has its one
    entry, q**(b1*m1 + b2*m2), in row (m1 + a1, m2 + a2) mod d, so
    ``mat @ pair`` is ``mat[..., idx] * ph``.
    """
    m, x = _pair_digits(d), digits.reshape(4, -1, 1)
    rows = (m + x[0::2]) % d
    exponent = (m * x[1::2]).sum(axis=0)
    shape = digits.shape[1:] + (d * d,)
    return (rows[0] * d + rows[1]).reshape(shape), _zeta(d, 2 * exponent).reshape(shape)


@lru_cache(maxsize=None)
def _braid_gate(d: int, positive: bool) -> np.ndarray:
    """The braid on strings p, p+1 as a d*d x d*d gate, from its charge sum.

    Term k of the positive braid, c_p(k) c_(p+1)(-k), is the two-string
    frame zeta**(2*k*k) X**k Z**k (x) X**-k; term k of the negative one,
    c_(p+1)(k) c_p(-k), is X**-k Z**-k (x) X**k.  The tails either term
    would put on strings before p cancel (see the module docstring).  The
    terms shift each column to d different rows, so each entry of the
    gate is one term's.
    """
    k = np.arange(d)
    x = k if positive else -k % d  # X**x Z**x on string p, X**-x on string p+1
    idx, ph = _pauli_pairs(d, np.array([x, x, -x % d, 0 * k]))
    gate = np.zeros((d * d, d * d), dtype=complex)
    e = 2 * k * k if positive else 0 * k
    gate[idx, np.arange(d * d)] = ph * _zeta(d, e)[:, np.newaxis]
    norm = 1.0 / sqrt_omega_d(d)
    gate *= norm if positive else np.conj(norm)
    return _frozen(gate)


class _Plan(NamedTuple):
    """The factor steps and the compiled frame of one charge-free shape.

    A step ``(f, merge, act)`` first multiplies factor g into factor f if
    ``merge`` is ``(g, f's broadcast shape, g's)``; then, unless ``act``
    is None (the final merges, which leave one factor), it multiplies f,
    reshaped to ``view``, by its operator, where ``act`` is ``(view,
    operator, key)`` and ``operator`` returns the cached operator (a plan
    builds no array, so the memory estimate can read it for any d).
    ``key`` is None when no charge reaches the step's two strings, else
    the step's column in the frame digits.

    ``frame`` holds the frame's windows one after another, one column per
    entry, its rows: the entry's charge, in ``ir._params`` order; its
    signs in a and in b (1, 0 for a charge on the window's string or a
    twist item, 0, -1 for a charge to its right); its coefficient of k
    times the window's a so far in e; and the window's first entry.
    ``windows`` bounds the windows that keyed steps absorb, (low or high,
    string p or p+1, step).
    ``order`` puts the final columns in qudit order; ``peak`` is the most
    axes of any factor or operator the steps build.
    """

    caps: int
    steps: tuple
    frame: np.ndarray
    windows: np.ndarray
    order: tuple | None
    excess: int
    peak: int


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _plan(shape: tuple) -> _Plan:
    """Walk the slices of a charge-free shape once, recording each factor step and the frame."""
    d, top, slices = shape
    cols: list = [(j,) for j in range(top // 2)]  # per factor: its column digits, or None once merged
    fac = [i // 2 for i in range(top)]  # per string: the factor that holds it
    steps: list = []
    peak = 3 if top else 0
    pending: list = [[] for _ in range(top)]  # per string: its open window, (charge, a, b, coefficient) entries
    entries: list = []  # the closed windows' entries, each with its window's first entry
    windows: list = []  # per keyed step: the bounds of the windows of strings p and p+1
    param = 0

    def close(window: list) -> tuple[int, int]:
        """Append a window's entries; return their bounds."""
        lo = len(entries)
        entries.extend(entry + (lo,) for entry in window)
        return lo, len(entries)

    def charge(s: int) -> None:
        """Push c_s(r) for the next parameter r: tails Z**-r before s, then X**r on s."""
        nonlocal param
        for window in pending[: s - 1]:  # Z**-r passes each X**a_i: b_i -= r, e -= 2*r*a_i
            window.append((param, 0, -1, -2))
        pending[s - 1].append((param, 1, 0, 0))
        param += 1

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

    def step(p: int, drop: int, operator) -> int:
        """``operator()`` on strings p, p+1, leaving ``drop`` fewer legs; returns its factor."""
        nonlocal peak
        f, g = fac[p - 1], fac[p]
        merged = merge(f, g) if f != g else None
        bounds = close(pending[p - 1]) + close(pending[p])
        pending[p - 1 : p + 1] = [], []  # the operator absorbs the frame of both strings
        key = None
        if bounds[3] > bounds[0]:
            key = len(windows)
            windows.append(bounds)
        steps.append((f, merged, ((d ** fac[: p - 1].count(f), d * d, -1), operator, key)))
        peak = max(peak, 4 - drop)  # the operator: (rows, d*d), rows = d**(2 - drop)
        return f

    for kind, p, ps in slices:
        if kind == CHARGE:
            charge(p)
        elif kind == MULTICHARGE:  # the rightmost charge acts first; the twist -sum_{i<j} k_i k_j
            first = param
            for q in reversed(ps):
                charge(q)
            close([(r, 1, 0, -1) for r in range(first, param)])
        elif kind == CAP:
            fac[p - 1 : p - 1] = [len(cols)] * 2
            pending[p - 1 : p - 1] = [], []
            cols.append(())
            peak = max(peak, 2)
        elif kind == CUP:
            step(p, 2, partial(_cup_row, d))
            del fac[p - 1 : p + 1], pending[p - 1 : p + 1]
        elif kind in (BRAID_POS, BRAID_NEG):
            step(p, 0, partial(_braid_gate, d, kind == BRAID_POS))
    for i in range(len(fac) // 2):  # output restriction: strings 2i+1, 2i+2 become output leg i+1
        fac[i : i + 2] = [step(i + 1, 1, partial(_pair_adjoint, d))]
        del pending[i]
    live = [f for f, c in enumerate(cols) if c is not None]
    steps += [(live[0], merge(live[0], g), None) for g in live[1:]]
    c = cols[live[0]] if live else ()
    order = (0, 1) + tuple(2 + c.index(j) for j in range(len(c))) if list(c) != sorted(c) else None
    frame = _frozen(np.array(entries, dtype=np.int64).reshape(-1, 5).T.copy())
    bounds = _frozen(np.array(windows, dtype=np.int64).reshape(-1, 2, 2).transpose(2, 1, 0).copy())
    return _Plan(len(cols) - top // 2, tuple(steps), frame, bounds, order, turn_excess(shape), peak)


def _run(facs: list, step: tuple, mat: np.ndarray | None) -> None:
    """One step of a plan on the batched factor arrays ``facs``, with its operator ``mat``."""
    f, merge, act = step
    if merge is not None:
        g, x_shape, y_shape = merge
        x, y = facs[f], facs[g]
        facs[f], facs[g] = x.reshape((len(x),) + x_shape) * y.reshape((len(y),) + y_shape), None
    if act is not None:
        facs[f] = np.matmul(mat, facs[f].reshape((len(facs[f]),) + act[0]))


def _frame(plan: _Plan, d: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each charge row's zeta exponent mod 2d, and the frame digits its keyed steps absorb.

    The digits are a (4, keyed steps, batch) array, rows a1, b1, a2, b2.
    Every entry's charge is below 2d, so no sum comes near the int64 range.
    """
    batch = len(params)
    charge, signs, coef, start = plan.frame[0], plan.frame[1:3], plan.frame[3], plan.frame[4]
    if not len(charge):
        return np.zeros(batch, dtype=np.int64), np.zeros((4, 0, batch), dtype=np.int64)
    v = (params % (2 * d))[:, charge]  # (batch, entries)
    sums = np.zeros((batch, 2, len(charge) + 1), dtype=np.int64)
    np.multiply(v[:, np.newaxis], signs, out=sums[:, :, 1:])
    sums.cumsum(axis=2, out=sums)  # the signed a and b sums before each point
    before = (sums[:, 0, :-1] - sums[:, 0, start]) % (2 * d)  # the window's a before each entry
    e = (v * before) @ coef % (2 * d)
    bounds = sums[:, :, plan.windows]  # (batch, a or b, low or high, string p or p+1, step)
    digits = (bounds[:, :, 1] - bounds[:, :, 0]) % d
    return e, digits.transpose(2, 1, 3, 0).reshape(4, -1, batch)


def _evaluate_shape(shape: tuple, params: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Dense values (batch, d**n_out, d**n_in) of one shape, per charge row (``ir._params``) and scale.

    Every factor array carries the batch on its first axis, of size 1
    until an operator that depends on the charges meets it.
    """
    d, n_in, n_out = shape[0], shape[1] // 2, _n_out(shape)
    plan = _plan(shape)
    e, digits = _frame(plan, d, params)
    per = max(1, d ** (plan.peak - 2))  # keyed steps whose pairs hold no more entries than the largest factor
    facs: list = [_input_pair(d)[np.newaxis] for _ in range(n_in)] + [_cap_pair(d)[np.newaxis]] * plan.caps
    for step in plan.steps:
        mat = None
        if step[2] is not None:
            _, operator, key = step[2]
            mat = operator()
            if key is not None:  # the operator times each charge row's Pauli pair: (batch, 1, rows, d*d)
                if key % per == 0:
                    pairs = _pauli_pairs(d, digits[:, key : key + per])
                mat = mat[:, pairs[0][key % per]]
                mat *= pairs[1][key % per]
                mat = mat.transpose(1, 0, 2)[:, np.newaxis]
        _run(facs, step, mat)
    tensor = next((x for x in facs if x is not None), None)  # all merged into one, if any
    root = float(d) ** (plan.excess / 4)
    scale = np.array([root * (s * z) for s, z in zip(scales.tolist(), _zeta(d, e).tolist())])
    scale = scale[:, np.newaxis, np.newaxis]  # per row, output label and column
    if n_out > 1:  # the order phase of a single label is 1
        scale = scale * _order_phases(d, n_out)[:, np.newaxis]
    if tensor is None:
        mat = scale
    else:
        if plan.order:
            tensor = tensor.reshape((len(tensor), d**n_out) + (d,) * n_in).transpose(plan.order)
        mat = tensor.reshape(len(tensor), d**n_out, d**n_in) * scale
    if n_in > 1:
        mat *= _order_phases(d, n_in).conj()
    return mat


def evaluate_dense(diag: Diagram) -> DiagramValue:
    """Slice-by-slice dense value, restricted to the qudit basis: a batch of one."""
    values = _evaluate_shape(_shape(diag), np.array([_params(diag)], dtype=np.int64),
                             np.array([diag.scale.to_complex()]))
    return DiagramValue(diag.d, diag.n_in, diag.n_out, values[0])
