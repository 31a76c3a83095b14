"""Symbolic evaluation of diagrams by planar-relation rewriting.

Matrix entries are computed by closing the diagram with charged caps on top
and charged cups at the bottom, then reducing the closed picture with the
relations themselves:

* braids are expanded into charge sums first (one term per Z_d value of
  the braid's summation variable);
* charges are transported along their strings, picking up q**(k*l) each
  time two charges on different strings exchange heights;
* a charge crossing the max of a cap (or min of a cup) turns left-string
  into right-string placement at cost zeta**(k*k) (resp. zeta**(-k*k));
* a closed loop with total charge k is removed at value 0 when d does not
  divide k and sqrt(d) otherwise;
* a cup meeting two distinct caps is a zig-zag: once its legs carry no
  charge it straightens freely, the two caps fusing into one.

Which charges move, and where fused caps go, depends only on the column
topology, never on charge values.  So each charge-free shape (``ir._shape``)
is compiled once, with its charges as parameters: every charge of the
closed template is an integer affine form in the variables (the output
labels, the input labels, one summation variable per braid and one
parameter per constant charge), and a single reduction over forms yields

* the number L of removed loops,
* an integer quadratic form Q, the zeta exponent (q = zeta**2), into which
  a multicharge's twist -sum_{i<j} k_i k_j enters as -1 cross terms
  between its parameters, and
* one linear form per loop, its total charge, which must vanish mod d.

A call fills the parameters with the diagram's charges mod d*d.  An
entry's braid term is then exactly sqrt(d)**L * zeta**Q, or 0 when some
loop is not neutral; all d**(n_in+n_out) entries of one braid term come from
one numpy evaluation.  The only numeric constant is the braid normalizer
1/sqrt(omega*d), one factor per braid, common to all terms.

The reduction works on a token list ordered top to bottom.  Columns (the
static vertical string segments found by ``ir.trace_strands``) carry a
fixed horizontal order, so the q-phase of an exchange only needs the two
column keys; connectivity changes (zig-zag fusion) never disturb it.
Termination: every iteration deletes one cup.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache

import numpy as np

from ..scalars import PhaseExponent, sqrt_omega_d
from .builtins import _bra_slices, _ket_slices
from .dense import DiagramValue, _frozen
from .ir import (
    BRAID_NEG,
    BRAID_POS,
    CAP,
    CHARGE,
    CUP,
    MULTICHARGE,
    STRAND,
    Diagram,
    DiagramError,
    Generator,
    _SHAPE_CACHE_SIZE,
    _shape,
    _shape_diagram,
    trace_strands,
)

__all__ = ["closed_value", "evaluate_symbolic"]


# --- the closed template ----------------------------------------------------


def _template(
    diag: Diagram,
) -> tuple[Diagram, dict[int, tuple[int, int]], list[tuple[int, int]], int, int]:
    """Close the diagram over symbolic labels and expand braids and multicharges.

    Variable 0 is the constant 1, variables 1..n_out the output labels,
    then the n_in input labels, then one summation variable per braid in
    slice order, then one parameter per constant charge: the charges in
    slice order, a multicharge's items rightmost first.  Returns the closed
    braid-free diagram, the charge of each charge slice as {slice:
    (variable, coefficient)}, the parameter pairs (i, j) whose product the
    multicharge twist subtracts, the variable count and the braid count.
    Charge values are never read: only the diagram's shape matters.
    """
    n_in, n_out = diag.n_in, diag.n_out
    braids = sum(s.kind in (BRAID_POS, BRAID_NEG) for s in diag.slices)
    slices = _ket_slices(n_in, [0] * n_in)
    forms = {n_in + j: (1 + n_out + j, 1) for j in range(n_in)}  # ket charge j: +x_in[j]
    twist: list[tuple[int, int]] = []
    braid_var = 1 + n_out + n_in
    param = braid_var + braids

    def charge(pos: int, var: int, coef: int) -> None:
        forms[len(slices)] = (var, coef)
        slices.append(Generator(CHARGE, pos=pos))

    for s in diag.slices:
        if s.kind in (BRAID_POS, BRAID_NEG):
            up, down = (s.pos, s.pos + 1) if s.kind == BRAID_POS else (s.pos + 1, s.pos)
            charge(up, braid_var, 1)
            charge(down, braid_var, -1)
            braid_var += 1
        elif s.kind == MULTICHARGE:
            first = param
            for p, _ in reversed(s.items):  # rightmost charge highest
                charge(p, param, 1)
                param += 1
            twist += [(i, j) for i in range(first, param) for j in range(i + 1, param)]
        elif s.kind == CHARGE:
            charge(s.pos, param, 1)
            param += 1
        elif s.kind != STRAND:
            slices.append(s)
    # bra closure: charges for qudits n_out..1 (bra charge j: -x_out[j]), then cups
    forms.update({len(slices) + t: (n_out - t, -1) for t in range(n_out)})
    slices += _bra_slices(n_out, [0] * n_out)
    return Diagram(diag.d, 0, tuple(slices)), forms, twist, param, braids


def _params(diag: Diagram) -> tuple[int, ...]:
    """The diagram's charge values in ``_template``'s parameter order, mod d*d.

    Reducing mod d*d moves no zeta exponent mod d*d and no loop total mod
    d, so the integer forms stay small whatever charges the diagram carries.
    """
    dd = diag.d * diag.d
    values = []
    for s in diag.slices:
        if s.kind == MULTICHARGE:
            values += [k % dd for _, k in reversed(s.items)]
        elif s.kind == CHARGE:
            values.append(s.k % dd)
    return tuple(values)


# --- the closed-diagram reduction engine ------------------------------------


def _reduce_closed(closed: Diagram) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    """Reduce a closed braid-free diagram by its column topology alone.

    Returns the zeta-exponent pairs ``{(i, j): c}``, meaning a factor
    zeta**(c * k_i * k_j) for the charges k_i, k_j of slices i and j, and
    the charge slices of each removed loop in removal order.  Every loop is
    reduced, neutral or not; its neutrality is left to the caller.
    """
    trace = trace_strands(closed)
    if trace.bottom_cols:
        raise DiagramError("internal: closure did not produce a closed diagram")
    tokens = [(s.kind, i) for i, s in enumerate(closed.slices) if s.kind in (CAP, CUP, CHARGE)]
    cap_legs = trace.cap_legs  # fused zig-zag caps are added here
    col = trace.charge_cols  # charge slice -> its current column
    key = trace.key
    birth = {c: i for i, legs in cap_legs.items() for c in legs}
    pairs: dict[tuple[int, int], int] = defaultdict(int)
    loops: list[list[int]] = []
    next_cap_id = -1  # fused zig-zag caps get fresh negative ids

    def move_up(idx: int, dest: int) -> None:
        """Move charge token idx up to just below index dest, exchanging heights."""
        mover = tokens[idx][1]
        for kind, tid in tokens[dest + 1 : idx]:
            if kind == CHARGE and col[tid] != col[mover]:
                pairs[mover, tid] += 2 if key[col[mover]] < key[col[tid]] else -2  # q = zeta**2
        tokens.insert(dest + 1, tokens.pop(idx))

    while tokens:
        ci = next((i for i, t in enumerate(tokens) if t[0] == CUP), None)
        if ci is None:
            raise DiagramError("internal: nonempty closed diagram without a cup")
        cup_id = tokens[ci][1]
        a, b = trace.cup_legs[cup_id]
        xa, xb = birth[a], birth[b]
        if xa == xb:
            # loop: gather every charge on either leg just below the cap
            px = tokens.index((CAP, xa))
            if cap_legs[xa] != (a, b):
                raise DiagramError("internal: twisted cap/cup pairing in planar diagram")
            moved: list[int] = []
            while True:
                pe = next(
                    (
                        i
                        for i, t in enumerate(tokens)
                        if t[0] == CHARGE and t[1] not in moved and col[t[1]] in (a, b)
                    ),
                    None,
                )
                if pe is None:
                    break
                tid = tokens[pe][1]
                move_up(pe, px)
                if col[tid] == a:
                    pairs[tid, tid] += 1  # across the max, left to right
                    col[tid] = b
                moved.append(tid)
            loops.append(moved)
            for tid in moved:
                tokens.remove((CHARGE, tid))
            tokens.remove((CAP, xa))
            tokens.remove((CUP, cup_id))
        else:
            # zig-zag: clear both legs across their own caps, then fuse the
            # caps into one.  A leg may be either child of its cap (nesting
            # permits all four combinations); the SF1 sign follows the side.
            # The fused cap takes the height of the higher cap, so every
            # string nested inside the fused arc is born below it.
            insert_at = min(tokens.index((CAP, xa)), tokens.index((CAP, xb)))
            siblings = []
            for leg, cap_slice in ((a, xa), (b, xb)):
                left_child, right_child = cap_legs[cap_slice]
                sibling = right_child if leg == left_child else left_child
                sign = 1 if leg == left_child else -1
                px = tokens.index((CAP, cap_slice))
                while True:
                    pe = next(
                        (i for i, t in enumerate(tokens) if t[0] == CHARGE and col[t[1]] == leg),
                        None,
                    )
                    if pe is None:
                        break
                    tid = tokens[pe][1]
                    move_up(pe, px)
                    pairs[tid, tid] += sign
                    col[tid] = sibling
                siblings.append(sibling)
            tokens.remove((CAP, xa))
            tokens.remove((CAP, xb))
            tokens.remove((CUP, cup_id))
            new_left, new_right = sorted(siblings, key=lambda c: key[c])
            new_cap = next_cap_id
            next_cap_id -= 1
            cap_legs[new_cap] = (new_left, new_right)
            birth[new_left] = new_cap
            birth[new_right] = new_cap
            tokens.insert(insert_at, (CAP, new_cap))
    return pairs, loops


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _compile(shape: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """A shape's zeta-exponent form Q, its loop-neutrality forms and braid count.

    Returns Q as a read-only V x V integer matrix, the exponent being
    y @ Q @ y for the variable vector y of ``_template``, one row per
    removed loop, the loop's total charge y @ row, and the number of braid
    summation variables.
    """
    closed, forms, twist, n_vars, braids = _template(_shape_diagram(shape))
    pairs, loops = _reduce_closed(closed)
    size = len(closed.slices)
    charges = np.zeros((size, n_vars), dtype=np.int64)
    for i, (var, coef) in forms.items():
        charges[i, var] = coef
    weights = np.zeros((size, size), dtype=np.int64)
    for (i, j), c in pairs.items():
        weights[i, j] = c
    quad = charges.T @ weights @ charges
    for i, j in twist:
        quad[i, j] -= 1
    incidence = np.zeros((len(loops), size), dtype=np.int64)
    for r, loop in enumerate(loops):
        incidence[r, loop] = 1
    return _frozen(quad), _frozen(incidence @ charges), braids


@lru_cache(maxsize=None)
def _label_grid(d: int, n: int) -> np.ndarray:
    """Row r holds label r+1 over all d**n entries, output labels most significant."""
    return _frozen(np.indices((d,) * n).reshape(n, d**n))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _label_forms(shape: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The label-only parts of a shape's Q and loop forms, over all entries."""
    quad, loops, _ = _compile(shape)
    labels = _label_grid(shape[0], n)
    label_quad = np.sum(labels * (quad[1 : n + 1, 1 : n + 1] @ labels), axis=0)
    return _frozen(label_quad), _frozen(loops[:, 1 : n + 1] @ labels)


# --- evaluation ---------------------------------------------------------------


def closed_value(diag: Diagram) -> PhaseExponent:
    """Exact scalar of a closed, braid-free diagram.

    The zero flag of the result is set exactly when some loop carries a
    total charge not divisible by d.
    """
    if diag.top != 0 or diag.bottom != 0:
        raise DiagramError("closed_value needs a diagram with no boundary points")
    if diag.has_braids():
        raise DiagramError("closed_value is exact-only; braided diagrams need evaluate_symbolic")
    quad, loops, _ = _compile(_shape(diag))
    y = np.array((1,) + _params(diag), dtype=np.int64)
    if np.any(loops @ y % diag.d):
        value = PhaseExponent.zero(diag.d)
    else:
        value = PhaseExponent(diag.d, int(y @ quad @ y), len(loops))
    total = value * diag.scale.phase
    if diag.scale.quarter:
        if diag.scale.quarter % 2:
            raise DiagramError("quarter-power prefactor on a closed diagram is not exact")
        total = total.times_sqrtd(diag.scale.quarter // 2)
    return total


@lru_cache(maxsize=None)
def _phase_table(d: int, loops: int) -> np.ndarray:
    """sqrt(d)**loops * zeta**j for j < d*d, as PhaseExponent computes it."""
    table = np.array([PhaseExponent(d, j, loops).to_complex() for j in range(d * d)])
    table.flags.writeable = False
    return table


def evaluate_symbolic(diag: Diagram) -> DiagramValue:
    """Entrywise symbolic value of a diagram, as a qudit-basis matrix."""
    d = diag.d
    n_in, n_out = diag.n_in, diag.n_out
    n = n_in + n_out
    numeric = 1.0 + 0j
    for s in diag.slices:
        if s.kind in (BRAID_POS, BRAID_NEG):
            w = 1.0 / sqrt_omega_d(d)
            numeric *= w if s.kind == BRAID_POS else np.conj(w)
    numeric *= diag.scale.to_complex() * float(d) ** (-(n_in + n_out) / 4)

    shape = _shape(diag)
    quad, loops, braids = _compile(shape)
    label_quad, label_loops = _label_forms(shape, n)
    labels = _label_grid(d, n)
    table = _phase_table(d, len(loops))
    both = quad + quad.T
    params = _params(diag)
    acc = np.zeros(d**n, dtype=complex)
    for choice in itertools.product(range(d), repeat=braids):
        y = np.array((1,) + (0,) * n + choice + params, dtype=np.int64)
        exponent = (label_quad + both[1 : n + 1] @ y @ labels + y @ quad @ y) % (d * d)
        neutral = np.all((label_loops + (loops @ y)[:, None]) % d == 0, axis=0)
        acc += np.where(neutral, table[exponent], 0)
    return DiagramValue(d, n_in, n_out, numeric * acc.reshape(d**n_out, d**n_in))
