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
is compiled once, on shapes throughout, with its charges as parameters:
every charge of the closed template, a shape of caps, cups and charges, is
an integer form (variable, coefficient) in the variables (the output labels,
the input labels, one summation variable per braid and one parameter per
constant charge), and a single reduction over forms yields

* the number L of removed loops,
* an integer quadratic form Q, the zeta exponent (q = zeta**2), into which
  a multicharge's twist -sum_{i<j} k_i k_j enters as -1 cross terms
  between its parameters, and
* one linear form per loop, its total charge, which must vanish mod d.

The evaluator takes one shape and a batch of charge rows (``ir._params``)
and scales; ``evaluate_symbolic`` is a batch of one.  A row fills the
parameters with its charges mod 2d, which keeps every product far inside
int64 and changes no value: Q moves by multiples of 2d, which the order of
zeta divides, and each loop total by multiples of d.  An entry's braid term
is then exactly sqrt(d)**L * zeta**Q, or 0 when some loop is not neutral;
all d**(n_in+n_out) entries of every row of the batch for one braid term
come from one numpy evaluation, summed over the terms in the same order for
a batch as for one diagram.  Neutrality compares each entry's label
residues mod d, one per loop and computed once per shape, with minus each
row's loop totals mod d; no array over the entries is reduced mod d.  The
only numeric constant is the braid normalizer 1/sqrt(omega*d), one factor
per braid, common to all terms.

The reduction works on a token list ordered top to bottom.  Columns (the
static vertical string segments found by ``ir.trace_strands``) carry a
fixed horizontal order, so the q-phase of an exchange only needs the two
column keys; connectivity changes (zig-zag fusion) never disturb it.  Loop
removal and zig-zag fusion share one rewrite, which clears legs of charges.
Termination: every iteration deletes one cup.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache

import numpy as np

from ..scalars import PhaseExponent, _frozen, _zeta_table, sqrt_omega_d
from .builtins import _bra_slices, _ket_slices
from .dense import DiagramValue
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
    _SHAPE_CACHE_SIZE,
    _n_out,
    _params,
    _shape,
    trace_strands,
)

__all__ = ["closed_value", "evaluate_symbolic"]


# --- the closed template ----------------------------------------------------


def _template(shape: tuple) -> tuple[tuple, dict[int, tuple[int, int]], list[tuple[int, int]], int, int]:
    """Close a shape over symbolic labels and expand its braids and multicharges.

    Variable 0 is the constant 1, variables 1..n_out the output labels,
    then the n_in input labels, then one summation variable per braid in
    slice order, then one parameter per constant charge: the charges in
    slice order, a multicharge's items rightmost first.  Returns the closed
    template as a shape of caps, cups and charges, the charge of each of
    its charge slices as {slice: (variable, coefficient)}, the parameter
    pairs (i, j) whose product the multicharge twist subtracts, the
    variable count and the braid count.
    """
    d, top, body = shape
    n_in, n_out = top // 2, _n_out(shape)
    braids = sum(kind in (BRAID_POS, BRAID_NEG) for kind, _, _ in body)
    slices = [(g.kind, g.pos, ()) for g in _ket_slices(n_in, [0] * n_in)]
    forms = {n_in + j: (1 + n_out + j, 1) for j in range(n_in)}  # ket charge j: +x_in[j]
    twist: list[tuple[int, int]] = []
    braid_var = 1 + n_out + n_in
    param = braid_var + braids

    def charge(pos: int, var: int, coef: int) -> None:
        forms[len(slices)] = (var, coef)
        slices.append((CHARGE, pos, ()))

    for kind, pos, items in body:
        if kind in (BRAID_POS, BRAID_NEG):
            up, down = (pos, pos + 1) if kind == BRAID_POS else (pos + 1, pos)
            charge(up, braid_var, 1)
            charge(down, braid_var, -1)
            braid_var += 1
        elif kind == MULTICHARGE:
            first = param
            for p in reversed(items):  # rightmost charge highest
                charge(p, param, 1)
                param += 1
            twist += [(i, j) for i in range(first, param) for j in range(i + 1, param)]
        elif kind == CHARGE:
            charge(pos, param, 1)
            param += 1
        elif kind != STRAND:
            slices.append((kind, pos, ()))
    # bra closure: charges for qudits n_out..1 (bra charge j: -x_out[j]), then cups
    forms.update({len(slices) + t: (n_out - t, -1) for t in range(n_out)})
    slices += [(g.kind, g.pos, ()) for g in _bra_slices(n_out, [0] * n_out)]
    return (d, 0, tuple(slices)), forms, twist, param, braids


# --- the closed-shape reduction engine --------------------------------------


def _reduce_closed(closed: tuple) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    """Reduce a closed template (caps, cups and charges) by its column topology alone.

    Returns the zeta-exponent pairs ``{(i, j): c}``, meaning a factor
    zeta**(c * k_i * k_j) for the charges k_i, k_j of slices i and j, and
    the charge slices of each removed loop in removal order.  Every loop is
    reduced, neutral or not; its neutrality is left to the caller.
    """
    trace = trace_strands(closed)
    if trace.bottom_cols:
        raise DiagramError("internal: closure did not produce a closed diagram")
    tokens = [(kind, i) for i, (kind, _, _) in enumerate(closed[2])]
    cap_legs = trace.cap_legs  # fused zig-zag caps are added here
    col = trace.charge_cols  # charge slice -> its current column
    key = trace.key
    birth = {c: i for i, legs in cap_legs.items() for c in legs}
    pairs: dict[tuple[int, int], int] = defaultdict(int)
    loops: list[list[int]] = []
    next_cap_id = -1  # fused zig-zag caps get fresh negative ids

    def clear(cap: int, legs: tuple[int, ...], onto: int, sign: int) -> list[int]:
        """Move each charge on the columns ``legs``, topmost first, to just below ``cap``; return them.

        One on ``legs[0]`` then crosses the max onto column ``onto`` at
        zeta**(sign * k*k).  The moved charges stay in a block below the cap.
        """
        below = tokens.index((CAP, cap)) + 1
        moved: list[int] = []
        while True:
            pe = next((i for i in range(below + len(moved), len(tokens))
                       if tokens[i][0] == CHARGE and col[tokens[i][1]] in legs), None)
            if pe is None:
                return moved
            tid = tokens[pe][1]
            for kind, other in tokens[below:pe]:
                if kind == CHARGE and col[other] != col[tid]:
                    pairs[tid, other] += 2 if key[col[tid]] < key[col[other]] else -2  # q = zeta**2
            tokens.insert(below, tokens.pop(pe))
            if col[tid] == legs[0]:
                pairs[tid, tid] += sign
                col[tid] = onto
            moved.append(tid)

    while tokens:
        ci = next((i for i, t in enumerate(tokens) if t[0] == CUP), None)
        if ci is None:
            raise DiagramError("internal: nonempty closed diagram without a cup")
        cup_id = tokens[ci][1]
        a, b = trace.cup_legs[cup_id]
        xa, xb = birth[a], birth[b]
        if xa == xb:
            # loop: gather every charge on either leg below the cap, then drop it
            if cap_legs[xa] != (a, b):
                raise DiagramError("internal: twisted cap/cup pairing in planar diagram")
            loops.append(clear(xa, (a, b), b, 1))
            px = tokens.index((CAP, xa))
            del tokens[px : px + 1 + len(loops[-1])]
            tokens.remove((CUP, cup_id))
        else:
            # zig-zag: clear both legs across their own caps, then fuse the
            # caps into one.  A leg may be either child of its cap (nesting
            # permits all four combinations); the SF1 sign follows the side.
            # The fused cap takes the height of the higher cap, so every
            # string nested inside the fused arc is born below it.
            insert_at = min(tokens.index((CAP, xa)), tokens.index((CAP, xb)))
            siblings = []
            for leg, cap in ((a, xa), (b, xb)):
                left_child, right_child = cap_legs[cap]
                sibling = right_child if leg == left_child else left_child
                clear(cap, (leg,), sibling, 1 if leg == left_child else -1)
                siblings.append(sibling)
            tokens.remove((CAP, xa))
            tokens.remove((CAP, xb))
            tokens.remove((CUP, cup_id))
            new_left, new_right = sorted(siblings, key=lambda c: key[c])
            cap_legs[next_cap_id] = (new_left, new_right)
            birth[new_left] = birth[new_right] = next_cap_id
            tokens.insert(insert_at, (CAP, next_cap_id))
            next_cap_id -= 1
    return pairs, loops


@lru_cache(maxsize=None)
def _label_grid(d: int, n: int) -> np.ndarray:
    """Row r holds label r+1 over all d**n entries, output labels most significant."""
    return _frozen(np.indices((d,) * n).reshape(n, d**n))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _compile(shape: tuple) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """A shape's integer forms and braid count, and the forms' label-only parts over all entries.

    Each reduced pair and each loop charge is added straight into Q or its
    loop's row from the charges' (variable, coefficient) forms.  Returns Q
    (the zeta exponent is y @ Q @ y for the variables y of ``_template``);
    one row per removed loop, its total charge y @ row; the braid count;
    Q's label part per entry of the n_in + n_out labels (``_label_grid``);
    each loop's label residue mod d per entry, in the smallest unsigned
    type that holds d - 1; and the map that takes a label-free row y to
    (y @ Q, minus each loop's total, the label coefficients of y @ (Q +
    Q.T)).  A loop is neutral when its residue is minus its total mod d.
    """
    closed, forms, twist, n_vars, braids = _template(shape)
    pairs, loops = _reduce_closed(closed)
    quad = np.zeros((n_vars, n_vars), dtype=np.int64)
    for (i, j), c in pairs.items():
        (u, a), (v, b) = forms[i], forms[j]
        quad[u, v] += c * a * b
    for i, j in twist:
        quad[i, j] -= 1
    totals = np.zeros((len(loops), n_vars), dtype=np.int64)
    for row, loop in zip(totals, loops):
        for i in loop:
            row[forms[i][0]] += forms[i][1]
    d, n = shape[0], shape[1] // 2 + _n_out(shape)
    labels = _label_grid(d, n)
    label_quad = np.sum(labels * (quad[1 : n + 1, 1 : n + 1] @ labels), axis=0)
    residues = ((totals[:, 1 : n + 1] @ labels) % d).astype(np.min_scalar_type(d - 1))
    mix = np.concatenate((quad, -totals.T, (quad + quad.T)[1 : n + 1].T), axis=1)
    return _frozen(quad), _frozen(totals), braids, _frozen(label_quad), _frozen(residues), _frozen(mix)


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
    quad, loops = _compile(_shape(diag))[:2]
    y = (1,) + _params(diag)
    # loops @ y and quad @ y in Python ints: y @ quad @ y outgrows int64 once d**4 does
    forms = [sum(a * b for a, b in zip(row, y)) for row in loops.tolist() + quad.tolist()]
    if any(total % diag.d for total in forms[: len(loops)]):
        value = PhaseExponent.zero(diag.d)
    else:
        value = PhaseExponent(diag.d, sum(a * b for a, b in zip(forms[len(loops) :], y)), len(loops))
    total = value * diag.scale.phase
    if diag.scale.quarter:
        if diag.scale.quarter % 2:
            raise DiagramError("quarter-power prefactor on a closed diagram is not exact")
        total = total.times_sqrtd(diag.scale.quarter // 2)
    return total


def _evaluate_shape(shape: tuple, params: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Entrywise symbolic values (batch, d**n_out, d**n_in) of one shape, per charge row and scale.

    Each charge row is one row of the variable vectors y, so every entry
    of every value comes from the same table lookups, summed over the
    braid terms in the same order.
    """
    d, n_in, n_out = shape[0], shape[1] // 2, _n_out(shape)
    n = n_in + n_out
    braiding = 1.0 + 0j
    for kind, _, _ in shape[2]:
        if kind in (BRAID_POS, BRAID_NEG):
            w = 1.0 / sqrt_omega_d(d)
            braiding *= w if kind == BRAID_POS else np.conj(w)
    closing = float(d) ** (-(n_in + n_out) / 4)  # d**(-1/4) per cap and cup that close the diagram
    numeric = np.array([braiding * (s * closing) for s in scales.tolist()])

    quad, loops, braids, label_quad, residues, mix = _compile(shape)
    labels = _label_grid(d, n)
    table = _zeta_table(d) * d ** (len(loops) / 2)  # sqrt(d)**L * zeta**j for j < 2d
    v, l = len(quad), len(loops)
    y = np.zeros((len(params), 1 + n + braids + params.shape[1]), dtype=np.int64)
    y[:, 0], y[:, 1 + n + braids :] = 1, params % (2 * d)
    acc = np.zeros((len(params), d**n), dtype=complex)
    for choice in itertools.product(range(d), repeat=braids):
        y[:, 1 + n : 1 + n + braids] = choice
        m = y @ mix
        neutral = (residues == (m[:, v : v + l] % d)[:, :, None]).all(axis=1)
        exponent = m[:, v + l :] @ labels
        exponent += label_quad
        exponent += (m[:, :v] * y).sum(axis=1)[:, None]
        exponent %= 2 * d
        np.add(acc, table[exponent], out=acc, where=neutral)  # acc is never -0.0: adding 0 would change nothing
    return numeric[:, None, None] * acc.reshape(len(params), d**n_out, d**n_in)


def evaluate_symbolic(diag: Diagram) -> DiagramValue:
    """Entrywise symbolic value of a diagram, as a qudit-basis matrix: a batch of one."""
    values = _evaluate_shape(_shape(diag), np.array([_params(diag)], dtype=np.int64),
                             np.array([diag.scale.to_complex()]))
    return DiagramValue(diag.d, diag.n_in, diag.n_out, values[0])
