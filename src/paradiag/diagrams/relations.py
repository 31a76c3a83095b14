"""The planar relation suite, checked under both evaluators.

Each relation states its two sides as weighted sums (the weight is the
stated exact scalar: q**(k*l), zeta**(+-k*l), zeta**(+-k*k), sqrt(d), 0 or
the braid normalizer), evaluates both sides with the dense and the
symbolic backend, and reports the maximum entrywise deviation.

No case builds a ``Diagram``: a relation's terms are rows of one charge
matrix per charge-free shape (``ir._shape``), a row's charges in
``ir._params`` order, with one scale per row.  A side is a list of
``(weight, shape, row)`` terms, summed left to right, or a fixed array.

Cases are checked a run at a time.  Consecutive cases that share a row
form a component (builders share rows only between consecutive cases),
and components whose cases have the same signatures (each side's term
shapes) form a class.  Runs take the components class by class, each
holding at most ``_CHUNK_ENTRIES`` matrix entries of any one shape (or one
component, if it alone holds more), so a shape's rows fill its batches
whatever shapes the relation interleaves with it.  A run's rows are
evaluated once per backend, one batch per shape, and each group of its
cases with one signature gets both backends' deviations from one set of
array gathers; the run's values are dropped before the next run.  The
reports keep the cases' order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ..algebra import max_state, pauli
from ..scalars import _zeta, sqrt_omega_d
from . import dense, symbolic
from .builtins import builtin
from .ir import (BRAID_NEG, BRAID_POS, CAP, CHARGE, CUP, MULTICHARGE, Diagram, Generator, _SHAPE_CACHE_SIZE, _n_out,
                 _params, _shape)

__all__ = ["RelationCase", "RelationReport", "RELATION_IDS", "check_relation"]

_CHUNK_ENTRIES = 1 << 13  # matrix entries of one shape's rows evaluated at once

Term = tuple[complex, tuple, int]  # (weight, charge-free shape, row of its charge matrix)
Side = Sequence[Term] | np.ndarray


@dataclass(frozen=True)
class RelationCase:
    label: str
    lhs: Side
    rhs: Side


@dataclass(frozen=True)
class RelationReport:
    relation: str
    d: int
    cases: tuple[dict, ...]
    max_dev: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "d": self.d,
            "cases": [dict(c) for c in self.cases],
            "max_dev": self.max_dev,
            "pass": self.passed,
        }


def _term(rows: dict, weight: complex, shape: tuple, charges: tuple = (), scale: complex = 1.0) -> Term:
    """A new row of ``shape`` in ``rows`` (per shape, its rows' charges and scales) as a term of ``weight``."""
    params, scales = rows.setdefault(shape, ([], []))
    params.append(charges)
    scales.append(scale)
    return weight, shape, len(params) - 1


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_of(d: int, top: int, *slices: tuple) -> tuple:
    """The shape of slices ``(kind, pos)``; a multicharge's pos is its item positions."""
    gens = (Generator(kind, items=tuple((p, 0) for p in pos)) if kind == MULTICHARGE else Generator(kind, pos)
            for kind, pos in slices)
    return _shape(Diagram(d, top, tuple(gens)))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _builtin(name: str, d: int) -> tuple[tuple, tuple, complex]:
    """The builtin diagram ``name`` as its shape, charge row and scale."""
    diag = builtin(name, d)
    return _shape(diag), _params(diag), diag.scale.to_complex()


def _additive_charge(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    two, one = _shape_of(d, 2, (CHARGE, 1), (CHARGE, 1)), _shape_of(d, 2, (CHARGE, 1))
    full = RelationCase("k=d", [term(1, _shape_of(d, 2, (CHARGE, 2)), (d,))], [term(1, _shape_of(d, 2))])
    return [RelationCase(f"k={k},l={l}", [term(1, two, (k, l))], [term(1, one, (k + l,))])
            for k in range(d) for l in range(d)] + [full]


def _para_isotopy(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    lower, upper = _shape_of(d, 2, (CHARGE, 2), (CHARGE, 1)), _shape_of(d, 2, (CHARGE, 1), (CHARGE, 2))
    lower4, upper4 = _shape_of(d, 4, (CHARGE, 4), (CHARGE, 1)), _shape_of(d, 4, (CHARGE, 1), (CHARGE, 4))
    shapes = {"adjacent": (lower, upper), "gap": (lower4, upper4)}  # gap: two neutral strings in between
    return [RelationCase(f"{name} k={k},l={l}", [term(1, low, (l, k))], [term(_zeta(d, 2 * k * l), up, (k, l))])
            for k in range(d) for l in range(d) for name, (low, up) in shapes.items()]


def _twisted_product(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    same = _shape_of(d, 2, (MULTICHARGE, (1, 2)))
    below = _shape_of(d, 2, (CHARGE, 2), (CHARGE, 1))  # k below l
    above = _shape_of(d, 2, (CHARGE, 1), (CHARGE, 2))  # k above l
    cases = []
    for k in range(2 * d):
        for l in range(2 * d):
            lhs = [term(1, same, (l, k))]  # a multicharge's items rightmost first
            cases.append(RelationCase(f"below k={k},l={l}", lhs, [term(_zeta(d, -k * l), below, (l, k))]))
            cases.append(RelationCase(f"above k={k},l={l}", lhs, [term(_zeta(d, k * l), above, (k, l))]))
    return cases


def _string_fourier(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    cap_left, cap_right = _shape_of(d, 0, (CAP, 1), (CHARGE, 1)), _shape_of(d, 0, (CAP, 1), (CHARGE, 2))
    cup_left, cup_right = _shape_of(d, 2, (CHARGE, 1), (CUP, 1)), _shape_of(d, 2, (CHARGE, 2), (CUP, 1))
    cases = []
    for k in range(d):
        zk2 = _zeta(d, k * k)
        cases.append(RelationCase(f"cap k={k}", [term(1, cap_left, (k,))], [term(zk2, cap_right, (k,))]))
        cases.append(RelationCase(f"cup k={k}", [term(1, cup_left, (k,))], [term(np.conj(zk2), cup_right, (k,))]))
    return cases


def _quantum_dimension(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    loop = term(1, _shape_of(d, 0, (CAP, 1), (CUP, 1)))
    return [RelationCase("loop", [loop], np.array([[np.sqrt(d)]], dtype=complex))]


def _neutrality(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    loop = _shape_of(d, 0, (CAP, 1), (CHARGE, 2), (CUP, 1))
    cases = [RelationCase(f"k={k}", [term(1, loop, (k,))], np.zeros((1, 1), dtype=complex)) for k in range(1, d)]
    cases.append(RelationCase("k=d", [term(1, loop, (d,))], np.array([[np.sqrt(d)]], dtype=complex)))
    return cases


def _temperley_lieb(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    ident = term(1, _shape_of(d, 2))
    right = term(1, _shape_of(d, 2, (CAP, 2), (CUP, 3)))  # string 2 wiggles right-over
    left = term(1, _shape_of(d, 2, (CAP, 1), (CUP, 2)))  # string 1 wiggles left-over
    return [
        RelationCase("zigzag right", [right], [ident]),
        RelationCase("zigzag left", [left], [ident]),
    ]


def _resolution_identity(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    shape = _shape_of(d, 2, (CHARGE, 2), (CUP, 1), (CAP, 1), (CHARGE, 2))
    terms = [term(d**-0.5, shape, (-k, k)) for k in range(d)]
    return [RelationCase("sum", terms, [term(1, _shape_of(d, 2))])]


def _braid(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    norm = 1.0 / sqrt_omega_d(d)
    pos = term(1, *_builtin("braid_pos", d))
    pair, twist = _shape_of(d, 2, (CHARGE, 1), (CHARGE, 2)), _shape_of(d, 2, (MULTICHARGE, (1, 2)))
    charge_terms = [term(norm, pair, (k, -k)) for k in range(d)]
    twisted_terms = [term(norm * complex(_zeta(d, k * k)), twist, (-k, k)) for k in range(d)]
    both = term(1, _shape_of(d, 2, (BRAID_POS, 1), (BRAID_NEG, 1)))
    return [
        RelationCase("charge sum", [pos], charge_terms),
        RelationCase("twisted sum", [pos], twisted_terms),
        RelationCase("reidemeister II", [both], [term(1, _shape_of(d, 2))]),
    ]


def _pauli_diagrams(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    cases = [RelationCase("I", [term(1, *_builtin("I", d))], np.eye(d, dtype=complex))]
    for name in ("X", "Y", "Z"):
        cases.append(RelationCase(name, [term(1, *_builtin(name, d))], pauli(d, name).mat.copy()))
    return cases


def _bell_state(d: int, term: Callable[..., Term]) -> list[RelationCase]:
    expected = max_state(d, 2).amps.reshape(-1, 1)
    return [RelationCase("bell = max(2)", [term(1, *_builtin("bell", d))], expected)]


_BUILDERS: dict[str, Callable[[int, Callable[..., Term]], list[RelationCase]]] = {
    "additive_charge": _additive_charge,
    "para_isotopy": _para_isotopy,
    "twisted_product": _twisted_product,
    "string_fourier": _string_fourier,
    "quantum_dimension": _quantum_dimension,
    "neutrality": _neutrality,
    "temperley_lieb": _temperley_lieb,
    "resolution_identity": _resolution_identity,
    "braid": _braid,
    "pauli_diagrams": _pauli_diagrams,
    "bell_state": _bell_state,
}

RELATION_IDS = tuple(_BUILDERS)


def _runs(cases: list[RelationCase], entries: dict[tuple, int]):
    """Each run's rows per shape and its same-signature groups of case indices (see the module docstring)."""
    signatures: list[tuple] = []
    components: list[tuple[list[int], set]] = []
    for i, case in enumerate(cases):
        sides = [None if isinstance(side, np.ndarray) else side for side in (case.lhs, case.rhs)]
        signatures.append(tuple(side and tuple(shape for _, shape, _ in side) for side in sides))  # None: array
        keys = {(shape, row) for side in sides if side for _, shape, row in side}
        if components and not keys.isdisjoint(components[-1][1]):
            components[-1][0].append(i)
            components[-1][1].update(keys)
        else:
            components.append(([i], keys))
    classes: dict[tuple, int] = {}  # stable: case order within a class
    components.sort(key=lambda c: classes.setdefault(tuple(signatures[i] for i in c[0]), len(classes)))
    rows: dict[tuple, set] = {}
    groups: dict[tuple, list[int]] = {}
    for indices, keys in components:
        counts = Counter(shape for shape, _ in keys)
        if rows and any((len(rows.get(s, ())) + n) * entries[s] > _CHUNK_ENTRIES for s, n in counts.items()):
            yield rows, groups
            rows, groups = {}, {}
        for shape, row in keys:
            rows.setdefault(shape, set()).add(row)
        for i in indices:
            groups.setdefault(signatures[i], []).append(i)
    yield rows, groups


def _side_values(sides: list[Side], places: dict[tuple, dict[int, int]], values: dict) -> np.ndarray:
    """Same-signature sides, one value per case: their fixed arrays, or their terms summed left to right."""
    if isinstance(sides[0], np.ndarray):
        return np.array(sides)
    weights = np.array([[weight for weight, _, _ in side] for side in sides], dtype=complex)[..., np.newaxis, np.newaxis]
    total = None
    for t, terms in enumerate(zip(*sides)):  # the same term of every side
        place = places[terms[0][1]]  # each row's place in its batch
        term = weights[:, t] * values[terms[0][1]][:, [place[row] for _, _, row in terms]]
        total = term if total is None else total + term
    return total


def check_relation(relation_id: str, d: int, tol: float = 1e-9) -> RelationReport:
    """Evaluate one relation's cases under both backends, a run at a time (``_runs``)."""
    if relation_id not in _BUILDERS:
        raise KeyError(f"unknown relation {relation_id!r}; known: {', '.join(RELATION_IDS)}")
    table: dict[tuple, tuple[list, list]] = {}
    cases = _BUILDERS[relation_id](d, partial(_term, table))
    matrices = {shape: (np.array(params, dtype=np.int64) % (d * d), np.array(scales, dtype=complex))
                for shape, (params, scales) in table.items()}
    entries = {shape: d ** (shape[1] // 2 + _n_out(shape)) for shape in matrices}  # matrix entries per row
    devs = np.zeros((2, len(cases)))
    for rows, groups in _runs(cases, entries):
        places = {shape: {row: j for j, row in enumerate(sorted(r))} for shape, r in rows.items()}
        batches = {shape: [column if len(place) == len(column) else column[list(place)] for column in matrices[shape]]
                   for shape, place in places.items()}
        # every dense batch first, while little else is held: its operator stacks are the largest arrays
        held = {shape: dense._evaluate_shape(shape, *batch) for shape, batch in batches.items()}
        values = {shape: np.array([held.pop(shape), symbolic._evaluate_shape(shape, *batch)])
                  for shape, batch in batches.items()}  # per shape: (backend, row, out, in)
        for indices in groups.values():
            lhs = _side_values([cases[i].lhs for i in indices], places, values)
            rhs = _side_values([cases[i].rhs for i in indices], places, values)
            devs[:, indices] = abs(lhs - rhs).max(axis=(2, 3))
        del values, lhs, rhs  # before the next run is evaluated
    reports = tuple({"case": case.label, "dense_dev": dense_dev, "symbolic_dev": symbolic_dev}
                    for case, dense_dev, symbolic_dev in zip(cases, *devs.tolist()))
    worst = float(devs.max(initial=0.0))
    return RelationReport(relation_id, d, reports, worst, worst <= tol)
