"""The planar relation suite, checked under both evaluators.

Each relation builds its two sides as weighted diagram sums (the weight is
the stated exact scalar: q**(k*l), zeta**(+-k*l), zeta**(+-k*k), sqrt(d), 0
or the braid normalizer), evaluates both sides with the dense and the
symbolic backend, and reports the maximum entrywise deviation.

The cases are evaluated in runs of consecutive cases: each distinct
diagram (by identity) of a run is evaluated once per backend, in one batch
per charge-free shape, and a run's values are reduced to its cases'
deviations and dropped before the next run, so at most
``_CHUNK_ENTRIES`` matrix entries are held at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..algebra import max_state, pauli
from ..scalars import sqrt_omega_d
from . import dense, symbolic
from .builtins import builtin
from .ir import (
    BRAID_NEG,
    BRAID_POS,
    CAP,
    CHARGE,
    CUP,
    MULTICHARGE,
    Diagram,
    DiagramScale,
    Generator,
    _shape,
)

__all__ = ["RelationCase", "RelationReport", "RELATION_IDS", "check_relation"]

_CHUNK_ENTRIES = 1 << 13  # matrix entries of the distinct diagrams evaluated at once

Weighted = tuple[complex, Diagram]
Side = Sequence[Weighted] | np.ndarray


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


def _gen(kind: str, pos: int = 1, k: int = 0, items=()) -> Generator:
    return Generator(kind, pos=pos, k=k, items=tuple(items))


def _total(side: Side, values: dict[int, np.ndarray]) -> np.ndarray:
    """The weighted sum of a side, its diagrams' values looked up by identity."""
    if isinstance(side, np.ndarray):
        return side
    total = None
    for weight, diag in side:
        term = weight * values[id(diag)]
        total = term if total is None else total + term
    return total


def _chunks(cases: list[RelationCase]):
    """Runs of consecutive cases, each with its distinct diagrams (by identity) batched by shape.

    Cases go in groups, each case joining the group before it when they
    share a diagram, and a run is whole groups whose diagrams hold at most
    ``_CHUNK_ENTRIES`` matrix entries (or one group, if it alone holds
    more).  So a diagram shared by neighbouring cases falls in one run.
    """
    groups: list[tuple[list, dict]] = []
    for case in cases:
        diags = {id(diag): diag for side in (case.lhs, case.rhs) if not isinstance(side, np.ndarray)
                 for _, diag in side}
        if groups and diags.keys() & groups[-1][1].keys():
            groups[-1][0].append(case)
            groups[-1][1].update(diags)
        else:
            groups.append(([case], diags))
    run: list = []
    distinct: dict = {}
    entries = 0
    for group, diags in groups:
        size = sum(diag.d ** ((diag.top + diag.bottom) // 2) for diag in diags.values())  # matrix entries
        if run and entries + size > _CHUNK_ENTRIES:
            yield run, _by_shape(distinct)
            run, distinct, entries = [], {}, 0
        run += group
        distinct |= diags
        entries += size
    if run:
        yield run, _by_shape(distinct)


def _by_shape(diags: dict) -> dict[tuple, list[Diagram]]:
    batches: dict[tuple, list[Diagram]] = {}
    for diag in diags.values():
        batches.setdefault(_shape(diag), []).append(diag)
    return batches


def _additive_charge(d: int) -> list[RelationCase]:
    cases = []
    for k in range(d):
        for l in range(d):
            lhs = Diagram(d, 2, (_gen(CHARGE, 1, k), _gen(CHARGE, 1, l)))
            rhs = Diagram(d, 2, (_gen(CHARGE, 1, k + l),))
            cases.append(RelationCase(f"k={k},l={l}", [(1, lhs)], [(1, rhs)]))
    cases.append(
        RelationCase("k=d", [(1, Diagram(d, 2, (_gen(CHARGE, 2, d),)))], [(1, Diagram(d, 2, ()))])
    )
    return cases


def _para_isotopy(d: int) -> list[RelationCase]:
    z2 = np.exp(2j * np.pi / d)
    cases = []
    for k in range(d):
        for l in range(d):
            # adjacent strings
            lhs = Diagram(d, 2, (_gen(CHARGE, 2, l), _gen(CHARGE, 1, k)))
            rhs = Diagram(d, 2, (_gen(CHARGE, 1, k), _gen(CHARGE, 2, l)))
            cases.append(RelationCase(f"adjacent k={k},l={l}", [(1, lhs)], [(z2 ** (k * l), rhs)]))
            # two neutral strings in between
            lhs4 = Diagram(d, 4, (_gen(CHARGE, 4, l), _gen(CHARGE, 1, k)))
            rhs4 = Diagram(d, 4, (_gen(CHARGE, 1, k), _gen(CHARGE, 4, l)))
            cases.append(RelationCase(f"gap k={k},l={l}", [(1, lhs4)], [(z2 ** (k * l), rhs4)]))
    return cases


def _twisted_product(d: int) -> list[RelationCase]:
    cases = []
    for k in range(2 * d):
        for l in range(2 * d):
            same = Diagram(d, 2, (_gen(MULTICHARGE, items=((1, k), (2, l))),))
            below = Diagram(d, 2, (_gen(CHARGE, 2, l), _gen(CHARGE, 1, k)))  # k below l
            above = Diagram(d, 2, (_gen(CHARGE, 1, k), _gen(CHARGE, 2, l)))  # k above l
            zminus = DiagramScale.of(d, zeta_exp=-k * l).to_complex()
            zplus = DiagramScale.of(d, zeta_exp=k * l).to_complex()
            cases.append(RelationCase(f"below k={k},l={l}", [(1, same)], [(zminus, below)]))
            cases.append(RelationCase(f"above k={k},l={l}", [(1, same)], [(zplus, above)]))
    return cases


def _string_fourier(d: int) -> list[RelationCase]:
    cases = []
    for k in range(d):
        zk2 = DiagramScale.of(d, zeta_exp=k * k).to_complex()
        cap_left = Diagram(d, 0, (_gen(CAP, 1), _gen(CHARGE, 1, k)))
        cap_right = Diagram(d, 0, (_gen(CAP, 1), _gen(CHARGE, 2, k)))
        cases.append(RelationCase(f"cap k={k}", [(1, cap_left)], [(zk2, cap_right)]))
        cup_left = Diagram(d, 2, (_gen(CHARGE, 1, k), _gen(CUP, 1)))
        cup_right = Diagram(d, 2, (_gen(CHARGE, 2, k), _gen(CUP, 1)))
        cases.append(RelationCase(f"cup k={k}", [(1, cup_left)], [(np.conj(zk2), cup_right)]))
    return cases


def _quantum_dimension(d: int) -> list[RelationCase]:
    loop = Diagram(d, 0, (_gen(CAP, 1), _gen(CUP, 1)))
    return [RelationCase("loop", [(1, loop)], np.array([[np.sqrt(d)]], dtype=complex))]


def _neutrality(d: int) -> list[RelationCase]:
    cases = []
    for k in range(1, d):
        loop = Diagram(d, 0, (_gen(CAP, 1), _gen(CHARGE, 2, k), _gen(CUP, 1)))
        cases.append(RelationCase(f"k={k}", [(1, loop)], np.zeros((1, 1), dtype=complex)))
    full = Diagram(d, 0, (_gen(CAP, 1), _gen(CHARGE, 2, d), _gen(CUP, 1)))
    cases.append(RelationCase("k=d", [(1, full)], np.array([[np.sqrt(d)]], dtype=complex)))
    return cases


def _temperley_lieb(d: int) -> list[RelationCase]:
    ident = Diagram(d, 2, ())
    right = Diagram(d, 2, (_gen(CAP, 2), _gen(CUP, 3)))  # string 2 wiggles right-over
    left = Diagram(d, 2, (_gen(CAP, 1), _gen(CUP, 2)))  # string 1 wiggles left-over
    return [
        RelationCase("zigzag right", [(1, right)], [(1, ident)]),
        RelationCase("zigzag left", [(1, left)], [(1, ident)]),
    ]


def _resolution_identity(d: int) -> list[RelationCase]:
    terms = []
    for k in range(d):
        term = Diagram(
            d,
            2,
            (_gen(CHARGE, 2, -k), _gen(CUP, 1), _gen(CAP, 1), _gen(CHARGE, 2, k)),
        )
        terms.append((d**-0.5, term))
    return [RelationCase("sum", terms, [(1, Diagram(d, 2, ()))])]


def _braid(d: int) -> list[RelationCase]:
    norm = 1.0 / sqrt_omega_d(d)
    pos = builtin("braid_pos", d)
    charge_terms = []
    twisted_terms = []
    for k in range(d):
        charge_terms.append(
            (norm, Diagram(d, 2, (_gen(CHARGE, 1, k), _gen(CHARGE, 2, -k))))
        )
        zk2 = DiagramScale.of(d, zeta_exp=k * k).to_complex()
        twisted_terms.append(
            (norm * zk2, Diagram(d, 2, (_gen(MULTICHARGE, items=((1, k), (2, -k))),)))
        )
    both = Diagram(d, 2, (_gen(BRAID_POS, 1), _gen(BRAID_NEG, 1)))
    return [
        RelationCase("charge sum", [(1, pos)], charge_terms),
        RelationCase("twisted sum", [(1, pos)], twisted_terms),
        RelationCase("reidemeister II", [(1, both)], [(1, Diagram(d, 2, ()))]),
    ]


def _pauli_diagrams(d: int) -> list[RelationCase]:
    cases = [RelationCase("I", [(1, builtin("I", d))], np.eye(d, dtype=complex))]
    for name in ("X", "Y", "Z"):
        cases.append(RelationCase(name, [(1, builtin(name, d))], pauli(d, name).mat.copy()))
    return cases


def _bell_state(d: int) -> list[RelationCase]:
    expected = max_state(d, 2).amps.reshape(-1, 1)
    return [RelationCase("bell = max(2)", [(1, builtin("bell", d))], expected)]


_BUILDERS: dict[str, Callable[[int], list[RelationCase]]] = {
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


def _deviations(run: list[RelationCase], batches: dict, evaluate) -> list[float]:
    """Each case's maximum entrywise deviation under one backend's ``evaluate(shape, batch)``."""
    values = {id(diag): value.array for shape, batch in batches.items()
              for diag, value in zip(batch, evaluate(shape, batch))}
    devs = []
    for case in run:
        lhs = _total(case.lhs, values)
        rhs = _total(case.rhs, values)
        devs.append(float(abs(lhs - rhs).max()) if lhs.size else 0.0)
    return devs


def check_relation(relation_id: str, d: int, tol: float = 1e-9) -> RelationReport:
    """Evaluate one relation's cases under both backends, a run at a time (``_chunks``)."""
    if relation_id not in _BUILDERS:
        raise KeyError(f"unknown relation {relation_id!r}; known: {', '.join(RELATION_IDS)}")
    reports = []
    worst = 0.0
    for run, batches in _chunks(_BUILDERS[relation_id](d)):
        dense_devs = _deviations(run, batches, dense._evaluate_shape)
        symbolic_devs = _deviations(run, batches, symbolic._evaluate_shape)
        for case, dense_dev, symbolic_dev in zip(run, dense_devs, symbolic_devs):
            worst = max(worst, max(dense_dev, symbolic_dev))
            reports.append({"case": case.label, "dense_dev": dense_dev, "symbolic_dev": symbolic_dev})
    return RelationReport(relation_id, d, tuple(reports), worst, worst <= tol)
