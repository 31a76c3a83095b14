"""The three benchmark workloads: seeded inputs, the timed call, its check.

A workload is a list of :class:`Op`.  ``Op.run`` is the timed call into
paradiag's public functions, made through the module attribute so that the
traced run sees the wrapped function.  ``Op.prepare`` computes, once and
before any timing or tracing, the reference data that ``Op.check`` compares
the output with; ``Op.check`` itself is plain numpy (see ``checks.py``).

Inputs come from ``--seed`` alone, with one ``SeedSequence`` child per
operation.  Unitaries are QR factors of complex Gaussians drawn here, and
diagrams are JSON text written here; neither uses paradiag's generators, so
a change to those cannot change the workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import paradiag.diagrams as diagrams
from paradiag import protocol
from paradiag.algebra import Operator, StateVector

import checks


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None]


# --- mct -------------------------------------------------------------------
#
# (d, data qudits per party).  Each protocol run takes about 0.1-1 s on one
# core; the last two networks give some parties more than one data qudit.
MCT_NETWORKS = [
    (2, (1, 1, 1, 1, 1, 1)),
    (3, (1, 1, 1, 1)),
    (4, (1, 1, 1)),
    (3, (2, 2, 1)),
    (2, (2, 1, 2, 1, 1)),
]


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _state(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.standard_normal(d**m) + 1j * rng.standard_normal(d**m)
    return amps / np.linalg.norm(amps)


def _x_compressed(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary on m data legs plus a last leg, commuting with X on that leg.

    A block-diagonal unitary controlled on the last leg, conjugated there by
    the Fourier matrix, which diagonalizes X.
    """
    dim = d**m
    ctrl = np.zeros((dim, d, dim, d), dtype=complex)
    for l in range(d):
        ctrl[:, l, :, l] = _unitary(dim, rng)
    f = np.kron(np.eye(dim), checks.fourier(d))
    return f @ ctrl.reshape(dim * d, dim * d) @ f.conj().T


def _mct_op(d: int, sizes: tuple[int, ...], variant: str, rng: np.random.Generator) -> Op:
    n = len(sizes)
    amps = _state(d, sum(sizes) + 1, rng)
    inp = StateVector(d, sum(sizes) + 1, amps)
    ref: dict[str, np.ndarray] = {}
    if variant == "controlled":
        mats = [[_unitary(d**m, rng) for _ in range(d)] for m in sizes]
        blocks = [[Operator(d, m, u) for u in blist] for m, blist in zip(sizes, mats)]

        def run():
            return protocol.run_mct_controlled(d, n, blocks, inp, mode="all_branches")

        def prepare():
            ref["expected"] = checks.expected_controlled(d, list(sizes), mats, amps)
    else:
        mats = [_x_compressed(d, m, rng) for m in sizes]
        parties = [Operator(d, m + 1, u) for m, u in zip(sizes, mats)]

        def run():
            return protocol.run_mct_xcompressed(d, n, parties, inp, mode="all_branches")

        def prepare():
            ref["expected"] = checks.expected_xcompressed(d, list(sizes), mats, amps)

    return Op(
        label=f"mct-{variant} d={d} parties={sizes}",
        run=run,
        check=lambda out: checks.check_mct(out, ref["expected"], d, n),
        prepare=prepare,
    )


def mct_ops(seed: int) -> list[Op]:
    specs = [(d, sizes, v) for d, sizes in MCT_NETWORKS for v in ("controlled", "xcompressed")]
    children = np.random.SeedSequence(seed).spawn(len(specs))
    return [_mct_op(d, s, v, np.random.default_rng(c)) for (d, s, v), c in zip(specs, children)]


# --- relations ---------------------------------------------------------------

RELATION_DIMS = range(2, 9)
_BUILTIN_CHECKS = {"pauli_diagrams": ("X", "Y", "Z"), "bell_state": ("bell",)}


def _relation_op(rid: str, d: int) -> Op:
    builtin_faults: list[str] = []

    def prepare():
        for name in _BUILTIN_CHECKS.get(rid, ()):
            diag = diagrams.builtin(name, d)
            for evaluate in (diagrams.evaluate_dense, diagrams.evaluate_symbolic):
                builtin_faults.extend(checks.check_builtin(name, d, evaluate(diag).array))

    return Op(
        label=f"relation {rid} d={d}",
        run=lambda: diagrams.check_relation(rid, d),
        check=lambda out: builtin_faults + checks.check_relation_report(out, rid, d),
        prepare=prepare,
    )


def relations_ops(seed: int) -> list[Op]:
    """All 11 relations at every d; the seed only fixes their order."""
    ops = [_relation_op(rid, d) for d in RELATION_DIMS for rid in diagrams.RELATION_IDS]
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(len(ops))
    return [ops[i] for i in order]


# --- diagram-eval --------------------------------------------------------------
#
# (d, qudits, braids, count).  Widths stay at most 2*qudits + 2, and at
# d=5 only the narrowing pattern is used, so the largest dense tensor
# (d=3, width 10, 81 columns) is about 76 MB.
DIAGRAM_SHAPES = [(3, 3, 1, 4), (3, 3, 2, 4), (3, 3, 3, 4), (3, 4, 1, 3), (3, 4, 2, 2),
                  (4, 3, 1, 3), (4, 3, 2, 2), (5, 3, 1, 2)]
# Positions and slice order come from this fixed seed, so every run does the
# same amount of work; --seed draws the charges, braid handedness and prefactor.
SHAPE_SEED = 20161120


def _shape(d: int, n: int, braids: int, pattern: str, rng: np.random.Generator) -> list[tuple]:
    """Slice slots of one operator diagram: kind and positions, no values.

    The cap/cup block never closes a loop, so no entry is forced to zero by
    the charges a seed happens to draw.
    """
    width = 2 * n
    body = [("charge", int(rng.integers(1, width + 1))) for _ in range(3)]
    body.append(("multicharge", tuple(int(p) for p in rng.choice(np.arange(1, width + 1), 2, replace=False))))
    body += [("braid", int(rng.integers(1, width))) for _ in range(braids)]
    body = [body[i] for i in rng.permutation(len(body))]
    if pattern == "cupcap":  # an arc on the input side and one on the output side
        p = int(rng.integers(1, width))
        block = [("cup", p), ("charge", min(p, width - 2)), ("cap", p)]
    elif pattern == "zigzag":  # a new arc whose right leg meets the string to its right
        p = int(rng.integers(1, width + 1))
        block = [("cap", p), ("charge", p + 1), ("cup", p + 1)]
    else:  # zigzag to the left
        p = int(rng.integers(2, width + 2))
        block = [("cap", p), ("charge", p), ("cup", p - 1)]
    at = int(rng.integers(0, len(body) + 1))
    return body[:at] + block + body[at:]


def _charge(d: int, rng: np.random.Generator) -> int:
    """Nonzero residue mod d, written unreduced in [-d, 2d)."""
    return int(rng.integers(1, d)) + d * int(rng.integers(-1, 2))


def diagram_json(d: int, n: int, slots: list[tuple], rng: np.random.Generator) -> tuple[str, str]:
    """The diagram and its mirror (charge-inverting reflection) as JSON text."""
    slices, mirrored = [], []
    for kind, pos in slots:
        if kind == "charge":
            k = _charge(d, rng)
            slices.append({"kind": "charge", "pos": pos, "k": k})
            mirrored.append({"kind": "charge", "pos": pos, "k": -k})
        elif kind == "multicharge":
            ks = [_charge(d, rng) for _ in pos]
            slices.append({"kind": "multicharge", "items": [{"pos": p, "k": k} for p, k in zip(pos, ks)]})
            mirrored.append({"kind": "multicharge", "items": [{"pos": p, "k": -k} for p, k in zip(pos, ks)]})
        elif kind == "braid":
            hand = ("braid_pos", "braid_neg")[int(rng.integers(2))]
            slices.append({"kind": hand, "pos": pos})
            mirrored.append({"kind": "braid_neg" if hand == "braid_pos" else "braid_pos", "pos": pos})
        else:
            slices.append({"kind": kind, "pos": pos})
            mirrored.append({"kind": "cap" if kind == "cup" else "cup", "pos": pos})
    zeta_exp = int(rng.integers(0, d * d))

    def doc(body: list[dict], z: int) -> str:
        return json.dumps({"d": d, "top": 2 * n, "prefactor": {"zeta_exp": z, "sqrtd_exp": 0}, "slices": body})

    return doc(slices, zeta_exp), doc(mirrored[::-1], -zeta_exp)


def diagram_specs() -> list[tuple[int, int, int, list[tuple]]]:
    shape_rng = np.random.default_rng(SHAPE_SEED)
    specs = []
    for d, n, braids, count in DIAGRAM_SHAPES:
        patterns = ("cupcap",) if d == 5 else ("zigzag", "cupcap", "zigzag_left")
        for i in range(count):
            specs.append((d, n, braids, _shape(d, n, braids, patterns[i % len(patterns)], shape_rng)))
    return specs


def _diagram_op(d: int, n: int, braids: int, slots: list[tuple], rng: np.random.Generator) -> Op:
    text, mirror_text = diagram_json(d, n, slots, rng)
    ref: dict[str, np.ndarray] = {}

    def run():
        diag = diagrams.parse_diagram(text)
        return diagrams.evaluate_dense(diag), diagrams.evaluate_symbolic(diag)

    def prepare():
        ref["mirror"] = diagrams.evaluate_dense(diagrams.parse_diagram(mirror_text)).array

    def check(out):
        dense, symbolic = out
        return checks.check_diagram(dense.array, symbolic.array, ref["mirror"], d, n)

    return Op(f"diagram d={d} qudits={n} braids={braids}", run, check, prepare)


def diagram_ops(seed: int) -> list[Op]:
    specs = diagram_specs()
    children = np.random.SeedSequence(seed).spawn(len(specs))
    return [_diagram_op(*spec, np.random.default_rng(c)) for spec, c in zip(specs, children)]


BUILDERS = {"mct": mct_ops, "relations": relations_ops, "diagram-eval": diagram_ops}
