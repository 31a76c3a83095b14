"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import time

import numpy as np

from paradiag.algebra import (
    StateVector,
    embed_operator,
    fourier,
    gauss,
    ghz_state,
    max_state,
    pauli,
    random_unitary,
)
from paradiag.compression import (
    NotBlockDiagonal,
    assemble_controlled,
    assemble_x_form,
    commutator_norm,
    controlled_blocks,
    is_compressed,
    x_components,
)
from paradiag.diagrams import (
    RELATION_IDS,
    builtin,
    check_relation,
    evaluate_dense,
    evaluate_symbolic,
    random_diagram,
)
from paradiag.protocol import run_mct_controlled
from paradiag.scalars import Tolerance, omega, zeta


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_relation_suite():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 4, 5):
        for rid in RELATION_IDS:
            rep = check_relation(rid, d, tol=1e-9)
            worst = max(worst, rep.max_dev)
    elapsed = time.monotonic() - start
    _report(
        1,
        "all 11 planar relations pass under both evaluators, d in {2,3,4,5}",
        worst <= 1e-9 and elapsed < 30.0,
        f"max_dev={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_algebraic_identities():
    worst = 0.0
    for d in range(2, 9):
        x, y, z = pauli(d, "X").mat, pauli(d, "Y").mat, pauli(d, "Z").mat
        f, g = fourier(d).mat, gauss(d).mat
        eye = np.eye(d)
        q = np.exp(2j * np.pi / d)
        mp = np.linalg.matrix_power

        def dev(a, b):
            return float(np.max(np.abs(a - b)))

        worst = max(
            worst,
            dev(mp(x, d), eye),
            dev(mp(y, d), eye),
            dev(mp(z, d), eye),
            dev(mp(f, 4), eye),
            dev(mp(g, 2 * d), eye),
            dev(mp(f @ g, 3), omega(d) * eye),
            dev(x @ y @ np.linalg.inv(x) @ np.linalg.inv(y), q * eye),
            dev(y @ z @ np.linalg.inv(y) @ np.linalg.inv(z), q * eye),
            dev(z @ x @ np.linalg.inv(z) @ np.linalg.inv(x), q * eye),
            dev(x @ y @ z, zeta(d) * eye),
            dev(f @ x @ f.conj().T, z),
            dev(g @ x @ g.conj().T, np.linalg.inv(y)),
        )
    _report(2, "Pauli/Fourier/Gauss identities for d in 2..8", worst <= 1e-9, f"max_dev={worst:.2e}")


def test_criterion_3_resource_state_identity():
    worst = 0.0
    for d in (2, 3, 4):
        f = fourier(d).mat
        for n in (1, 2, 3, 4):
            op = f
            for _ in range(n - 1):
                op = np.kron(op, f)
            worst = max(worst, float(np.max(np.abs(op @ max_state(d, n).amps - ghz_state(d, n).amps))))
    omega_dev = max(abs(abs(omega(d)) - 1) for d in range(1, 17))
    _report(
        3,
        "(F x..x F)|Max> = |GHZ> for d in {2,3,4}, n in {1..4}; |omega|=1 for d <= 16",
        worst <= 1e-9 and omega_dev <= 1e-15,
        f"max_dev={worst:.2e}, omega_dev={omega_dev:.2e}",
    )


def _entrywise(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def test_criterion_4_diagram_dictionary():
    worst = 0.0
    for d in (2, 3):
        for name in ("I", "X", "Y", "Z"):
            ref = np.eye(d) if name == "I" else pauli(d, name).mat
            diag = builtin(name, d)
            worst = max(worst, _entrywise(evaluate_dense(diag).array, ref))
            worst = max(worst, _entrywise(evaluate_symbolic(diag).array, ref))
        bell_ref = max_state(d, 2).amps
        bell = builtin("bell", d)
        worst = max(worst, _entrywise(evaluate_dense(bell).array.reshape(-1), bell_ref))
        worst = max(worst, _entrywise(evaluate_symbolic(bell).array.reshape(-1), bell_ref))
        for n in (1, 2, 3):
            ref = max_state(d, n).amps
            diag = builtin("max", d, n=n)
            worst = max(worst, _entrywise(evaluate_dense(diag).array.reshape(-1), ref))
            worst = max(worst, _entrywise(evaluate_symbolic(diag).array.reshape(-1), ref))
    _report(
        4,
        "builtin I/X/Y/Z/Bell/Max diagrams match the algebra entrywise, both backends",
        worst <= 1e-9,
        f"max_dev={worst:.2e}",
    )


def test_criterion_5_compression_equivalences():
    misclassified = 0
    checked = 0
    for d in (2, 3):
        f = fourier(d)
        for n in (2, 3):
            rng = np.random.default_rng(1000 * d + n)
            for _ in range(100):
                j = int(rng.integers(1, n + 1))
                blocks = [random_unitary(d, n - 1, rng) for _ in range(d)]
                t = assemble_controlled(blocks, j, n)
                ok = is_compressed(t, j, "Z", Tolerance(1e-9))
                try:
                    dec = controlled_blocks(t, j)
                    rebuilt = assemble_controlled(list(dec.blocks), j, n)
                    ok = ok and np.max(np.abs(rebuilt.mat - t.mat)) <= 1e-9
                except NotBlockDiagonal:
                    ok = False
                # X-compression theorem on the conjugated operator
                tx = embed_operator(f.adjoint(), [j], n) @ t @ embed_operator(f, [j], n)
                ok = ok and is_compressed(tx, j, "X", Tolerance(1e-9))
                xdec = x_components(tx, j)
                ok = ok and np.max(np.abs(assemble_x_form(xdec.components, j, n).mat - tx.mat)) <= 1e-9
                checked += 1
                misclassified += not ok
            for _ in range(100):
                j = int(rng.integers(1, n + 1))
                t = random_unitary(d, n, rng)
                negative = commutator_norm(t, j, "Z") > 1e-6
                try:
                    controlled_blocks(t, j)
                    extraction_failed = False
                except NotBlockDiagonal:
                    extraction_failed = True
                checked += 1
                misclassified += not (negative and extraction_failed)
    _report(
        5,
        "Z/X compression equivalences on 100 positive + 100 negative instances per (d,n)",
        misclassified == 0,
        f"{checked} instances, {misclassified} misclassified",
    )


def test_criterion_6_mct_correctness():
    start = time.monotonic()
    worst_dev = 0.0
    worst_prob = 0.0
    for d in (2, 3):
        for n in (1, 2, 3):
            rng = np.random.default_rng(7000 + 10 * d + n)
            for _ in range(50):
                blocks = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
                amps = rng.standard_normal(d ** (n + 1)) + 1j * rng.standard_normal(d ** (n + 1))
                inp = StateVector(d, n + 1, amps / np.linalg.norm(amps))
                run = run_mct_controlled(d, n, blocks, inp, tol=Tolerance(1e-9))
                assert len(run.branches) == d ** (n + 1)
                worst_dev = max(worst_dev, max(b.max_dev for b in run.branches))
                worst_prob = max(
                    worst_prob,
                    max(abs(b.probability - d ** -(n + 1)) for b in run.branches),
                )
    elapsed = time.monotonic() - start
    _report(
        6,
        "every branch of 50 random runs per (d,n) in {2,3}x{1,2,3} matches the target",
        worst_dev <= 1e-9 and worst_prob <= 1e-9 and elapsed < 300.0,
        f"max_dev={worst_dev:.2e}, prob_dev={worst_prob:.2e}, {elapsed:.0f}s",
    )


def test_criterion_7_cost_theorem():
    ok = True
    for d in (2, 3):
        for n in (1, 2, 3):
            rng = np.random.default_rng(9000 + 10 * d + n)
            blocks = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
            amps = rng.standard_normal(d ** (n + 1)) + 1j * rng.standard_normal(d ** (n + 1))
            inp = StateVector(d, n + 1, amps / np.linalg.norm(amps))
            run = run_mct_controlled(d, n, blocks, inp)
            cost = run.cost
            ok = ok and cost.resource_states == 1
            ok = ok and cost.resource_qudits == n + 1
            ok = ok and cost.cdits == 2 * n
            ok = ok and cost.baseline_bqst == {"resource_states": n, "channels": 2 * n}
            # one broadcast dit plus one returned dit per party in every branch
            ok = ok and all(len(b.outcomes) == n + 1 for b in run.branches)
    _report(7, "one (n+1)-qudit resource state and 2n cdits per run; BQST baseline fields", ok)


def test_criterion_8_backend_cross_validation():
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(31337 + d)
        for _ in range(200):
            diag = random_diagram(d, rng, max_strings=6, max_slices=8)
            dense = evaluate_dense(diag).array
            symbolic = evaluate_symbolic(diag).array
            worst = max(worst, _entrywise(dense, symbolic))
    _report(
        8,
        "200 random diagrams per d in {2,3} agree entrywise between backends",
        worst <= 1e-9,
        f"max_dev={worst:.2e}",
    )
