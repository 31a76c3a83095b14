"""Qudit operators, resource states and dense-register helpers."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from paradiag.algebra import (
    Operator,
    ShapeError,
    StateVector,
    apply_to_qudits,
    basis_state,
    embed_operator,
    fourier,
    gauss,
    ghz_state,
    max_state,
    operator_from_json,
    operator_to_json,
    partial_trace,
    pauli,
    prepare_max,
    random_unitary,
    state_from_json,
    state_to_json,
)
from paradiag.scalars import DimensionError, Tolerance, omega, zeta


def test_pauli_qubit_matrices():
    assert np.allclose(pauli(2, "X").mat, [[0, 1], [1, 0]])
    assert np.allclose(pauli(2, "Z").mat, np.diag([1, -1]))


def test_pauli_y_qutrit_action():
    # Y|0> = zeta |2>
    out = pauli(3, "Y").mat @ basis_state(3, [0]).amps
    expected = zeta(3) * basis_state(3, [2]).amps
    assert np.allclose(out, expected)


def test_pauli_rejects_small_dimension():
    with pytest.raises(DimensionError):
        pauli(1, "X")


def test_fourier_and_gauss_entries():
    assert np.allclose(fourier(2).mat, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.allclose(gauss(2).mat, np.diag([1, 1j]))


def test_fourier_unitary_d5():
    assert fourier(5).is_unitary()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pauli_family_identities(d):
    x, y, z = pauli(d, "X").mat, pauli(d, "Y").mat, pauli(d, "Z").mat
    f, g = fourier(d).mat, gauss(d).mat
    eye = np.eye(d)
    mp = np.linalg.matrix_power
    q = np.exp(2j * np.pi / d)
    assert np.allclose(mp(x, d), eye) and np.allclose(mp(y, d), eye) and np.allclose(mp(z, d), eye)
    assert np.allclose(mp(f, 4), eye)
    assert np.allclose(mp(g, 2 * d), eye)
    assert np.allclose(mp(f @ g, 3), omega(d) * eye, atol=1e-9)
    for a, b in ((x, y), (y, z), (z, x)):
        comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert np.allclose(comm, q * eye, atol=1e-9)
    assert np.allclose(x @ y @ z, zeta(d) * eye, atol=1e-9)
    assert np.allclose(f @ x @ f.conj().T, z, atol=1e-9)
    assert np.allclose(g @ x @ g.conj().T, np.linalg.inv(y), atol=1e-9)


def test_ghz_and_max_examples():
    g = ghz_state(3, 2)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / math.sqrt(3)
    assert np.allclose(g.amps, expected)

    m22 = max_state(2, 2)
    assert np.allclose(m22.amps, np.array([1, 0, 0, 1]) / math.sqrt(2))

    m23 = max_state(2, 3)
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
    assert np.allclose(m23.amps, expected)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 4)])
def test_prepare_max_matches_closed_form(d, n):
    assert np.allclose(prepare_max(d, n).amps, max_state(d, n).amps, atol=1e-9)


def test_prepare_max_single_qudit_is_ground_state():
    assert np.allclose(prepare_max(2, 1).amps, basis_state(2, [0]).amps, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_fourier_maps_max_to_ghz(d, n):
    f = fourier(d).mat
    op = f
    for _ in range(n - 1):
        op = np.kron(op, f)
    assert np.allclose(op @ max_state(d, n).amps, ghz_state(d, n).amps, atol=1e-9)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 4), (3, 3), (5, 2)])
def test_max_state_amplitude_structure(d, n):
    amps = max_state(d, n).amps
    assert abs(np.linalg.norm(amps) - 1) < 1e-12
    assert abs(np.linalg.norm(ghz_state(d, n).amps) - 1) < 1e-12
    uniform = d ** ((1 - n) / 2)
    digits = np.indices([d] * n).reshape(n, -1).sum(axis=0) % d
    assert np.allclose(amps[digits == 0], uniform)
    assert np.allclose(amps[digits != 0], 0)


def test_embed_operator_non_contiguous():
    x, z = pauli(2, "X"), pauli(2, "Z")
    xz = x.tensor(z)
    spread = embed_operator(xz, [1, 3], 3)
    expected = np.kron(np.kron(x.mat, np.eye(2)), z.mat)
    assert np.allclose(spread.mat, expected)


def test_apply_to_qudits_matches_embedding():
    rng = np.random.default_rng(3)
    op = random_unitary(3, 2, rng)
    amps = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    state = StateVector(3, 3, amps / np.linalg.norm(amps))
    via_embed = embed_operator(op, [3, 1], 3).mat @ state.amps
    via_apply = apply_to_qudits(op.mat, state, (3, 1)).amps
    assert np.allclose(via_embed, via_apply)


def test_permute_and_partial_trace():
    rho = partial_trace(ghz_state(2, 2), [1])
    assert np.allclose(rho, np.eye(2) / 2)


def test_operator_unitarity_flag():
    assert pauli(3, "X").is_unitary()
    assert not Operator(2, 1, np.array([[1, 0], [0, 2]])).is_unitary(Tolerance(1e-9))


def test_random_unitary_is_unitary_and_seeded():
    a = random_unitary(2, 2, np.random.default_rng(9))
    b = random_unitary(2, 2, np.random.default_rng(9))
    assert a.is_unitary()
    assert np.allclose(a.mat, b.mat)


def test_operator_json_round_trip():
    op = fourier(3)
    back = operator_from_json(operator_to_json(op))
    assert back.d == 3 and back.n == 1
    assert np.allclose(back.mat, op.mat)
    doc = json.loads(operator_to_json(op))
    assert set(doc) == {"d", "n", "re", "im"}
    assert len(doc["re"]) == 9


def test_state_json_round_trip():
    state = max_state(2, 3)
    back = state_from_json(state_to_json(state))
    assert np.allclose(back.amps, state.amps)
    with pytest.raises(ShapeError):
        state_from_json(json.dumps({"d": 2, "n": 2, "re": [1.0], "im": [0.0]}))
