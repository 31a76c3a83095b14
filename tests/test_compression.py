"""Compression predicates, decompositions and their equivalences."""

from __future__ import annotations

import numpy as np
import pytest

from paradiag.algebra import (
    Operator,
    embed_operator,
    fourier,
    gauss,
    pauli,
    random_unitary,
)
from paradiag.compression import (
    NotBlockDiagonal,
    NotXCompressed,
    assemble_controlled,
    assemble_x_form,
    commutator_norm,
    compression_verdict,
    controlled_blocks,
    is_compressed,
    verify_compressed_witness,
    x_components,
    y_to_x_transport,
)
from paradiag.scalars import Tolerance


def _cnot():
    return assemble_controlled([Operator.identity(2), pauli(2, "X")], 1, 2)


def test_cnot_is_z_compressed_on_control():
    assert is_compressed(_cnot(), 1, "Z")


def test_x_tensor_identity_is_x_compressed():
    xi = pauli(2, "X").tensor(Operator.identity(2))
    assert is_compressed(xi, 1, "X")


def test_fourier_is_not_z_compressed():
    fi = fourier(2).tensor(Operator.identity(2))
    assert commutator_norm(fi, 1, "Z") > 1e-6
    assert not is_compressed(fi, 1, "Z")


def test_controlled_blocks_cnot():
    dec = controlled_blocks(_cnot(), 1)
    assert dec.control_qudit == 1
    assert np.allclose(dec.blocks[0].mat, np.eye(2))
    assert np.allclose(dec.blocks[1].mat, pauli(2, "X").mat)


def test_controlled_blocks_qutrit_cz():
    z = pauli(3, "Z")
    source = assemble_controlled([Operator.identity(3), z, z @ z], 1, 2)
    dec = controlled_blocks(source, 1)
    for l, blk in enumerate(dec.blocks):
        assert np.allclose(blk.mat, np.linalg.matrix_power(z.mat, l))


def test_controlled_blocks_rejects_off_diagonal():
    xi = pauli(2, "X").tensor(Operator.identity(2))
    with pytest.raises(NotBlockDiagonal):
        controlled_blocks(xi, 1)


def test_x_components_of_x_tensor_identity():
    xi = pauli(2, "X").tensor(Operator.identity(2))
    dec = x_components(xi, 1)
    assert np.allclose(dec.components[0].mat, 0)
    assert np.allclose(dec.components[1].mat, np.eye(2))


def test_x_components_round_trip():
    # an X-compressed unitary built as CZ conjugated by F on the control leg
    f = fourier(2)
    ctrl = assemble_controlled([Operator.identity(2), pauli(2, "Z")], 1, 2)
    t = embed_operator(f.adjoint(), [1], 2) @ ctrl @ embed_operator(f, [1], 2)
    dec = x_components(t, 1)
    rebuilt = assemble_x_form(dec.components, 1, 2)
    assert np.allclose(rebuilt.mat, t.mat, atol=1e-9)


def test_x_components_round_trip_qutrit():
    rng = np.random.default_rng(13)
    f = fourier(3)
    blocks = [random_unitary(3, 1, rng) for _ in range(3)]
    zc = assemble_controlled(blocks, 2, 2)
    xc = embed_operator(f.adjoint(), [2], 2) @ zc @ embed_operator(f, [2], 2)
    dec = x_components(xc, 2)
    rebuilt = assemble_x_form(dec.components, 2, 2)
    assert np.allclose(rebuilt.mat, xc.mat, atol=1e-9)


def test_x_components_of_x_z_power_sum():
    # sum_l X^l (x) Z^l: not unitary, but X-compressed; extraction is exact
    x, z = pauli(2, "X").mat, pauli(2, "Z").mat
    t = Operator(2, 2, np.kron(np.eye(2), np.eye(2)) + np.kron(x, z))
    dec = x_components(t, 1)
    assert np.allclose(dec.components[0].mat, np.eye(2))
    assert np.allclose(dec.components[1].mat, z)
    assert np.allclose(assemble_x_form(dec.components, 1, 2).mat, t.mat)


def test_x_components_rejects_uncompressed():
    fi = fourier(2).tensor(Operator.identity(2))
    with pytest.raises(NotXCompressed):
        x_components(fi, 1)


def test_assemble_controlled_examples():
    cnot = assemble_controlled([Operator.identity(2), pauli(2, "X")], 1, 2)
    expected = np.eye(4)[[0, 1, 3, 2]]
    assert np.allclose(cnot.mat, expected)
    triv = assemble_controlled([Operator.identity(3)] * 3, 1, 2)
    assert np.allclose(triv.mat, np.eye(9))


def test_assemble_then_extract_random_blocks():
    rng = np.random.default_rng(21)
    for j in (1, 2, 3):
        blocks = [random_unitary(2, 2, rng) for _ in range(2)]
        op = assemble_controlled(blocks, j, 3)
        dec = controlled_blocks(op, j)
        for a, b in zip(blocks, dec.blocks):
            assert np.allclose(a.mat, b.mat)


def test_verify_witness_examples():
    f = fourier(2)
    cz = assemble_controlled([Operator.identity(2), pauli(2, "Z")], 1, 2)
    dressed = embed_operator(f, [1], 2) @ cz @ embed_operator(f.adjoint(), [1], 2)
    assert verify_compressed_witness(dressed, cz, f, f.adjoint(), 1)

    cnot = _cnot()
    eye = Operator.identity(2)
    assert verify_compressed_witness(cnot, cnot, eye, eye, 1)

    swap = Operator(2, 2, np.eye(4)[[0, 2, 1, 3]])
    assert not verify_compressed_witness(swap, swap, eye, eye, 1)
    assert not verify_compressed_witness(swap, swap, eye, eye, 2)


def test_witness_requires_unitary_dressing():
    cnot = _cnot()
    bad = Operator(2, 1, np.diag([1.0, 2.0]))
    assert not verify_compressed_witness(cnot, cnot, bad, Operator.identity(2), 1)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_condition_equivalence_on_random_controlled(d, n):
    """Predicate <=> block extraction <=> Z-power re-expression, 100 cases."""
    rng = np.random.default_rng(d * 10 + n)
    q = np.exp(2j * np.pi / d)
    for _ in range(100):
        j = int(rng.integers(1, n + 1))
        blocks = [random_unitary(d, n - 1, rng) for _ in range(d)]
        t = assemble_controlled(blocks, j, n)
        assert is_compressed(t, j, "Z")
        dec = controlled_blocks(t, j)
        # condition (3): T = sum_l Z^l (x) T'(l) with T' the inverse DFT of the blocks
        zpows = [
            sum(q ** (-m * l) * dec.blocks[l].mat for l in range(d)) / d for m in range(d)
        ]
        rebuilt = np.zeros_like(t.mat)
        z = pauli(d, "Z")
        for m in range(d):
            zm = Operator(d, 1, np.linalg.matrix_power(z.mat, m))
            others = [qq for qq in range(1, n + 1) if qq != j]
            rebuilt += (
                embed_operator(zm, [j], n).mat
                @ embed_operator(Operator(d, n - 1, zpows[m]), others, n).mat
            )
        assert np.max(np.abs(rebuilt - t.mat)) < 1e-9


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2)])
def test_random_unitaries_are_not_compressed(d, n):
    rng = np.random.default_rng(77)
    for _ in range(100):
        t = random_unitary(d, n, rng)
        assert commutator_norm(t, 1, "Z") > 1e-6


def test_conjugation_transport_z_to_x():
    rng = np.random.default_rng(31)
    f = fourier(2)
    for _ in range(20):
        blocks = [random_unitary(2, 1, rng) for _ in range(2)]
        t = assemble_controlled(blocks, 1, 2)  # Z-compressed at 1
        moved = embed_operator(f.adjoint(), [1], 2) @ t @ embed_operator(f, [1], 2)
        assert is_compressed(t, 1, "Z")
        assert is_compressed(moved, 1, "X")
        assert not is_compressed(moved, 1, "Z", Tolerance(1e-6)) or np.allclose(
            blocks[0].mat, blocks[1].mat, atol=1e-6
        )


def test_transport_y_to_x_via_gauss():
    rng = np.random.default_rng(41)
    d = 3
    g = gauss(d)
    f = fourier(d)
    for _ in range(20):
        blocks = [random_unitary(d, 1, rng) for _ in range(d)]
        zc = assemble_controlled(blocks, 1, 2)
        xc = embed_operator(f.adjoint(), [1], 2) @ zc @ embed_operator(f, [1], 2)
        yc = embed_operator(g, [1], 2) @ xc @ embed_operator(g.adjoint(), [1], 2)
        assert is_compressed(yc, 1, "Y")
        assert is_compressed(y_to_x_transport(yc, 1), 1, "X")


def test_verdict_grading():
    cnot = _cnot()
    assert compression_verdict(cnot, 1, "Z") == "compressed"
    swap = Operator(2, 2, np.eye(4)[[0, 2, 1, 3]])
    assert compression_verdict(swap, 1, "Z") == "not_compressed"
    rng = np.random.default_rng(5)
    noise = 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert compression_verdict(Operator(2, 2, cnot.mat + noise), 1, "Z") == "indeterminate"
    # the fail threshold is relative to max|T| too, so scaling does not change the verdict
    tiny = Operator(2, 2, 1e-8 * random_unitary(2, 2, np.random.default_rng(3)).mat)
    assert compression_verdict(tiny, 1, "Z") == "not_compressed"
