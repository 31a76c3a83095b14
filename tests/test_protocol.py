"""LOCC teleportation protocol: branch enumeration, costs, invariants."""

from __future__ import annotations

import numpy as np
import pytest

from paradiag.algebra import (
    Operator,
    StateVector,
    basis_state,
    embed_operator,
    fourier,
    ghz_state,
    pauli,
    random_unitary,
)
from paradiag.compression import NotXCompressed, assemble_controlled
from paradiag.protocol import (
    Network,
    _controlled_gates,
    _expected_state,
    leader_reduced_density,
    measure_qudit,
    run_mct_controlled,
    run_mct_xcompressed,
    target_unitary,
    target_unitary_xcompressed,
    trick_identity_deviation,
)
from paradiag.scalars import equal_up_to_global_phase


def _random_state(d, n, rng):
    amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return StateVector(d, n, amps / np.linalg.norm(amps))


def _x_compressed_gate(d, m, rng):
    """Random unitary on m+1 qudits, X-compressed on its last leg."""
    blocks = [random_unitary(d, m, rng) for _ in range(d)]
    ctrl = assemble_controlled(blocks, m + 1, m + 1)
    f = fourier(d)
    return (
        embed_operator(f.adjoint(), [m + 1], m + 1)
        @ ctrl
        @ embed_operator(f, [m + 1], m + 1)
    )


def test_network_layout():
    net = Network(2, 2, (1, 1))
    assert net.total_qudits == 6
    assert net.party_data_positions(1) == [1]
    assert net.party_resource_position(1) == 2
    assert net.party_data_positions(2) == [3]
    assert net.party_resource_position(2) == 4
    assert net.leader_resource_position == 5
    assert net.leader_data_position == 6
    assert net.layout()["6"] == "leader.data"


def test_measure_qudit_plus_state():
    plus = StateVector(2, 1, np.array([1, 1]) / np.sqrt(2))
    outcomes = measure_qudit(plus, 1)
    assert [(m, round(p, 6)) for m, p, _ in outcomes] == [(0, 0.5), (1, 0.5)]
    zero = basis_state(2, [0])
    assert [(m, p) for m, p, _ in measure_qudit(zero, 1)] == [(0, 1.0)]


def test_measure_qudit_ghz_collapse():
    outcomes = measure_qudit(ghz_state(2, 2), 1)
    assert len(outcomes) == 2
    for m, p, post in outcomes:
        assert p == pytest.approx(0.5)
        assert np.allclose(post.amps, basis_state(2, [m, m]).amps)


def test_measure_qudit_fourier_basis():
    # F^-1 then meter: measuring |+> in the fourier basis is deterministic
    plus = StateVector(2, 1, np.array([1, 1]) / np.sqrt(2))
    outcomes = measure_qudit(plus, 1, basis="fourier")
    assert [(m, round(p, 9)) for m, p, _ in outcomes] == [(0, 1.0)]


def test_target_unitary_cnot():
    blocks = [[Operator.identity(2), pauli(2, "X")]]
    target = target_unitary(2, 1, blocks)
    # leader data is the last qudit: |t, c> -> |t+c, c>
    expected = np.zeros((4, 4))
    for c in range(2):
        for t in range(2):
            expected[((t + c) % 2) * 2 + c, t * 2 + c] = 1
    assert np.allclose(target.mat, expected)


def test_target_unitary_factors_commute():
    blocks = [[Operator.identity(2), pauli(2, "X")]] * 2
    t12 = target_unitary(2, 2, blocks)
    t21 = target_unitary(2, 2, list(reversed(blocks)))
    assert np.allclose(t12.mat, t21.mat)


def test_target_unitary_qutrit_controlled_z():
    z = pauli(3, "Z")
    blocks = [[Operator.identity(3), z, z @ z]]
    target = target_unitary(3, 1, blocks)
    assert target.is_unitary()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 3), (3, 4)])
def test_mct_controlled_random_blocks(d, n):
    rng = np.random.default_rng(d * 100 + n)
    blocks = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
    run = run_mct_controlled(d, n, blocks, _random_state(d, n + 1, rng))
    assert run.passed
    assert len(run.branches) == d ** (n + 1)
    for branch in run.branches:
        assert branch.probability == pytest.approx(d ** -(n + 1), abs=1e-9)
        assert branch.max_dev <= 1e-9


def test_mct_cnot_blocks_every_branch():
    rng = np.random.default_rng(1)
    blocks = [[Operator.identity(2), pauli(2, "X")]]
    inp = _random_state(2, 2, rng)
    run = run_mct_controlled(2, 1, blocks, inp)
    expected = target_unitary(2, 1, blocks).apply(inp)
    assert run.passed and len(run.branches) == 4
    for branch in run.branches:
        assert equal_up_to_global_phase(branch.output.amps, expected.amps)


def test_mct_double_cz_and_identity_blocks():
    rng = np.random.default_rng(2)
    z = pauli(2, "Z")
    blocks = [[Operator.identity(2), z]] * 2
    inp = _random_state(2, 3, rng)
    run = run_mct_controlled(2, 2, blocks, inp)
    assert run.passed and len(run.branches) == 8

    ident = [[Operator.identity(2)] * 2] * 2
    run2 = run_mct_controlled(2, 2, ident, inp)
    assert run2.passed
    for branch in run2.branches:
        assert equal_up_to_global_phase(branch.output.amps, inp.amps)
    assert run2.cost.cdits == 4


def test_mct_multiqudit_party_register():
    rng = np.random.default_rng(3)
    blocks = [[random_unitary(2, 2, rng) for _ in range(2)]]  # party 1 holds 2 data qudits
    run = run_mct_controlled(2, 1, blocks, _random_state(2, 3, rng))
    assert run.passed
    assert run.network.party_data == (2,)


def test_mct_rejects_non_unitary_blocks():
    bad = [[Operator.identity(2), Operator(2, 1, np.diag([1.0, 2.0]))]]
    with pytest.raises(ValueError):
        run_mct_controlled(2, 1, bad, basis_state(2, [0, 0]))


def test_mct_rejects_wrong_input_size():
    blocks = [[Operator.identity(2), pauli(2, "X")]]
    with pytest.raises(ValueError):
        run_mct_controlled(2, 1, blocks, basis_state(2, [0, 0, 0]))
    with pytest.raises(ValueError, match="data qudits"):
        leader_reduced_density(2, 1, blocks, basis_state(2, [0, 0, 0]), 0)


def test_cost_report_and_transcript():
    rng = np.random.default_rng(4)
    blocks = [[random_unitary(2, 1, rng) for _ in range(2)] for _ in range(3)]
    run = run_mct_controlled(2, 3, blocks, _random_state(2, 4, rng))
    cost = run.cost
    assert cost.resource_states == 1
    assert cost.resource_qudits == 4
    assert cost.cdits == 6
    assert cost.baseline_bqst == {"resource_states": 3, "channels": 6}
    for branch in run.branches:
        assert branch.transcript.cdit_count == 6
        broadcast = branch.transcript.messages[0]
        assert broadcast.sender == "leader" and broadcast.cdits == 3
        assert branch.transcript.depth == 2


def test_mct_sample_mode_deterministic():
    rng = np.random.default_rng(5)
    blocks = [[random_unitary(2, 1, rng) for _ in range(2)]]
    inp = _random_state(2, 2, rng)
    run1 = run_mct_controlled(2, 1, blocks, inp, mode="sample", seed=42, samples=5)
    run2 = run_mct_controlled(2, 1, blocks, inp, mode="sample", seed=42, samples=5)
    assert run1.passed and len(run1.branches) == 5
    assert [b.outcomes for b in run1.branches] == [b.outcomes for b in run2.branches]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4)])
def test_mct_xcompressed_random(d, n):
    rng = np.random.default_rng(d * 10 + n)
    parties = [_x_compressed_gate(d, 1, rng) for _ in range(n)]
    inp = _random_state(d, n + 1, rng)
    run = run_mct_xcompressed(d, n, parties, inp)
    assert run.passed
    assert len(run.branches) == d ** (n + 1)
    for branch in run.branches:
        assert branch.probability == pytest.approx(d ** -(n + 1), abs=1e-9)


def test_mct_xcompressed_sample_mode_deterministic():
    rng = np.random.default_rng(15)
    parties = [_x_compressed_gate(3, 1, rng) for _ in range(2)]
    inp = _random_state(3, 3, rng)
    run1 = run_mct_xcompressed(3, 2, parties, inp, mode="sample", seed=42, samples=7)
    run2 = run_mct_xcompressed(3, 2, parties, inp, mode="sample", seed=42, samples=7)
    assert run1.passed and len(run1.branches) == 7
    assert [b.outcomes for b in run1.branches] == [b.outcomes for b in run2.branches]
    for branch in run1.branches:
        assert branch.probability == pytest.approx(3**-3, abs=1e-9)


def test_expected_state_matches_target_unitaries():
    """The per-party gates applied to the input give the target unitary's state."""
    rng = np.random.default_rng(16)
    d, sizes = 3, (2, 1)  # party 1 holds 2 data qudits
    net = Network(d, len(sizes), sizes)
    inp = _random_state(d, net.data_qudits, rng)
    blocks = [[random_unitary(d, m, rng) for _ in range(d)] for m in sizes]
    expected = _expected_state(net, _controlled_gates(net, blocks), inp)
    assert np.allclose(expected.amps, target_unitary(d, 2, blocks).apply(inp).amps, atol=1e-12)
    parties = [_x_compressed_gate(d, m, rng) for m in sizes]
    expected = _expected_state(net, [op.mat for op in parties], inp)
    target = target_unitary_xcompressed(d, 2, parties)
    assert np.allclose(expected.amps, target.apply(inp).amps, atol=1e-12)


def test_mct_xcompressed_two_qudit_party_register():
    rng = np.random.default_rng(14)
    parties = [_x_compressed_gate(2, 2, rng)]
    run = run_mct_xcompressed(2, 1, parties, _random_state(2, 3, rng))
    assert run.passed and run.network.party_data == (2,)


def test_mct_xcompressed_identity_and_costs():
    eye = Operator.identity(2, 2)
    inp = _random_state(2, 2, np.random.default_rng(6))
    run = run_mct_xcompressed(2, 1, [eye], inp)
    assert run.passed and run.cost.cdits == 2
    for branch in run.branches:
        assert equal_up_to_global_phase(branch.output.amps, inp.amps)


def test_mct_xcompressed_rejects_uncompressed():
    # F sits on the would-be compressed leg, so [T, X_2] != 0
    f2 = Operator.identity(2).tensor(fourier(2))
    with pytest.raises(NotXCompressed):
        run_mct_xcompressed(2, 1, [f2], basis_state(2, [0, 0]))


def test_controlled_and_xcompressed_agree_after_conjugation():
    """The two pipelines implement F-conjugate targets of each other."""
    rng = np.random.default_rng(8)
    d, n = 2, 2
    f = fourier(d)
    blocks = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
    parties = []
    for j in range(n):
        ctrl = assemble_controlled(blocks[j], 2, 2)
        parties.append(embed_operator(f.adjoint(), [2], 2) @ ctrl @ embed_operator(f, [2], 2))
    t_ctrl = target_unitary(d, n, blocks)
    t_x = target_unitary_xcompressed(d, n, parties)
    m = n + 1  # data qudits, leader last
    f_leader = embed_operator(f, [m], m)
    assert np.allclose((f_leader.adjoint() @ t_ctrl @ f_leader).mat, t_x.mat, atol=1e-9)

    inp = _random_state(d, m, rng)
    assert run_mct_xcompressed(d, n, parties, inp).passed
    assert run_mct_controlled(d, n, blocks, inp).passed


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trick_identity(d):
    assert trick_identity_deviation(d) <= 1e-12


def test_no_signaling_leader_reduced_state():
    rng = np.random.default_rng(9)
    d, n = 2, 2
    inp = _random_state(d, n + 1, rng)
    blocks_a = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
    blocks_b = [[random_unitary(d, 1, rng) for _ in range(d)] for _ in range(n)]
    for l0 in range(d):
        rho_a = leader_reduced_density(d, n, blocks_a, inp, l0)
        rho_b = leader_reduced_density(d, n, blocks_b, inp, l0)
        assert np.max(np.abs(rho_a - rho_b)) < 1e-9
