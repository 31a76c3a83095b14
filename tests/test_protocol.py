"""LOCC teleportation protocol: branch enumeration, costs, invariants."""

from __future__ import annotations

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
    ghz_state,
    max_state,
    pauli,
    random_unitary,
)
from paradiag.compression import NotXCompressed, assemble_controlled, commutator_norm
from paradiag.protocol import (
    Network,
    _controlled_gates,
    _expected_state,
    _outcome_index,
    _outcome_rows,
    leader_reduced_density,
    measure_qudit,
    run_mct_controlled,
    run_mct_xcompressed,
    target_unitary,
    target_unitary_xcompressed,
    trick_identity_deviation,
)
from paradiag.scalars import Tolerance, equal_up_to_global_phase


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
    assert Network(2, 2, (1, 1)).data_qudits == 3
    assert Network(2, 2, (2, 1)).data_qudits == 4
    with pytest.raises(ShapeError):
        Network(2, 2, (1,))


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


@pytest.mark.parametrize("phases_first", [True, False])
def test_mct_party_without_data_qudits(phases_first):
    """A party whose blocks are 0-qudit phases applies diag(1, i) to L.data through its resource qudit."""
    rng = np.random.default_rng(4)
    phases = [Operator(2, 0, [[1]]), Operator(2, 0, [[1j]])]
    ident = [Operator.identity(2)] * 2
    blocks = [phases, ident] if phases_first else [ident, phases]
    inp = _random_state(2, 2, rng)
    run = run_mct_controlled(2, 2, blocks, inp)
    assert run.passed and len(run.branches) == 8
    assert run.network.party_data == ((0, 1) if phases_first else (1, 0))
    target = np.kron(np.eye(2), np.diag([1, 1j])) @ inp.amps
    for branch in run.branches:
        assert equal_up_to_global_phase(branch.output.amps, target)


def test_mct_rejects_non_unitary_blocks():
    bad = [[Operator.identity(2), Operator(2, 1, np.diag([1.0, 2.0]))]]
    with pytest.raises(ValueError):
        run_mct_controlled(2, 1, bad, basis_state(2, [0, 0]))


def test_mct_rejects_wrong_input_size():
    blocks = [[Operator.identity(2), pauli(2, "X")]]
    with pytest.raises(ValueError):
        run_mct_controlled(2, 1, blocks, basis_state(2, [0, 0, 0]))
    with pytest.raises(ValueError, match="data qudits"):
        leader_reduced_density(2, 1, blocks, basis_state(2, [0, 0, 0]))


def test_cost_report_and_transcript():
    rng = np.random.default_rng(4)
    blocks = [[random_unitary(2, 1, rng) for _ in range(2)] for _ in range(3)]
    run = run_mct_controlled(2, 3, blocks, _random_state(2, 4, rng))
    cost = run.cost
    assert cost.resource_states == 1
    assert cost.resource_qudits == 4
    assert cost.cdits == 6
    assert cost.baseline_bqst == {"resource_states": 3, "channels": 6}
    # a branch's classical record: the broadcast dit l0 to all 3 parties,
    # then one returned dit per party, 6 cdits over 2 rounds
    for branch in run.branches:
        assert len(branch.outcomes) == 4
        assert all(0 <= v < 2 for v in branch.outcomes)


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



def _embedded_targets(d, sizes, blocks, parties):
    """Both targets as products of embedded d^m x d^m matrices, one factor per party."""
    m = sum(sizes) + 1
    t_ctrl, t_x = np.eye(d**m), np.eye(d**m)
    for j, size in enumerate(sizes):
        positions = [sum(sizes[:j]) + i + 1 for i in range(size)]
        factor = sum(
            embed_operator(Operator(d, 1, np.diag(np.eye(d)[l])), [m], m).mat
            @ embed_operator(blocks[j][l], positions, m).mat
            for l in range(d)
        )
        t_ctrl = factor @ t_ctrl
        t_x = embed_operator(parties[j], positions + [m], m).mat @ t_x
    return t_ctrl, t_x


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sizes", [(1,), (2, 1), (1, 1, 1)])
def test_targets_match_embedded_products(d, sizes):
    rng = np.random.default_rng(d + len(sizes))
    blocks = [[random_unitary(d, m, rng) for _ in range(d)] for m in sizes]
    parties = [_x_compressed_gate(d, m, rng) for m in sizes]
    t_ctrl, t_x = _embedded_targets(d, sizes, blocks, parties)
    assert np.max(np.abs(target_unitary(d, len(sizes), blocks).mat - t_ctrl)) <= 1e-13
    assert np.max(np.abs(target_unitary_xcompressed(d, len(sizes), parties).mat - t_x)) <= 1e-13


def test_target_xcompressed_rejects_wrong_party_count():
    op = _x_compressed_gate(2, 1, np.random.default_rng(3))
    with pytest.raises(ShapeError):
        target_unitary_xcompressed(2, 2, [op])
    with pytest.raises(ShapeError):
        target_unitary_xcompressed(2, 1, [op, op])

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


def test_mct_xcompressed_checks_the_frame_blocks():
    """Leakage between the F-frame blocks is refused, even where the commutator passes.

    At d = 16 a unitary leak of 3e-8 between F-frame blocks 0 and 1 leaves
    [T, X_2] at 3.9e-9, within the runner's 1e-8, but the off-diagonal block
    at 9.9e-8, which the live-row pass would drop.
    """
    d, eps = 16, 3e-8
    rng = np.random.default_rng(5)
    frame = assemble_controlled([random_unitary(d, 1, rng) for _ in range(d)], 2, 2).mat
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    leak = np.kron(a, np.eye(d)[:, [0]] @ np.eye(d)[[1]])  # A (x) |0><1| on the control leg
    lam, q = np.linalg.eigh(leak + leak.conj().T)
    frame = frame @ q @ np.diag(np.exp(1j * eps * lam)) @ q.conj().T
    f = fourier(d)
    op = embed_operator(f.adjoint(), [2], 2) @ Operator(d, 2, frame) @ embed_operator(f, [2], 2)
    assert op.is_unitary(Tolerance()) and commutator_norm(op, 2, "X") <= 1e-8
    with pytest.raises(NotXCompressed, match="off-diagonal block"):
        run_mct_xcompressed(d, 1, [op], _random_state(d, 2, rng))


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
    rho_a = leader_reduced_density(d, n, blocks_a, inp)
    rho_b = leader_reduced_density(d, n, blocks_b, inp)
    assert np.max(np.abs(rho_a - rho_b)) < 1e-9


def _reference_branches(d, sizes, gates, variant, inp, corrections=True):
    """Every branch built on its own, measuring each meter when the protocol does.

    Each classically controlled correction is ``measure_qudit`` on its
    control, then the corrective gate raised to the measured power.  The
    register is [L.res, P1.res, ..., Pn.res, data qudits in input order], so
    after the last meter branch (l0, l1, ..., ln) is the row l0 l1 ... ln of
    the state read with the resource qudits as row index.
    """
    n = len(sizes)
    lres, ldata = 1, n + 1 + sum(sizes) + 1
    starts = np.cumsum((n + 2,) + sizes[:-1])
    data = [list(range(s, s + m)) for s, m in zip(starts, sizes)]
    x, z, f_inv = pauli(d, "X").mat, pauli(d, "Z").mat, fourier(d).adjoint().mat
    power = np.linalg.matrix_power
    cx = sum(np.kron(np.diag(np.eye(d)[m]), power(x, m)) for m in range(d))
    cz = sum(np.kron(np.diag(np.eye(d)[m]), power(z, m)) for m in range(d))

    def apply(state, mat, *qudits):
        return apply_to_qudits(mat, state, qudits)

    def parties(state, j, outcomes, prob):
        if j > n:
            row = np.ravel_multi_index(outcomes, [d] * (n + 1))
            yield outcomes, prob, state.amps.reshape(d ** (n + 1), -1)[row]
            return
        state = apply(state, gates[j - 1], *data[j - 1], 1 + j)
        if variant == "controlled":
            state = apply(state, f_inv, 1 + j)
        for m, p, post in measure_qudit(state, 1 + j):
            if corrections:
                post = apply(post, power(z if variant == "controlled" else x, m), ldata)
            yield from parties(post, j + 1, outcomes + (m,), prob * p)

    resource = ghz_state(d, n + 1) if variant == "controlled" else max_state(d, n + 1)
    state = StateVector(d, ldata, np.kron(resource.amps, inp.amps))
    if variant == "controlled":
        state = apply(apply(apply(state, f_inv, lres), cz, lres, ldata), f_inv, lres)
    else:
        state = apply(apply(apply(state, cx, lres, ldata), f_inv, lres), cx.conj().T, lres, ldata)
    for l0, p0, post in measure_qudit(state, lres):
        if variant == "controlled":
            for j in range(1, n + 1):
                post = apply(post, power(x, l0), 1 + j)
        else:
            post = apply(post, power(x, l0), ldata)
            for j in range(1, n + 1):
                post = apply(post, power(z, -l0 % d), 1 + j)
        yield from parties(post, 1, (l0,), p0)


def _assert_branches_equal(branches, reference):
    assert [b.outcomes for b in branches] == [outcomes for outcomes, _, _ in reference]
    for branch, (_, prob, output) in zip(branches, reference):
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        assert np.max(np.abs(branch.output.amps - output)) <= 1e-12


@pytest.mark.parametrize(
    "d,sizes",
    [
        (2, (1, 1)), (3, (1, 1)), (3, (2, 1)), (3, (1, 1, 1)), (4, (1, 1)), (2, (2, 1, 2)),
        (5, (1,)), (5, (1, 1)), (2, (1, 1, 1, 1, 1)),
    ],
)
@pytest.mark.parametrize("variant", ["controlled", "xcompressed"])
def test_outcome_labels_match_independent_branches(d, sizes, variant):
    """Each reported outcome tuple carries that branch's own output, phase included.

    With all corrections applied every branch ends in the same state, so the
    controlled pass is also read without the party corrections: there branch
    (l0, l1, ..., ln) still carries Z^(l1 + ... + ln) on L.data, and a wrong
    row-to-outcome map shows.
    """
    rng = np.random.default_rng(d * 100 + sum(sizes))
    n = len(sizes)
    inp = _random_state(d, sum(sizes) + 1, rng)
    if variant == "xcompressed":
        parties = [_x_compressed_gate(d, m, rng) for m in sizes]
        gates = [op.mat for op in parties]
        run = run_mct_xcompressed(d, n, parties, inp)
        _assert_branches_equal(run.branches, list(_reference_branches(d, sizes, gates, variant, inp)))
        return
    blocks = [[random_unitary(d, m, rng) for _ in range(d)] for m in sizes]
    projectors = [np.diag(np.eye(d)[l]) for l in range(d)]
    gates = [sum(np.kron(b.mat, pr) for b, pr in zip(blist, projectors)) for blist in blocks]
    run = run_mct_controlled(d, n, blocks, inp)
    _assert_branches_equal(run.branches, list(_reference_branches(d, sizes, gates, variant, inp)))

    uncorrected = list(_reference_branches(d, sizes, gates, variant, inp, corrections=False))
    stacks = [np.stack([b.mat for b in blist]) for blist in blocks]
    rows = _outcome_rows(Network(d, n, sizes), stacks, inp, "controlled", corrections=False)
    raw = rows[_outcome_index(d, n)]
    probs = np.sum(np.abs(raw) ** 2, axis=1)
    assert [outcomes for outcomes, _, _ in uncorrected] == list(np.ndindex((d,) * (n + 1)))
    for (_, prob, output), p, row in zip(uncorrected, probs, raw, strict=True):
        assert p == pytest.approx(prob, abs=1e-12)
        assert np.max(np.abs(row / np.sqrt(p) - output)) <= 1e-12
    returned = leader_reduced_density(d, n, blocks, inp)
    for l0 in range(d):  # the returned state is each l0's state
        rho = np.zeros((d, d), dtype=complex)
        for outcomes, prob, output in uncorrected:
            if outcomes[0] == l0:
                leader = output.reshape(-1, d)  # rows: party data, columns: L.data
                rho += prob * leader.T @ leader.conj()
        rho /= np.trace(rho).real
        assert np.max(np.abs(returned - rho)) <= 1e-12


def _variant_args(variant, d, sizes, rng):
    """The run function of ``variant`` and its arguments, on random gates and a random input."""
    inp = _random_state(d, sum(sizes) + 1, rng)
    if variant == "controlled":
        blocks = [[random_unitary(d, m, rng) for _ in range(d)] for m in sizes]
        return run_mct_controlled, (d, len(sizes), blocks, inp)
    parties = [_x_compressed_gate(d, m, rng) for m in sizes]
    return run_mct_xcompressed, (d, len(sizes), parties, inp)


@pytest.mark.parametrize("variant", ["controlled", "xcompressed"])
def test_no_register_size_operator_pass(variant, monkeypatch):
    """A run applies no operator to the d^(n+1+data)-amplitude deferred-measurement register."""
    from paradiag import protocol

    d, sizes = 3, (1, 2)
    n, data = len(sizes), sum(sizes) + 1
    seen, kernel = [], protocol.apply_to_qudits

    def spy(op_mat, state, qudits):
        seen.append(state.amps.size)
        return kernel(op_mat, state, qudits)

    monkeypatch.setattr(protocol, "apply_to_qudits", spy)
    run_fn, args = _variant_args(variant, d, sizes, np.random.default_rng(17))
    assert run_fn(*args).passed and seen
    assert max(seen) < d ** (n + 1 + data), seen


@pytest.mark.parametrize("variant", ["controlled", "xcompressed"])
def test_run_peaks_far_below_its_register(variant):
    """At (2, 10) a run's traced peak stays under an eighth of its register's 16 d^(n+1+data) bytes."""
    import tracemalloc

    d, n, data = 2, 10, 11
    run_fn, args = _variant_args(variant, d, (1,) * n, np.random.default_rng(23))
    tracemalloc.start()
    try:
        assert run_fn(*args).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d ** (n + 1 + data) // 8, peak


@pytest.mark.parametrize("variant", ["controlled", "xcompressed"])
def test_branch_outputs_are_shared_read_only_rows(variant):
    """Every branch with live row (l0, t) carries the same read-only output: d^2 in a run."""
    d, sizes = 3, (1, 2)
    run_fn, args = _variant_args(variant, d, sizes, np.random.default_rng(29))
    run = run_fn(*args)
    assert run.passed and len(run.branches) == d ** (len(sizes) + 1)
    with pytest.raises(ValueError):
        run.branches[0].output.amps[0] = 0
    shared = {}
    for b in run.branches:
        row = (b.outcomes[0], sum(b.outcomes[1:]) % d)
        assert shared.setdefault(row, b.output) is b.output
    assert len({id(b.output) for b in run.branches}) == len(shared) == d * d
