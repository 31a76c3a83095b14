"""LOCC simulator for multipartite compressed teleportation.

Register layout (1-based, matching the circuit wire order): the n+1
resource qudits come first, one per party and the leader's last, then the
data qudits in input order:

    [P1.res, ..., Pn.res, L.res, P1.data.., ..., Pn.data.., L.data]

The data qudits [P1.data.., ..., Pn.data.., L.data] keep the qudit order of
the input state and of ``target_unitary``, so the register starts as the
outer product of the resource state and the input.

Each variant is one list of (matrix, qudits) steps run in a single pass.
By the deferred-measurement principle every classically controlled
correction is a controlled gate from the qudit that would have been
measured, so all meters move to the end: the final state, read with the
resource qudits as row index and the data qudits as column index, holds
branch (l1, ..., ln, l0) in its rows.  The rows are read out in
lexicographic (l0, l1, ..., ln) order; row norms squared are the branch
probabilities and normalized rows are the branch outputs.

Controlled variant (GHZ resource): the leader applies F^-1 on its resource
qudit, a controlled-Z against its data qudit and F^-1 again; l0 is its
meter.  Party j receives X^l0 on its resource qudit (the adder from L.res),
performs the controlled T_j(l) with the resource qudit as control and
applies F^-1; l_j is its meter.  The leader's correction Z^(sum l_j) is one
controlled-Z from each Pj.res onto L.data.  The exponent signs (X^+l0,
Z^+l_j) are build constants fixed by requiring exact branch-wise
correctness; every run checks them branch by branch.

X-compressed variant (Max resource): controlled-X from the leader resource
onto the leader data, F^-1, controlled-X^-1, then the l0 part of the final
correction as a controlled-X; l0 is the L.res meter.  Party j receives
Z^-l0 on its resource qudit (controlled-Z^-1 from L.res), performs its
X-compressed T_j with the resource qudit substituted for the leader leg;
m_j is its meter, and the correction X^(m_j) is a controlled-X from Pj.res
onto L.data.  The l0 part of the correction cancels against the
controlled-X^-1, which is the measurement-simplification identity checked
by ``trick_identity_deviation``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    Operator,
    ShapeError,
    StateVector,
    _controlled_add,
    apply_to_qudits,
    embed_operator,
    fourier,
    ghz_state,
    partial_trace,
    pauli,
    prepare_max,
)
from .compression import NotXCompressed, assemble_controlled, is_compressed
from .scalars import Tolerance, global_phase_deviation, zeta

__all__ = [
    "Network",
    "CostReport",
    "BranchResult",
    "ProtocolRun",
    "measure_qudit",
    "target_unitary",
    "target_unitary_xcompressed",
    "run_mct_controlled",
    "run_mct_xcompressed",
    "trick_identity_deviation",
    "leader_reduced_density",
]


@dataclass(frozen=True)
class Network:
    """Ownership map for one leader and n parties.

    Positions are 1-based in the register [resource qudits, data qudits]:
    party j's resource qudit is j, the leader's is n+1, the data qudits
    follow in input order and the leader's data qudit is last.
    """

    d: int
    n: int
    party_data: tuple[int, ...]  # data qudits per party

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.party_data) != self.n:
            raise ShapeError(f"need one data size per party, got {self.party_data!r} for n={self.n}")

    @property
    def total_qudits(self) -> int:
        return sum(self.party_data) + self.n + 2

    @property
    def data_qudits(self) -> int:
        return sum(self.party_data) + 1

    def party_data_positions(self, j: int) -> list[int]:
        base = self.n + 1 + sum(self.party_data[: j - 1])
        return [base + i + 1 for i in range(self.party_data[j - 1])]

    def party_resource_position(self, j: int) -> int:
        return j

    @property
    def leader_resource_position(self) -> int:
        return self.n + 1

    @property
    def leader_data_position(self) -> int:
        return self.total_qudits


@dataclass(frozen=True)
class CostReport:
    resource_states: int
    resource_qudits: int
    cdits: int
    baseline_bqst: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple[int, ...]  # (l0, l1, ..., ln): the broadcast dit, then each return
    probability: float
    output: StateVector
    match: bool
    max_dev: float


@dataclass(frozen=True)
class ProtocolRun:
    network: Network
    mode: str
    branches: tuple[BranchResult, ...]
    cost: CostReport
    passed: bool

    def report(self) -> dict:
        return {
            "d": self.network.d,
            "n": self.network.n,
            "mode": self.mode,
            "branches": [
                {
                    "outcomes": list(b.outcomes),
                    "prob": b.probability,
                    "match": b.match,
                    "max_dev": b.max_dev,
                }
                for b in self.branches
            ],
            "cost": {
                "resource_states": self.cost.resource_states,
                "resource_qudits": self.cost.resource_qudits,
                "cdits": self.cost.cdits,
            },
            "baseline_bqst": dict(self.cost.baseline_bqst),
            "pass": self.passed,
        }


def measure_qudit(
    state: StateVector, qudit: int, basis: str = "computational"
) -> list[tuple[int, float, StateVector]]:
    """Exhaustive projective measurement; zero-probability branches omitted.

    The post-states keep the measured qudit (collapsed and renormalized).
    Fourier-basis measurement is F^-1 on the qudit followed by the
    computational meter.
    """
    if qudit < 1 or qudit > state.n:
        raise ShapeError(f"qudit {qudit} out of range for n={state.n}")
    if basis == "fourier":
        state = apply_to_qudits(fourier(state.d).adjoint().mat, state, (qudit,))
    elif basis != "computational":
        raise ValueError(f"unknown basis {basis!r}")
    d, n = state.d, state.n
    psi = state.amps.reshape(d ** (qudit - 1), d, -1)  # (before, measured, after)
    results = []
    for m in range(d):
        branch = psi[:, m]
        p = float(np.sum(np.abs(branch) ** 2))
        if p <= 1e-15:
            continue
        collapsed = np.zeros_like(psi)
        collapsed[:, m] = branch / np.sqrt(p)
        results.append((m, p, StateVector(d, n, collapsed.reshape(-1))))
    return results


def _party_sizes(blocks: Sequence[Sequence[Operator]]) -> tuple[int, ...]:
    return tuple(blk[0].n for blk in blocks)


def _validate_blocks(d: int, n: int, blocks: Sequence[Sequence[Operator]], tol: Tolerance) -> None:
    if len(blocks) != n:
        raise ShapeError(f"need one block list per party, got {len(blocks)} for n={n}")
    for j, blist in enumerate(blocks, start=1):
        if len(blist) != d:
            raise ShapeError(f"party {j} needs d={d} blocks, got {len(blist)}")
        m = blist[0].n
        for l, op in enumerate(blist):
            if op.d != d or op.n != m:
                raise ShapeError(f"party {j} block {l} has shape (d={op.d}, n={op.n})")
            if not op.is_unitary(tol):
                raise ShapeError(f"party {j} block {l} is not unitary")


def target_unitary(d: int, n: int, blocks: Sequence[Sequence[Operator]]) -> Operator:
    """Product over parties of the controlled T_j sharing the leader control.

    Acts on the data qudits only; the leader data qudit is last.  The factors
    commute (they share a diagonal control), so the product order is moot.
    """
    _validate_blocks(d, n, blocks, Tolerance(1e-8))
    sizes = _party_sizes(blocks)
    m_total = sum(sizes) + 1
    total = np.eye(d**m_total, dtype=complex)
    for j in range(1, n + 1):
        base = sum(sizes[: j - 1])
        positions = [base + i + 1 for i in range(sizes[j - 1])]
        factor = np.zeros((d**m_total, d**m_total), dtype=complex)
        for l in range(d):
            proj = np.zeros((d, d), dtype=complex)
            proj[l, l] = 1.0
            factor += (
                embed_operator(Operator(d, 1, proj), [m_total], m_total).mat
                @ embed_operator(blocks[j - 1][l], positions, m_total).mat
            )
        total = factor @ total
    return Operator(d, m_total, total)


def target_unitary_xcompressed(d: int, n: int, parties: Sequence[Operator]) -> Operator:
    """Product of the T_j with the leader's data qudit as the shared last leg."""
    sizes = tuple(op.n - 1 for op in parties)
    m_total = sum(sizes) + 1
    total = np.eye(d**m_total, dtype=complex)
    for j in range(1, n + 1):
        base = sum(sizes[: j - 1])
        positions = [base + i + 1 for i in range(sizes[j - 1])] + [m_total]
        total = embed_operator(parties[j - 1], positions, m_total).mat @ total
    return Operator(d, m_total, total)


def _controlled_z(d: int) -> np.ndarray:
    """sum_m |m><m| (x) Z^m = diag(q**(m*k)); control and target are symmetric."""
    k = np.arange(d)
    return np.diag((zeta(d) ** ((2 * np.outer(k, k)) % (d * d))).reshape(-1))


_Step = tuple[np.ndarray, tuple[int, ...]]


def _controlled_steps(
    net: Network, gates: Sequence[np.ndarray], corrections: bool = True
) -> list[_Step]:
    """Controlled variant on the GHZ resource; gates[j] has legs [data.., control]."""
    d = net.d
    f_inv = fourier(d).adjoint().mat
    cz = _controlled_z(d)
    adder = _controlled_add(d)
    lres, ldata = net.leader_resource_position, net.leader_data_position
    steps = [(f_inv, (lres,)), (cz, (lres, ldata)), (f_inv, (lres,))]
    for j, gate in enumerate(gates, start=1):
        rpos = net.party_resource_position(j)
        steps += [
            (adder, (lres, rpos)),
            (gate, (*net.party_data_positions(j), rpos)),
            (f_inv, (rpos,)),
        ]
        if corrections:
            steps.append((cz, (rpos, ldata)))
    return steps


def _xcompressed_steps(net: Network, gates: Sequence[np.ndarray]) -> list[_Step]:
    """X-compressed variant on the Max resource; gates[j] has the leader leg last."""
    d = net.d
    cx = _controlled_add(d)  # sum_m |m><m| (x) X^m; its inverse is its transpose
    cz_inv = _controlled_z(d).conj()
    lres, ldata = net.leader_resource_position, net.leader_data_position
    steps = [
        (cx, (lres, ldata)),
        (fourier(d).adjoint().mat, (lres,)),
        (cx.T, (lres, ldata)),
        (cx, (lres, ldata)),
    ]
    for j, gate in enumerate(gates, start=1):
        rpos = net.party_resource_position(j)
        steps += [
            (cz_inv, (lres, rpos)),
            (gate, (*net.party_data_positions(j), rpos)),
            (cx, (rpos, ldata)),
        ]
    return steps


def _outcome_rows(
    net: Network, input_state: StateVector, resource: StateVector, steps: Sequence[_Step]
) -> np.ndarray:
    """Run the steps; rows are indexed by (l1, ..., ln, l0), columns by the data qudits."""
    # the input-first product keeps every amplitude bitwise equal to kron(input, resource)
    amps = np.multiply.outer(input_state.amps, resource.amps).T.reshape(-1)
    state = StateVector(net.d, net.total_qudits, amps)
    for mat, qudits in steps:
        state = apply_to_qudits(mat, state, qudits)
    return state.amps.reshape(net.d ** (net.n + 1), -1)


def _expected_state(
    net: Network, gates: Sequence[np.ndarray], input_state: StateVector
) -> StateVector:
    """The target: each party gate on its data qudits with the leader data qudit as last leg."""
    state, base = input_state, 0
    for size, gate in zip(net.party_data, gates):
        state = apply_to_qudits(gate, state, (*range(base + 1, base + size + 1), net.data_qudits))
        base += size
    return state


def _check_input(net: Network, input_state: StateVector) -> None:
    if (input_state.d, input_state.n) != (net.d, net.data_qudits):
        raise ShapeError(
            f"input must live on the {net.data_qudits} data qudits, got n={input_state.n}"
        )


def _cost_report(net: Network) -> CostReport:
    return CostReport(
        resource_states=1,
        resource_qudits=net.n + 1,
        cdits=2 * net.n,
        baseline_bqst={"resource_states": net.n, "channels": 2 * net.n},
    )


def _run(
    net: Network,
    resource: StateVector,
    steps: Sequence[_Step],
    gates: Sequence[np.ndarray],
    input_state: StateVector,
    mode: str,
    tol: Tolerance,
    seed: int | None,
    samples: int,
) -> ProtocolRun:
    """One deferred-measurement pass, read out branch by branch.

    ``all_branches`` lists every outcome tuple of nonzero probability in
    lexicographic order; ``sample`` draws ``samples`` tuples from the exact
    joint distribution.
    """
    rows = _outcome_rows(net, input_state, resource, steps)
    # order[i] is the row of the i-th outcome tuple (l0, l1, ..., ln)
    order = np.arange(net.d ** (net.n + 1)).reshape(-1, net.d).T.reshape(-1)
    probs = np.sum(np.abs(rows) ** 2, axis=1)[order]
    if mode == "all_branches":
        picks = np.flatnonzero(probs > 1e-15)
    elif mode == "sample":
        picks = np.random.default_rng(seed).choice(len(probs), size=samples, p=probs / probs.sum())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    expected = _expected_state(net, gates, input_state).amps
    outcomes = list(itertools.product(range(net.d), repeat=net.n + 1))
    outputs = rows[order[picks]] / np.sqrt(probs[picks])[:, None]
    devs = global_phase_deviation(outputs, expected).tolist()
    branches = []
    for i, amps, dev in zip(picks, outputs, devs):
        branches.append(
            BranchResult(
                outcomes=outcomes[i],
                probability=float(probs[i]),
                output=StateVector(net.d, net.data_qudits, amps),
                match=dev <= tol.eps,
                max_dev=dev,
            )
        )
    passed = all(b.match for b in branches)
    return ProtocolRun(net, mode, tuple(branches), _cost_report(net), passed)


def _controlled_gates(net: Network, blocks: Sequence[Sequence[Operator]]) -> list[np.ndarray]:
    # legs [data.., control]: control qudit is last
    return [
        assemble_controlled(list(blist), m + 1, m + 1).mat
        for m, blist in zip(net.party_data, blocks)
    ]


def run_mct_controlled(
    d: int,
    n: int,
    blocks: Sequence[Sequence[Operator]],
    input_state: StateVector,
    mode: str = "all_branches",
    tol: Tolerance = Tolerance(),
    seed: int | None = None,
    samples: int = 20,
) -> ProtocolRun:
    """Execute the controlled-transformation teleportation over all branches.

    Every branch output is compared (up to a global phase) with the target
    unitary applied to the input; the cost report carries the single
    (n+1)-qudit resource state and 2n cdits.
    """
    _validate_blocks(d, n, blocks, tol)
    net = Network(d, n, _party_sizes(blocks))
    _check_input(net, input_state)
    gates = _controlled_gates(net, blocks)
    steps = _controlled_steps(net, gates)
    return _run(net, ghz_state(d, n + 1), steps, gates, input_state, mode, tol, seed, samples)


def run_mct_xcompressed(
    d: int,
    n: int,
    parties: Sequence[Operator],
    input_state: StateVector,
    mode: str = "all_branches",
    tol: Tolerance = Tolerance(),
    seed: int | None = None,
    samples: int = 20,
) -> ProtocolRun:
    """Execute the X-compressed variant on the Max resource state.

    ``parties[j]`` acts on party j's data qudits plus one final leg that must
    be X-compressed; the protocol substitutes party j's resource qudit for
    that leg, and the branch outputs match the T_j sharing the leader's data
    qudit.
    """
    if len(parties) != n:
        raise ShapeError(f"need one transformation per party, got {len(parties)}")
    for j, op in enumerate(parties, start=1):
        if op.d != d or op.n < 2:
            raise ShapeError(f"party {j} transformation must act on >= 2 qudits of dimension {d}")
        if not op.is_unitary(tol):
            raise ShapeError(f"party {j} transformation is not unitary")
        if not is_compressed(op, op.n, "X", Tolerance(max(tol.eps, 1e-8))):
            raise NotXCompressed(f"party {j} transformation is not X-compressed on its last leg")

    net = Network(d, n, tuple(op.n - 1 for op in parties))
    _check_input(net, input_state)
    gates = [op.mat for op in parties]
    steps = _xcompressed_steps(net, gates)
    return _run(net, prepare_max(d, n + 1), steps, gates, input_state, mode, tol, seed, samples)


def trick_identity_deviation(d: int) -> float:
    """Deviation of the measurement-simplification identity, over all branches.

    Controlled-X^-1 followed by a meter on the control and the classically
    controlled X on the target equals the bare meter: the per-outcome Kraus
    maps agree exactly as operators.
    """
    x = pauli(d, "X").mat
    cx_inv = _controlled_add(d).T
    worst = 0.0
    for m in range(d):
        bra = np.zeros((d, d * d), dtype=complex)
        bra[:, m * d : (m + 1) * d] = np.eye(d)  # <m|_ctrl (x) I_target
        tricked = np.linalg.matrix_power(x, m) @ bra @ cx_inv
        worst = max(worst, float(np.max(np.abs(tricked - bra))))
    return worst


def leader_reduced_density(
    d: int,
    n: int,
    blocks: Sequence[Sequence[Operator]],
    input_state: StateVector,
    tol: Tolerance = Tolerance(),
) -> np.ndarray:
    """Leader-data reduced state after party measurements, before corrections.

    Averaged over all outcomes; by no-signaling it cannot depend on the
    parties' choice of blocks.  It does not depend on the broadcast value l0
    either, so no l0 is taken: to the leader the GHZ resource leaves L.res
    in the computational state m with probability 1/d, and F^-1, the
    controlled-Z and F^-1 then project L.data onto |l0 + m>.  Given l0 the
    average over m is the input's L.data state dephased in the
    computational basis, the same for every l0.  The party steps touch
    L.data not at all and L.res only as a computational-basis control, which
    commutes with the l0 meter.
    """
    _validate_blocks(d, n, blocks, tol)
    net = Network(d, n, _party_sizes(blocks))
    _check_input(net, input_state)
    steps = _controlled_steps(net, _controlled_gates(net, blocks), corrections=False)
    rows = _outcome_rows(net, input_state, ghz_state(d, n + 1), steps)
    # the meters dephase the resource qudits in the computational basis; the
    # leader-data reduced state is unchanged by that, so tracing the whole
    # register out is exactly the outcome-averaged state
    total = net.total_qudits
    return partial_trace(StateVector(d, total, rows.reshape(-1)), [total])
