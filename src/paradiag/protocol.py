"""LOCC simulator for multipartite compressed teleportation.

Register layout (1-based, matching the circuit wire order): the n+1
resource qudits come first, one per party and the leader's last, then the
data qudits in input order:

    [P1.res, ..., Pn.res, L.res, P1.data.., ..., Pn.data.., L.data]

The data qudits [P1.data.., ..., Pn.data.., L.data] keep the qudit order of
the input state and of ``target_unitary``.

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

Each variant is one pass: by the deferred-measurement principle every
classically controlled correction is a controlled gate from the qudit that
would have been measured, so all meters move to the end, and branch
(l0, l1, ..., ln) is one row of the final state read with the resource
qudits as row index and the data qudits as column index.

Of the d^(n+1) resource rows, the pass computes only the d^2 that are
live before the party meters.  The GHZ resource is d^-1/2 sum_k |k, ..., k>;
the leader's gates take L.res from the GHZ digit k to its meter value l0,
and the adders take every party's resource digit to c = k + l0 mod d, so
the live rows are (c, ..., c, l0), one per GHZ digit k and meter l0.  The
X-compressed variant lives on the same rows in the F^-1 frame, by two
identities:

- the Max resource is F^-1 on every qudit of the GHZ state;
- Z^-l0 F^-1 |k> = F^-1 |k + l0>, so the controlled-Z^-1 from L.res is the
  adder of the frame digit.

The pass holds the live block w[l0, c, data], indexed by the meter l0 and
the parties' digit c, and, in turn:

1. applies the leader's gates on (L.res, L.data), F^-1 CZ F^-1, or
   F^-1 CX F^-1 with L.res read through F^-1 (CX CX^-1 is exactly the
   identity), to the input times d^-1/2 in every GHZ digit k: between the
   two F^-1, L.res holds some a and L.data takes Z^a or X^a, so the gates
   are one product of the d^2 x d matrix F^-1[l0, a] F^-1[a, k] with the d
   input copies Z^a or X^a makes, filing digit k under c = k + l0;
2. applies party j's gate to row (l0, c) as its block B_j(c): the
   controlled gate's block c, or block c of (I x F) T_j (I x F^-1), which
   is block-diagonal exactly when T_j is X-compressed;
3. reads the party meters: on the live rows the n factors F^-1[l_j, c]
   (controlled) or <m_j| F^-1 |c> (X-compressed) make
   d^(-n/2) zeta^(-2 c t), with t = l1 + ... + ln mod d, so the meters
   leave one row R[l0, t] per meter l0 and sum t;
4. applies the corrections to R, Z^t or X^t on L.data.

Branch (l0, l1, ..., ln) is then the row R[l0, t].  The readout computes
probabilities, normalized outputs and deviations from the target on the d^2
rows of R, then marks R read-only: the d^2 outputs are views of its rows,
and every branch (l0, l1, ..., ln), in lexicographic outcome order, shares
the output of its row R[l0, t].  No array of the d^(n+1+data)-amplitude
register is built.
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
    fourier,
    partial_trace,
    pauli,
)
from .compression import (
    NotBlockDiagonal,
    NotXCompressed,
    _sandwich,
    assemble_controlled,
    controlled_blocks,
    is_compressed,
)
from .scalars import Tolerance, _frozen, _zeta, global_phase_deviation

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

    The parties' data qudits come in input order and the leader's one data
    qudit is last, as in the register layout of the module docstring.
    """

    d: int
    n: int
    party_data: tuple[int, ...]  # data qudits per party

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.party_data) != self.n:
            raise ShapeError(f"need one data size per party, got {self.party_data!r} for n={self.n}")

    @property
    def data_qudits(self) -> int:
        return sum(self.party_data) + 1


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
    net = Network(d, n, _party_sizes(blocks))
    return _target(net, _controlled_gates(net, blocks))


def target_unitary_xcompressed(d: int, n: int, parties: Sequence[Operator]) -> Operator:
    """Product of the T_j with the leader's data qudit as the shared last leg."""
    net = Network(d, n, tuple(op.n - 1 for op in parties))
    return _target(net, [op.mat for op in parties])


def _outcome_rows(
    net: Network,
    blocks: Sequence[np.ndarray],
    input_state: StateVector,
    variant: str,
    corrections: bool = True,
) -> np.ndarray:
    """The live-row pass of the module docstring: the rows R[l0, t], stacked.

    Row l0 * d + t is every branch (l0, l1, ..., ln) with l1 + ... + ln = t
    mod d (``_outcome_index``); columns are indexed by the data qudits.
    ``blocks[j]`` stacks party j's d blocks B_j(c) on its data qudits.
    ``corrections=False`` leaves out the controlled variant's Z^(l_j).
    """
    d, n = net.d, net.n
    controlled = variant == "controlled"
    k = np.arange(d)
    phase = _zeta(d, 2 * np.outer(k, k))  # q**(a*b) at [a, b]: the controlled-Z
    f_inv = fourier(d).mat.conj().T
    shift = (k - k[:, None]) % d  # b - a at [a, b]
    # between the leader's two F^-1, L.res holds some a and L.data takes Z^a (the CZ), or X^a
    # (the CX; CX CX^-1 is exactly the identity): moved[a, rest, x] is the input so acted on
    start = input_state.amps.reshape(-1, d) * (1 / np.sqrt(d))
    moved = phase[:, None, :] * start if controlled else start[:, shift].transpose(1, 0, 2)
    # leader[l0, c, a] = F^-1[l0, a] F^-1[a, k]: GHZ digit k is filed under c = k + l0
    leader = f_inv[:, None, :] * f_inv.T[shift]
    w = np.matmul(leader.reshape(d * d, d), moved.reshape(d, -1))
    before = 1
    for stack in blocks:  # row (l0, c) takes block c
        width = stack.shape[-1]
        w = np.matmul(stack[None, :, None], w.reshape(d, d, before, width, -1))
        before *= width
    # every party meter at once: R[l0, t] = sum_c d^(-n/2) zeta^(-2 c t) w[l0, c]
    meters = _zeta(d, -2 * np.outer(k, k)) * d ** (-n / 2)
    rows = np.matmul(meters, w.reshape(d, d, -1)).reshape(d, d, -1, d)  # (l0, t, other data, L.data)
    if corrections and controlled:  # every Z^(l_j): q^(t x) on the L.data digit x
        rows *= phase[:, None, :]
    elif corrections:  # every X^(m_j): L.data digit x takes x - t
        rows = np.take_along_axis(rows, shift[None, :, None, :], axis=3)
    return rows.reshape(d * d, -1)


def _outcome_index(d: int, n: int) -> np.ndarray:
    """The row of ``_outcome_rows`` of each outcome (l0, l1, ..., ln), in lexicographic order."""
    total = np.indices((d,) * n).reshape(n, -1).sum(axis=0) % d  # t of each (l1, ..., ln)
    return (d * np.arange(d)[:, None] + total).reshape(-1)


def _expected_state(
    net: Network, gates: Sequence[np.ndarray], input_state: StateVector
) -> StateVector:
    """The target: each party gate on its data qudits with the leader data qudit as last leg."""
    state, base = input_state, 0
    for size, gate in zip(net.party_data, gates):
        state = apply_to_qudits(gate, state, (*range(base + 1, base + size + 1), net.data_qudits))
        base += size
    return state


def _target(net: Network, gates: Sequence[np.ndarray]) -> Operator:
    """The target as an operator: ``_expected_state`` of the identity read as a 2m-qudit register."""
    m = net.data_qudits
    eye = StateVector(net.d, 2 * m, np.eye(net.d**m).reshape(-1))
    return Operator(net.d, m, _expected_state(net, gates, eye).amps.reshape(net.d**m, -1))


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
    variant: str,
    gates: Sequence[np.ndarray],
    blocks: Sequence[np.ndarray],
    input_state: StateVector,
    mode: str,
    tol: Tolerance,
    seed: int | None,
    samples: int,
) -> ProtocolRun:
    """One deferred-measurement pass, read out on its live rows, then branch by branch.

    ``gates`` make the target (``_expected_state``), ``blocks`` the pass
    (``_outcome_rows``).

    ``all_branches`` lists every outcome tuple of nonzero probability in
    lexicographic order; ``sample`` draws ``samples`` tuples from the exact
    joint distribution.
    """
    live = _outcome_rows(net, blocks, input_state, variant)
    index = _outcome_index(net.d, net.n)
    live_probs = np.sum(np.abs(live) ** 2, axis=1)
    probs = live_probs[index]
    if mode == "all_branches":
        picks = np.flatnonzero(probs > 1e-15)
    elif mode == "sample":
        picks = np.random.default_rng(seed).choice(len(probs), size=samples, p=probs / probs.sum())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    norms = np.sqrt(live_probs)[:, None]
    np.divide(live, norms, out=live, where=norms > 0)  # a row of probability 0 is never picked
    devs = global_phase_deviation(_frozen(live), _expected_state(net, gates, input_state).amps).tolist()
    outputs = [StateVector(net.d, net.data_qudits, row) for row in live]  # read-only, shared by row
    outcomes = list(itertools.product(range(net.d), repeat=net.n + 1))
    branches = [
        BranchResult(outcomes[i], p, outputs[r], devs[r] <= tol.eps, devs[r])
        for i, r, p in zip(picks.tolist(), index[picks].tolist(), probs[picks].tolist())
    ]
    passed = all(b.match for b in branches)
    return ProtocolRun(net, mode, tuple(branches), _cost_report(net), passed)


def _controlled_gates(net: Network, blocks: Sequence[Sequence[Operator]]) -> list[np.ndarray]:
    # legs [data.., control]: control qudit is last
    return [
        assemble_controlled(list(blist), m + 1, m + 1).mat
        for m, blist in zip(net.party_data, blocks)
    ]


def _block_stacks(blocks: Sequence[Sequence[Operator]]) -> list[np.ndarray]:
    return [np.stack([b.mat for b in blist]) for blist in blocks]


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
    return _run(net, "controlled", gates, _block_stacks(blocks), input_state, mode, tol, seed, samples)


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
    xtol = Tolerance(max(tol.eps, 1e-8))
    f = fourier(d).mat
    blocks = []  # block c of (I x F) T_j (I x F^-1), the frame of the live rows
    for j, op in enumerate(parties, start=1):
        if op.d != d or op.n < 2:
            raise ShapeError(f"party {j} transformation must act on >= 2 qudits of dimension {d}")
        if not op.is_unitary(tol):
            raise ShapeError(f"party {j} transformation is not unitary")
        if not is_compressed(op, op.n, "X", xtol):
            raise NotXCompressed(f"party {j} transformation is not X-compressed on its last leg")
        try:  # the off-diagonal blocks are checked against xtol, not dropped
            frame = controlled_blocks(_sandwich(f, op, op.n, f.conj().T), op.n, xtol)
        except NotBlockDiagonal as exc:
            raise NotXCompressed(
                f"party {j} transformation is not X-compressed on its last leg: {exc}"
            ) from exc
        blocks.append(np.stack([b.mat for b in frame.blocks]))

    net = Network(d, n, tuple(op.n - 1 for op in parties))
    _check_input(net, input_state)
    gates = [op.mat for op in parties]
    return _run(net, "xcompressed", gates, blocks, input_state, mode, tol, seed, samples)


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
    rows = _outcome_rows(net, _block_stacks(blocks), input_state, "controlled", corrections=False)
    # the meters dephase the resource qudits in the computational basis; the
    # leader-data reduced state is unchanged by that, so tracing the whole
    # register out is exactly the outcome-averaged state.  Row (l0, t) stands
    # for d^(n-1) outcomes, and their order does not matter under the trace.
    m = net.data_qudits + 2
    return d ** (n - 1) * partial_trace(StateVector(d, m, rows.reshape(-1)), [m])
