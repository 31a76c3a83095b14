"""Output checks for the benchmark workloads, computed apart from paradiag.

Every checker takes what a paradiag call returned and answers with a list of
reasons the output is wrong (empty when it is right).  The reference values
are built here with plain numpy from the conventions in the repository
README, or are properties the method must have; none of them is a stored
copy of an earlier output, and none calls back into paradiag.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9  # entrywise deviation allowed on every state and matrix
PROB_TOL = 1e-12  # deviation allowed on a branch probability

# Closed-form number of cases of each planar relation at dimension d.
RELATION_CASES = {
    "additive_charge": lambda d: d * d + 1,
    "para_isotopy": lambda d: 2 * d * d,
    "twisted_product": lambda d: 8 * d * d,
    "string_fourier": lambda d: 2 * d,
    "quantum_dimension": lambda d: 1,
    "neutrality": lambda d: d,
    "temperley_lieb": lambda d: 2,
    "resolution_identity": lambda d: 1,
    "braid": lambda d: 3,
    "pauli_diagrams": lambda d: 4,
    "bell_state": lambda d: 1,
}


def zeta(d: int) -> complex:
    """README branch of sqrt(q): exp(i*pi/d) for even d, q**((d+1)/2) for odd d."""
    return np.exp(1j * np.pi / d) if d % 2 == 0 else np.exp(1j * np.pi * (d + 1) / d)


def fourier(d: int) -> np.ndarray:
    """F|k> = d**-0.5 * sum_l q**(k*l)|l>."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def builtin_matrix(name: str, d: int) -> np.ndarray:
    """X, Y, Z as d x d matrices and bell as a d*d x 1 column (README conventions)."""
    z = zeta(d)
    k = np.arange(d)
    if name == "bell":
        col = np.zeros((d * d, 1), dtype=complex)
        col[k * d + (-k) % d, 0] = d**-0.5  # uniform over zero total charge
        return col
    mat = np.zeros((d, d), dtype=complex)
    if name == "X":
        mat[(k + 1) % d, k] = 1.0
    elif name == "Y":
        mat[(k - 1) % d, k] = z ** (1 - 2 * k)
    elif name == "Z":
        mat[k, k] = z ** (2 * k)
    else:
        raise ValueError(f"no reference matrix for {name!r}")
    return mat


def phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm of a - c*b, c the unit phase of the overlap <b|a>."""
    overlap = np.vdot(b, a)
    c = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(a - c * b)))


def apply_local(psi: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply a d**m x d**m matrix to the listed axes of a [d]*n tensor."""
    d, m = psi.shape[0], len(axes)
    u = mat.reshape([d] * (2 * m))
    out = np.tensordot(u, psi, axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(out, list(range(m)), axes)


def expected_controlled(d: int, sizes: list[int], blocks: list[list[np.ndarray]], amps: np.ndarray) -> np.ndarray:
    """Each party's block T_j(l) applied to its data, l the leader data qudit (last)."""
    m = sum(sizes) + 1
    psi = amps.reshape([d] * m)
    out = np.empty_like(psi)
    for l in range(d):
        part = psi[..., l]
        start = 0
        for size, blist in zip(sizes, blocks):
            part = apply_local(part, blist[l], list(range(start, start + size)))
            start += size
        out[..., l] = part
    return out.reshape(-1)


def expected_xcompressed(d: int, sizes: list[int], ops: list[np.ndarray], amps: np.ndarray) -> np.ndarray:
    """Each party's T_j applied to its data qudits plus the leader data qudit."""
    m = sum(sizes) + 1
    psi = amps.reshape([d] * m)
    start = 0
    for size, op in zip(sizes, ops):
        psi = apply_local(psi, op, list(range(start, start + size)) + [m - 1])
        start += size
    return psi.reshape(-1)


def check_mct(run, expected: np.ndarray, d: int, n: int) -> list[str]:
    """Every branch of an all-branches protocol run against the expected state."""
    bad = []
    leaves = d ** (n + 1)
    outcomes = sorted(tuple(b.outcomes) for b in run.branches)
    if outcomes != list(itertools.product(range(d), repeat=n + 1)):
        bad.append(f"{len(outcomes)} branches, want each of the {leaves} outcome tuples once")
    for b in run.branches:
        if abs(b.probability - 1.0 / leaves) > PROB_TOL:
            bad.append(f"branch {b.outcomes}: probability {b.probability!r}, want {1.0 / leaves!r}")
        dev = phase_deviation(np.asarray(b.output.amps), expected)
        if not dev <= TOL:
            bad.append(f"branch {b.outcomes}: output off by {dev:.3e} beyond a global phase")
    cost = run.cost
    if (cost.resource_states, cost.resource_qudits, cost.cdits) != (1, n + 1, 2 * n):
        bad.append(
            f"cost {cost.resource_states} states / {cost.resource_qudits} qudits / {cost.cdits} cdits, "
            f"want 1 / {n + 1} / {2 * n}"
        )
    if run.passed is not True:
        bad.append("run reports passed=False")
    return bad


def check_diagram(dense: np.ndarray, symbolic: np.ndarray, mirror_dense: np.ndarray, d: int, n: int) -> list[str]:
    """Dense and symbolic agree entrywise; the mirror evaluates to the adjoint."""
    shape = (d**n, d**n)
    if dense.shape != shape or symbolic.shape != shape or mirror_dense.shape != shape:
        return [f"shapes {dense.shape}, {symbolic.shape}, {mirror_dense.shape}, want {shape}"]
    bad = []
    if not np.max(np.abs(dense)) > 1e-6:
        bad.append("dense value is zero on a diagram without closed loops")
    dev = float(np.max(np.abs(dense - symbolic)))
    if not dev <= TOL:
        bad.append(f"dense and symbolic differ entrywise by {dev:.3e}")
    dev = float(np.max(np.abs(mirror_dense - dense.conj().T)))
    if not dev <= TOL:
        bad.append(f"mirror differs from the adjoint by {dev:.3e}")
    return bad


def check_relation_report(report, relation: str, d: int) -> list[str]:
    """Per-case deviations under both backends and the closed-form case count."""
    bad = []
    if (report.relation, report.d) != (relation, d):
        bad.append(f"report is for {report.relation} at d={report.d}")
    want = RELATION_CASES[relation](d)
    if len(report.cases) != want:
        bad.append(f"{len(report.cases)} cases, want {want}")
    for case in report.cases:
        for key in ("dense_dev", "symbolic_dev"):
            if not case[key] <= TOL:
                bad.append(f"case {case['case']}: {key} {case[key]!r}")
    if report.passed is not True:
        bad.append("report has passed=False")
    return bad


def check_builtin(name: str, d: int, value: np.ndarray) -> list[str]:
    """A builtin diagram's value against the README matrix, entrywise."""
    ref = builtin_matrix(name, d)
    if value.shape != ref.shape:
        return [f"{name} at d={d}: shape {value.shape}, want {ref.shape}"]
    dev = float(np.max(np.abs(value - ref)))
    return [] if dev <= TOL else [f"{name} at d={d}: off by {dev:.3e}"]
