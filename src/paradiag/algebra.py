"""Dense qudit states and operators, generalized Pauli family, resource states.

Index encoding is big-endian: for ``n`` qudits of dimension ``d`` the basis
state |k_1, ..., k_n> sits at flat index ``k_1*d**(n-1) + ... + k_n``, so
qudit 1 is the most significant digit and the leftmost tensor factor.
Qudit positions in the public API are 1-based.

Matrix conventions: rows are output indices, columns input indices, and

    X|k> = |k+1>,   Y|k> = zeta**(1-2k)|k-1>,   Z|k> = q**k|k>,
    F|k> = d**-0.5 * sum_l q**(k*l)|l>,   G|k> = zeta**(k*k)|k>

with indices mod d.

``apply_to_qudits`` is the one kernel that applies an operator to chosen
qudits.  An n-qudit operator T also reads as a 2n-qudit register whose qudits
1..n index its rows and n+1..2n its columns: A on qudit j of it gives A_j T,
and B^T on qudit n+j gives T B_j.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scalars import DimensionError, Tolerance, zeta

__all__ = [
    "ShapeError",
    "StateVector",
    "Operator",
    "pauli",
    "fourier",
    "gauss",
    "ghz_state",
    "max_state",
    "prepare_max",
    "embed_operator",
    "apply_to_qudits",
    "partial_trace",
    "basis_state",
    "random_unitary",
    "operator_to_json",
    "operator_from_json",
    "state_to_json",
    "state_from_json",
]


class ShapeError(ValueError):
    """Raised when array shapes are inconsistent with the declared (d, n)."""


def _check_dim(d: int, minimum: int = 2) -> None:
    if not isinstance(d, (int, np.integer)) or d < minimum:
        raise DimensionError(f"invalid dimension d={d!r} (need integer >= {minimum})")


@dataclass(frozen=True)
class StateVector:
    """Dense state on (C^d)^(x n); amps has length exactly d**n."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.d**self.n,):
            raise ShapeError(f"state needs {self.d**self.n} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self, other: "StateVector") -> "StateVector":
        if self.d != other.d:
            raise DimensionError("tensor factors must share d")
        return StateVector(self.d, self.n + other.n, np.kron(self.amps, other.amps))


@dataclass(frozen=True)
class Operator:
    """Dense operator on (C^d)^(x n); row = output index, column = input."""

    d: int
    n: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        dim = self.d**self.n
        if mat.shape != (dim, dim):
            raise ShapeError(f"operator needs shape {(dim, dim)}, got {mat.shape}")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def identity(cls, d: int, n: int = 1) -> "Operator":
        return cls(d, n, np.eye(d**n))

    def __matmul__(self, other: "Operator") -> "Operator":
        if (self.d, self.n) != (other.d, other.n):
            raise ShapeError("composition needs matching (d, n)")
        return Operator(self.d, self.n, self.mat @ other.mat)

    def tensor(self, other: "Operator") -> "Operator":
        if self.d != other.d:
            raise DimensionError("tensor factors must share d")
        return Operator(self.d, self.n + other.n, np.kron(self.mat, other.mat))

    def adjoint(self) -> "Operator":
        return Operator(self.d, self.n, self.mat.conj().T)

    def is_unitary(self, tol: Tolerance = Tolerance()) -> bool:
        dim = self.d**self.n
        return bool(np.max(np.abs(self.mat @ self.mat.conj().T - np.eye(dim))) <= tol.eps)

    def apply(self, state: StateVector) -> StateVector:
        if (self.d, self.n) != (state.d, state.n):
            raise ShapeError("operator/state mismatch")
        return StateVector(self.d, self.n, self.mat @ state.amps)


def pauli(d: int, which: str) -> Operator:
    """Generalized Pauli X, Y or Z of dimension d."""
    _check_dim(d)
    z = zeta(d)
    mat = np.zeros((d, d), dtype=complex)
    if which == "X":
        for k in range(d):
            mat[(k + 1) % d, k] = 1.0
    elif which == "Y":
        for k in range(d):
            mat[(k - 1) % d, k] = z ** ((1 - 2 * k) % (d * d))
    elif which == "Z":
        for k in range(d):
            mat[k, k] = z ** ((2 * k) % (d * d))
    else:
        raise ValueError(f"unknown Pauli {which!r} (expected 'X', 'Y' or 'Z')")
    return Operator(d, 1, mat)


def fourier(d: int) -> Operator:
    """Quantum Fourier transform F with entries d**-0.5 * q**(k*l)."""
    _check_dim(d)
    z = zeta(d)
    k = np.arange(d)
    mat = z ** ((2 * np.outer(k, k)) % (d * d)) / np.sqrt(d)
    return Operator(d, 1, mat)


def gauss(d: int) -> Operator:
    """Gaussian diagonal G with entries zeta**(k*k)."""
    _check_dim(d)
    z = zeta(d)
    return Operator(d, 1, np.diag([z ** ((k * k) % (d * d)) for k in range(d)]))


def basis_state(d: int, ks: Sequence[int]) -> StateVector:
    n = len(ks)
    amps = np.zeros(d**n, dtype=complex)
    idx = 0
    for k in ks:
        idx = idx * d + (int(k) % d)
    amps[idx] = 1.0
    return StateVector(d, n, amps)


def ghz_state(d: int, n: int) -> StateVector:
    """d**-0.5 * sum_k |k, k, ..., k>."""
    _check_dim(d)
    if n < 1:
        raise DimensionError(f"need n >= 1 qudits, got {n}")
    amps = np.zeros(d**n, dtype=complex)
    step = (d**n - 1) // (d - 1)  # index of |k,...,k> is k * (1 + d + ... + d^(n-1))
    amps[np.arange(d) * step] = 1 / np.sqrt(d)
    return StateVector(d, n, amps)


def max_state(d: int, n: int) -> StateVector:
    """Uniform superposition d**((1-n)/2) over the zero-total-charge sector."""
    _check_dim(d)
    if n < 1:
        raise DimensionError(f"need n >= 1 qudits, got {n}")
    amps = np.zeros(d**n, dtype=complex)
    digits = np.indices([d] * n).reshape(n, -1).sum(axis=0) % d
    amps[digits == 0] = d ** ((1 - n) / 2)
    return StateVector(d, n, amps)


def prepare_max(d: int, n: int) -> StateVector:
    """Resource-state preparation: (F^-1)^(x n) applied to the GHZ state."""
    f_inv = fourier(d).adjoint().mat
    state = ghz_state(d, n)
    for j in range(1, n + 1):
        state = apply_to_qudits(f_inv, state, (j,))
    return state


def _controlled_add(d: int) -> np.ndarray:
    """Two-qudit adder |l, k> -> |l, k + l>."""
    mat = np.zeros((d * d, d * d), dtype=complex)
    for l in range(d):
        for k in range(d):
            mat[l * d + (k + l) % d, l * d + k] = 1.0
    return mat


def _to_front(state: StateVector, qudits: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The amplitudes as a (d**m, rest) matrix over the listed (1-based) qudits, and the axis order."""
    d, n = state.d, state.n
    if len(set(qudits)) != len(qudits) or any(q < 1 or q > n for q in qudits):
        raise ShapeError(f"bad qudit selection {qudits!r} for n={n}")
    axes = [q - 1 for q in qudits]
    order = axes + [i for i in range(n) if i not in axes]
    return state.amps.reshape([d] * n).transpose(order).reshape(d ** len(axes), -1), order


def apply_to_qudits(op_mat: np.ndarray, state: StateVector, qudits: Sequence[int]) -> StateVector:
    """Apply a d**m x d**m matrix to the listed (1-based, distinct) qudits."""
    psi, order = _to_front(state, qudits)
    if op_mat.shape != (len(psi), len(psi)):
        raise ShapeError(f"operator shape {op_mat.shape} does not match {len(qudits)} qudits")
    psi = (op_mat @ psi).reshape([state.d] * state.n).transpose(np.argsort(order))
    return StateVector(state.d, state.n, psi.reshape(-1))


def embed_operator(op: Operator, qudits: Sequence[int], n: int) -> Operator:
    """Embed op onto the listed qudits of an n-qudit register: op on the rows of the identity."""
    if any(q > n for q in qudits):
        raise ShapeError(f"qudit positions {qudits!r} out of range for n={n}")
    eye = StateVector(op.d, 2 * n, np.eye(op.d**n).reshape(-1))
    return Operator(op.d, n, apply_to_qudits(op.mat, eye, qudits).amps.reshape(op.d**n, -1))


def partial_trace(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept (1-based) qudits."""
    psi, _ = _to_front(state, keep)
    return psi @ psi.conj().T


def random_unitary(d: int, n: int, rng: np.random.Generator) -> Operator:
    """Haar-ish unitary from QR of a complex Gaussian matrix."""
    dim = d**n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Operator(d, n, q)


# --- JSON interchange: {"d", "n", "re", "im"}, row-major for operators, ---
# --- index-major for states.                                            ---

def operator_to_json(op: Operator) -> str:
    flat = op.mat.reshape(-1)
    return json.dumps(
        {"d": op.d, "n": op.n, "re": flat.real.tolist(), "im": flat.imag.tolist()},
        sort_keys=True,
    )


def _json_dims(source: str | dict, what: str) -> tuple[dict, int, int]:
    """The JSON object ``source`` (text, or already parsed) and its integer fields d and n.

    A document that is not an object, or a d or n that is not a JSON
    integer (a float, a boolean, a list), or a d below 2 or an n below 0,
    is a ShapeError.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise ShapeError(f"{what} must be a JSON object")
    d, n = doc["d"], doc["n"]
    if type(d) is not int or type(n) is not int:
        raise ShapeError(f"{what} needs integer 'd' and 'n', got {d!r} and {n!r}")
    if d < 2 or n < 0:
        raise ShapeError(f"{what} needs 'd' >= 2 and 'n' >= 0, got d={d} and n={n}")
    return doc, d, n


def _json_entries(doc: dict, size: int, what: str) -> np.ndarray:
    """re + 1j*im of ``doc``, each a flat list of ``size`` finite JSON numbers, else a ShapeError."""
    parts = (doc["re"], doc["im"])
    if not all(isinstance(xs, list) and len(xs) == size
               and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in xs) for xs in parts):
        raise ShapeError(f"{what} needs 're' and 'im' as lists of {size} finite numbers")
    re, im = np.array(parts, dtype=float)
    return re + 1j * im


def operator_from_json(source: str | dict) -> Operator:
    doc, d, n = _json_dims(source, "operator JSON")
    dim = d**n
    return Operator(d, n, _json_entries(doc, dim * dim, "operator JSON").reshape(dim, dim))


def state_to_json(state: StateVector) -> str:
    return json.dumps(
        {"d": state.d, "n": state.n, "re": state.amps.real.tolist(), "im": state.amps.imag.tolist()},
        sort_keys=True,
    )


def state_from_json(source: str | dict) -> StateVector:
    doc, d, n = _json_dims(source, "state JSON")
    return StateVector(d, n, _json_entries(doc, d**n, "state JSON"))
