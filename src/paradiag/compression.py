"""Compressed-transformation predicates and controlled-form decompositions.

A transformation is Z-compressed on qudit j when it commutes with Pauli Z
there; equivalently it is a controlled transformation with control j, i.e.
block diagonal in qudit j.  X- and Y-compression are the conjugated
notions (FXF^-1 = Z, GXG^-1 = Y^-1 move between the three).

Controlled and X forms are read and written through the block view of T at
j: its matrix reshaped to (d^(j-1), d, d^(n-j)) row axes and the same column
axes, so that no qudit is moved.

Floating point blurs the exact commutant condition, so the commutator norm
is graded relative to the largest entry of T: at most COMPRESS_PASS * max|T|
is compressed, above COMPRESS_FAIL * max|T| is not, anything between is
reported indeterminate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Operator, ShapeError, embed_operator, fourier, gauss, pauli
from .scalars import Tolerance

__all__ = [
    "NotBlockDiagonal",
    "NotXCompressed",
    "ControlledDecomposition",
    "XDecomposition",
    "COMPRESS_PASS",
    "COMPRESS_FAIL",
    "commutator_norm",
    "is_compressed",
    "compression_verdict",
    "controlled_blocks",
    "x_components",
    "assemble_controlled",
    "verify_compressed_witness",
]

COMPRESS_PASS = 1e-9
COMPRESS_FAIL = 1e-6


class NotBlockDiagonal(ValueError):
    """Raised when off-diagonal control blocks exceed tolerance."""


class NotXCompressed(ValueError):
    """Raised when the operator fails the X-compression predicate."""


@dataclass(frozen=True)
class ControlledDecomposition:
    """T = sum_l |l><l|_j (x) blocks[l]; control_qudit is 1-based."""

    control_qudit: int
    blocks: tuple[Operator, ...]


@dataclass(frozen=True)
class XDecomposition:
    """T = sum_l X^l_j (x) components[l]."""

    qudit: int
    components: tuple[Operator, ...]


def commutator_norm(op: Operator, j: int, axis: str) -> float:
    """Max-entry norm of [T, P_j] for the chosen Pauli embedded at qudit j."""
    if j < 1 or j > op.n:
        raise ShapeError(f"qudit index {j} out of range for n={op.n}")
    p = embed_operator(pauli(op.d, axis), [j], op.n).mat
    return float(np.max(np.abs(op.mat @ p - p @ op.mat)))


def is_compressed(op: Operator, j: int, axis: str, tol: Tolerance = Tolerance()) -> bool:
    return commutator_norm(op, j, axis) <= tol.eps


def compression_verdict(op: Operator, j: int, axis: str) -> str:
    """Graded predicate: 'compressed', 'not_compressed' or 'indeterminate'."""
    c = commutator_norm(op, j, axis)
    scale = max(float(np.max(np.abs(op.mat))), 1e-300)
    if c <= COMPRESS_PASS * scale:
        return "compressed"
    if c > COMPRESS_FAIL * scale:
        return "not_compressed"
    return "indeterminate"


def _block_view(mat: np.ndarray, d: int, j: int, n: int) -> np.ndarray:
    """View of an n-qudit matrix as (before, j, after, before, j, after) axes.

    Entry [:, r, :, :, c, :] is the block of T between |r> and |c> on qudit j,
    with rows and columns over the other qudits in register order.
    """
    rest = (d ** (j - 1), d, d ** (n - j))
    return mat.reshape(rest + rest)


def controlled_blocks(op: Operator, j: int, tol: Tolerance = Tolerance()) -> ControlledDecomposition:
    """Read the controlled blocks T(l) off the block view of T at qudit j."""
    d, n = op.d, op.n
    if j < 1 or j > n:
        raise ShapeError(f"qudit index {j} out of range for n={n}")
    if n < 2:
        raise ShapeError("controlled decomposition needs at least 2 qudits")
    view = _block_view(op.mat, d, j, n)
    size = d ** (n - 1)
    blocks = []
    for row in range(d):
        for col in range(d):
            blk = view[:, row, :, :, col, :].reshape(size, size)
            if row == col:
                blocks.append(Operator(d, n - 1, blk))
            elif np.max(np.abs(blk)) > tol.eps:
                raise NotBlockDiagonal(
                    f"off-diagonal block ({row},{col}) has norm {np.max(np.abs(blk)):.3e}"
                )
    return ControlledDecomposition(j, tuple(blocks))


def assemble_controlled(blocks: list[Operator] | tuple[Operator, ...], j: int, n: int) -> Operator:
    """Build sum_l |l><l|_j (x) blocks[l] with the control at 1-based qudit j."""
    blocks = tuple(blocks)
    if not blocks:
        raise ShapeError("need at least one block")
    d = blocks[0].d
    if len(blocks) != d:
        raise ShapeError(f"need exactly d={d} blocks, got {len(blocks)}")
    if any(b.n != n - 1 or b.d != d for b in blocks):
        raise ShapeError(f"every block must be a {n - 1}-qudit operator of dimension {d}")
    mat = np.zeros((d**n, d**n), dtype=complex)
    view = _block_view(mat, d, j, n)
    shape = view[:, 0, :, :, 0, :].shape
    for l, blk in enumerate(blocks):
        view[:, l, :, :, l, :] = blk.mat.reshape(shape)
    return Operator(d, n, mat)


def x_components(op: Operator, j: int, tol: Tolerance = Tolerance()) -> XDecomposition:
    """Extract T'(l) with T = sum_l X^l_j (x) T'(l).

    Conjugating qudit j by F turns X-compression into Z-compression; the
    controlled blocks S(l) of the conjugate are the DFT of the components,
    so an inverse transform recovers them.
    """
    d = op.d
    if not is_compressed(op, j, "X", tol):
        raise NotXCompressed(f"commutator with X_{j} has norm {commutator_norm(op, j, 'X'):.3e}")
    f_j = embed_operator(fourier(d), [j], op.n)
    ctrl = controlled_blocks(f_j @ op @ f_j.adjoint(), j, tol)
    q_mat = fourier(d).mat * np.sqrt(d)  # q**(l*m) table
    comps = []
    for m in range(d):
        acc = np.zeros_like(ctrl.blocks[0].mat)
        for l in range(d):
            acc += np.conj(q_mat[m, l]) * ctrl.blocks[l].mat
        comps.append(Operator(d, op.n - 1, acc / d))
    return XDecomposition(j, tuple(comps))


def assemble_x_form(components: list[Operator] | tuple[Operator, ...], j: int, n: int) -> Operator:
    """Build sum_l X^l_j (x) components[l].

    X^l maps |c> to |c + l>, so components[l] fills block ((c + l) % d, c)
    of the block view at qudit j for every c.
    """
    components = tuple(components)
    d = components[0].d
    if len(components) != d:
        raise ShapeError(f"need exactly d={d} components, got {len(components)}")
    mat = np.zeros((d**n, d**n), dtype=complex)
    view = _block_view(mat, d, j, n)
    shape = view[:, 0, :, :, 0, :].shape
    for l, comp in enumerate(components):
        for c in range(d):
            view[:, (c + l) % d, :, :, c, :] = comp.mat.reshape(shape)
    return Operator(d, n, mat)


def y_to_x_transport(op: Operator, j: int) -> Operator:
    """G^-1_j T G_j: Y-compression of T at j becomes X-compression here."""
    g_j = embed_operator(gauss(op.d), [j], op.n)
    return g_j.adjoint() @ op @ g_j


def verify_compressed_witness(
    tp: Operator, t: Operator, u: Operator, v: Operator, j: int, tol: Tolerance = Tolerance()
) -> bool:
    """Check the witness (U, V, T) for T' = U_j T V_j with T Z-compressed at j.

    U and V are required to be unitary 1-qudit transformations; the
    reconstruction and the Z-compression of T are both verified.
    """
    if u.n != 1 or v.n != 1:
        raise ShapeError("witness transformations must act on a single qudit")
    if (tp.d, tp.n) != (t.d, t.n):
        raise ShapeError("T' and T must have matching shape")
    if not (u.is_unitary(tol) and v.is_unitary(tol)):
        return False
    recon = embed_operator(u, [j], t.n) @ t @ embed_operator(v, [j], t.n)
    if np.max(np.abs(recon.mat - tp.mat)) > tol.eps:
        return False
    return is_compressed(t, j, "Z", tol)
