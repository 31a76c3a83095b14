"""Built-in diagrams: the single-qudit dictionary, basis states, resources.

The dictionary places charges by the same-height convention: X is charge 1
on the right string, Y is charge -1 on the left string, Z is the twisted
pair (+1 left, -1 right).  Basis kets are side-by-side charged caps with
prefactor d**(-n/4); the corresponding bras carry the opposite charges just
above their cups.  The n-qudit resource state is the nest of n caps with
the same prefactor; its two-qudit case is the shared entangled pair.
"""

from __future__ import annotations

from typing import Sequence

from .ir import (
    BRAID_NEG,
    BRAID_POS,
    CAP,
    CHARGE,
    CUP,
    MULTICHARGE,
    Diagram,
    DiagramError,
    DiagramScale,
    Generator,
)

__all__ = ["builtin", "basis_ket", "matrix_unit"]


def _ket_slices(n: int, labels: Sequence[int]) -> list[Generator]:
    out = [Generator(CAP, pos=2 * j - 1) for j in range(1, n + 1)]
    for j in range(1, n + 1):
        out.append(Generator(CHARGE, pos=2 * j, k=int(labels[j - 1])))
    return out


def _bra_slices(n: int, labels: Sequence[int]) -> list[Generator]:
    out = [Generator(CHARGE, pos=2 * j, k=-int(labels[j - 1])) for j in range(n, 0, -1)]
    out.extend(Generator(CUP, pos=2 * j - 1) for j in range(n, 0, -1))
    return out


def basis_ket(d: int, labels: Sequence[int]) -> Diagram:
    """|labels>: side-by-side charged caps with prefactor d**(-n/4)."""
    n = len(labels)
    return Diagram(d, 0, tuple(_ket_slices(n, labels)), DiagramScale.of(d, quarter=-n))


def matrix_unit(d: int, ket: Sequence[int], bra: Sequence[int]) -> Diagram:
    """|ket><bra|: charged cups on top, charged caps below, prefactor d**(-n/2)."""
    if len(ket) != len(bra):
        raise DiagramError("matrix unit needs equal ket and bra lengths")
    n = len(ket)
    slices = tuple(_bra_slices(n, bra) + _ket_slices(n, ket))
    return Diagram(d, 2 * n, slices, DiagramScale.of(d, sqrtd_exp=-n))


def max_diagram(d: int, n: int) -> Diagram:
    """The n-qudit resource state, prefactor d**(-n/4).

    One outer cap joins string 1 to string 2n; each inner cap straddles a
    qudit-pair boundary (strings 2j, 2j+1), so every string is entangled
    across a cut and the total charge is pinned to zero.
    """
    if n < 1:
        raise DiagramError(f"resource diagram needs n >= 1, got {n}")
    slices = [Generator(CAP, pos=1)]
    slices.extend(Generator(CAP, pos=2 * j) for j in range(1, n))
    return Diagram(d, 0, tuple(slices), DiagramScale.of(d, quarter=-n))


def builtin(name: str, d: int, n: int | None = None) -> Diagram:
    """Construct a named diagram.

    Names: I, X, Y, Z (one qudit), bell, braid_pos, braid_neg, max (needs n).
    Basis kets and matrix units are ``basis_ket`` and ``matrix_unit``.
    """
    if name == "I":
        return Diagram(d, 2, ())
    if name == "X":
        return Diagram(d, 2, (Generator(CHARGE, pos=2, k=1),))
    if name == "Y":
        return Diagram(d, 2, (Generator(CHARGE, pos=1, k=-1),))
    if name == "Z":
        return Diagram(d, 2, (Generator(MULTICHARGE, items=((1, 1), (2, -1))),))
    if name == "bell":
        return max_diagram(d, 2)
    if name == "max":
        if n is None:
            raise DiagramError("builtin 'max' needs the qudit count n")
        return max_diagram(d, n)
    if name == "braid_pos":
        return Diagram(d, 2, (Generator(BRAID_POS, pos=1),))
    if name == "braid_neg":
        return Diagram(d, 2, (Generator(BRAID_NEG, pos=1),))
    raise DiagramError(f"unknown builtin diagram {name!r}")
