"""Layered slice IR for charged-string diagrams.

A diagram is read top (input) to bottom (output) as an ordered list of
slices.  Each slice touches strings by 1-based position within the current
width; a cap inserts two adjacent strings at its position, a cup removes
two.  The qudit pairing is consecutive strings (2i-1, 2i), so boundary
point counts must be even.

Charges are integers and are kept unreduced in the IR: the same-height
(multicharge) convention distinguishes k from k+d, so reduction mod d is
only ever performed by the additive-charge rewrite on a single string.
Vertical order of charges is explicit in the slice list; exchanging it is a
rewrite that inserts a q**(k*l) phase, never a silent isotopy.

Scalar prefactors of diagrams live in :class:`DiagramScale`: an exact
``PhaseExponent`` together with an extra exponent of d**(1/4).  The quarter
powers are the per-cap normalization of basis diagrams (d**(-n/4) for n
caps), which is a half-integer power of sqrt(d) when n is odd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from ..scalars import PhaseExponent

__all__ = [
    "STRAND",
    "CAP",
    "CUP",
    "CHARGE",
    "MULTICHARGE",
    "BRAID_POS",
    "BRAID_NEG",
    "DiagramError",
    "Generator",
    "DiagramScale",
    "Diagram",
    "parse_diagram",
    "diagram_to_json",
    "mirror",
    "trace_strands",
    "turn_excess",
]

STRAND = "strand"
CAP = "cap"
CUP = "cup"
CHARGE = "charge"
MULTICHARGE = "multicharge"
BRAID_POS = "braid_pos"
BRAID_NEG = "braid_neg"

_KINDS = (STRAND, CAP, CUP, CHARGE, MULTICHARGE, BRAID_POS, BRAID_NEG)


class DiagramError(ValueError):
    """Malformed diagram document or width/boundary violation."""


@dataclass(frozen=True)
class Generator:
    """One slice: kind, leftmost touched string, charge data."""

    kind: str
    pos: int = 1
    k: int = 0
    items: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DiagramError(f"unknown generator kind {self.kind!r}")
        if self.kind == MULTICHARGE:
            items = tuple(sorted((int(p), int(k)) for p, k in self.items))
            if not items:
                raise DiagramError("multicharge needs at least one item")
            if len({p for p, _ in items}) != len(items):
                raise DiagramError("multicharge items must sit on distinct strings")
            object.__setattr__(self, "items", items)


@dataclass(frozen=True)
class DiagramScale:
    """Exact prefactor zeta**a * d**(b/2) * d**(q4/4)."""

    phase: PhaseExponent
    quarter: int = 0

    @classmethod
    def one(cls, d: int) -> "DiagramScale":
        return cls(PhaseExponent.one(d))

    @classmethod
    def of(cls, d: int, zeta_exp: int = 0, sqrtd_exp: int = 0, quarter: int = 0) -> "DiagramScale":
        return cls(PhaseExponent(d, zeta_exp, sqrtd_exp), quarter)

    def __mul__(self, other: "DiagramScale") -> "DiagramScale":
        return DiagramScale(self.phase * other.phase, self.quarter + other.quarter)

    def to_complex(self) -> complex:
        return self.phase.to_complex() * self.phase.d ** (self.quarter / 4)


@dataclass(frozen=True)
class Diagram:
    """Validated layered diagram with exact scalar prefactor."""

    d: int
    top: int
    slices: tuple[Generator, ...]
    scale: DiagramScale = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DiagramError(f"invalid dimension {self.d}")
        if self.scale is None:
            object.__setattr__(self, "scale", DiagramScale.one(self.d))
        if self.top < 0 or self.top % 2:
            raise DiagramError(f"top boundary must be even and nonnegative, got {self.top}")
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "_widths", self._check_widths())

    def _check_widths(self) -> tuple[int, ...]:
        width = self.top
        widths = [width]
        for i, s in enumerate(self.slices):
            if s.kind == CAP:
                if not 1 <= s.pos <= width + 1:
                    raise DiagramError(f"slice {i}: cap position {s.pos} outside [1, {width + 1}]")
                width += 2
            elif s.kind == CUP:
                if width < 2 or not 1 <= s.pos <= width - 1:
                    raise DiagramError(f"slice {i}: cup position {s.pos} invalid at width {width}")
                width -= 2
            elif s.kind in (BRAID_POS, BRAID_NEG):
                if width < 2 or not 1 <= s.pos <= width - 1:
                    raise DiagramError(f"slice {i}: braid position {s.pos} invalid at width {width}")
            elif s.kind in (CHARGE, STRAND):
                if not 1 <= s.pos <= width:
                    raise DiagramError(f"slice {i}: position {s.pos} outside [1, {width}]")
            elif s.kind == MULTICHARGE:
                for p, _ in s.items:
                    if not 1 <= p <= width:
                        raise DiagramError(f"slice {i}: multicharge position {p} outside [1, {width}]")
            widths.append(width)
        if width % 2:
            raise DiagramError(f"bottom boundary {width} is odd")
        return tuple(widths)

    @property
    def widths(self) -> tuple[int, ...]:
        """String count before each slice, plus the final count."""
        return self._widths  # type: ignore[attr-defined]

    @property
    def bottom(self) -> int:
        return self.widths[-1]

    @property
    def n_in(self) -> int:
        return self.top // 2

    @property
    def n_out(self) -> int:
        return self.bottom // 2

    def has_braids(self) -> bool:
        return any(s.kind in (BRAID_POS, BRAID_NEG) for s in self.slices)


# --- charge-free shapes ----------------------------------------------------
#
# Everything both evaluators derive from a diagram's topology (strand
# traces, turn counts, the symbolic reduction) depends on its shape alone:
# d, the top width, and each slice's kind, position and multicharge item
# positions.  Charge values and the scale are left out, so diagrams that
# differ only in charges share one shape and one compiled form.

_SHAPE_CACHE_SIZE = 512  # per shape-keyed cache; the relation suite at d = 2..8 has 147 shapes


def _shape(diag: Diagram) -> tuple:
    """The charge-free shape ``(d, top, ((kind, pos, item positions), ...))``."""
    return (diag.d, diag.top, tuple((s.kind, s.pos, tuple(p for p, _ in s.items) if s.items else ())
                                    for s in diag.slices))


def _n_out(shape: tuple) -> int:
    """The output qudits of a charge-free shape."""
    return shape[1] // 2 + sum((kind == CAP) - (kind == CUP) for kind, _, _ in shape[2])


def _params(diag: Diagram) -> tuple[int, ...]:
    """The diagram's charge values in shape order, mod d*d.

    Shape order is slice order, a multicharge's items rightmost first.
    Reducing mod d*d moves no zeta exponent mod d*d and no loop total or
    frame exponent mod d, so integer forms stay small whatever charges the
    diagram carries.
    """
    dd = diag.d * diag.d
    values = []
    for s in diag.slices:
        if s.kind == MULTICHARGE:
            values += [k % dd for _, k in reversed(s.items)]
        elif s.kind == CHARGE:
            values.append(s.k % dd)
    return tuple(values)


def _int_field(value: object, what: str) -> int:
    """``value`` if it is a JSON integer, not a float or a boolean."""
    if type(value) is not int:
        raise DiagramError(f"{what} must be an integer, got {value!r}")
    return value


def _slice_from_doc(i: int, doc: object) -> Generator:
    if not isinstance(doc, dict):
        raise DiagramError(f"slice {i}: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise DiagramError(f"slice {i}: unknown kind {kind!r}")
    if kind == MULTICHARGE:
        items = doc.get("items")
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise DiagramError(f"slice {i}: multicharge needs an 'items' list of objects")
        try:
            pairs = tuple((_int_field(item["pos"], f"slice {i}: item position"),
                           _int_field(item["k"], f"slice {i}: item charge")) for item in items)
        except KeyError as exc:
            raise DiagramError(f"slice {i}: multicharge item without {exc}") from exc
        return Generator(MULTICHARGE, items=pairs)
    pos = _int_field(doc.get("pos", 1), f"slice {i}: position")
    k = 0
    if kind == CHARGE:
        if "k" not in doc:
            raise DiagramError(f"slice {i}: charge needs a value 'k'")
        k = _int_field(doc["k"], f"slice {i}: charge")
    return Generator(kind, pos=pos, k=k)


def parse_diagram(text: str) -> Diagram:
    """Parse the JSON diagram document; errors carry line/slice context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DiagramError("diagram document must be a JSON object")
    for key in ("d", "top"):
        if key not in doc:
            raise DiagramError(f"missing required field {key!r}")
    d, top = _int_field(doc["d"], "'d'"), _int_field(doc["top"], "'top'")
    if d < 1:  # before the prefactor, whose exact phase needs a dimension
        raise DiagramError(f"invalid dimension {d}")
    slices = doc.get("slices", [])
    if not isinstance(slices, list):
        raise DiagramError("'slices' must be a list")
    gens = tuple(_slice_from_doc(i, s) for i, s in enumerate(slices))
    pf = doc.get("prefactor", {})
    if not isinstance(pf, dict):
        raise DiagramError("'prefactor' must be an object")
    exps = (_int_field(pf.get(key, 0), f"prefactor {key!r}") for key in ("zeta_exp", "sqrtd_exp", "d4_exp"))
    return Diagram(d, top, gens, DiagramScale.of(d, *exps))


def diagram_to_json(diag: Diagram) -> str:
    slices = []
    for s in diag.slices:
        if s.kind == MULTICHARGE:
            slices.append({"kind": s.kind, "items": [{"pos": p, "k": k} for p, k in s.items]})
        elif s.kind == CHARGE:
            slices.append({"kind": s.kind, "pos": s.pos, "k": s.k})
        else:
            slices.append({"kind": s.kind, "pos": s.pos})
    doc: dict = {"d": diag.d, "top": diag.top, "slices": slices}
    pf: dict = {}
    if diag.scale.phase.zeta_exp or diag.scale.phase.sqrtd_exp or diag.scale.phase.zero_flag:
        pf = {"zeta_exp": diag.scale.phase.zeta_exp, "sqrtd_exp": diag.scale.phase.sqrtd_exp}
    if diag.scale.quarter:
        pf.setdefault("zeta_exp", 0)
        pf.setdefault("sqrtd_exp", 0)
        pf["d4_exp"] = diag.scale.quarter
    if pf:
        doc["prefactor"] = pf
    return json.dumps(doc, sort_keys=True)


def mirror(diag: Diagram) -> Diagram:
    """Charge-inverting vertical reflection; evaluates to the adjoint.

    Caps and cups swap, charges negate, braids swap handedness, and the
    scalar prefactor is conjugated.
    """
    flipped: list[Generator] = []
    for s in reversed(diag.slices):
        if s.kind == CAP:
            flipped.append(Generator(CUP, pos=s.pos))
        elif s.kind == CUP:
            flipped.append(Generator(CAP, pos=s.pos))
        elif s.kind == CHARGE:
            flipped.append(Generator(CHARGE, pos=s.pos, k=-s.k))
        elif s.kind == MULTICHARGE:
            flipped.append(Generator(MULTICHARGE, items=tuple((p, -k) for p, k in s.items)))
        elif s.kind == BRAID_POS:
            flipped.append(Generator(BRAID_NEG, pos=s.pos))
        elif s.kind == BRAID_NEG:
            flipped.append(Generator(BRAID_POS, pos=s.pos))
        else:
            flipped.append(s)
    scale = DiagramScale(diag.scale.phase.conjugate(), diag.scale.quarter)
    return Diagram(diag.d, diag.bottom, tuple(flipped), scale)


# --- strand topology -------------------------------------------------------
#
# Both evaluators need the strand structure of a charge-free shape: the
# symbolic engine to know left/right column order and cap/cup legs, the
# dense one to count turns.  Braids do not change connectivity (their
# expansion is charges on parallel strings), so they are transparent here.


@dataclass
class StrandTrace:
    """Column-level topology of a shape.

    Columns are maximal vertical string segments; ids are allocated in
    discovery order, the top boundary's strings first.  ``key`` gives a
    static horizontal order: coexisting columns always compare consistently.
    """

    bottom_cols: list[int]
    key: dict[int, Fraction]
    cap_legs: dict[int, tuple[int, int]]  # slice index -> (left col, right col)
    cup_legs: dict[int, tuple[int, int]]
    charge_cols: dict[int, int]  # slice index -> column (single-charge slices)


def trace_strands(shape: tuple) -> StrandTrace:
    """The column topology of a charge-free shape (``_shape``)."""
    _, top, slices = shape
    frontier: list[int] = list(range(top))
    next_id = top
    key: dict[int, Fraction] = {i: Fraction(i) for i in frontier}
    cap_legs: dict[int, tuple[int, int]] = {}
    cup_legs: dict[int, tuple[int, int]] = {}
    charge_cols: dict[int, int] = {}

    def key_between(p: int) -> tuple[Fraction, Fraction]:
        lo = key[frontier[p - 2]] if p >= 2 else key[frontier[0]] - 2 if frontier else Fraction(-2)
        hi = key[frontier[p - 1]] if p - 1 < len(frontier) else (
            key[frontier[-1]] + 2 if frontier else Fraction(2)
        )
        step = (hi - lo) / 3
        return lo + step, lo + 2 * step

    for i, (kind, pos, _) in enumerate(slices):
        if kind == CAP:
            a, b = next_id, next_id + 1
            next_id += 2
            ka, kb = key_between(pos)
            key[a], key[b] = ka, kb
            frontier[pos - 1 : pos - 1] = [a, b]
            cap_legs[i] = (a, b)
        elif kind == CUP:
            a, b = frontier[pos - 1], frontier[pos]
            del frontier[pos - 1 : pos + 1]
            cup_legs[i] = (a, b)
        elif kind == CHARGE:
            charge_cols[i] = frontier[pos - 1]
    return StrandTrace(
        bottom_cols=list(frontier),
        key=key,
        cap_legs=cap_legs,
        cup_legs=cup_legs,
        charge_cols=charge_cols,
    )


def turn_excess(shape: tuple) -> int:
    """Caps+cups of a shape's matrix-entry closure beyond the minimum its topology needs.

    The qudit pairs (2i-1, 2i) on both boundaries are capped off first, as
    in the matrix-entry closures, so every strand is a loop and needs two
    turns: the excess is the arc count less twice the loop count, always even.
    """
    trace = trace_strands(shape)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs = list(trace.cap_legs.values()) + list(trace.cup_legs.values())
    for cols in (range(shape[1]), trace.bottom_cols):  # the top columns are 0 .. top - 1
        arcs.extend((cols[2 * i], cols[2 * i + 1]) for i in range(len(cols) // 2))
    for a, b in arcs:
        parent[find(a)] = find(b)
    return len(arcs) - 2 * len({find(a) for a, _ in arcs})
