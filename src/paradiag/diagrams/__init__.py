"""Layered charged-string diagrams: IR, builtins, two evaluators, relation checks."""

from .ir import (
    CAP,
    CUP,
    CHARGE,
    MULTICHARGE,
    BRAID_NEG,
    BRAID_POS,
    STRAND,
    Diagram,
    DiagramError,
    DiagramScale,
    Generator,
    mirror,
    parse_diagram,
)
from .builtins import builtin
from .dense import DiagramValue, evaluate_dense
from .symbolic import closed_value, evaluate_symbolic
from .relations import RELATION_IDS, RelationReport, check_relation
from .random_gen import random_diagram

__all__ = [
    "CAP",
    "CUP",
    "CHARGE",
    "MULTICHARGE",
    "BRAID_NEG",
    "BRAID_POS",
    "STRAND",
    "Diagram",
    "DiagramError",
    "DiagramScale",
    "Generator",
    "mirror",
    "parse_diagram",
    "builtin",
    "DiagramValue",
    "evaluate_dense",
    "closed_value",
    "evaluate_symbolic",
    "RELATION_IDS",
    "RelationReport",
    "check_relation",
    "random_diagram",
]
