"""Spans around paradiag's public functions, recorded from outside the program.

Each wrapped function gets a span with its name, start, end and parent span;
every span made while one operation runs carries that operation's id.  A
function is wrapped by replacing the attribute in every paradiag module that
holds it (``paradiag.protocol.apply_to_qudits`` as well as
``paradiag.algebra.apply_to_qudits``), so calls between modules are seen
too.  Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np


def _diagram_counts(tr: "Tracer", diag) -> None:
    d, cols = diag.d, diag.d**diag.n_in
    tr.counts["diagrams.dense.cells_computed"] += sum(d**w * cols for w in diag.widths[1:])
    for s in diag.slices:
        kind = "braid" if s.kind.startswith("braid") else s.kind
        tr.counts[f"diagrams.dense.slices.{kind}"] += 1


def _symbolic_counts(tr: "Tracer", diag, value) -> None:
    terms = diag.d ** sum(s.kind.startswith("braid") for s in diag.slices)
    tr.counts["diagrams.symbolic.terms"] += terms
    tr.counts["diagrams.symbolic.entries"] += terms * diag.d ** (diag.n_in + diag.n_out)
    tr.counts["diagrams.symbolic.nonzero_entries"] += int(np.count_nonzero(value.array))


# (module, function, hook).  A hook gets the tracer, the span, the result and
# the call's arguments, and adds the counts that the call's inputs or output
# determine.  Byte counts are 2 x 16 bytes per complex entry written: the
# operation's result plus the one full-size intermediate it copies through.
TARGETS = [
    ("paradiag.protocol", "run_mct_controlled",
     lambda tr, sp, res, *a, **k: tr.add("protocol.branches", len(res.branches))),
    ("paradiag.protocol", "run_mct_xcompressed",
     lambda tr, sp, res, *a, **k: tr.add("protocol.branches", len(res.branches))),
    ("paradiag.protocol", "measure_qudit", None),
    ("paradiag.protocol", "target_unitary", None),
    ("paradiag.protocol", "target_unitary_xcompressed", None),
    ("paradiag.algebra", "apply_to_qudits",
     lambda tr, sp, res, op_mat, state, qudits: tr.add(
         "algebra.apply_to_qudits.bytes_computed", 2 * 16 * state.d**state.n)),
    ("paradiag.algebra", "embed_operator",
     lambda tr, sp, res, op, qudits, n: tr.add(
         "algebra.embed_operator.bytes_computed", 2 * 16 * op.d ** (2 * n))),
    ("paradiag.algebra", "prepare_max", None),
    ("paradiag.algebra", "ghz_state", None),
    ("paradiag.compression", "assemble_controlled", None),
    ("paradiag.compression", "is_compressed", None),
    ("paradiag.scalars", "global_phase_deviation", None),
    ("paradiag.diagrams.dense", "evaluate_dense",
     lambda tr, sp, res, diag: _diagram_counts(tr, diag)),
    ("paradiag.diagrams.symbolic", "evaluate_symbolic",
     lambda tr, sp, res, diag: _symbolic_counts(tr, diag, res)),
    ("paradiag.diagrams.relations", "check_relation",
     lambda tr, sp, res, relation_id, *a, **k: sp.append(relation_id)),
    ("paradiag.diagrams.ir", "parse_diagram", None),
    ("paradiag.diagrams.ir", "trace_strands", None),
    ("paradiag.diagrams.ir", "turn_excess", None),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, tag...]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every paradiag module; restore on exit."""
        patched = []
        try:
            for module, func, hook in TARGETS:
                original = getattr(import_module(module), func)
                wrapper = self.wrap(f"{module.removeprefix('paradiag.')}.{func}", original, hook)
                for mod in [m for name, m in sys.modules.items() if name.startswith("paradiag")]:
                    if getattr(mod, func, None) is original:
                        setattr(mod, func, wrapper)
                        patched.append((mod, func, original))
            yield
        finally:
            for mod, func, original in reversed(patched):
                setattr(mod, func, original)

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self time and call count per span name, and inclusive time per tag."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        tagged: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, *tag), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
            if tag:
                tagged[tag[0]] += end - start
        return self_s, calls, tagged

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"], "names": names,
                       "spans": rows}, fh, separators=(",", ":"))
