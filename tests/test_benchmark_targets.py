"""The benchmark tracer wraps paradiag functions by name; each must exist."""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, _ in module.TARGETS]


def test_every_trace_target_resolves_to_a_callable():
    targets = _targets()
    assert len(targets) == 18
    missing = [f"{mod}.{name}" for mod, name in targets
               if not callable(getattr(import_module(mod), name, None))]
    assert missing == []
