"""Relation suite wiring: named cases, scalars and pass/fail reporting."""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from paradiag.diagrams import RELATION_IDS, check_relation


def test_relation_catalogue_is_complete():
    assert len(RELATION_IDS) == 11
    assert set(RELATION_IDS) == {
        "additive_charge",
        "para_isotopy",
        "twisted_product",
        "string_fourier",
        "quantum_dimension",
        "neutrality",
        "temperley_lieb",
        "resolution_identity",
        "braid",
        "pauli_diagrams",
        "bell_state",
    }


def test_unknown_relation_raises():
    with pytest.raises(KeyError):
        check_relation("knot_invariance", 2)


# relations whose stated sides are exact phases from the zeta table: rounding alone
_ROUNDING_BOUND = {"para_isotopy": 2e-15, "pauli_diagrams": 2e-15}


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("relation", RELATION_IDS)
def test_relations_pass_small_dimensions(relation, d):
    """Every relation at every d the relations command accepts."""
    report = check_relation(relation, d)
    assert report.passed, f"{relation} d={d}: max dev {report.max_dev}"
    assert report.max_dev <= _ROUNDING_BOUND.get(relation, 1e-9)


def test_para_isotopy_d3_case_labels():
    report = check_relation("para_isotopy", 3)
    labels = {c["case"] for c in report.cases}
    assert "adjacent k=1,l=2" in labels and "gap k=2,l=2" in labels


def test_report_dict_shape():
    rep = check_relation("temperley_lieb", 2).as_dict()
    assert rep["pass"] is True
    assert {"relation", "d", "cases", "max_dev", "pass"} <= set(rep)
    assert all({"case", "dense_dev", "symbolic_dev"} <= set(c) for c in rep["cases"])


def _spy_batches(monkeypatch):
    """Record each call an evaluator gets, per backend: its shape, charge rows, scales and value entries."""
    from paradiag.diagrams import dense, symbolic

    calls = {"dense": [], "symbolic": []}
    for backend, module in (("dense", dense), ("symbolic", symbolic)):
        def spy(shape, params, scales, evaluate=module._evaluate_shape, seen=calls[backend]):
            values = evaluate(shape, params, scales)
            seen.append((shape, params.copy(), scales.copy(), values.size))
            return values

        monkeypatch.setattr(module, "_evaluate_shape", spy)
    return calls


def _evaluated_rows(batches) -> Counter:
    """How often each (shape, charge row, scale) was evaluated."""
    return Counter((shape, tuple(row), scale) for shape, params, scales, _ in batches
                   for row, scale in zip(params.tolist(), scales.tolist()))


def _built_rows(relation: str, d: int) -> Counter:
    """The rows a relation's builder makes, each (shape, charge row mod d*d, scale)."""
    from paradiag.diagrams import relations

    rows: dict = {}
    relations._BUILDERS[relation](d, partial(relations._term, rows))
    return Counter((shape, tuple(k % (d * d) for k in charges), complex(scale))
                   for shape, (params, scales) in rows.items() for charges, scale in zip(params, scales))


def test_twisted_product_evaluates_shared_diagrams_once(monkeypatch):
    """Each (k, l) has its same, below and above rows: 108 evaluations at d = 3, not 144."""
    calls = _spy_batches(monkeypatch)
    assert check_relation("twisted_product", 3).passed
    for batches in calls.values():
        evaluated = _evaluated_rows(batches)
        assert sum(evaluated.values()) == len(evaluated) == 108


@pytest.mark.parametrize("relation", RELATION_IDS)
def test_check_relation_evaluates_each_distinct_diagram_once(monkeypatch, relation):
    """Per backend, every row of the built charge matrices is evaluated exactly once, at every d."""
    for d in range(2, 9):
        calls = _spy_batches(monkeypatch)
        assert check_relation(relation, d).passed
        for batches in calls.values():
            assert _evaluated_rows(batches) == _built_rows(relation, d), (relation, d)
        monkeypatch.undo()


def test_relation_chunks_stay_under_the_entry_bound(monkeypatch):
    """No evaluator call, each of one shape, holds more matrix entries than the bound."""
    from paradiag.diagrams import relations

    calls = _spy_batches(monkeypatch)
    per_shape = Counter()
    for d in range(2, 9):
        for relation in RELATION_IDS:
            before = len(calls["dense"])
            check_relation(relation, d)
            per_shape.update((relation, shape) for shape, *_ in calls["dense"][before:])
    sizes = [size for batches in calls.values() for *_, size in batches]
    assert max(sizes) <= relations._CHUNK_ENTRIES
    assert max(sizes) > relations._CHUNK_ENTRIES // 2  # the bound is reached, so it splits the suite
    assert max(per_shape.values()) > 1  # some shape takes more than one call


def test_para_isotopy_gap_shapes_share_batches(monkeypatch):
    """At d = 8 a gap row holds d**4 entries: two fit one call, and each adjacent shape takes one call."""
    calls = _spy_batches(monkeypatch)
    assert check_relation("para_isotopy", 8).passed
    for batches in calls.values():
        gap = [len(params) for shape, params, *_ in batches if shape[1] == 4]
        adjacent = [len(params) for shape, params, *_ in batches if shape[1] == 2]
        assert len(gap) == 64 and min(gap) == 2  # 2 shapes x 64 rows, two at a time
        assert adjacent == [64, 64]
