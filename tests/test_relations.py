"""Relation suite wiring: named cases, scalars and pass/fail reporting."""

from __future__ import annotations

import numpy as np
import pytest

from paradiag.diagrams import RELATION_IDS, check_relation
from paradiag.diagrams.ir import _shape


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


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("relation", RELATION_IDS)
def test_relations_pass_small_dimensions(relation, d):
    """Every relation at every d the relations command accepts."""
    report = check_relation(relation, d)
    assert report.passed, f"{relation} d={d}: max dev {report.max_dev}"
    assert report.max_dev <= 1e-9


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
    """Record each batch of diagrams an evaluator gets, per backend."""
    from paradiag.diagrams import dense, symbolic

    calls = {"dense": [], "symbolic": []}
    for backend, module in (("dense", dense), ("symbolic", symbolic)):
        def spy(shape, diags, evaluate=module._evaluate_shape, seen=calls[backend]):
            seen.append(list(diags))
            return evaluate(shape, diags)

        monkeypatch.setattr(module, "_evaluate_shape", spy)
    return calls


def test_twisted_product_evaluates_shared_diagrams_once(monkeypatch):
    """Each (k, l) has its same, below and above diagrams: 108 evaluations at d = 3, not 144."""
    calls = _spy_batches(monkeypatch)
    assert check_relation("twisted_product", 3).passed
    for batches in calls.values():
        evaluated = [id(diag) for batch in batches for diag in batch]
        assert len(evaluated) == len(set(evaluated)) == 108


@pytest.mark.parametrize("relation", RELATION_IDS)
def test_check_relation_evaluates_each_distinct_diagram_once(monkeypatch, relation):
    """Per backend, every distinct diagram of the built cases is evaluated exactly once, at every d."""
    from paradiag.diagrams import relations

    for d in range(2, 9):
        cases = relations._BUILDERS[relation](d)
        distinct = {id(diag) for case in cases for side in (case.lhs, case.rhs)
                    if not isinstance(side, np.ndarray) for _, diag in side}
        monkeypatch.setitem(relations._BUILDERS, relation, lambda _, cases=cases: cases)
        calls = _spy_batches(monkeypatch)
        assert check_relation(relation, d).passed
        for batches in calls.values():
            evaluated = [id(diag) for batch in batches for diag in batch]
            assert sorted(evaluated) == sorted(distinct), (relation, d)
            assert all(len({_shape(diag) for diag in batch}) == 1 for batch in batches)
        monkeypatch.undo()


def test_relation_chunks_stay_under_the_entry_bound(monkeypatch):
    """No run of cases, and so no batch an evaluator gets, holds more matrix entries than the bound."""
    from paradiag.diagrams import relations

    chunks, runs = relations._chunks, []

    def spy(cases):
        for run, batches in chunks(cases):
            runs.append(sum(diag.d ** (diag.n_in + diag.n_out) for batch in batches.values() for diag in batch))
            yield run, batches

    monkeypatch.setattr(relations, "_chunks", spy)
    calls = _spy_batches(monkeypatch)
    for d in range(2, 9):
        for relation in RELATION_IDS:
            check_relation(relation, d)
    assert max(runs) <= relations._CHUNK_ENTRIES
    assert max(runs) > relations._CHUNK_ENTRIES // 2  # the bound is reached, so it splits the suite
    assert len(runs) > len(RELATION_IDS) * 7  # some relation takes more than one run
    batches = calls["dense"] + calls["symbolic"]
    assert max(sum(diag.d ** (diag.n_in + diag.n_out) for diag in batch) for batch in batches) <= max(runs)
