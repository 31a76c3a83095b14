"""The benchmark's output checks accept real outputs and reject wrong ones.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from paradiag import diagrams  # noqa: E402
from paradiag.algebra import Operator, StateVector  # noqa: E402
from paradiag.protocol import run_mct_controlled, run_mct_xcompressed  # noqa: E402


def _shift_branch(run_result, index: int, new_amps: np.ndarray):
    branches = list(run_result.branches)
    b = branches[index]
    branches[index] = dataclasses.replace(b, output=StateVector(b.output.d, b.output.n, new_amps))
    return dataclasses.replace(run_result, branches=tuple(branches))


@pytest.fixture(scope="module")
def controlled():
    rng = np.random.default_rng(3)
    d, sizes = 3, (2, 1)
    mats = [[workloads._unitary(d**m, rng) for _ in range(d)] for m in sizes]
    amps = workloads._state(d, sum(sizes) + 1, rng)
    blocks = [[Operator(d, m, u) for u in blist] for m, blist in zip(sizes, mats)]
    result = run_mct_controlled(d, len(sizes), blocks, StateVector(d, sum(sizes) + 1, amps))
    return result, checks.expected_controlled(d, list(sizes), mats, amps), d, len(sizes)


def test_mct_accepts_controlled_run(controlled):
    result, expected, d, n = controlled
    assert checks.check_mct(result, expected, d, n) == []


def test_mct_accepts_xcompressed_run():
    rng = np.random.default_rng(4)
    d, sizes = 2, (1, 2)
    mats = [workloads._x_compressed(d, m, rng) for m in sizes]
    amps = workloads._state(d, sum(sizes) + 1, rng)
    parties = [Operator(d, m + 1, u) for m, u in zip(sizes, mats)]
    result = run_mct_xcompressed(d, len(sizes), parties, StateVector(d, sum(sizes) + 1, amps))
    assert checks.check_mct(result, checks.expected_xcompressed(d, list(sizes), mats, amps), d, len(sizes)) == []


def test_mct_rejects_one_perturbed_branch(controlled):
    result, expected, d, n = controlled
    amps = result.branches[5].output.amps.copy()
    amps[0] += 1e-6
    assert checks.check_mct(_shift_branch(result, 5, amps), expected, d, n)


def test_mct_accepts_a_global_phase_but_not_a_swapped_target(controlled):
    result, expected, d, n = controlled
    turned = _shift_branch(result, 2, np.exp(0.7j) * result.branches[2].output.amps)
    assert checks.check_mct(turned, expected, d, n) == []
    assert checks.check_mct(result, np.roll(expected, 1), d, n)


def test_mct_rejects_missing_branch_wrong_probability_and_cost(controlled):
    result, expected, d, n = controlled
    assert checks.check_mct(dataclasses.replace(result, branches=result.branches[1:]), expected, d, n)
    b = result.branches[0]
    skewed = (dataclasses.replace(b, probability=b.probability + 1e-9),) + result.branches[1:]
    assert checks.check_mct(dataclasses.replace(result, branches=skewed), expected, d, n)
    cost = dataclasses.replace(result.cost, cdits=result.cost.cdits + 1)
    assert checks.check_mct(dataclasses.replace(result, cost=cost), expected, d, n)


@pytest.fixture(scope="module")
def diagram():
    d, n, braids, slots = workloads.diagram_specs()[4]
    text, mirror_text = workloads.diagram_json(d, n, slots, np.random.default_rng(5))
    diag = diagrams.parse_diagram(text)
    mirror = diagrams.evaluate_dense(diagrams.parse_diagram(mirror_text)).array
    return diagrams.evaluate_dense(diag).array, diagrams.evaluate_symbolic(diag).array, mirror, d, n


def test_diagram_accepts_real_evaluation(diagram):
    assert checks.check_diagram(*diagram) == []


def test_diagram_rejects_symbolic_turned_by_a_phase(diagram):
    dense, symbolic, mirror, d, n = diagram
    assert checks.check_diagram(dense, np.exp(1e-3j) * symbolic, mirror, d, n)


def test_diagram_rejects_wrong_mirror(diagram):
    dense, symbolic, mirror, d, n = diagram
    assert checks.check_diagram(dense, symbolic, mirror.T, d, n)


def test_mirror_text_matches_library_mirror():
    d, n, _, slots = workloads.diagram_specs()[0]
    text, mirror_text = workloads.diagram_json(d, n, slots, np.random.default_rng(6))
    ours = diagrams.parse_diagram(mirror_text)
    assert ours == diagrams.mirror(diagrams.parse_diagram(text))


@pytest.mark.parametrize("rid", ["additive_charge", "twisted_product", "pauli_diagrams"])
def test_relation_accepts_real_report(rid):
    assert checks.check_relation_report(diagrams.check_relation(rid, 3), rid, 3) == []


def test_relation_rejects_one_shifted_case():
    report = diagrams.check_relation("para_isotopy", 3)
    cases = [dict(c) for c in report.cases]
    cases[4]["symbolic_dev"] += 1e-6
    assert checks.check_relation_report(dataclasses.replace(report, cases=tuple(cases)), "para_isotopy", 3)


def test_relation_rejects_wrong_case_count():
    report = diagrams.check_relation("neutrality", 4)
    assert checks.check_relation_report(dataclasses.replace(report, cases=report.cases[1:]), "neutrality", 4)


@pytest.mark.parametrize("name", ["X", "Y", "Z", "bell"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_builtin_reference_matches_both_backends(name, d):
    diag = diagrams.builtin(name, d)
    for evaluate in (diagrams.evaluate_dense, diagrams.evaluate_symbolic):
        value = evaluate(diag).array
        assert checks.check_builtin(name, d, value) == []
        assert checks.check_builtin(name, d, np.exp(0.01j) * value)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(checks.RELATION_CASES) == set(diagrams.RELATION_IDS)
