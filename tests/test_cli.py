"""CLI dispatch, exit codes and report determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from paradiag import algebra
from paradiag.algebra import Operator, embed_operator, fourier, gauss, pauli, random_unitary
from paradiag.cli import _eval_bytes, main
from paradiag.compression import assemble_controlled
from paradiag.diagrams import BRAID_POS, CAP, CHARGE, CUP, Diagram, Generator, builtin, evaluate_dense, random_diagram
from paradiag.diagrams.ir import diagram_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relations_pass_d2(capsys):
    code, out, err = run_cli(capsys, "relations", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["relations"]) == 11
    assert "PASS" in err


def test_relations_single_relation(capsys):
    code, out, _ = run_cli(capsys, "relations", "--d", "3", "--only", "braid")
    assert code == 0
    report = json.loads(out)
    assert [r["relation"] for r in report["relations"]] == ["braid"]


def test_relations_invalid_dimension(capsys):
    code, _, err = run_cli(capsys, "relations", "--d", "1")
    assert code == 2
    assert "error" in err


def test_relations_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "relations", "--d", "2", "--only", "nope")
    assert code == 2


def test_relations_byte_identical_for_same_config(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        assert run_cli(capsys, "relations", "--d", "2", "--out", str(f))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run_cli(capsys, "relations", "--d", "2", "--tol", "0")
    assert code == 2
    assert "error" in err


def test_eval_pauli_x_file(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"d": 2, "top": 2, "slices": [{"kind": "charge", "pos": 2, "k": 1}]}))
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    report = json.loads(out)
    mat = (np.array(report["re"]) + 1j * np.array(report["im"])).reshape(2, 2)
    assert np.allclose(mat, pauli(2, "X").mat, atol=1e-9)
    assert report["cross_check_dev"] <= 1e-9


def test_eval_empty_diagram_scalar_one(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 3, "top": 0, "slices": []}))
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["n_in"] == 0 and report["n_out"] == 0
    assert report["re"] == [1.0]


def test_eval_malformed_json_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "top": 2, "slices": [')
    code, _, err = run_cli(capsys, "eval", str(path))
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("doc", [{"d": 1000000, "top": 2, "slices": []},
                                 {"d": 2, "top": 200, "slices": []}])
@pytest.mark.parametrize("backend", ["dense", "symbolic", "both"])
def test_eval_refuses_oversized_diagram(capsys, tmp_path, monkeypatch, doc, backend):
    """Too large for physical memory: exit 2 with one error line, before any evaluation."""
    from paradiag import cli

    def refuse(diag):
        raise AssertionError("evaluated an oversized diagram")

    monkeypatch.setattr(cli, "evaluate_dense", refuse)
    monkeypatch.setattr(cli, "evaluate_symbolic", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", str(path), "--backend", backend)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("d, top, slices", [(2, 0, ()), (3, 4, ()), (2, 6, ((CUP, 2),)),
                                           (5, 2, ((CAP, 1), (CUP, 2)))])
def test_eval_symbolic_estimate_counts_label_grid(d, top, slices):
    """The symbolic estimate covers the int64 label grid, its two products and the result."""
    diag = Diagram(d, top, tuple(Generator(kind, pos) for kind, pos in slices))
    n = diag.n_in + diag.n_out
    grid = np.indices((d,) * n).nbytes
    assert _eval_bytes(diag, "symbolic") >= 3 * grid + 16 * d**n
    assert _eval_bytes(diag, "both") == _eval_bytes(diag, "dense") + _eval_bytes(diag, "symbolic")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eval_dense_estimate_bounds_every_array(monkeypatch, d):
    """Every factor and absorbed operator the dense evaluator builds fits in the dense estimate."""
    from paradiag.diagrams import dense

    rng = np.random.default_rng(400 + d)
    small = [Diagram(d, 2, (Generator(CHARGE, 1, 1), Generator(BRAID_POS, 1))),  # a 4-axis gate
             Diagram(d, 0, (Generator(CAP, 1), Generator(CHARGE, 2, 1)))]  # a 3-axis adjoint
    for diag in small + [random_diagram(d, rng, max_strings=8, max_slices=10) for _ in range(60)]:
        bound, cells = _eval_bytes(diag, "dense"), []
        run = dense._run

        def spy(facs, step, mat):
            f, merge, _ = step
            # the factor the step acts on, merged with g first if the step merges:
            # legs are disjoint, so the broadcast product holds the two sizes' product
            cells.append(facs[f].size * (facs[merge[0]].size if merge else 1))
            if mat is not None:  # the absorbed operator
                cells.append(mat.size)
            run(facs, step, mat)
            cells.append(max(x.size for x in facs if x is not None))

        monkeypatch.setattr(dense, "_run", spy)
        cells.append(evaluate_dense(diag).array.size)
        monkeypatch.undo()
        assert 2 * 16 * max(cells) <= bound, diag


@pytest.mark.parametrize("name, d", [("X", 64), ("Z", 48), ("braid_pos", 12), ("bell", 24)])
def test_eval_dense_estimate_covers_a_cold_evaluation(name, d):
    """With every cache empty, a dense evaluation's traced peak stays within its estimate."""
    import tracemalloc

    from paradiag.diagrams import dense

    diag = builtin(name, d)
    bound = _eval_bytes(diag, "dense")
    for cached in vars(dense).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        evaluate_dense(diag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_eval_dense_admits_wide_resource_diagram(capsys, tmp_path):
    """The n = 16 resource state has width 32 but factors of at most 18 axes: it is evaluated."""
    path = tmp_path / "max16.json"
    path.write_text(diagram_to_json(builtin("max", 2, 16)))
    code, out, err = run_cli(capsys, "eval", str(path), "--backend", "dense")
    assert code == 0, err
    report = json.loads(out)
    amps = np.array(report["re"]) + 1j * np.array(report["im"])
    assert report["n_out"] == 16 and abs(np.vdot(amps, amps) - 1) <= 1e-9


IDENTITY = '{"d": 2, "n": 1, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}'
MALFORMED = {
    "eval zeta_exp string": ("eval", '{"d": 2, "top": 2, "prefactor": {"zeta_exp": "x"}}'),
    "eval zeta_exp list": ("eval", '{"d": 2, "top": 2, "prefactor": {"zeta_exp": [1]}}'),
    "eval huge charge": ("eval", '{"d": 2, "top": 2, "slices": [{"kind": "charge", "pos": 1, "k": 1e400}]}'),
    "eval huge prefactor": ("eval", '{"d": 2, "top": 2, "prefactor": {"sqrtd_exp": 1e400}}'),
    "eval d zero": ("eval", '{"d": 0, "top": 2}'),
    "eval d negative": ("eval", '{"d": -3, "top": 2}'),
    "eval d fraction": ("eval", '{"d": 2.5, "top": 2}'),
    "eval d boolean": ("eval", '{"d": true, "top": 2}'),
    "compress d list": ("compress", '{"d": [2], "n": 1, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}'),
    "compress huge d": ("compress", '{"d": 1e400, "n": 1, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}'),
    "compress d fraction": ("compress", '{"d": 2.5, "n": 1, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}'),
    "compress d boolean": ("compress", '{"d": true, "n": 1, "re": [1], "im": [0]}'),
    "compress list document": ("compress", "[1, 2]"),
    "compress d one": ("compress", '{"d": 1, "n": 1, "re": [1], "im": [0]}'),
    "compress n negative": ("compress", '{"d": 2, "n": -1, "re": [1], "im": [0]}'),
    "mct d list": ("mct", '{"d": [2], "n": 1, "parties": [[%s]]}' % IDENTITY),
    "mct huge d": ("mct", '{"d": 1e400, "n": 1, "parties": [[%s]]}' % IDENTITY),
    "mct list document": ("mct", "[1]"),
    "mct operator n list": ("mct", '{"d": 2, "n": 1, "parties": [[%s]]}' % IDENTITY.replace('"n": 1', '"n": [1]')),
    "mct input list": ("mct", '{"d": 2, "n": 1, "parties": [[%s]], "input": [1]}' % IDENTITY),
    "compress re object": ("compress", '{"d": 2, "n": 1, "re": {}, "im": [0, 0, 0, 0]}'),
    "compress re null entry": ("compress", '{"d": 2, "n": 1, "re": [1, null, 0, 1], "im": [0, 0, 0, 0]}'),
    "compress re strings": ("compress", '{"d": 2, "n": 1, "re": ["1", "0", "0", "1"], "im": [0, 0, 0, 0]}'),
    "compress re booleans": ("compress", '{"d": 2, "n": 1, "re": [true, false, false, true], "im": [0, 0, 0, 0]}'),
    "compress re nested": ("compress", '{"d": 2, "n": 1, "re": [[1, 0], [0, 1]], "im": [0, 0, 0, 0]}'),
    "compress im infinite": ("compress", '{"d": 2, "n": 1, "re": [1, 0, 0, 1], "im": [1e400, 0, 0, 0]}'),
    "compress im huge integer": ("compress", '{"d": 2, "n": 1, "re": [1, 0, 0, 1], "im": [1%s, 0, 0, 0]}'
                                 % ("0" * 400)),
    "mct block re object": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]]}'
                            % (IDENTITY, IDENTITY.replace("[1, 0, 0, 1]", "{}"))),
    "mct block re null entry": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]]}'
                                % (IDENTITY, IDENTITY.replace("[1, 0, 0, 1]", "[1, null, 0, 1]"))),
    "mct block re booleans": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]]}'
                              % (IDENTITY, IDENTITY.replace("[1, 0, 0, 1]", "[true, false, false, true]"))),
    "mct input re strings": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]], "input": {"d": 2, "n": 2, '
                             '"re": ["1", "0", "0", "0"], "im": [0, 0, 0, 0]}}' % (IDENTITY, IDENTITY)),
    "mct input re object": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]], "input": '
                            '{"d": 2, "n": 2, "re": {}, "im": [0, 0, 0, 0]}}' % (IDENTITY, IDENTITY)),
    "mct input text": ("mct", '{"d": 2, "n": 1, "parties": [[%s, %s]], "input": "{}"}' % (IDENTITY, IDENTITY)),
}


@pytest.mark.parametrize("command, text", MALFORMED.values(), ids=MALFORMED)
def test_malformed_numbers_are_invalid_input(capsys, tmp_path, command, text):
    """A field that is not a JSON integer, or a document that is not an object: exit 2, one error line."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {"eval": ["eval", str(path)], "compress": ["compress", str(path), "--j", "1"],
            "mct": ["mct", "--d", "2", "--n", "1", "--blocks", str(path)]}[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, data", [("eval", b'\xff\xfe{"d": 2, "top": 2}'), ("eval", NESTED.encode()),
                                           ("compress", NESTED.encode()), ("mct", NESTED.encode())],
                         ids=["eval not UTF-8", "eval nested", "compress nested", "mct nested"])
def test_unreadable_input_is_invalid(capsys, tmp_path, command, data):
    """Bytes that are not UTF-8, or JSON nested too deeply to parse: exit 2, one error line."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    argv = {"eval": ["eval", str(path)], "compress": ["compress", str(path), "--j", "1"],
            "mct": ["mct", "--d", "2", "--n", "1", "--blocks", str(path)]}[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1 and "Traceback" not in err


def test_eval_readme_example(capsys, tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```json\n", text.index("Diagrams:")) + len("```json\n")
    path = tmp_path / "readme.json"
    path.write_text(text[start : text.index("```", start)])
    code, out, _ = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_readme_library_examples():
    """The python blocks of README "Library use" run in order, in one namespace."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Library use") : text.index("## Command line")]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block[: block.index("```")], namespace)
    assert namespace["run"].passed


def test_eval_missing_file(capsys):
    code, _, err = run_cli(capsys, "eval", "/nonexistent/diagram.json")
    assert code == 2


def test_compress_cnot(capsys, tmp_path):
    cnot = assemble_controlled([Operator.identity(2), pauli(2, "X")], 2, 2)
    path = tmp_path / "cnot.json"
    path.write_text(algebra.operator_to_json(cnot))
    code, out, _ = run_cli(capsys, "compress", str(path), "--j", "2", "--axis", "Z")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "compressed"
    blocks = report["blocks"]
    assert np.allclose(np.array(blocks[1]["re"]).reshape(2, 2), pauli(2, "X").mat.real)


def test_compress_swap_not_compressed(capsys, tmp_path):
    swap = Operator(2, 2, np.eye(4)[[0, 2, 1, 3]])
    path = tmp_path / "swap.json"
    path.write_text(algebra.operator_to_json(swap))
    code, out, _ = run_cli(capsys, "compress", str(path), "--j", "1", "--axis", "Z")
    assert code == 1
    assert json.loads(out)["verdict"] == "not_compressed"


def test_compress_near_threshold_indeterminate(capsys, tmp_path):
    rng = np.random.default_rng(5)
    cnot = assemble_controlled([Operator.identity(2), pauli(2, "X")], 1, 2)
    noisy = cnot.mat + 1e-8 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    path = tmp_path / "noisy.json"
    path.write_text(algebra.operator_to_json(Operator(2, 2, noisy)))
    code, out, _ = run_cli(capsys, "compress", str(path), "--j", "1", "--axis", "Z")
    assert code == 3
    assert json.loads(out)["verdict"] == "indeterminate"


@pytest.mark.parametrize("axis, key", [("X", "components"), ("Y", "components_of_transport")])
def test_compress_decomposes_large_entries(capsys, tmp_path, axis, key):
    """A compressed matrix scaled by 1e7 is decomposed, not refused by an absolute tolerance."""
    rng = np.random.default_rng(1)
    ctrl = assemble_controlled([random_unitary(3, 1, rng) for _ in range(3)], 2, 2)
    f = embed_operator(fourier(3), [2], 2)
    op = f.adjoint() @ ctrl @ f  # X-compressed on qudit 2
    if axis == "Y":
        g = embed_operator(gauss(3), [2], 2)
        op = g @ op @ g.adjoint()
    path = tmp_path / "large.json"
    path.write_text(algebra.operator_to_json(Operator(3, 2, 1e7 * op.mat)))
    code, out, _ = run_cli(capsys, "compress", str(path), "--j", "2", "--axis", axis)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "compressed"
    assert len(report[key]) == 3


def test_compress_bad_index(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(algebra.operator_to_json(pauli(2, "X")))
    code, _, _ = run_cli(capsys, "compress", str(path), "--j", "2", "--axis", "Z")
    assert code == 2


def test_mct_blocks_file(capsys, tmp_path):
    cnot_blocks = {
        "d": 2,
        "n": 1,
        "parties": [
            [
                json.loads(algebra.operator_to_json(Operator.identity(2))),
                json.loads(algebra.operator_to_json(pauli(2, "X"))),
            ]
        ],
    }
    path = tmp_path / "cnot_blocks.json"
    path.write_text(json.dumps(cnot_blocks))
    code, out, _ = run_cli(capsys, "mct", "--d", "2", "--n", "1", "--blocks", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["cost"]["cdits"] == 2
    assert report["cost"]["resource_qudits"] == 2
    assert len(report["branches"]) == 4


def test_mct_random_trials(capsys):
    code, out, _ = run_cli(capsys, "mct", "--d", "2", "--n", "3", "--random", "3", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(r["cost"]["cdits"] == 6 for r in report["runs"])
    assert all(r["cost"]["resource_qudits"] == 4 for r in report["runs"])


def test_mct_sample_mode(capsys):
    code, out, _ = run_cli(capsys, "mct", "--d", "3", "--n", "2", "--random", "2",
                           "--seed", "1", "--mode", "sample")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_mct_sample_trials_draw_independently(capsys, tmp_path):
    f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for f in (f1, f2):
        code, _, _ = run_cli(capsys, "mct", "--d", "3", "--n", "2", "--random", "3",
                             "--seed", "1", "--mode", "sample", "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    draws = [[b["outcomes"] for b in r["branches"]] for r in json.loads(f1.read_text())["runs"]]
    assert len(draws) == 3 and not draws[0] == draws[1] == draws[2]


def test_mct_rejects_mismatched_blocks_file(capsys, tmp_path):
    cnot_blocks = {
        "d": 2,
        "n": 1,
        "parties": [
            [
                json.loads(algebra.operator_to_json(Operator.identity(2))),
                json.loads(algebra.operator_to_json(pauli(2, "X"))),
            ]
        ],
    }
    path = tmp_path / "cnot_blocks.json"
    path.write_text(json.dumps(cnot_blocks))
    code, out, err = run_cli(capsys, "mct", "--d", "5", "--n", "4", "--blocks", str(path))
    assert code == 2
    assert out == ""
    assert "error:" in err and "d=2, n=1" in err


def test_mct_rejects_zero_random_trials(capsys):
    code, _, err = run_cli(capsys, "mct", "--d", "2", "--n", "1", "--random", "0")
    assert code == 2
    assert "error" in err


def test_mct_rejects_non_unitary_blocks(capsys, tmp_path):
    bad = {
        "d": 2,
        "n": 1,
        "parties": [
            [
                json.loads(algebra.operator_to_json(Operator.identity(2))),
                json.loads(algebra.operator_to_json(Operator(2, 1, np.diag([1.0, 2.0])))),
            ]
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "mct", "--d", "2", "--n", "1", "--blocks", str(path))
    assert code == 2
    assert "error" in err


def test_mct_rejects_party_without_blocks(capsys, tmp_path):
    """An empty party list is invalid input: exit 2 with one error line, no traceback."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 2, "n": 1, "parties": [[]]}))
    code, out, err = run_cli(capsys, "mct", "--d", "2", "--n", "1", "--blocks", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "party 1 has no blocks" in err


@pytest.mark.parametrize("parties", [5, [5], [[5]]])
def test_mct_rejects_malformed_parties(capsys, tmp_path, parties):
    """parties must be a list of lists of operators: exit 2 with one error line, no traceback."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"d": 2, "n": 1, "parties": parties}))
    code, out, err = run_cli(capsys, "mct", "--d", "2", "--n", "1", "--blocks", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["random", "blocks"])
def test_mct_refuses_oversized_network(capsys, tmp_path, monkeypatch, source):
    """42 qudits at d=2 cannot fit in memory: exit 2 with one error line, before any run."""
    from paradiag import cli

    def refuse(*args, **kwargs):
        raise AssertionError("ran an oversized network")

    monkeypatch.setattr(cli, "run_mct_controlled", refuse)
    if source == "random":
        extra = ("--random", "1")
    else:
        cnot = [json.loads(algebra.operator_to_json(m)) for m in (Operator.identity(2), pauli(2, "X"))]
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"d": 2, "n": 20, "parties": [cnot] * 20}))
        extra = ("--blocks", str(path))
    code, out, err = run_cli(capsys, "mct", "--d", "2", "--n", "20", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_mct_requires_block_source(capsys):
    assert run_cli(capsys, "mct", "--d", "2", "--n", "1")[0] == 2


def test_mct_random_draws_parties_then_input_per_trial(capsys, monkeypatch):
    """--random draws from the --seed generator trial by trial: the parties, then the input."""
    from paradiag import cli

    seen, run = [], cli.run_mct_controlled

    def spy(d, n, parties, input_state, **kw):
        seen.append((parties, input_state, kw["seed"]))
        return run(d, n, parties, input_state, **kw)

    monkeypatch.setattr(cli, "run_mct_controlled", spy)
    assert run_cli(capsys, "mct", "--d", "2", "--n", "2", "--random", "2", "--seed", "11")[0] == 0
    rng = np.random.default_rng(11)
    seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(11).spawn(2)]
    for (parties, input_state, seed), want_seed in zip(seen, seeds, strict=True):
        for got in [b for blocks in parties for b in blocks]:
            assert np.array_equal(got.mat, random_unitary(2, 1, rng).mat)
        assert np.array_equal(input_state.amps, cli._random_input(2, 3, rng).amps)
        assert seed == want_seed


def test_reports_byte_identical_for_same_seed(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        code, _, _ = run_cli(capsys, "mct", "--d", "2", "--n", "2", "--random", "2",
                             "--seed", "11", "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
