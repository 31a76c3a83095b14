"""Command line front end: relation suite, diagram evaluation, compression
checks and teleportation-protocol verification with JSON reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 input/validation
error, 3 indeterminate compression verdict.  Reports go to stdout as JSON
(deterministic for a fixed configuration including the seed); a short human
summary goes to stderr.  ``--out`` writes the JSON to a file instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import algebra
from .algebra import Operator, StateVector, random_unitary
from .compression import (
    NotBlockDiagonal,
    NotXCompressed,
    compression_verdict,
    controlled_blocks,
    x_components,
    y_to_x_transport,
)
from .diagrams import (
    CUP,
    RELATION_IDS,
    Diagram,
    DiagramError,
    check_relation,
    evaluate_dense,
    evaluate_symbolic,
    parse_diagram,
)
from .protocol import run_mct_controlled
from .scalars import DimensionError, Tolerance, global_phase_deviation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INDETERMINATE = 3


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(line: str) -> None:
    sys.stderr.write(line + "\n")


def cmd_relations(args: argparse.Namespace) -> int:
    if not 2 <= args.d <= 8:
        _summary(f"error: relation suite needs 2 <= d <= 8, got {args.d}")
        return EXIT_INVALID
    ids = list(RELATION_IDS)
    if args.only:
        if args.only not in RELATION_IDS:
            _summary(f"error: unknown relation {args.only!r}; known: {', '.join(RELATION_IDS)}")
            return EXIT_INVALID
        ids = [args.only]
    reports = [check_relation(rid, args.d, args.tol) for rid in ids]
    passed = all(r.passed for r in reports)
    report = {
        "command": "relations",
        "d": args.d,
        "tol": args.tol,
        "relations": [r.as_dict() for r in reports],
        "pass": passed,
    }
    _emit(report, args.out)
    for r in reports:
        _summary(f"{'PASS' if r.passed else 'FAIL'} {r.relation} (max dev {r.max_dev:.3e})")
    return EXIT_PASS if passed else EXIT_FAIL


def _refuse_oversized(need: int, what: str, subject: str) -> bool:
    """Report and return True when ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need <= have:
        return False
    _summary(f"error: {what} needs at least 2^{need.bit_length() - 1} bytes "
             f"for {subject}, more than the {have} bytes of physical memory")
    return True


def _eval_bytes(diag: Diagram, backend: str) -> int:
    """Peak bytes an evaluation holds, estimated from the string counts alone.

    Dense: the widest tensor, d**width rows by d**n_in columns, and its
    output copy.  Symbolic, in rows of one value per entry of the
    d**n_out x d**n_in matrix: as int64 rows, the n-row label grid and the
    two n-row products that build its quadratic part, the cached quadratic
    row and loop rows, two neutrality temporaries per loop and three
    exponent temporaries; as complex rows, the phases, masked terms,
    accumulator and result.  Loops are at most the cups of the closed
    diagram, its own and one per output qudit.
    """
    dense = 2 * 16 * diag.d ** max(diag.widths) * diag.d**diag.n_in
    n = diag.n_in + diag.n_out
    loops = diag.n_out + sum(s.kind == CUP for s in diag.slices)
    symbolic = diag.d**n * (8 * (3 * n + 3 * loops + 4) + 16 * 4)
    return {"dense": dense, "symbolic": symbolic, "both": dense + symbolic}[backend]


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        with open(args.diagram) as fh:
            diag = parse_diagram(fh.read())
    except OSError as exc:
        _summary(f"error: cannot read {args.diagram}: {exc}")
        return EXIT_INVALID
    except DiagramError as exc:
        _summary(f"error: {exc}")
        return EXIT_INVALID
    if _refuse_oversized(_eval_bytes(diag, args.backend), f"--backend {args.backend}",
                         "this diagram"):
        return EXIT_INVALID
    values = {}
    if args.backend in ("dense", "both"):
        values["dense"] = evaluate_dense(diag)
    if args.backend in ("symbolic", "both"):
        values["symbolic"] = evaluate_symbolic(diag)
    primary = values.get("dense") or values["symbolic"]
    flat = primary.array.reshape(-1)
    report = {
        "command": "eval",
        "backend": args.backend,
        "d": diag.d,
        "n_in": primary.n_in,
        "n_out": primary.n_out,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    if len(values) == 2:
        dev = (
            global_phase_deviation(values["dense"].array, values["symbolic"].array)
            if flat.size
            else 0.0
        )
        report["cross_check_dev"] = dev
        report["pass"] = dev <= args.tol
        _summary(f"cross-check deviation {dev:.3e} (up to global phase)")
    _emit(report, args.out)
    if "pass" in report and not report["pass"]:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_compress(args: argparse.Namespace) -> int:
    try:
        with open(args.matrix) as fh:
            op = algebra.operator_from_json(fh.read())
    except OSError as exc:
        _summary(f"error: cannot read {args.matrix}: {exc}")
        return EXIT_INVALID
    except (ValueError, KeyError) as exc:
        _summary(f"error: bad matrix file: {exc}")
        return EXIT_INVALID
    if not 1 <= args.j <= op.n:
        _summary(f"error: qudit index {args.j} out of range for n={op.n}")
        return EXIT_INVALID
    verdict = compression_verdict(op, args.j, args.axis)
    report = {
        "command": "compress",
        "d": op.d,
        "n": op.n,
        "qudit": args.j,
        "axis": args.axis,
        "verdict": verdict,
    }
    if verdict == "compressed" and op.n >= 2:
        # the verdict is relative to max|T|, so the decomposition's check is too
        tol = Tolerance(max(args.tol, 1e-9) * max(1.0, float(np.max(np.abs(op.mat)))))
        try:
            if args.axis == "Z":
                dec = controlled_blocks(op, args.j, tol)
                report["blocks"] = [json.loads(algebra.operator_to_json(b)) for b in dec.blocks]
            elif args.axis == "X":
                dec = x_components(op, args.j, tol)
                report["components"] = [json.loads(algebra.operator_to_json(b)) for b in dec.components]
            else:  # Y: transport to the X form first
                dec = x_components(y_to_x_transport(op, args.j), args.j, tol)
                report["components_of_transport"] = [
                    json.loads(algebra.operator_to_json(b)) for b in dec.components
                ]
        except (NotBlockDiagonal, NotXCompressed) as exc:
            report["verdict"] = "indeterminate"
            report["note"] = str(exc)
            verdict = "indeterminate"
    _emit(report, args.out)
    _summary(f"verdict: {verdict}")
    if verdict == "compressed":
        return EXIT_PASS
    if verdict == "not_compressed":
        return EXIT_FAIL
    return EXIT_INDETERMINATE


def _load_blocks(path: str) -> tuple[int, int, list[list[Operator]], StateVector | None]:
    with open(path) as fh:
        doc = json.load(fh)
    d, n = int(doc["d"]), int(doc["n"])
    blists = doc["parties"]
    if not isinstance(blists, list) or not all(
        isinstance(blist, list) and all(isinstance(b, dict) for b in blist) for blist in blists
    ):
        raise ValueError(f"{path}: parties must be a list of lists of operator objects")
    parties = []
    for j, blist in enumerate(blists, start=1):
        if not blist:
            raise ValueError(f"{path}: party {j} has no blocks")
        parties.append([algebra.operator_from_json(json.dumps(b)) for b in blist])
    input_state = None
    if "input" in doc:
        input_state = algebra.state_from_json(json.dumps(doc["input"]))
    return d, n, parties, input_state


def _random_input(d: int, n_data: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(d**n_data) + 1j * rng.standard_normal(d**n_data)
    return StateVector(d, n_data, amps / np.linalg.norm(amps))


def _mct_refused(d: int, qudits: int) -> bool:
    """Refuse a register of ``qudits`` qudits: a run holds about four copies of its state."""
    return _refuse_oversized(4 * 16 * d**qudits, "mct", f"a register of {qudits} qudits")


def cmd_mct(args: argparse.Namespace) -> int:
    if args.d < 2 or args.n < 1:
        _summary(f"error: need d >= 2 and n >= 1, got d={args.d}, n={args.n}")
        return EXIT_INVALID
    if (args.blocks is None) == (args.random is None):
        _summary("error: give exactly one of --blocks or --random")
        return EXIT_INVALID
    if args.random is not None and args.random < 1:
        _summary(f"error: need --random >= 1, got {args.random}")
        return EXIT_INVALID
    tol = Tolerance(args.tol)
    runs = []
    try:
        if args.blocks:
            d, n, parties, input_state = _load_blocks(args.blocks)
            if (d, n) != (args.d, args.n):
                _summary(f"error: {args.blocks} holds d={d}, n={n}, "
                         f"but --d {args.d} --n {args.n} was given")
                return EXIT_INVALID
            if _mct_refused(d, sum(b[0].n for b in parties) + n + 2):
                return EXIT_INVALID
            rng = np.random.default_rng(args.seed)
            if input_state is None:
                input_state = _random_input(d, sum(b[0].n for b in parties) + 1, rng)
            run = run_mct_controlled(d, n, parties, input_state, mode=args.mode, tol=tol, seed=args.seed)
            runs.append(run)
        else:
            if _mct_refused(args.d, 2 * args.n + 2):
                return EXIT_INVALID
            rng = np.random.default_rng(args.seed)
            # one sampling seed per trial, so sample-mode trials draw independently
            for child in np.random.SeedSequence(args.seed).spawn(args.random):
                parties = [
                    [random_unitary(args.d, 1, rng) for _ in range(args.d)] for _ in range(args.n)
                ]
                input_state = _random_input(args.d, args.n + 1, rng)
                runs.append(run_mct_controlled(
                    args.d, args.n, parties, input_state, mode=args.mode, tol=tol,
                    seed=int(child.generate_state(1)[0]),
                ))
    except (ValueError, KeyError, OSError, DimensionError) as exc:
        _summary(f"error: {exc}")
        return EXIT_INVALID

    theorem_ok = all(
        r.cost.resource_states == 1
        and r.cost.resource_qudits == r.network.n + 1
        and r.cost.cdits == 2 * r.network.n
        for r in runs
    )
    passed = all(r.passed for r in runs) and theorem_ok
    report = {
        "command": "mct",
        "d": runs[0].network.d,
        "n": runs[0].network.n,
        "mode": args.mode,
        "seed": args.seed,
        "runs": [r.report() for r in runs],
        "cost_theorem": theorem_ok,
        "pass": passed,
    }
    if len(runs) == 1:
        report.update(runs[0].report())
    _emit(report, args.out)
    matched = sum(b.match for r in runs for b in r.branches)
    total = sum(len(r.branches) for r in runs)
    _summary(f"{'PASS' if passed else 'FAIL'}: {matched}/{total} branches match; cdits per run "
             f"{runs[0].cost.cdits}, resource qudits {runs[0].cost.resource_qudits}")
    return EXIT_PASS if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paradiag")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rel = sub.add_parser("relations", help="check the planar relation suite")
    p_rel.add_argument("--d", type=int, required=True)
    p_rel.add_argument("--only", type=str, default=None)
    p_rel.add_argument("--tol", type=float, default=1e-9)
    p_rel.add_argument("--out", type=str, default=None)
    p_rel.set_defaults(func=cmd_relations)

    p_eval = sub.add_parser("eval", help="evaluate a diagram file")
    p_eval.add_argument("diagram", type=str)
    p_eval.add_argument("--backend", choices=("dense", "symbolic", "both"), default="both")
    p_eval.add_argument("--tol", type=float, default=1e-9)
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_comp = sub.add_parser("compress", help="compression verdict for a matrix file")
    p_comp.add_argument("matrix", type=str)
    p_comp.add_argument("--j", type=int, required=True)
    p_comp.add_argument("--axis", choices=("X", "Y", "Z"), default="Z")
    p_comp.add_argument("--tol", type=float, default=1e-9)
    p_comp.add_argument("--out", type=str, default=None)
    p_comp.set_defaults(func=cmd_compress)

    p_mct = sub.add_parser("mct", help="verify the teleportation protocol")
    p_mct.add_argument("--d", type=int, required=True)
    p_mct.add_argument("--n", type=int, required=True)
    p_mct.add_argument("--blocks", type=str, default=None)
    p_mct.add_argument("--random", type=int, default=None)
    p_mct.add_argument("--seed", type=int, default=0)
    p_mct.add_argument("--mode", choices=("all_branches", "sample"), default="all_branches")
    p_mct.add_argument("--tol", type=float, default=1e-9)
    p_mct.add_argument("--out", type=str, default=None)
    p_mct.set_defaults(func=cmd_mct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Tolerance(args.tol)
    except ValueError as exc:
        _summary(f"error: {exc}")
        return EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
