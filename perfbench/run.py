"""Benchmark of paradiag: the mct, relations and diagram-eval workloads.

    python3 perfbench/run.py --workload mct --seed 1 --seconds 30 --trace 0

runs one workload in this process, closed loop: one operation after another,
in whole rounds of the workload's operations, as many as fit in --seconds of
timed work.  Every output is checked after its round, outside the timed
region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  ``--workload all`` runs
each workload in a fresh process and merges their results.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, so that a workload process computes on one core and its
# figures do not depend on how many cores the machine has free.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import RELATION_CASES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("mct", "relations", "diagram-eval")
SETUP_PROBES = 7

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "algebra.apply_to_qudits.self_s": "s",
    "algebra.apply_to_qudits.calls": "count",
    "algebra.apply_to_qudits.bytes_computed": "B",
    "protocol.measure_qudit.self_s": "s",
    "protocol.measure_qudit.calls": "count",
    "protocol.target_unitary.self_s": "s",
    "protocol.target_unitary_xcompressed.self_s": "s",
    "algebra.embed_operator.self_s": "s",
    "algebra.embed_operator.calls": "count",
    "algebra.embed_operator.bytes_computed": "B",
    "protocol.run_mct_controlled.self_s": "s",
    "protocol.run_mct_xcompressed.self_s": "s",
    "protocol.branches": "count",
    "algebra.prepare_max.self_s": "s",
    "algebra.ghz_state.self_s": "s",
    "compression.assemble_controlled.self_s": "s",
    "compression.assemble_controlled.calls": "count",
    "compression.is_compressed.self_s": "s",
    "compression.is_compressed.calls": "count",
    "scalars.global_phase_deviation.self_s": "s",
    "scalars.global_phase_deviation.calls": "count",
    "diagrams.dense.evaluate_dense.self_s": "s",
    "diagrams.dense.evaluate_dense.calls": "count",
    "diagrams.dense.cells_computed": "count",
    **{f"diagrams.dense.slices.{k}": "count" for k in ("charge", "cap", "cup", "braid", "multicharge")},
    "diagrams.symbolic.evaluate_symbolic.self_s": "s",
    "diagrams.symbolic.evaluate_symbolic.calls": "count",
    "diagrams.symbolic.terms": "count",
    "diagrams.symbolic.entries": "count",
    "diagrams.symbolic.nonzero_entries": "count",
    **{f"diagrams.ir.{f}.{m}": u for f in ("parse_diagram", "trace_strands", "turn_excess")
       for m, u in (("self_s", "s"), ("calls", "count"))},
    "diagrams.relations.check_relation.self_s": "s",
    **{f"diagrams.relations.{rid}.s": "s" for rid in RELATION_CASES},
    "trace.overhead_s": "s",
}


def load(workload: str, seed: int) -> list:
    """Import paradiag from this checkout's src/ and build the workload's operations."""
    if not (SRC / "paradiag" / "__init__.py").is_file():
        raise SystemExit(f"error: no paradiag sources at {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads.BUILDERS[workload](seed)


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from starting a fresh process until its operations are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
    return times


def measure(ops: list, seconds: float, tracer=None) -> dict:
    """Whole rounds of ops, as many as fit in ``seconds`` of timed work (at least one)."""
    rounds: list[float] = []
    op_times: list[float] = []
    failed = 0
    while not rounds or sum(rounds) + statistics.median(rounds) <= seconds:
        gc.collect()  # garbage left by the previous round is not charged to this one
        outputs = []
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(op_times)
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation counts as failed; the run goes on
                out = exc
            op_times.append(time.perf_counter() - start)
            outputs.append(out)
        rounds.append(sum(op_times[-len(ops):]))
        for op, out in zip(ops, outputs):
            try:
                faults = [f"raised {out!r}"] if isinstance(out, Exception) else op.check(out)
            except Exception:
                faults = [f"check raised:\n{traceback.format_exc()}"]
            if faults:
                failed += 1
                print(f"FAIL {op.label}: " + "; ".join(faults[:3]), file=sys.stderr)
    return {"rounds": rounds, "op_times": op_times, "attempted": len(op_times), "failed": failed}


def end_to_end(res: dict, setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(res["rounds"]),
        "op_p50_ms": 1e3 * statistics.median(res["op_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, traced: dict, plain: dict) -> dict[str, float]:
    """Per-round self times, calls and counts from the traced rounds."""
    rounds = len(traced["rounds"])
    self_s, calls, tagged = tracer.totals()
    values = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_s.get(base, 0.0) / rounds
        elif field == "calls":
            values[name] = calls.get(base, 0) / rounds
        elif name.startswith("diagrams.relations."):
            values[name] = tagged.get(name.split(".")[2], 0.0) / rounds
        else:
            values[name] = tracer.counts.get(name, 0) / rounds
    values["trace.overhead_s"] = statistics.median(traced["rounds"]) - statistics.median(plain["rounds"])
    return values


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; metrics merged as <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines:
            raise SystemExit(f"error: workload {workload} printed no result (exit {proc.returncode})")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    ops = load(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    setup = [] if args.trace else probe_setup(args)
    for op in ops:
        op.prepare()

    if args.trace:
        from spans import Tracer

        plain = measure(ops, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(ops, args.seconds / 2, tracer)
        metrics, units = per_layer(tracer, traced, plain), PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        runs = (plain, traced)
    else:
        res = measure(ops, args.seconds)
        metrics, units = end_to_end(res, setup), END_TO_END
        runs = (res,)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    timed = [round(t, 3) for r in runs for t in r["rounds"]]
    print(f"{args.workload} seed={args.seed}: {len(ops)} operations a round, "
          f"rounds {timed} s; {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
