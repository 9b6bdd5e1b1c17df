"""The rowfibers benchmark.

    python3 perfbench/run.py --workload {fiber_chain,power_rows,cli_data}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives rowfibers' public API in a closed loop: each
request is sent only after the previous one returned.  Each pass of a
workload runs in a fresh interpreter (``worker.py``), one pass at a time, so
no module-level state carries over; passes repeat until ``--seconds`` is
spent, and at least MIN_PASSES are made.  Every answer is checked: by the
invariants that hold for any seed, by the answers that README and tests
state, by ``reference.json`` (the seed-commit answers for the default seed,
and for inputs that do not depend on the seed), and by being identical in
every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics of the traced one plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
state each metric with its unit, sample count and percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names of workloads.WORKLOADS; this file does not import rowfibers, so
# that it can fail cleanly where the package is missing
WORKLOADS = ("fiber_chain", "power_rows", "cli_data")
MIN_PASSES = 5
# a run must end within 180 s; passes share this budget
BUDGET_S = 170.0
REFERENCE = HERE / "reference.json"


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, size, trace, deadline):
    """One pass in a fresh interpreter; returns its record plus set-up and duration."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(out_dir / f"spans-{workload}-seed{seed}.txt")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the pass could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass exceeded the {BUDGET_S:.0f} s budget")
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    record["duration_s"] = ended - spawned
    return record


def load_reference(workload):
    if not REFERENCE.is_file():
        return None, {}
    data = json.loads(REFERENCE.read_text())
    return data["seed"], data["answers"].get(workload, {})


def judge(passes, workload, seed):
    """Mark every request that failed; returns (attempted, failed, problem lines)."""
    ref_seed, reference = load_reference(workload)
    first = {r["key"]: r["answer"] for r in passes[0]["requests"]}
    attempted = failed = 0
    lines = []
    for n, rec in enumerate(passes):
        for r in rec["requests"]:
            problems = list(r["problems"])
            key = r["key"]
            if not problems:
                if r["answer"] != first.get(key):
                    problems.append("answer differs from the first pass")
                if key in reference and (r["fixed"] or seed == ref_seed):
                    if r["answer"] != reference[key]:
                        problems.append("answer differs from reference.json")
            r["ok"] = not problems
            attempted += 1
            if problems:
                failed += 1
                lines.append(f"pass {n} request {key!r}: {'; '.join(problems)}")
    return attempted, failed, lines


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(per_pass):
    """The highest whole percentile with at least 10 samples beyond it in
    MIN_PASSES passes; fixed per workload, so it does not move with speed."""
    return max(50, math.floor(100 * (1 - 10 / (MIN_PASSES * per_pass))))


def busy_s(rec):
    return sum(r["latency_s"] for r in rec["requests"])


def end_to_end(passes, attempted, failed):
    # every attempt counts with its measured time; failures show in correct_ratio
    latencies = sorted(r["latency_s"] for rec in passes for r in rec["requests"])
    per_pass = len(passes[0]["requests"])
    p_tail = tail_percentile(per_pass)
    correct = attempted - failed
    rates = [sum(r["ok"] for r in rec["requests"]) / busy_s(rec) for rec in passes]
    setups = [rec["setup_s"] for rec in passes]
    reused = sum(r["reused_context"] for r in passes[0]["requests"])
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, p_tail),
        "solved_per_s": statistics.median(rates),
        "correct_ratio": correct / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in passes),
    }
    beyond = len(latencies) - math.ceil(p_tail / 100 * len(latencies))
    notes = {
        "latency_p50_s": f"p50 of {len(latencies)} requests",
        "latency_tail_s": f"p{p_tail} of {len(latencies)} requests, {beyond} beyond it",
        "solved_per_s": f"median of {len(passes)} passes: correct answers / request time",
        "correct_ratio": f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted})",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"max over {len(passes)} worker processes",
    }
    durations = ", ".join(f"{rec['duration_s']:.1f}" for rec in passes)
    context = (
        f"{len(passes)} passes of {per_pass} requests ({durations} s), closed loop, 1 client; "
        f"sharing: {reused} of {per_pass} requests reuse an earlier request's MapContext"
    )
    return metrics, notes, context


def per_layer(untraced, traced):
    metrics = dict(traced["layers"])
    busy = [busy_s(untraced), busy_s(traced)]
    metrics["trace.overhead_s"] = busy[1] - busy[0]
    notes = {"trace.overhead_s": f"traced {busy[1]:.3f} s - untraced {busy[0]:.3f} s"}
    return metrics, notes, "one untraced and one traced pass; counts are per pass"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rowfibers benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rowfibers" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/rowfibers package or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        if args.trace:
            passes = [run_worker(args.workload, args.seed, args.size, t, deadline)
                      for t in (False, True)]
        else:
            passes = []
            while len(passes) < MIN_PASSES or (
                time.monotonic() - started + max(p["duration_s"] for p in passes)
                <= args.seconds
            ):
                passes.append(run_worker(args.workload, args.seed, args.size, False, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = judge(passes, args.workload, args.seed)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics, notes, context = per_layer(*passes)
        wanted = spec["per_layer"]
    else:
        metrics, notes, context = end_to_end(passes, attempted, failed)
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}: {context}")
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} {note}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
