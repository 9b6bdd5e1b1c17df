"""Record the benchmark's reference answers and run context.

    python3 perfbench/record.py --commit HASH

Runs one pass of each workload at the default seed and writes

* ``reference.json``: the canonical answer of every request.  ``run.py``
  compares against it at the default seed, and on every seed for inputs
  that do not depend on the seed.  Record it only from a commit whose
  answers are trusted; a later change that alters an answer fails the
  benchmark instead of silently moving the reference.
* ``CONTEXT.json``: the commit, Python version, CPU count, and per workload
  the reason it exists, its input size and its measured sharing share (the
  fraction of requests whose MapContext served an earlier request).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from run import BUDGET_S, HERE, REFERENCE, ROOT, WORKLOADS, run_worker

DEFAULT_SEED = 0

INPUT_SIZE = {
    "fiber_chain": (
        "69 requests on 13 maps over F_32003: the 5 golden (map, point) pairs of "
        "acceptance criterion 8i and every other coordinate point of those 4 maps; "
        "the image of a random source point and a random point of P^r on the "
        "quartic, twisted cubic and double cover; all coordinate points, one image "
        "and one random target on one monomial map P^1 -> P^r of each shape with "
        "degree 2-3 and on 3 random quadric maps P^2 -> P^2; all coordinate points "
        "and four images on one quadric map P^2 -> P^3 (the heavy tail). Left "
        "out, because one request outlasts a run: generic points on the monomial "
        "cover (30-35 s each) and random cubic maps on P^2 (up to 86 s)"
    ),
    "power_rows": (
        "41 requests: the quartic and twisted cubic for d = 2..6, the monomial "
        "cover for d = 2, and all 15 quadric monomial maps P^2 -> P^3 at d = 2, "
        "each twice on contexts with their own seeds (hence their own sample "
        "points). Left out: the cover at d = 3 (53 s alone) and random maps on P^2 "
        "with cubics or 5 generators (0.03-0.54 s each, so the median and tail "
        "would move with the seed)"
    ),
    "cli_data": (
        "19 invocations of rowfibers.cli.main with --json: the 10 README commands, "
        "fiber, birational (5 trials) and spread on tests/data/plane_cubics.txt, "
        "and 6 more invocations whose answers tests/test_cli.py states"
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the answers come from")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    answers, workloads = {}, {}
    for workload in WORKLOADS:
        record = run_worker(workload, DEFAULT_SEED, "full", False, time.monotonic() + BUDGET_S)
        bad = [r["key"] for r in record["requests"] if r["problems"]]
        if bad:
            raise SystemExit(f"{workload}: requests fail their checks: {bad}")
        answers[workload] = {r["key"]: r["answer"] for r in record["requests"]}
        requests = record["requests"]
        workloads[workload] = {
            "why": why[workload],
            "input_size": INPUT_SIZE[workload],
            "requests_per_pass": len(requests),
            "sharing_share": sum(r["reused_context"] for r in requests) / len(requests),
        }
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "answers": answers}, indent=1) + "\n")
    context = {
        "commit": args.commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
    }
    (HERE / "CONTEXT.json").write_text(json.dumps(context, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
