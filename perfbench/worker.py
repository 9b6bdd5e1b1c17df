"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--size full|tiny]
                                   [--trace] [--spans PATH]

Prints one JSON line: the monotonic clock reading at which the first request
could be sent (set-up ends), then per request its key, latency, whether the
request reused a MapContext built by an earlier one, its canonical answer and
any problems found by the check; then peak RSS and, with --trace, the
per-layer metrics.  The orchestrator (run.py) starts one worker per pass so
that no module-level state carries from one pass into the next.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import rowfibers  # noqa: E402
import workloads  # noqa: E402


class _NoSession:
    def begin_request(self, index):
        pass

    def end_request(self):
        pass


def run_pass(workload: str, seed: int, size: str, session=None) -> dict:
    """Build the inputs, then send each request once the previous one returned.

    ``session`` is told when set-up (index -1) and each request start and
    end (the tracer, or a profiler in the benchmark's own tests); checks run
    outside those windows.
    """
    session = session or _NoSession()
    session.begin_request(-1)  # set-up: parsing the inputs
    requests = workloads.build(workload, seed, size, ROOT)
    session.end_request()
    ready = time.monotonic()
    records = []
    for index, req in enumerate(requests):
        reused = req.map is not None and req.map.built
        error = None
        session.begin_request(index)
        start = time.perf_counter()
        try:
            result = req.run()
        except Exception as exc:  # a raising request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        session.end_request()
        answer, problems = None, []
        if error is None:
            try:
                answer, problems = req.check(result)
            except Exception as exc:  # a check that cannot run fails the request
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        records.append(
            {
                "key": req.key,
                "fixed": req.fixed,
                "latency_s": latency,
                "reused_context": reused,
                "answer": answer,
                "problems": problems,
            }
        )
    return {"ready": ready, "requests": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(rowfibers)
    record = run_pass(args.workload, args.seed, args.size, tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
