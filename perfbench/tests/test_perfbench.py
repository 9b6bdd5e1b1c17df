"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import rowfibers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, TRACED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, size="tiny"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = last_json(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, second = (last_json(bench(workload, 1))["metrics"] for _ in range(2))
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        if m["unit"] != "s":
            assert first[m["name"]] == second[m["name"]], m["name"]


class _Profile:
    """A run_pass session that profiles exactly the windows the tracer traces."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def begin_request(self, index):
        self.profile.enable()

    def end_request(self):
        self.profile.disable()


def _originals():
    out = {}
    for module_name, path, _ in TRACED:
        owner = getattr(rowfibers, module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        code = owner.__dict__[attr].__code__
        out[f"{module_name}.{path}"] = (code.co_filename, code.co_firstlineno, code.co_name)
    return out


def test_wrapper_counts_match_cprofile():
    """No import binding is missed: every traced function is called through its
    wrapper exactly as often as cProfile sees the function itself called."""
    originals = _originals()
    seen = set()
    for workload in run.WORKLOADS:
        session = _Profile()
        worker.run_pass(workload, 3, "tiny", session)
        stats = pstats.Stats(session.profile).stats
        tracer = Tracer()
        tracer.install(rowfibers)
        try:
            worker.run_pass(workload, 3, "tiny", tracer)
        finally:
            tracer.uninstall()
        for qualname, key in originals.items():
            profiled = stats[key][1] if key in stats else 0
            assert tracer.function_calls.get(qualname, 0) == profiled, (workload, qualname)
            if profiled:
                seen.add(qualname)
    assert seen == set(originals), set(originals) - seen


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(getattr(rowfibers, name))) for name in MODULES}
    tracer = Tracer()
    tracer.install(rowfibers)
    tracer.uninstall()
    for name in MODULES:
        assert dict(vars(getattr(rowfibers, name))) == before[name]


def test_judge_counts_wrong_and_unstable_answers():
    def request(key, answer, problems=()):
        return {"key": key, "fixed": False, "answer": answer, "problems": list(problems)}

    passes = [
        {"requests": [request("a", 1), request("b", 2), request("c", 3)]},
        {"requests": [request("a", 1), request("b", 5), request("c", None, ["raised"])]},
    ]
    attempted, failed, lines = run.judge(passes, "no_such_workload", 3)
    assert (attempted, failed) == (6, 2)
    assert any("differs from the first pass" in line for line in lines)


def test_tail_percentile_leaves_ten_samples_beyond():
    for per_pass in (19, 48, 100):
        n = run.MIN_PASSES * per_pass
        p = run.tail_percentile(per_pass)
        values = list(range(n))
        beyond = n - 1 - values.index(run.percentile(values, p))
        assert beyond >= 10
        assert n - 1 - values.index(run.percentile(values, p + 1)) < 10


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("fiber_chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
