"""Smoke tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench

Each test runs ``run.py --smoke``: a few problems per workload, so a run
takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_sweep", "certify_roundtrip", "oracle_crosscheck")

sys.path.insert(0, HERE)
import tracing  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(workload, trace):
    result = last_json(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)


def test_perturbed_optimal_design_counts_as_failed():
    clean = last_json(bench("certify_roundtrip", 0))
    faulty = last_json(bench("certify_roundtrip", 0, "--inject-fault"))
    clean_ratio = clean["failed"] / clean["attempted"]
    faulty_ratio = faulty["failed"] / faulty["attempted"]
    assert faulty_ratio > clean_ratio
    assert faulty["metrics"]["success_ratio"]["value"] == pytest.approx(1.0 - faulty_ratio)


def test_exits_nonzero_without_the_library():
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench-out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = bench("solve_sweep", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def child():
        return sum(range(20000))

    wrapped_child = tracer.wrap("inner", "child", child)
    wrapped_parent = tracer.wrap("outer", "parent", lambda: wrapped_child() + wrapped_child())
    tracer.active = True
    wrapped_parent()
    tracer.active = False

    spans = {s[3]: s for s in tracer.spans}
    outer = spans["outer.parent"]
    assert tracer.calls == {"outer.parent": 1, "inner.child": 2}
    children = [s for s in tracer.spans if s[1] == outer[0]]
    assert len(children) == 2
    covered = sum(s[5] - s[4] for s in children)
    assert tracer.self_ns["outer"] == (outer[5] - outer[4]) - covered
    assert tracer.self_ns["inner"] == covered


def test_exception_counted_once_per_module():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("mod", "inner", fail)
    outer = tracer.wrap("mod", "outer", lambda: inner())
    tracer.active = True
    with pytest.raises(ValueError):
        outer()
    assert tracer.exceptions == {"mod.ValueError": 1}
    assert tracer.module_calls("mod") == 2
