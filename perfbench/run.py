"""polydesign benchmark: one workload per invocation, metrics on the last line.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 25 --trace 0

The library is imported from the ``src`` directory next to ``perfbench``.
Workloads (see ``worker.py``):

* ``solve_sweep``        -- ``solve`` on all 465 problems 1 <= p <= n <= 30;
* ``certify_roundtrip``  -- ``cli compute --format json`` -> file -> ``cli verify``
  for the same problems, each with a perturbed design that must be rejected;
* ``oracle_crosscheck``  -- the LP oracle on grid 10001 for the 36 problems
  with n <= 8, support included and excluded, with the acceptance gates.

Each run spawns the worker several times; set-up time is the median of the
spawns, from process start to the library imported and inputs built. The
last spawn measures. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones. Every metric is also printed above the JSON line with
its unit and sample count, and the full record (environment included) is
written to ``.perfbench-out/``. A failed hard correctness check exits 1
without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: spawns per run; the median of their set-up times is setup_s
SETUP_SPAWNS = 5
SMOKE_SETUP_SPAWNS = 2
#: the whole invocation must end well inside three minutes
DEADLINE_S = 170.0
#: single-threaded BLAS: one client thread, no pool noise in small eigh calls
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: metrics whose value is derived from call arguments, not measured
COMPUTED = {"polynomial.eval_points", "oracle.lp_columns", "oracle.lp_matrix_bytes"}


class RunError(Exception):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "polydesign")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one worker; returns (seconds until it printed ready, rest of its stdout)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise RunError(f"worker did not finish set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return setup, rest


def end_to_end(record: dict, setup_s: float) -> dict:
    summary = record["summary"]
    return {
        "setup_s": setup_s,
        "throughput_ops_s": summary["throughput_ops_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "success_ratio": 1.0 - summary["failed"] / summary["attempted"],
        "peak_rss_mb": record["peak_rss_mb"],
        "variance_correct_digits": record["variance_correct_digits"],
    }


def report(args, record: dict, metrics: dict, units: dict, setups: list[float]) -> None:
    summary = record["summary"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {summary['passes']}  ops/pass {summary['ops_per_pass']}  ops {summary['attempted']}")
    for name, value in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<34} {value:>16.6g} {units[name]}{label}")
    if args.trace:
        print(f"  exceptions raised out of public functions: {record['exceptions'] or 'none'}")
        print(f"  spans: {record['spans_file']}")
    else:
        print(f"  {'':<26} setup over {len(setups)} spawns: {', '.join(f'{s:.3f}' for s in setups)}")
    samples = summary["latency_samples"]
    print(f"  {'latency samples':<26} {samples:>14d} ops")
    if "latency_p95_ms" in summary:
        print(f"  {'latency_p95_ms':<26} {summary['latency_p95_ms']:>14.6g} ms"
              f"  ({summary['latency_p95_beyond']} of {samples} samples beyond)")
    else:
        print(f"  {'latency_p95_ms':<26} {'n/a':>14}     (needs >= 200 ops, run has {samples})")
    failed_ratio = summary["failed"] / summary["attempted"]
    print(f"  {'failed_ratio':<26} {failed_ratio:>14.6g} ratio  "
          f"({summary['failed']}/{summary['attempted']}: {summary['failures'] or 'none'})")
    print(f"  {'variance worst rel error':<26} {record['variance_worst_rel_error']:>14.3e}"
          f"  at {record['variance_worst_problem']}; degree-3/4 tables within "
          f"{record['table_max_deviation']:.1e}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="polydesign benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few problems per workload")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb every optimal design before verify")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polydesign", "__init__.py")):
        print("no src/polydesign here: run from the root of a polydesign checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    spawns = SMOKE_SETUP_SPAWNS if args.smoke else SETUP_SPAWNS
    try:
        setups = [spawn(args, True, deadline)[0] for _ in range(spawns - 1)]
        setup, output = spawn(args, False, deadline)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    lines = [line for line in output.splitlines() if line.startswith("result ")]
    if len(lines) != 1:
        print("benchmark failed: the worker printed no result", file=sys.stderr)
        return 1
    record = json.loads(lines[0][len("result "):])
    setup_s = statistics.median(setups)
    record["env"].update({"git_commit": git_commit(), "source_sha256": source_digest(),
                          "ops": {args.workload: record["summary"]["attempted"]}})
    record["setup_spawns_s"] = setups
    computed = record["layers"] if args.trace else end_to_end(record, setup_s)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(computed) != set(units):
        print(f"benchmark failed: metrics {sorted(set(computed) ^ set(units))} "
              "are not both declared and measured", file=sys.stderr)
        return 1
    metrics = {name: computed[name] for name in units}

    report(args, record, metrics, units, setups)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "computed_metrics": sorted(COMPUTED & set(metrics)), "setup_s": setup_s,
                   **record}, handle, indent=1, sort_keys=True)

    summary = record["summary"]
    print(json.dumps({
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
