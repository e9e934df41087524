"""Benchmark worker: one workload, one closed-loop client, one fresh process.

Started by ``run.py``. The worker imports ``polydesign`` from the
checkout's ``src`` directory, builds the workload's inputs from the seed and
prints ``ready``; that moment ends set-up. It then warms up, runs whole
passes over the workload's problem set until ``--seconds`` have elapsed,
checks the outputs and prints one ``result {...}`` line.

With ``--trace 1`` it first runs untraced passes for half the time, then the
same number of passes with every public polydesign function wrapped
(see ``tracing.py``), and reports per-layer numbers per pass.

A hard correctness check that fails ends the worker with exit code 3.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from decimal import Decimal, localcontext

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

EXIT_HARD_CHECK = 3

WORKLOADS = ("solve_sweep", "certify_roundtrip", "oracle_crosscheck")
ALL_PAIRS = [(n, p) for n in range(1, 31) for p in range(1, n + 1)]
ORACLE_PAIRS = [(n, p) for n, p in ALL_PAIRS if n <= 8]
SMOKE_PAIRS = {
    "solve_sweep": [(1, 1), (3, 3), (6, 4), (9, 3), (30, 15)],
    "certify_roundtrip": [(1, 1), (3, 1), (4, 2), (6, 5), (13, 5)],
    "oracle_crosscheck": [(2, 1), (3, 3)],
}
#: one untimed pass over these first lets lazy imports and caches settle
WARM_PAIRS = [(2, 1), (3, 2), (4, 3)]

#: oracle grid and criterion-4 gates
ACCEPTANCE_GRID = 10001
INCLUDED_RTOL = 1e-7
LOWER_BOUND_ATOL = 1e-9
EXCLUDED_RTOL = 1e-3

#: relative size of the negative-control weight perturbation
PERTURBATION = 0.01
#: hard limits on the solver: reference tables and variance accuracy
TABLE_TOL = 1e-12
VARIANCE_RTOL = 1e-8
#: pairs whose compute output is produced twice and compared byte for byte
DETERMINISM_PAIRS = 5


class HardCheckError(Exception):
    """An output is wrong: the run is aborted instead of counted."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise HardCheckError(message)


def _perturbed(weights: list[float], index: int, sign: int) -> list[float]:
    """Scale one weight by 1 +- PERTURBATION and renormalize."""
    out = list(weights)
    out[index] *= 1.0 + sign * PERTURBATION
    total = math.fsum(out)
    return [w / total for w in out]


class SolveSweep:
    """``solve`` on every problem in seeded order."""

    def __init__(self, pd, rng: random.Random, pairs):
        self.pd = pd
        self.items = rng.sample(pairs, len(pairs))
        self.variance: dict = {}

    def ops(self, items):
        for n, p in items:
            yield functools.partial(self._solve, n, p)

    def _solve(self, n, p):
        result = self.pd.solve(self.pd.DesignProblem(n, p))
        return None, functools.partial(self._check, n, p, result)

    def _check(self, n, p, result):
        check(result.variance == result.h * result.h, f"solve({n}, {p}): variance != h*h")
        first = self.variance.setdefault((n, p), result.variance)
        check(first == result.variance, f"solve({n}, {p}): variance changed between passes")

    def finish(self, rng):
        pass


class CertifyRoundtrip:
    """``compute --format json`` -> file -> ``verify --file``, plus a negative control."""

    def __init__(self, pd, rng: random.Random, pairs, tmp_dir: str, inject_fault: bool = False):
        self.pd = pd
        self.cli = importlib.import_module("polydesign.cli")
        self.document = importlib.import_module("polydesign.document")
        # per pair: (design choice, weight index choice, sign) of its control
        self.items = [(n, p, (rng.random(), rng.random(), rng.choice((-1, 1))))
                      for n, p in rng.sample(pairs, len(pairs))]
        self.path = os.path.join(tmp_dir, "design.json")
        self.inject_fault = inject_fault
        self.documents: dict = {}
        self.variance: dict = {}
        self._control_text = None

    def ops(self, items):
        for n, p, control in items:
            yield functools.partial(self._round_trip, n, p, control)
            if n > 1:  # a single weight cannot be perturbed
                yield functools.partial(self._control, n, p)

    def _compute(self, n, p) -> tuple[int, str]:
        out = io.StringIO()
        code = self.cli.main(["compute", "--degree", str(n), "--coef", str(p), "--format", "json"], out=out)
        return code, out.getvalue()

    def _verify(self, n, p, text: str) -> int:
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return self.cli.main(["verify", "--file", self.path, "--degree", str(n), "--coef", str(p)],
                             out=io.StringIO())

    def _round_trip(self, n, p, control):
        self._control_text = None
        code, text = self._compute(n, p)
        if code != 0:
            return "compute_exit", None
        written = self._corrupted(text, control) if self.inject_fault else text
        code = self._verify(n, p, written)
        failure = None if code == 0 else "optimal_rejected"
        return failure, functools.partial(self._check_document, n, p, text, control)

    def _control(self, n, p):
        if self._control_text is None:  # the round trip produced no document
            return "control_missing", None
        code = self._verify(n, p, self._control_text)
        return (None if code == 1 else "control_accepted"), None

    def _corrupted(self, text: str, control) -> str:
        raw = json.loads(text)
        design = raw["designs"][0]
        if len(design["weights"]) > 1:
            design["weights"] = _perturbed(design["weights"], 0, control[2])
        return json.dumps(raw)

    def _check_document(self, n, p, text, control):
        doc = self.document.parse_document(text)
        check(doc.variance == doc.h * doc.h, f"compute({n}, {p}): variance != h*h")
        if (n, p) not in self.documents:
            # later passes must repeat these bytes, so one comparison suffices
            expected = self.document.document_from_result(self.pd.solve(self.pd.DesignProblem(n, p)))
            check(doc == expected, f"compute({n}, {p}): document does not re-parse to the solver's doubles")
        first = self.documents.setdefault((n, p), text)
        check(first == text, f"compute({n}, {p}): output changed between passes")
        self.variance[(n, p)] = doc.variance
        design = doc.designs[int(control[0] * len(doc.designs))]
        index = int(control[1] * len(design["weights"]))
        self._control_text = json.dumps({
            "support": design["support"],
            "weights": _perturbed(design["weights"], index, control[2]),
        })

    def finish(self, rng):
        for n, p, _ in rng.sample(self.items, min(DETERMINISM_PAIRS, len(self.items))):
            first, second = self._compute(n, p), self._compute(n, p)
            check(first == second, f"compute({n}, {p}): two identical calls differ")
            check(first[1] == self.documents[(n, p)], f"compute({n}, {p}): output changed after the run")


class OracleCrosscheck:
    """``oracle_variance`` on the acceptance grid, support included and excluded."""

    def __init__(self, pd, rng: random.Random, pairs):
        self.pd = pd
        self.items = rng.sample(pairs, len(pairs))
        self.variance: dict = {}
        self._solved = None

    def ops(self, items):
        for n, p in items:
            yield functools.partial(self._included, n, p)
            yield functools.partial(self._excluded, n, p)

    def _included(self, n, p):
        problem = self.pd.DesignProblem(n, p)
        result = self.pd.solve(problem)
        self._solved = result.variance
        value = self.pd.oracle_variance(problem, grid_size=ACCEPTANCE_GRID, include_solver_support=True)
        ok = abs(value - result.variance) <= INCLUDED_RTOL * result.variance
        return (None if ok else "gate_included"), functools.partial(self._check, n, p, result)

    def _excluded(self, n, p):
        variance = self._solved
        value = self.pd.oracle_variance(self.pd.DesignProblem(n, p), grid_size=ACCEPTANCE_GRID)
        if value < variance - LOWER_BOUND_ATOL:
            return "gate_lower_bound", None
        if abs(value - variance) > EXCLUDED_RTOL * variance:
            return "gate_gap", None
        return None, None

    def _check(self, n, p, result):
        check(result.variance == result.h * result.h, f"solve({n}, {p}): variance != h*h")
        self.variance[(n, p)] = result.variance

    def finish(self, rng):
        pass


def relative_error(value: float, reference: str) -> float:
    with localcontext() as ctx:
        ctx.prec = 60
        ref = Decimal(reference)
        return float(abs(Decimal(value) - ref) / ref)


def correct_digits(variance: dict, reference: dict) -> tuple[float, float, tuple]:
    """(-log10 worst relative error, worst error, its problem); capped at 2**-53."""
    worst, where = 0.0, None
    for (n, p), value in sorted(variance.items()):
        err = relative_error(value, reference["variance"][f"{n}/{p}"])
        check(err <= VARIANCE_RTOL, f"variance of ({n}, {p}) off the 50-digit reference by {err:.3e}")
        if err >= worst:
            worst, where = err, (n, p)
    return -math.log10(max(worst, 2.0**-53)), worst, where


def check_reference_tables(pd, reference: dict) -> float:
    """Degree-3 and degree-4 designs against the stored mpmath tables."""
    worst = 0.0
    for key, tables in reference["designs"].items():
        n, p = map(int, key.split("/"))
        designs = pd.solve(pd.DesignProblem(n, p)).designs
        got = sorted(([float(x) for x in d.support], [float(w) for w in d.weights]) for d in designs)
        want = sorted(([float(x) for x in t["support"]], [float(w) for w in t["weights"]]) for t in tables)
        check([len(s) for s, _ in got] == [len(s) for s, _ in want], f"({n}, {p}): designs differ in shape")
        for (support, weights), (ref_support, ref_weights) in zip(got, want):
            dev = max(abs(a - b) for a, b in zip(support + weights, ref_support + ref_weights))
            check(dev <= TABLE_TOL, f"({n}, {p}): design off the reference table by {dev:.3e}")
            worst = max(worst, dev)
    return worst


def run_passes(workload, tracer=None, seconds: float = 0.0, passes: int = 0) -> list[dict]:
    """Whole passes over ``workload.items``: ``passes`` of them, or as many as
    end nearest to ``seconds`` (at least one).

    Each op is timed alone; the hard checks it hands back run untimed and
    untraced between ops. Without an installed tracer nothing is traced.
    """
    tracer = tracer or tracing.Tracer()
    out = []
    start = time.perf_counter()
    while True:
        latencies = []
        failures: Counter = Counter()
        for op in workload.ops(workload.items):
            tracer.op_id += 1
            tracer.active = True
            t0 = time.perf_counter()
            failure, after = op()
            latencies.append(time.perf_counter() - t0)
            tracer.active = False
            if failure is not None:
                failures[failure] += 1
            if after is not None:
                after()
        out.append({"latencies": latencies, "failures": failures})
        elapsed = time.perf_counter() - start
        if passes and len(out) >= passes:
            return out
        if not passes and elapsed + 0.5 * elapsed / len(out) >= seconds:
            return out


def summarize(passes: list[dict]) -> dict:
    latencies = [x for rec in passes for x in rec["latencies"]]
    failures: Counter = Counter()
    for rec in passes:
        failures.update(rec["failures"])
    ordered = sorted(latencies)
    count = len(ordered)
    busy = math.fsum(latencies)
    summary = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0]["latencies"]),
        "attempted": count,
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "pass_busy_s": [math.fsum(rec["latencies"]) for rec in passes],
        "busy_s": busy,
        "throughput_ops_s": count / busy,
        # the host's speed drifts over tens of seconds: averaging per-pass
        # medians over the run is steadier than one median over all ops
        "latency_p50_ms": 1e3 * statistics.fmean(statistics.median(rec["latencies"]) for rec in passes),
        "latency_samples": count,
    }
    if count >= 200:  # at least ten samples beyond the 95th percentile
        rank = math.ceil(0.95 * count) - 1
        summary["latency_p95_ms"] = 1e3 * ordered[rank]
        summary["latency_p95_beyond"] = count - 1 - rank
    return summary


def layer_metrics(tracer, passes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer numbers per pass; counts marked computed are derived, not timed."""
    calls, counts = tracer.calls, tracer.counts
    metrics = {}
    for module in tracing.MODULES:
        metrics[f"{module}.calls"] = tracer.module_calls(module) / passes
        metrics[f"{module}.self_s"] = tracer.self_ns[module] / 1e9 / passes
        metrics[f"{module}.exceptions"] = tracer.module_exceptions(module) / passes
    weights_calls = calls["solver.weights_from_lagrange"]
    metrics.update({
        "solver.weights_calls": weights_calls / passes,
        "solver.support_useful_ratio": counts["solver.supports_returned"] / weights_calls if weights_calls else 0.0,
        "solver.degenerate_errors": tracer.exceptions["solver.DegenerateCoefficientError"] / passes,
        "polynomial.lagrange_calls": calls["polynomial.lagrange_no_intercept"] / passes,
        "polynomial.eval_calls": calls["polynomial.Polynomial.__call__"] / passes,
        "polynomial.eval_points": counts["polynomial.eval_points"] / passes,
        "design.infomatrix_calls": calls["design.information_matrix"] / passes,
        "design.pinv_calls": calls["design.pseudo_inverse"] / passes,
        "elfving.verify_calls": calls["elfving.verify"] / passes,
        "elfving.rejects": counts["elfving.rejects"] / passes,
        "document.render_calls": calls["document.render_document"] / passes,
        "document.parse_calls": calls["document.parse_design_file"] / passes,
        "document.bytes": counts["document.bytes"] / passes,
        "cli.main_calls": calls["cli.main"] / passes,
        "cli.exit_nonzero": counts["cli.exit_nonzero"] / passes,
        "oracle.lp_calls": calls["oracle.elfving_lp"] / passes,
        "oracle.lp_columns": counts["oracle.lp_columns"] / passes,
        "oracle.lp_matrix_bytes": counts["oracle.lp_matrix_bytes"] / passes,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(tracer.spans) / passes,
    })
    return metrics


def environment(pd, seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {"blas": deps["blas"].get("name"), "lapack": deps["lapack"].get("name")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "polydesign": pd.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **blas,
        "seed": seed,
    }


def build(name: str, pd, rng, pairs, tmp_dir: str, inject_fault: bool):
    if name == "solve_sweep":
        return SolveSweep(pd, rng, pairs)
    if name == "certify_roundtrip":
        return CertifyRoundtrip(pd, rng, pairs, tmp_dir, inject_fault)
    return OracleCrosscheck(pd, rng, pairs)


def default_pairs(name: str) -> list:
    return ORACLE_PAIRS if name == "oracle_crosscheck" else ALL_PAIRS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit right after set-up")
    parser.add_argument("--smoke", action="store_true", help="a few problems per workload")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb every optimal design before verify (tests the failure count)")
    args = parser.parse_args(argv)

    # --- set-up: import the library and build the inputs -------------------
    pd = importlib.import_module("polydesign")
    for name in tracing.MODULES:
        importlib.import_module(f"polydesign.{name}")
    source = os.path.join(ROOT, "src")
    if not os.path.abspath(pd.__file__).startswith(source + os.sep):
        print(f"polydesign imported from {pd.__file__}, not from {source}", file=sys.stderr)
        return 2
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    rng = random.Random(args.seed)
    pairs = SMOKE_PAIRS[args.workload] if args.smoke else default_pairs(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp_dir:
        workload = build(args.workload, pd, rng, pairs, tmp_dir, args.inject_fault)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        try:
            result = measure(args, pd, workload, tmp_dir, reference, rng)
        except HardCheckError as exc:
            print(f"hard correctness check failed: {exc}", file=sys.stderr)
            return EXIT_HARD_CHECK
    print("result " + json.dumps(result), flush=True)
    return 0


def measure(args, pd, workload, tmp_dir, reference, rng) -> dict:
    run_passes(build(args.workload, pd, random.Random(args.seed), WARM_PAIRS, tmp_dir, False), passes=1)

    result = {"workload": args.workload, "env": environment(pd, args.seed)}
    if args.trace:
        untraced = run_passes(workload, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        result["wrapped_functions"] = tracing.install(tracer)
        traced = run_passes(workload, tracer, passes=len(untraced))
        result["summary"] = summarize(traced)
        untraced_s = summarize(untraced)["busy_s"]
        result["layers"] = layer_metrics(tracer, len(traced), untraced_s, result["summary"]["busy_s"])
        result["exceptions"] = dict(sorted(tracer.exceptions.items()))
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        passes = run_passes(workload, seconds=args.seconds)
        result["summary"] = summarize(passes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- after the timed loop: hard checks and the reference comparison ----
    workload.finish(rng)
    result["table_max_deviation"] = check_reference_tables(pd, reference)
    digits, worst, where = correct_digits(workload.variance, reference)
    result["variance_correct_digits"] = digits
    result["variance_worst_rel_error"] = worst
    result["variance_worst_problem"] = where
    return result


if __name__ == "__main__":
    sys.exit(main())
