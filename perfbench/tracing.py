"""In-memory span tracing of the public functions of every polydesign module.

:func:`install` replaces each public module-level function of the traced
modules by a wrapper, in every ``polydesign.*`` namespace that binds it.
Calls between modules resolve through module globals at call time, so
``solver.solve`` reaching ``polydesign.solver.lagrange_no_intercept`` or
``elfving.verify`` reaching ``polydesign.elfving.phi_c`` go through the
wrappers as well. ``Polynomial.__call__`` is patched on the class.

Each wrapped call records a span (id, parent id, op id, name, start, end).
A module's self time is the duration of its spans minus the part covered by
their child spans. Spans stay in memory until :meth:`Tracer.write_spans`.
Nothing inside the package is edited on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

#: traced modules, in the order the layers are reported
MODULES = ("points", "polynomial", "solver", "design", "elfving", "document", "cli", "oracle")


def _count_eval_points(tracer, args, kwargs, result):
    tracer.counts["polynomial.eval_points"] += int(np.size(args[1]))


def _count_rejects(tracer, args, kwargs, result):
    if not result.verdict:
        tracer.counts["elfving.rejects"] += 1


def _count_rendered_bytes(tracer, args, kwargs, result):
    tracer.counts["document.bytes"] += len(result.encode("utf-8"))


def _count_nonzero_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.counts["cli.exit_nonzero"] += 1


def _count_supports(tracer, args, kwargs, result):
    tracer.counts["solver.supports_returned"] += len(result)


def _count_lp_size(tracer, args, kwargs, result):
    # computed, not measured: the size of the equality matrix elfving_lp builds
    problem, grid = args[0], args[1]
    columns = 2 * int(np.unique(np.asarray(grid, dtype=float)).size) + 1
    tracer.counts["oracle.lp_columns"] += columns
    tracer.counts["oracle.lp_matrix_bytes"] += (problem.n + 1) * columns * 8


#: result hooks, run after the span has ended so they cost no traced time
HOOKS = {
    "polynomial.Polynomial.__call__": _count_eval_points,
    "elfving.verify": _count_rejects,
    "document.render_document": _count_rendered_bytes,
    "cli.main": _count_nonzero_exit,
    "solver.optimal_supports": _count_supports,
    "oracle.elfving_lp": _count_lp_size,
}


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()  # by "module.function"
        self.self_ns: Counter = Counter()  # by module
        self.exceptions: Counter = Counter()  # by "module.ExceptionType"
        self.counts: Counter = Counter()  # hook counters by metric name
        self._stack: list[list] = []  # [span id, child ns] of the open spans
        self._last_exc: dict = {}  # module -> last exception counted there

    def wrap(self, module: str, name: str, fn):
        qualified = f"{module}.{name}"
        hook = HOOKS.get(qualified)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled in when the span ends
            frame = [span_id, 0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if self._last_exc.get(module) is not exc:
                    self._last_exc[module] = exc
                    self.exceptions[f"{module}.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                duration = t1 - t0
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_ns[module] += duration - frame[1]
                self.calls[qualified] += 1
                self.spans[span_id] = (span_id, parent, self.op_id, qualified, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def module_calls(self, module: str) -> int:
        return sum(c for name, c in self.calls.items() if name.split(".", 1)[0] == module)

    def module_exceptions(self, module: str) -> int:
        return sum(c for name, c in self.exceptions.items() if name.split(".", 1)[0] == module)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [id, parent, op, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def install(tracer: Tracer) -> int:
    """Wrap every public function of :data:`MODULES`; returns the number wrapped."""
    modules = {name: importlib.import_module(f"polydesign.{name}") for name in MODULES}
    namespaces = [m for name, m in sys.modules.items() if name == "polydesign" or name.startswith("polydesign.")]
    wrapped = 0
    for short, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            replacement = tracer.wrap(short, name, obj)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is obj:
                        setattr(namespace, attr, replacement)
            wrapped += 1
    polynomial_cls = modules["polynomial"].Polynomial
    polynomial_cls.__call__ = tracer.wrap("polynomial", "Polynomial.__call__", polynomial_cls.__call__)
    return wrapped + 1
