"""Span tracing from the benchmark's side of each layer boundary.

The traced run rebinds the public functions listed in ``SPAN_TABLE`` in
the modules that call them (``module.name = wrapper``), so every call
across a layer boundary records a span: name, layer, parent, start and
end.  Spans stay in memory and are reduced to per-layer metrics when
the traced iteration ends.  Nothing inside ``src/`` changes; the exact
solver counters come from the program's own ``stats_scope``.

A function imported inside another function body (``from ..faults
import inject`` inside a method) is looked up on its defining module at
call time, so the defining module is patched for those callers.
"""

import contextlib
import functools
import importlib
import time

from repro.runtime.stats import current_stats, stats_scope
from workloads import patched

#: (module or "module:Class", attribute, layer).  One wrapper per
#: function object, installed under every listed calling module.
SPAN_TABLE = (
    # repro.cells - instance build
    ("repro.core.pulse", "build_path", "cells"),
    # repro.faults - fault injection
    ("repro.core.pulse", "inject", "faults"),
    ("repro.core.coverage", "inject", "faults"),
    ("repro.faults", "inject", "faults"),
    ("repro.core.coverage", "set_fault_resistance", "faults"),
    ("repro.faults", "set_fault_resistance", "faults"),
    # repro.spice - scalar transient (mna + transient)
    ("repro.core.pulse", "run_transient", "spice.scalar"),
    # repro.spice.batch - lockstep transient and stacked Newton
    ("repro.core.pulse", "run_transient_batch", "spice.batch"),
    ("repro.spice.transient", "newton_solve_batch", "spice.batch"),
    ("repro.spice.batch", "newton_solve_batch", "spice.batch"),
    # repro.core - drivers, nominal transfer, measure_* (waveform)
    ("repro.core.experiments", "calibrate_pulse_test", "core"),
    ("repro.core.experiments", "calibrate_delay_test", "core"),
    ("repro.core.experiments", "sweep_pulse_measurements", "core"),
    ("repro.core.experiments", "sweep_delay_measurements", "core"),
    ("repro.core.experiments", "pulse_coverage", "core"),
    ("repro.core.experiments", "delay_coverage", "core"),
    ("repro.core.calibration", "characterize_transfer", "core"),
    ("repro.core.transfer", "minimum_propagatable_width", "core"),
    ("repro.core.pulse", "measure_output_pulse", "core"),
    ("repro.core.pulse", "measure_path_delay", "core"),
    ("repro.core.transfer", "measure_output_pulse", "core"),
    ("repro.core.coverage", "measure_output_pulse", "core"),
    ("repro.core.coverage", "measure_path_delay", "core"),
    ("repro.core.coverage", "measure_output_pulse_batch", "core"),
    ("repro.core.coverage", "measure_path_delay_batch", "core"),
    ("repro.core.calibration", "measure_output_pulse", "core"),
    ("repro.core.calibration", "measure_path_delay", "core"),
    ("repro.core.calibration", "measure_output_pulse_batch", "core"),
    ("repro.core.calibration", "measure_path_delay_batch", "core"),
    # repro.logic - site evaluation, paths, ATPG, pulse model
    ("repro.logic.campaign", "evaluate_fault_site", "logic"),
    ("repro.logic.campaign", "paths_through", "logic"),
    ("repro.logic.campaign", "characterize_path_for_test", "logic"),
    ("repro.logic.campaign", "path_model_from_netlist", "logic"),
    ("repro.logic.campaign", "minimum_detectable_resistance", "logic"),
    # repro.runtime - dispatch, hashing, cache
    ("repro.runtime.runner:Runtime", "run", "runtime"),
    ("repro.runtime.runner:Runtime", "run_batched", "runtime"),
    ("repro.runtime.cache:ResultCache", "get", "runtime"),
    ("repro.runtime.cache:ResultCache", "put", "runtime"),
    ("repro.runtime.runner", "stable_hash", "runtime"),
    ("repro.runtime", "stable_hash", "runtime"),
    ("repro.logic.campaign", "stable_hash", "runtime"),
    ("repro.core.coverage", "stable_hash", "runtime"),
    ("repro.core.calibration", "stable_hash", "runtime"),
)

#: the layers the attribution check counts as named
LAYERS = ("cells", "faults", "spice.scalar", "spice.batch", "core",
          "logic", "runtime")

ROOT_LAYER = "workload"

#: a workload is flagged when more of its traced wall than this share is
#: spent outside every named layer
UNATTRIBUTED_LIMIT = 0.10


def _resolve(spec):
    module_name, _, class_name = spec.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "extra")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.extra = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; :meth:`installed` patches SPAN_TABLE."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer=ROOT_LAYER):
        """A span around the benchmark's own code (the traced roots)."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, layer):
        special = {"run_transient": self._scalar_transient,
                   "newton_solve_batch": self._batch_newton}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                if special is not None:
                    return special(span, fn, args, kwargs)
                return fn(*args, **kwargs)
            except Exception as exc:
                span.extra = {"error": type(exc).__name__}
                raise
            finally:
                self._close(span)

        return traced

    @staticmethod
    def _scalar_transient(span, fn, args, kwargs):
        # the solver's own phase timer splits Newton time out of the
        # transient (mna.newton_solve records it per solve)
        with stats_scope() as stats:
            result = fn(*args, **kwargs)
        span.extra = {"newton_s": stats.phase_s.get("newton", 0.0)}
        return result

    @staticmethod
    def _batch_newton(span, fn, args, kwargs):
        # a private scope isolates this call's per-row iteration counts:
        # rows x lockstep iterations is the stacked work, the summed row
        # iterations the useful part
        parent = current_stats()
        with stats_scope() as stats:
            result = fn(*args, **kwargs)
        iters = [rec.get("newton_iterations", 0)
                 for rec in stats.samples.values()]
        span.extra = {"row_iters": sum(iters),
                      "capacity": len(iters) * max(iters, default=0)}
        # hand the per-row attribution back to the enclosing scope, which
        # the private scope's merge deliberately leaves out
        for row, rec in stats.samples.items():
            for counter, amount in rec.items():
                parent.count_sample(row, counter, amount)
        return result

    @contextlib.contextmanager
    def installed(self):
        """Patch every SPAN_TABLE entry for the duration of the block."""
        wrappers = {}
        with contextlib.ExitStack() as stack:
            for spec, attr, layer in SPAN_TABLE:
                target = _resolve(spec)
                original = getattr(target, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(original, attr, layer)
                stack.enter_context(
                    patched(target, attr, wrappers[id(original)]))
            yield self


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def check_nesting(spans, eps=1e-9):
    """Problems with the span tree (empty when every child lies inside
    its parent and no self time is negative)."""
    problems = []
    for index, span in enumerate(spans):
        if span.end is None:
            problems.append("span {} never closed".format(span.name))
            continue
        if span.parent >= 0:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                problems.append("span {} escapes its parent {}".format(
                    span.name, parent.name))
    for span, own in zip(spans, self_times(spans)):
        if own < -eps:
            problems.append("span {} has negative self time {:.3g}"
                            .format(span.name, own))
    return problems


def _outermost(spans, index, predicate):
    """True when no ancestor of ``spans[index]`` satisfies predicate."""
    parent = spans[index].parent
    while parent >= 0:
        if predicate(spans[parent]):
            return False
        parent = spans[parent].parent
    return True


class SpanStats:
    """Per-name and per-layer reductions over one traced iteration."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)

    def _select(self, names=None, layer=None, root=None):
        for index, span in enumerate(self.spans):
            if names is not None and span.name not in names:
                continue
            if layer is not None and span.layer != layer:
                continue
            if root is not None and self.root_of(index) != root:
                continue
            yield index, span

    def root_of(self, index):
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return self.spans[index].name

    def calls(self, *names, root=None):
        return sum(1 for _ in self._select(set(names), root=root))

    def busy(self, *names):
        """Wall time inside the named spans, nested repeats counted once."""
        names = set(names)
        return sum(span.duration for index, span in self._select(names)
                   if _outermost(self.spans, index,
                                 lambda s: s.name in names))

    def self_time(self, *names):
        return sum(self.own[index] for index, _ in
                   self._select(set(names)))

    def extra_sum(self, name, key):
        return sum((span.extra or {}).get(key, 0)
                   for _, span in self._select({name}))

    def errors(self, name, root=None):
        return sum(1 for _, span in self._select({name}, root=root)
                   if span.extra and "error" in span.extra)

    def wall(self):
        return sum(span.duration for span in self.spans
                   if span.parent < 0)

    def layer_table(self):
        """{layer: (calls, busy_s, self_s, self share of traced wall)},
        with the roots' own time under ``"unattributed"``."""
        wall = self.wall()
        table = {}
        for layer in LAYERS:
            spans = list(self._select(layer=layer))
            busy = sum(span.duration for index, span in spans
                       if _outermost(self.spans, index,
                                     lambda s, l=layer: s.layer == l))
            own = sum(self.own[index] for index, _ in spans)
            table[layer] = (len(spans), busy, own,
                            own / wall if wall else 0.0)
        own = sum(self.own[index] for index, span in enumerate(self.spans)
                  if span.layer == ROOT_LAYER)
        table["unattributed"] = (0, own, own, own / wall if wall else 0.0)
        return table
