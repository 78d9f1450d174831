"""Benchmark launcher: one workload, one process, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coverage_batched --seed 3 \
        --seconds 45 --trace 0

``--trace 0`` repeats cold runs of the workload (each followed by warm
reruns over the cache it filled) for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` adds one traced iteration and reports
the per-layer metrics.  Every output is checked against the reference
under ``perfbench/refs/`` for the seed's input set.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.

The launcher pins BLAS/OpenMP to one thread, runs serially (``jobs=1``),
gives every cold run a fresh cache directory under ``.perfbench_tmp/``
and clears the program's ``REPRO_*`` knobs, so the only inputs are the
ones generated from the seed.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import N_INPUT_SETS, site_latencies

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOAD_NAMES = ("coverage_batched", "defect_calibration", "c432_campaign")

#: setup is measured in this many fresh child processes per run
SETUP_PROBES = 5
#: warm reruns per cold run: at least this many ...
MIN_WARM = 3
#: ... and more until they add up to this much time (capped)
WARM_BUDGET_S = 0.5
MAX_WARM = 40
#: cold runs per measured run, whatever ``--seconds`` says (the traced
#: run needs one untraced cold run, for ``trace.overhead_s``)
MIN_COLD = 2
MIN_COLD_TRACED = 1


class BenchError(Exception):
    """The checkout cannot run the benchmark (missing program/refs)."""


def prepare_env(workload, **overrides):
    """Pin threads, clear program knobs, select the engine; idempotent.

    Must run before numpy is imported.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if workload == "coverage_batched":
        os.environ["REPRO_ENGINE"] = "batched"
    os.environ.update(overrides)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError("no program source at {}".format(src))
    if src not in sys.path:
        sys.path.insert(0, src)


def reference_path(workload, index):
    return os.path.join(HERE, "refs", workload, "{}.json".format(index))


def load_reference(workload, index):
    path = reference_path(workload, index)
    if not os.path.isfile(path):
        raise BenchError("missing reference {}".format(path))
    with open(path) as handle:
        return json.load(handle)


def load_workload(name):
    import workloads
    return {
        "coverage_batched": workloads.CoverageBatched,
        "defect_calibration": workloads.DefectCalibrationWorkload,
        "c432_campaign": lambda: workloads.C432Campaign(
            lambda index: load_reference("defect_calibration", index)),
    }[name]()


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------

def setup_probe(workload_name, index):
    """Child-process body: import, set up, report ``ready``."""
    start = time.perf_counter()
    import repro.core.experiments  # noqa: F401
    import repro.logic  # noqa: F401
    import_s = time.perf_counter() - start
    load_workload(workload_name).setup(index)
    print("ready {!r}".format(import_s), flush=True)


def measure_setup(args):
    """Median process-start-to-ready time and import time over probes."""
    setups, imports = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or not line.startswith("ready "):
            raise BenchError("setup probe failed (exit {})".format(code))
        setups.append(ready - start)
        imports.append(float(line.split()[1]))
    print("setup probes (s): " + " ".join(
        "{:.4f}".format(value) for value in setups))
    return statistics.median(setups), statistics.median(imports)


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------

class Iteration:
    """One cold run plus its warm reruns, checked against ``reference``
    (``None`` skips the reference check, not the warm == cold one)."""

    def __init__(self, workload, inputs, reference, tracer=None):
        from repro.runtime.stats import stats_scope
        os.makedirs(SCRATCH, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
        root = (tracer.span if tracer is not None
                else lambda name: contextlib.nullcontext())
        try:
            with stats_scope() as stats:
                with root("cold"):
                    self.cold_start = time.perf_counter()
                    cold = workload.cold(inputs, cache_dir)
                    self.wall = time.perf_counter() - self.cold_start
            self.counters = dict(stats.counters)
            self.cold_summary = workload.summarize(cold)
            self.warm = []
            warm_matches = True
            while (len(self.warm) < MIN_WARM
                   or (sum(self.warm) < WARM_BUDGET_S
                       and len(self.warm) < MAX_WARM)):
                with root("warm"):
                    start = time.perf_counter()
                    warm = workload.warm(inputs, cache_dir)
                    self.warm.append(time.perf_counter() - start)
                self.warm_summary = workload.summarize(warm)
                warm_matches &= workload.same(self.cold_summary,
                                              self.warm_summary)
                if tracer is not None:
                    break  # one traced warm rerun is enough
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.output = cold
        self.items = workload.n_items(inputs, cold)
        self.failed = (0 if reference is None
                       else workload.check(inputs, cold, reference))
        if not warm_matches:
            self.failed = self.items
        self.settle_times = getattr(cold, "settle_times", None)


def run_iterations(workload, inputs, reference, seconds, min_cold,
                   progress):
    iterations = []
    started = time.perf_counter()
    while True:
        iterations.append(Iteration(workload, inputs, reference))
        progress(iterations[-1])
        elapsed = time.perf_counter() - started
        last = elapsed / len(iterations)
        if len(iterations) >= min_cold and elapsed + last > seconds:
            return iterations


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(iterations, setup_s):
    """The end-to-end metrics of one run.

    Cold runs are few and long, and the host's slow spells last about as
    long, so ``wall_s`` is their mean (total cold time over cold runs),
    which spread less run to run than their median (NOTES.md).
    ``setup_s`` is the median of the set-up probes.
    """
    cold = sum(it.wall for it in iterations)
    return {
        "wall_s": cold / len(iterations),
        "items_per_s": sum(it.items for it in iterations) / cold,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def resume_s(iterations):
    """The fastest warm rerun: contention and disk latency only add."""
    return min(w for it in iterations for w in it.warm)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def per_layer(iterations, traced, tracer, import_s):
    """Per-layer metrics from the traced iteration (see BENCHMARK.json)."""
    from tracing import SpanStats
    stats = SpanStats(tracer.spans)
    counters = traced.counters
    solves = counters["newton_solves"]
    iters = counters["newton_iterations"]
    capacity = stats.extra_sum("newton_solve_batch", "capacity")
    gets = stats.calls("get", root="warm")
    report = getattr(traced.output, "report", None)
    summary = report.summary() if report is not None else {}
    sites = getattr(traced.output, "sites", None) or []
    tried = sum(site.paths_tried for site in sites)
    latencies = [lat for it in iterations if it.settle_times
                 for lat in site_latencies(it.cold_start, it.settle_times)]
    untraced = sum(it.wall for it in iterations) / len(iterations)
    layers = stats.layer_table()
    metrics = {
        "cells.build_calls": stats.calls("build_path"),
        "cells.build_s": stats.busy("build_path"),
        "faults.inject_s": stats.busy("inject"),
        "spice.scalar_transients": stats.calls("run_transient"),
        "spice.scalar_transient_s": stats.busy("run_transient"),
        "spice.scalar_newton_s": stats.extra_sum("run_transient",
                                                 "newton_s"),
        "spice.batch_transients": stats.calls("run_transient_batch"),
        "spice.batch_transient_s": stats.busy("run_transient_batch"),
        "spice.batch_newton_calls": stats.calls("newton_solve_batch"),
        "spice.batch_newton_s": stats.busy("newton_solve_batch"),
        "spice.batch_row_occupancy": (
            stats.extra_sum("newton_solve_batch", "row_iters") / capacity
            if capacity else 0.0),
        "solver.newton_solves": solves,
        "solver.newton_iterations": iters,
        "solver.iters_per_solve": iters / solves if solves else 0.0,
        "solver.lu_factorizations": counters["lu_factorizations"],
        "solver.lu_reuse_ratio": (
            counters["lu_reuses"] / iters if iters else 0.0),
        "solver.devices_bypassed": counters["devices_bypassed"],
        "solver.bypass_forced_exact": counters["bypass_forced_exact"],
        "solver.ladder_retries": counters["ladder_retries"],
        "core.calibration_s": stats.busy("calibrate_pulse_test",
                                         "calibrate_delay_test"),
        "core.sweep_s": stats.busy("sweep_pulse_measurements",
                                   "sweep_delay_measurements"),
        "core.nominal_transfer_s": stats.busy("characterize_transfer"),
        "core.measure_calls": stats.calls(*MEASURE_SPANS),
        "core.measure_self_s": stats.self_time(*MEASURE_SPANS),
        "logic.paths_calls": stats.calls("paths_through"),
        "logic.paths_s": stats.busy("paths_through"),
        "logic.atpg_calls": stats.calls("characterize_path_for_test"),
        "logic.atpg_s": stats.busy("characterize_path_for_test"),
        "logic.pulse_model_s": stats.busy("path_model_from_netlist",
                                          "minimum_detectable_resistance"),
        "logic.tested_per_path_tried": (
            sum(site.tested for site in sites) / tried if tried else 0.0),
        "logic.site_p50_ms": 1e3 * percentile(latencies, 50),
        "logic.site_p90_ms": 1e3 * percentile(latencies, 90),
        "runtime.resume_s": resume_s(iterations),
        "runtime.hash_calls": stats.calls("stable_hash"),
        "runtime.hash_s": stats.busy("stable_hash"),
        "runtime.cache_get_s": stats.busy("get"),
        "runtime.cache_hit_ratio": (
            (gets - stats.errors("get", root="warm")) / gets
            if gets else 0.0),
        "runtime.cache_put_calls": stats.calls("put"),
        "runtime.cache_put_s": stats.busy("put"),
        "runtime.dispatch_self_s": stats.self_time("run", "run_batched"),
        "runtime.task_retries": summary.get("retries", 0),
        "import_s": import_s,
        "trace.wall_s": stats.wall(),
        "trace.overhead_s": traced.wall - untraced,
        "trace.unattributed_share": layers["unattributed"][3],
    }
    return metrics, layers


MEASURE_SPANS = ("measure_output_pulse", "measure_path_delay",
                 "measure_output_pulse_batch", "measure_path_delay_batch")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print("  {:<28} {:>14.6g} {}".format(name, value, unit))


def main(argv=None):
    args = parse_args(argv)
    index = args.seed % N_INPUT_SETS
    prepare_env(args.workload)
    if args.setup_probe:
        setup_probe(args.workload, index)
        return 0

    units = metric_units()
    setup_s, import_s = measure_setup(args)
    workload = load_workload(args.workload)
    reference = load_reference(args.workload, index)
    inputs = workload.setup(index)
    print("workload {} seed {} (input set {}), item = {}".format(
        args.workload, args.seed, index, workload.item), flush=True)

    def progress(it):
        print("  cold {:.4f} s  {} items  {} failed  warm min {:.5f} s"
              " median {:.5f} s ({} reruns)".format(
                  it.wall, it.items, it.failed, min(it.warm),
                  statistics.median(it.warm), len(it.warm)), flush=True)

    if args.trace:
        seconds, min_cold = args.seconds / 2, MIN_COLD_TRACED
    else:
        seconds, min_cold = args.seconds, MIN_COLD
    iterations = run_iterations(workload, inputs, reference, seconds,
                                min_cold, progress)
    attempted = sum(it.items for it in iterations)
    failed = sum(it.failed for it in iterations)
    e2e = end_to_end(iterations, setup_s)
    print_table("end-to-end ({} cold runs, {} warm reruns)"
                .format(len(iterations),
                        sum(len(it.warm) for it in iterations)),
                [(name, value, units[name]) for name, value in e2e.items()]
                + [("runtime.resume_s", resume_s(iterations), "s"),
                   ("failed_frac", failed / attempted, "ratio")])
    if args.trace:
        from tracing import UNATTRIBUTED_LIMIT, Tracer, check_nesting
        tracer = Tracer()
        with tracer.installed():
            traced = Iteration(workload, inputs, reference, tracer=tracer)
        attempted += traced.items
        failed += traced.failed
        problems = check_nesting(tracer.spans)
        if traced.counters != iterations[0].counters:
            problems.append("traced solver counters differ from the "
                            "untraced ones")
        for problem in problems:
            print("trace problem:", problem)
        metrics, layers = per_layer(iterations, traced, tracer, import_s)
        print("per layer (traced iteration, {} spans):"
              .format(len(tracer.spans)))
        print("  {:<14} {:>8} {:>10} {:>10} {:>7}".format(
            "layer", "calls", "busy_s", "self_s", "share"))
        for layer, (calls, busy, own, share) in layers.items():
            print("  {:<14} {:>8} {:>10.4f} {:>10.4f} {:>6.1%}".format(
                layer, calls, busy, own, share))
        share = layers["unattributed"][3]
        if share > UNATTRIBUTED_LIMIT:
            print("FLAG: {} leaves {:.1%} of traced wall outside the "
                  "named layers (limit {:.0%})".format(
                      args.workload, share, UNATTRIBUTED_LIMIT))
        print_table("per-layer metrics", [(name, value, units[name])
                                          for name, value in metrics.items()])
        if problems:
            failed = max(failed, 1)
        result_metrics = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    else:
        result_metrics = {name: {"value": value, "unit": units[name]}
                          for name, value in e2e.items()}
    with contextlib.suppress(OSError):
        os.rmdir(SCRATCH)  # only when empty: cache dirs are removed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def metric_units():
    """Every metric's unit, as BENCHMARK.json declares it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("missing {}".format(path))
    with open(path) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        sys.exit(2)
