"""The three benchmark workloads and their correctness checks.

Each workload is one caller waiting on one campaign (closed loop, no
arrival rate).  Inputs are a pure function of an *input-set index*;
``run.py`` maps ``--seed`` onto one of the ``N_INPUT_SETS`` sets whose
reference outputs ship under ``refs/``.  Every set has the same shape
(population size, resistance grid, circuit), so seeds change values but
not the amount of work, and run-to-run spread measures the host, not
the inputs.

* ``coverage_batched`` - Figs. 6/7: ``run_open_coverage`` on the
  lockstep engine (``REPRO_ENGINE=batched``, set by the launcher).
  Item: one Monte Carlo sample.
* ``defect_calibration`` - ``DefectCalibration.from_electrical``, the
  electrical front end of ``pulsetest campaign``.  Item: one scalar
  transient.
* ``c432_campaign`` - ``run_campaign`` over every gate-output site of
  the C432-class circuit, cache on, then a warm rerun.  Item: one site.

Each workload exposes ``setup(index, tiny)``, ``cold``/``warm`` runs
against a cache directory, ``summarize`` (the JSON form warm and cold
outputs must agree on), ``reference`` (the part stored under ``refs/``)
and ``check`` (number of items outside the reference tolerance).
"""

import contextlib
import math
import time

#: shipped input sets; ``--seed`` selects ``seed % N_INPUT_SETS``.  This
#: module imports nothing heavy at load time: the launcher reads it
#: before pinning the BLAS threads numpy starts with.
N_INPUT_SETS = 10

#: coverage rows and measured delays must match within this (seconds)
ROW_TOL = 0.1e-12
#: the min-propagatable-width bisection tolerance (repro.core.transfer)
BISECTION_TOL = 5e-12


def encode(value):
    """JSON-safe float (non-finite values become strings)."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def decode(value):
    return float(value)


def close(a, b, tol):
    """Equal within ``tol``; non-finite values must match exactly."""
    a, b = decode(a), decode(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= tol


@contextlib.contextmanager
def patched(target, name, replacement):
    """Temporarily rebind ``target.name`` (restored on exit)."""
    original = getattr(target, name)
    setattr(target, name, replacement)
    try:
        yield original
    finally:
        setattr(target, name, original)


# ----------------------------------------------------------------------
# coverage_batched
# ----------------------------------------------------------------------

class CoverageBatched:
    name = "coverage_batched"
    item = "Monte Carlo sample"

    def setup(self, index, tiny=False):
        import numpy as np
        from repro.core.experiments import ExperimentConfig
        if tiny:
            sizes = dict(n_samples=2, dt=6e-12,
                         rop_resistances=[4e3, 40e3])
        else:
            sizes = dict(n_samples=16, dt=4e-12,
                         rop_resistances=list(np.geomspace(1e3, 40e3, 4)))
        # from_env picks the engine from REPRO_ENGINE (the launcher sets
        # it), so the benchmark never names an engine= knob itself.
        config = ExperimentConfig.from_env(seed=1 + 100 * index, n_jobs=1,
                                           **sizes)
        config.samples()
        return {"config": config}

    def _run(self, inputs, cache_dir):
        from repro.core.experiments import run_open_coverage
        config = inputs["config"]
        config.cache_dir = cache_dir
        return run_open_coverage(config)

    cold = warm = _run

    def n_items(self, inputs, output):
        return len(output.samples)

    def summarize(self, output):
        return {
            "omega_in": encode(output.calibration.omega_in),
            "omega_th": encode(output.calibration.omega_th),
            "t_star": encode(output.dftest.t_star),
            "ff_wouts": [encode(w)
                         for w in output.calibration.fault_free_wouts],
            "pulse": [[encode(v) for v in row] for row in output.pulse.raw],
            "delay": [[encode(v) for v in row] for row in output.delay.raw],
            "pulse_hits": {label: list(map(int, c.hits)) for label, c
                           in sorted(output.pulse.curves.items())},
            "delay_hits": {label: list(map(int, c.hits)) for label, c
                           in sorted(output.delay.curves.items())},
            "cache_hits": output.report.cache_hits,
        }

    def reference(self, output):
        """The stored form of an exact-solver output (``refs/``)."""
        summary = self.summarize(output)
        del summary["cache_hits"]
        return summary

    def _classifiers(self, output):
        """(raw table, label, detects(sample_index, value)) per curve."""
        detector = output.calibration.detector
        test = output.dftest
        samples = output.samples
        for label in output.pulse.curves:
            factor = float(label.split("*")[0])
            yield ("pulse", "pulse_hits", label,
                   lambda si, v, f=factor: detector.scaled(f)
                   .fault_detected(v))
        for label in output.delay.curves:
            factor = float(label.split("*")[0])
            yield ("delay", "delay_hits", label,
                   lambda si, v, f=factor: test.detects(
                       v, sample=samples[si], t_factor=f))

    def check(self, inputs, output, reference):
        """Failed samples: a measurement off the exact-solver reference
        by more than ``ROW_TOL``, or a detection decision that differs
        from the reference's on a sample not within ``ROW_TOL`` of its
        threshold.  A calibration mismatch fails every sample."""
        got = self.summarize(output)
        n = len(output.samples)
        for key in ("omega_in", "omega_th", "t_star"):
            if not close(got[key], reference[key], ROW_TOL):
                return n
        failed = set()
        for si in range(n):
            if not close(got["ff_wouts"][si], reference["ff_wouts"][si],
                         ROW_TOL):
                failed.add(si)
            for table in ("pulse", "delay"):
                for a, b in zip(got[table][si], reference[table][si]):
                    if not close(a, b, ROW_TOL):
                        failed.add(si)
        for table, hits_key, label, detects in self._classifiers(output):
            for ri in range(len(output.resistances)):
                borderline = 0
                for si in range(n):
                    value = decode(got[table][si][ri])
                    ref = decode(reference[table][si][ri])
                    if detects(si, value - ROW_TOL) != detects(
                            si, value + ROW_TOL):
                        borderline += 1
                    elif detects(si, value) != detects(si, ref):
                        failed.add(si)
                delta = abs(got[hits_key][label][ri]
                            - reference[hits_key][label][ri])
                if delta > borderline:
                    return n
        return len(failed)

    def same(self, cold, warm):
        cold = dict(cold, cache_hits=None)
        warm = dict(warm, cache_hits=None)
        return cold == warm


# ----------------------------------------------------------------------
# defect_calibration
# ----------------------------------------------------------------------

class TransientCounter:
    """Counts scalar transients per calibration table row.

    Row 0 is the fault-free reference path; row ``i`` is the ``i``-th
    resistance (``set_fault_resistance`` marks each row boundary).  Only
    an integer is bumped per call: no clock is read.
    """

    def __init__(self):
        self.rows = [0]

    @contextlib.contextmanager
    def installed(self):
        import repro.core.pulse
        import repro.faults

        run_transient = repro.core.pulse.run_transient
        set_resistance = repro.faults.set_fault_resistance

        def counted_transient(*args, **kwargs):
            self.rows[-1] += 1
            return run_transient(*args, **kwargs)

        def next_row(*args, **kwargs):
            self.rows.append(0)
            return set_resistance(*args, **kwargs)

        with patched(repro.core.pulse, "run_transient", counted_transient), \
                patched(repro.faults, "set_fault_resistance", next_row):
            yield self


class DefectCalibrationWorkload:
    name = "defect_calibration"
    item = "scalar transient"

    def setup(self, index, tiny=False):
        from repro.montecarlo import VariationModel
        if tiny:
            sizes = dict(resistances=[4e3, 40e3], dt=8e-12)
        else:
            sizes = dict(resistances=[1e3, 4e3, 12e3, 40e3], dt=5e-12)
        return dict(sizes, sample=VariationModel(seed=500 + index))

    def _call(self, inputs, cache_dir):
        from repro.logic import DefectCalibration
        from repro.runtime import Runtime
        runtime = Runtime.from_env(jobs=1, cache_dir=cache_dir)
        return DefectCalibration.from_electrical(
            "external", inputs["resistances"], dt=inputs["dt"],
            runtime=runtime, sample=inputs["sample"])

    def cold(self, inputs, cache_dir):
        counter = TransientCounter()
        with counter.installed():
            table = self._call(inputs, cache_dir)
        return {"table": table, "rows": counter.rows}

    def warm(self, inputs, cache_dir):
        return {"table": self._call(inputs, cache_dir), "rows": [0]}

    def n_items(self, inputs, output):
        return sum(output["rows"])

    def summarize(self, output):
        table = output["table"].to_dict()
        for key in ("extra_rise", "extra_fall", "theta_shift"):
            table[key] = [encode(v) for v in table[key]]
        return table

    reference = summarize

    def check(self, inputs, output, reference):
        """Failed transients: those of every table row whose edge delays
        miss the reference by more than ``ROW_TOL`` or whose threshold
        shift misses it by more than the bisection tolerance."""
        got = self.summarize(output)
        rows = output["rows"]
        if got["resistances"] != reference["resistances"]:
            return sum(rows)
        bad_rows = [i for i in range(len(reference["resistances"]))
                    if not (close(got["extra_rise"][i],
                                  reference["extra_rise"][i], ROW_TOL)
                            and close(got["extra_fall"][i],
                                      reference["extra_fall"][i], ROW_TOL)
                            and close(got["theta_shift"][i],
                                      reference["theta_shift"][i],
                                      BISECTION_TOL))]
        if len(bad_rows) == len(reference["resistances"]):
            return sum(rows)  # every row off: blame the fault-free base
        return sum(rows[i + 1] for i in bad_rows)

    def same(self, cold, warm):
        return cold == warm


# ----------------------------------------------------------------------
# c432_campaign
# ----------------------------------------------------------------------

class C432Campaign:
    name = "c432_campaign"
    item = "fault site"

    def __init__(self, calibration_refs):
        #: index -> defect_calibration reference table (the fixture)
        self.calibration_refs = calibration_refs

    def setup(self, index, tiny=False):
        from repro.logic import DefectCalibration, generate_c432_like
        from repro.montecarlo import sample_population
        table = self.calibration_refs(index)
        table = dict(table, **{key: [decode(v) for v in table[key]]
                               for key in ("extra_rise", "extra_fall",
                                           "theta_shift")})
        return {
            # One fixed circuit: c432-like netlists from other generator
            # seeds differ up to 2.4x in ATPG work, which would swamp
            # run-to-run spread.  The input set varies the population
            # and the calibration table instead.
            "netlist": generate_c432_like(seed=432),
            "samples": sample_population(5, base_seed=7 + 100 * index),
            "calibration": DefectCalibration.from_dict(table),
            "site_limit": 24 if tiny else None,
        }

    def _call(self, inputs, cache_dir, progress=None):
        from repro.logic import run_campaign
        from repro.runtime import Runtime
        runtime = Runtime.from_env(jobs=1, cache_dir=cache_dir)
        return run_campaign(inputs["netlist"], inputs["calibration"],
                            samples=inputs["samples"],
                            site_limit=inputs["site_limit"],
                            runtime=runtime, progress=progress)

    def cold(self, inputs, cache_dir):
        settled = []
        result = self._call(
            inputs, cache_dir,
            progress=lambda done, total: settled.append(
                time.perf_counter()))
        result.settle_times = settled
        return result

    def warm(self, inputs, cache_dir):
        return self._call(inputs, cache_dir)

    def n_items(self, inputs, output):
        return len(output.sites)

    def summarize(self, output):
        return {
            "sites": [site.to_dict() for site in output.sites],
            "cache_hits": output.report.cache_hits,
        }

    #: what the reference pins per site (vectors and thresholds may
    #: legitimately change with the ATPG; these may not)
    CHECKED = ("net", "status", "path", "r_min")

    def reference(self, output):
        return {"sites": [{key: site[key] for key in self.CHECKED}
                          for site in self.summarize(output)["sites"]]}

    def check(self, inputs, output, reference):
        """Failed sites: errored, or status, path or ``r_min`` not
        exactly the reference's."""
        got = self.summarize(output)["sites"]
        if len(got) != len(reference["sites"]):
            return len(got)
        failed = 0
        for site, ref in zip(got, reference["sites"]):
            if site["status"] == "error" or any(
                    site[key] != ref[key] for key in self.CHECKED):
                failed += 1
        return failed

    def same(self, cold, warm):
        return cold["sites"] == warm["sites"]


def site_latencies(start, settle_times):
    """Per-site latency (s) from the campaign's progress settle times."""
    marks = [start] + list(settle_times)
    return [b - a for a, b in zip(marks, marks[1:])]
