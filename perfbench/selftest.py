"""Self-test of the benchmark: exact counts repeat, spans nest.

Runs a tiny version of every workload on a held-out input set (one no
reference ships for) three times - once untraced, twice traced - and
fails unless every exact count repeats bit-for-bit: solver counters,
transient and site counts, per-span call counts, site statuses, cache
hits and the outputs themselves.  Also fails when a traced span escapes
its parent or has negative self time.  About half a minute::

    python3 perfbench/selftest.py
"""

import collections
import sys

import run

HELD_OUT = 9999


def exact_record(workload, iteration, tracer=None):
    """Everything about an iteration that must repeat exactly."""
    record = {
        "counters": iteration.counters,
        "items": iteration.items,
        "cold": iteration.cold_summary,
        "warm": iteration.warm_summary,
        "warm_matches_cold": workload.same(iteration.cold_summary,
                                           iteration.warm_summary),
    }
    if tracer is not None:
        record["span_calls"] = dict(collections.Counter(
            (span.layer, span.name) for span in tracer.spans))
    return record


def check_workload(name, fixture=None):
    run.prepare_env(name)
    from tracing import Tracer, check_nesting
    import workloads

    if name == "c432_campaign":
        workload = workloads.C432Campaign(lambda index: fixture)
    else:
        workload = run.load_workload(name)
    inputs = workload.setup(HELD_OUT, tiny=True)
    problems = []
    plain = run.Iteration(workload, inputs, None)
    records = [exact_record(workload, plain)]
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced = run.Iteration(workload, inputs, None, tracer=tracer)
        records.append(exact_record(workload, traced, tracer))
        problems += check_nesting(tracer.spans)
    first = records[0]
    if not first["warm_matches_cold"]:
        problems.append("warm rerun output differs from the cold run")
    for key in ("counters", "items", "cold"):
        if any(rec[key] != first[key] for rec in records[1:]):
            problems.append("{} differ between runs".format(key))
    if records[1]["span_calls"] != records[2]["span_calls"]:
        problems.append("span call counts differ between traced runs")
    if records[1]["warm"] != records[2]["warm"]:
        problems.append("warm outputs differ between runs")
    if not any(first["counters"].values()) and name != "c432_campaign":
        problems.append("no solver work was counted")
    for problem in problems:
        print("FAIL {}: {}".format(name, problem))
    if not problems:
        print("ok   {}: {} items, counters {}".format(
            name, first["items"],
            {k: v for k, v in first["counters"].items() if v}))
    return problems, plain


def main():
    problems = []
    found, _ = check_workload("coverage_batched")
    problems += found
    found, defect = check_workload("defect_calibration")
    problems += found
    # the held-out c432 campaign uses the held-out calibration as fixture
    found, _ = check_workload("c432_campaign",
                              fixture=defect.cold_summary)
    problems += found
    print("selftest {}".format("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
