"""Regenerate the reference outputs under ``perfbench/refs/``.

References are computed on the exact solver (``REPRO_SOLVER=exact``)
and, for the coverage workload, the scalar fixed-grid engine
(``REPRO_ENGINE=scalar``): the configuration every faster path must
agree with.  The c432 references depend on the defect-calibration
references (they are the campaign's calibration fixture), so build
those first::

    python3 perfbench/make_refs.py --workload defect_calibration
    python3 perfbench/make_refs.py --workload c432_campaign
    python3 perfbench/make_refs.py --workload coverage_batched --index 3
"""

import argparse
import json
import os
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOAD_NAMES))
    parser.add_argument("--index", type=int, action="append",
                        help="input set(s) to build (default: all)")
    args = parser.parse_args(argv)
    run.prepare_env(args.workload, REPRO_SOLVER="exact",
                    REPRO_ENGINE="scalar")
    workload = run.load_workload(args.workload)
    indices = args.index or range(run.N_INPUT_SETS)
    for index in indices:
        inputs = workload.setup(index)
        output = workload.cold(inputs, None)
        summary = workload.reference(output)
        path = run.reference_path(args.workload, index)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote", path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
