"""One round of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

setup_s covers importing jordanium and building the workload's inputs.
Timed operations follow; the checks of their outputs run after the last
one, once peak memory has been read, so neither time nor memory counts
the benchmark's own arithmetic.  The caller sets PYTHONPATH and
JORDANIUM_THREADS.
"""

import argparse
import json
import random
import resource
import sys
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import jordanium  # noqa: F401  (timed: the import is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(random.Random(args.seed))
    setup_s = perf_counter() - t0

    rnd = workloads.Round(trace=args.trace)
    wl.run(inputs, rnd)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # the CLI workload's work happens in its child processes
    peak_kb = kids_kb if args.workload == "cli-reports" else self_kb
    layers = {}
    if tracer is not None:
        if args.workload == "cli-reports":
            wl.reference_times(rnd)
        layers = tracer.snapshot()
        for child in rnd.child_traces:
            for key, value in child.items():
                layers[key] = layers.get(key, 0) + value
        layers.update(rnd.layer_extra)
    rnd.run_checks()
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": peak_kb / 1024.0,
                "op_keys": rnd.op_keys,
                "op_s": rnd.op_s,
                "op_cpu_s": rnd.op_cpu_s,
                "digests": rnd.digests,
                "attempted": len(rnd.op_s),
                "failures": rnd.failures,
                "problems": rnd.problems,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
