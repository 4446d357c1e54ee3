"""jordanium benchmark: four workloads, end-to-end metrics, per-layer timing.

One workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced then traced, with the tracing overhead:

    python3 perfbench/run.py [--seed N] [--seconds S]

Run from the repository root.  Each round of a workload is a fresh process
(worker.py), started one after another from this process; rounds repeat
while another fits in --seconds, and at least MIN_ROUNDS run.  Every round
does the same operations on the same inputs.  Times are means over the
run's rounds: on a shared 2-vCPU VM the noise on repeated work is broad
rather than spiky (`der triality` took 1.38 to 2.34 s over sixteen rounds
of one run, with no outliers), and for such noise the mean of a few
rounds varies less than their median.  setup_s and peak_rss_mb are
medians.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("module-oracle", "derivation-algebra", "calculus", "cli-reports")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slowest_op_s", "s"),
)
MIN_ROUNDS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: a second one saves about a tenth of module-oracle's
    # wall time for two thirds more CPU, spent spinning, and ties every
    # timing to the load on two cores of the shared host instead of one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["JORDANIUM_THREADS"] = "1"
    return env


def _worker(root: str, workload: str, seed: int, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    # own process group, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(
        cmd + extra,
        cwd=root,
        env=_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s round did not finish within %.0f s" % (workload, timeout))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited %d:\n%s" % (workload, proc.returncode, err[-2000:]))
    return json.loads(lines[-1])


def unstable_outputs(rounds: list[dict]) -> list[str]:
    """Operations whose kept output digest is not the same in every round."""
    seen: dict[str, set] = {}
    for r in rounds:
        for key, digest in r["digests"].items():
            seen.setdefault(key, set()).add(digest)
    return ["%s: output differs between rounds" % k for k, ds in sorted(seen.items()) if len(ds) > 1]


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds for about `seconds`, then the run's metrics."""
    start = perf_counter()
    rounds = []
    while True:
        left = DEADLINE_S - (perf_counter() - start)
        rounds.append(_worker(root, workload, seed, ["--trace"] if trace else [], left))
        elapsed = perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break

    med, mean = statistics.median, statistics.fmean
    # each operation timed by its mean over the rounds
    repeats: dict[str, list[float]] = {}
    for r in rounds:
        for key, t in zip(r["op_keys"], r["op_s"]):
            repeats.setdefault(key, []).append(t)
    problems = sorted({p for r in rounds for p in r["problems"]}) + unstable_outputs(rounds)
    result = {
        "rounds": len(rounds),
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "problems": problems,
        "failures": sorted({f for r in rounds for f in r["failures"]}),
        "e2e": {
            "setup_s": med(r["setup_s"] for r in rounds),
            "wall_s": mean(sum(r["op_s"]) for r in rounds),
            "cpu_s": mean(sum(r["op_cpu_s"]) for r in rounds),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
            "slowest_op_s": max(mean(ts) for ts in repeats.values()),
        },
    }
    if trace:
        result["layers"] = {
            name: med(r["layers"].get(name, 0) for r in rounds) for name, _ in per_layer_metrics()
        }
    return result


def result_line(res: dict, trace: bool) -> str:
    if trace:
        metrics = {n: {"value": res["layers"][n], "unit": u} for n, u in per_layer_metrics()}
    else:
        metrics = {n: {"value": res["e2e"][n], "unit": u} for n, u in END_TO_END}
    return json.dumps(
        {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    )


def describe(workload: str, res: dict, trace: bool) -> list[str]:
    mode = "traced" if trace else "timed"
    out = [
        "== %s (%s, %d round%s): attempted %d, failed %d, correct %s"
        % (workload, mode, res["rounds"], "" if res["rounds"] == 1 else "s", res["attempted"], res["failed"], res["correct"])
    ]
    out += ["   failed: " + f for f in res["failures"]]
    out += ["   WRONG: " + p for p in res["problems"]]
    for name, unit in END_TO_END:
        out.append("   %-44s %12.4f %s" % (name, res["e2e"][name], unit))
    if trace:
        for name, unit in per_layer_metrics():
            if res["layers"][name]:
                out.append("   %-44s %12.4f %s" % (name, res["layers"][name], unit))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jordanium", "__init__.py")):
        print("run.py: no src/jordanium under %s; run from the repository root" % root, file=sys.stderr)
        return 2
    try:
        if args.workload:
            res = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(args.workload, res, bool(args.trace))))
            print(result_line(res, bool(args.trace)))
            return 0
        summary = {}
        for wl in WORKLOADS:
            timed = run_workload(root, wl, args.seed, args.seconds, False)
            traced = run_workload(root, wl, args.seed, args.seconds, True)
            print("\n".join(describe(wl, timed, False) + describe(wl, traced, True)))
            overhead = traced["e2e"]["wall_s"] - timed["e2e"]["wall_s"]
            print("   %-44s %12.4f s" % ("tracing overhead (traced - timed wall_s)", overhead))
            summary[wl] = {
                "correct": timed["correct"] and traced["correct"],
                "attempted": timed["attempted"],
                "failed": timed["failed"],
                "metrics": json.loads(result_line(timed, False))["metrics"],
                "trace_overhead_s": overhead,
            }
        print(json.dumps(summary))
        return 0
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
