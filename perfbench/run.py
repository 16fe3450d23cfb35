"""toriclg benchmark: one closed-loop client running real CLI commands.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Workloads are periods, mutation and
minkowski (see workloads.py and README.md).  Every operation's exit code
and output are checked.  Times are scaled to the host's fastest speed by
a probe timed beside the operations (see worker.py and README.md).  With
--trace 0 the last stdout line reports the end-to-end metrics of an
untraced run; with --trace 1 it reports the per-layer metrics of a traced
run of a fixed number of rounds, so its counts repeat exactly for a seed.
Each measurement runs in a fresh interpreter (worker.py); the lines before
the last are informational.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("periods", "mutation", "minkowski")

SETUP_RUNS = 9  # set-up is timed in this many fresh interpreters (odd); the median is reported
TRACE_ROUNDS = 2  # rounds run by --trace 1, once untraced and once traced
DEADLINE_S = 170  # the whole run ends well inside three minutes
TAIL_BEYOND = 10  # the tail latency leaves this many samples above it


class BenchError(Exception):
    pass


def metric_units():
    """Unit of every metric, by name, as BENCHMARK.json lists them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise BenchError("cannot read BENCHMARK.json: %s" % exc)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def spawn(deadline, workload, seed, mode, **extra):
    """Run worker.py in a fresh interpreter; its report plus set-up time."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        argv += ["--" + key, str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the %s run" % mode)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("the %s run did not finish in time" % mode)
    if proc.returncode != 0:
        raise BenchError("the %s run failed:\n%s" % (mode, proc.stderr[-2000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as handle:
            total += sum(1 for _ in handle)
    return total


def scaled_latencies(report):
    """Each latency times fastest probe / mean probe near it, both from the
    process that ran it: the latency the operation would have had with the
    host at its fastest.  A process's own fastest probe is the one the
    timed phase's stop was reckoned with (worker.py)."""
    fastest = report["probe_min_s"]
    return [t * fastest / near for t, near in zip(report["latencies"], report["probe_near_s"])]


def end_to_end(main, setups):
    # a set-up process probes for 0.2 s only, so set-up samples are scaled
    # by the fastest probe in any of the run's processes
    fastest = min([main["probe_min_s"]] + [s["probe_min_s"] for s in setups])
    scaled = scaled_latencies(main)
    setup = [s["setup_s"] * fastest / s["setup_probe_s"] for s in setups]
    lat = sorted(scaled)
    n = len(lat)
    failed = len(main["failures"])
    beyond = min(TAIL_BEYOND, n - 1)
    raw = sorted(main["latencies"])
    info = {
        "tail_percentile": round(100.0 * (n - beyond) / n, 2),
        "samples": n,
        "samples_beyond_tail": beyond,
        "failed_ratio": failed / n,
        "rounds": len(main["round_busy"]),
        "busy_s": round(main["busy"], 3),
        "cpu_s": round(main["cpu"], 3),
        "host_slowdown_median": round(statistics.median(main["probe_near_s"]) / main["probe_min_s"], 4),
        "unscaled_ops_per_s": round(n / main["busy"], 4),
        "unscaled_op_p50_ms": round(statistics.median(raw) * 1000.0, 4),
        "unscaled_op_tail_ms": round(raw[n - 1 - beyond] * 1000.0, 4),
        "unscaled_setup_s": round(statistics.median(s["setup_s"] for s in setups), 5),
        "ops_by_kind": {k: main["kinds"].count(k) for k in sorted(set(main["kinds"]))},
    }
    metrics = {
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": lat[n - 1 - beyond] * 1000.0,
        "ok_ratio": (n - failed) / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["rss_mb"],
    }
    return metrics, info


def measure(args, units):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        base = spawn(deadline, args.workload, args.seed, "fixed", rounds=TRACE_ROUNDS)
        main = spawn(deadline, args.workload, args.seed, "traced", rounds=TRACE_ROUNDS)
        overhead = sum(scaled_latencies(main)) / sum(scaled_latencies(base))
        layers = dict(main["layers"], trace_overhead=overhead)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units["per_layer"].items()}
        info = {"untraced_busy_s": round(base["busy"], 3), "traced_busy_s": round(main["busy"], 3)}
        failures = base["failures"] + main["failures"]
        attempted = len(base["latencies"]) + len(main["latencies"])
    else:
        # set-up samples before and after the timed phase see different host speeds
        before = [spawn(deadline, args.workload, args.seed, "setup") for _ in range(SETUP_RUNS // 2)]
        main = spawn(deadline, args.workload, args.seed, "timed", seconds=args.seconds)
        after = [spawn(deadline, args.workload, args.seed, "setup") for _ in range(SETUP_RUNS // 2)]
        setups = before + [main] + after
        values, info = end_to_end(main, setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units["end_to_end"].items()}
        info["unscaled_setup_samples_s"] = [round(s["setup_s"], 4) for s in setups]
        failures = main["failures"]
        attempted = len(main["latencies"])
    info.update(
        workload=args.workload,
        seed=args.seed,
        op_list_sha256=main["digest"],
        src_lines=src_lines(),
        python=platform.python_version(),
    )
    for key, value in info.items():
        print("info %s: %s" % (key, json.dumps(value)))
    for key, entry in metrics.items():
        print("metric %s: %.6g %s" % (key, entry["value"], entry["unit"]))
    for failure in failures[:20]:
        print("failure: %s" % json.dumps(failure))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))


def self_test():
    """One round of every workload at seed 0; every operation must pass."""
    deadline = time.monotonic() + DEADLINE_S
    ok = True
    for workload in WORKLOADS:
        report = spawn(deadline, workload, 0, "fixed", rounds=1)
        n, failed = len(report["latencies"]), len(report["failures"])
        print("self-test %s: %d operations, failed_ratio %.3f" % (workload, n, failed / n))
        for failure in report["failures"]:
            print("  failure: %s" % json.dumps(failure))
        ok = ok and failed == 0
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run each workload briefly and check it")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "toriclg", "cli.py")):
        sys.stderr.write("error: no toriclg sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        measure(args, metric_units())
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
