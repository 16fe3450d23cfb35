"""One benchmark process: builds a workload's inputs and runs them as a
single client in a closed loop, each operation a `toriclg.cli.main(argv)`
call in this interpreter with stdout captured.  run.py starts it in a
fresh interpreter so caches such as the face-set cache start cold.

    python3 perfbench/worker.py --workload W --seed S --mode MODE
        [--seconds T] [--rounds K]

Modes: setup (stop where the first operation would start), timed (whole
rounds until the operations have run for T seconds scaled to the host's
fastest speed, or for MAX_SLOWDOWN * T seconds unscaled), fixed (K rounds)
and traced (the same K rounds under the tracer).  Prints one JSON object.

After set-up and after every operation the worker times a burst of a fixed
probe that uses no toriclg code.  The probe's mean time near an operation
over its fastest time in the run says how much slower the host ran then;
run.py divides latencies by it (see README.md).
"""

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from toriclg import cli, constructions, degeneration, intlinalg, laurent, minkowski, mutation, period, polytope  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = (cli, laurent, intlinalg, polytope, period, mutation, constructions, degeneration, minkowski)

PROBE_SHARE = 0.05  # probe time after an operation, as a share of its latency
PROBE_MIN_S = 0.003  # probe time after even the shortest operation
SETUP_PROBE_S = 0.2  # probe time right after set-up, about as long as set-up
PROBE_WINDOW_S = 0.5  # probes this close to an operation describe the host during it
MAX_SLOWDOWN = 2.0  # the timed phase also ends after this many times T in wall time


def probe_work():
    """Fixed work in the style of the program's loops: tuple-keyed dict
    updates, integer and Fraction arithmetic.  It never calls toriclg, so a
    change to the program cannot change it."""
    table = {}
    x = Fraction(3, 7)
    for i in range(60):
        key = (i % 5, i % 3, i % 7)
        table[key] = table.get(key, 0) + (i * 7919) % 104729
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
    return len(table), x


class Probe:
    """Times probe_work() in bursts; keeps (start, seconds) of each call."""

    def __init__(self):
        self.starts = []
        self.times = []
        self.fastest = float("inf")

    def burst(self, seconds):
        first = len(self.times)
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            stop = time.perf_counter() + seconds
            while True:
                start = time.perf_counter()
                probe_work()
                end = time.perf_counter()
                self.starts.append(start)
                self.times.append(end - start)
                if end >= stop:
                    break
        finally:
            if gc_was_on:
                gc.enable()
        self.fastest = min(self.fastest, min(self.times[first:]))

    def mean_between(self, lo, hi):
        """Mean probe time over the probes started in [lo, hi], or the
        first probe after lo when none started in it."""
        a, b = bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi)
        if a == b:
            a = min(a, len(self.starts) - 1)
            b = a + 1
        return sum(self.times[a:b]) / (b - a)


class Runner:
    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.probe = Probe()
        self.kinds = []
        self.spans = []  # (start, end) of each operation
        self.failures = []
        self.witness_of = {}
        self.out_bytes = 0
        self.cpu = 0.0
        self.digest = hashlib.sha256()

    def prepare(self, r):
        """Build round r and write the files its operations read."""
        ops = workloads.make_round(self.workload, self.seed, r)
        base = len(self.kinds)
        for i, op in enumerate(ops):
            self.digest.update(json.dumps(op.describe(), sort_keys=True).encode())
            for key, body in op.files.items():
                path = os.path.join(self.workdir, "%s-%d.json" % (key, base + i))
                with open(path, "w") as handle:
                    handle.write(body)
                op.paths[key] = path
            if op.needs is not None:
                op.paths["witness"] = self.witness_of[base + op.needs] = os.path.join(
                    self.workdir, "witness-%d.json" % (base + op.needs)
                )
        return ops

    def run(self, ops):
        """Run the operations in order, checking each one and probing the
        host after it.  Returns the seconds the operations took, and the
        sum of each one's seconds over the mean probe time near it so far
        (run.py scales again, with the probes on both sides of it)."""
        busy = per_probe = 0.0
        for op in ops:
            index = len(self.kinds)
            self.kinds.append(op.kind)
            if "witness" in op.paths and not os.path.exists(op.paths["witness"]):
                self._fail(index, op, "no witness from the search it re-checks")
                self.spans.append((time.perf_counter(), time.perf_counter()))
                continue
            argv = [op.paths[a[1:-1]] if a.startswith("{") else a for a in op.argv]
            out = io.StringIO()
            crash = None
            c0 = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code, crash = None, "uncaught %s: %s" % (type(exc).__name__, exc)
                end = time.perf_counter()
            self.cpu += time.process_time() - c0
            busy += end - start
            self.spans.append((start, end))
            stdout = out.getvalue()
            self.out_bytes += len(stdout.encode())
            self._check(index, op, code, stdout, crash)
            self.probe.burst(max(PROBE_MIN_S, PROBE_SHARE * (end - start)))
            near = self.probe.mean_between(start - PROBE_WINDOW_S, time.perf_counter())
            per_probe += (end - start) / near
        return busy, per_probe

    def _check(self, index, op, code, stdout, crash):
        """Check one operation now, so that no output outlives it, and
        write the witness a later re-check reads."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            reason = crash
            if reason is None and code != op.exit_code:
                reason = "exit %s, expected %s" % (code, op.exit_code)
            if reason is None:
                try:
                    doc = json.loads(stdout)
                    reason = op.check(doc)
                except Exception as exc:
                    reason = "output check raised %s: %s" % (type(exc).__name__, exc)
            if reason is None and index in self.witness_of:
                with open(self.witness_of[index], "w") as handle:
                    json.dump(doc["payload"]["presentation"], handle)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if reason is not None:
            self._fail(index, op, reason)

    def _fail(self, index, op, reason):
        self.failures.append({"index": index, "kind": op.kind, "reason": reason})

    def slowdowns(self):
        """Mean probe time near each operation, and the fastest probe time."""
        p = self.probe
        near = [p.mean_between(s - PROBE_WINDOW_S, e + PROBE_WINDOW_S) for s, e in self.spans]
        return near, p.fastest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "traced"))
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)

    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        tracer = tracing.Tracer(MODULES) if args.mode == "traced" else None
        runner = Runner(args.workload, args.seed, workdir, tracer)
        ops = runner.prepare(0)
        ready = time.monotonic()
        runner.probe.burst(SETUP_PROBE_S)
        report = {"ready": ready, "setup_probe_s": sum(runner.probe.times) / len(runner.probe.times)}
        if args.mode == "setup":
            report["probe_min_s"] = runner.probe.fastest
            print(json.dumps(report))
            return 0
        if tracer is not None:
            tracer.install()
        # the timed phase ends on scaled time, so that the round count, and
        # with it the weight of the Minkowski workload's first rounds, does
        # not follow the host's speed
        round_busy, per_probe = [], 0.0
        while True:
            busy, round_per_probe = runner.run(ops)
            round_busy.append(busy)
            per_probe += round_per_probe
            scaled = per_probe * runner.probe.fastest
            if args.mode == "timed" and (scaled >= args.seconds or sum(round_busy) >= MAX_SLOWDOWN * args.seconds):
                break
            if args.mode != "timed" and len(round_busy) >= args.rounds:
                break
            ops = runner.prepare(len(round_busy))
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(os.path.join(HERE, ".work", "spans-%s.bin" % args.workload))
            report["layers"] = tracing.layer_metrics(tracer, polytope._face_sets.cache_info(), runner.out_bytes)
        near, fastest = runner.slowdowns()
        report.update(
            busy=sum(round_busy),
            cpu=runner.cpu,
            round_busy=round_busy,
            latencies=[e - s for s, e in runner.spans],
            probe_near_s=near,
            probe_min_s=fastest,
            kinds=runner.kinds,
            failures=runner.failures,
            digest=runner.digest.hexdigest(),
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
