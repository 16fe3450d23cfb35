"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The pinned period data is checked against closed forms and against the
unpruned oracle; generators must be deterministic per seed; traced counts
must repeat exactly; every workload must pass its self-test.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from toriclg import constructions, laurent, mutation, period  # noqa: E402

f = math.factorial

# family -> (period of the nonzero terms, a_{step*k} as a function of k)
CLOSED_FORMS = {
    "p2": (3, lambda k: f(3 * k) // f(k) ** 3),
    "p3": (4, lambda k: f(4 * k) // f(k) ** 4),
    "p112": (2, lambda k: math.comb(2 * k, k) ** 2),
    "quadric3": (3, lambda k: f(3 * k) * f(2 * k) // f(k) ** 5),
    "cubic3": (2, lambda k: f(3 * k) * f(2 * k) // f(k) ** 5),
    "cubic4": (3, lambda k: (f(3 * k) // f(k) ** 3) ** 2),
}


def test_pinned_periods_match_closed_forms():
    assert set(CLOSED_FORMS) == set(workloads.PINNED["models"])
    for family, (step, term) in CLOSED_FORMS.items():
        values = [Fraction(v) for v in workloads.PINNED["models"][family]["values"]]
        assert len(values) == workloads.PINNED["depth"] + 1
        assert values == [term(i // step) if i % step == 0 else 0 for i in range(len(values))], family


def test_pinned_periods_match_oracle_at_low_depth():
    cat = constructions.catalog()
    assert set(workloads.FAMILY) == set(cat)
    for name, f_ in cat.items():
        want = workloads.PINNED["models"][workloads.FAMILY[name]]["values"][:7]
        assert [str(v) for v in period.period_oracle(f_, 6).values] == want, name


def test_catalog_chains_land_on_their_targets():
    cat = constructions.catalog()
    for source, steps, target in workloads.CHAINS:
        g = cat[source]
        for pivot, sign, factor in steps:
            g = mutation.apply_cluster(g, mutation.ClusterChange(pivot, sign, laurent.parse(factor, g.var_names)))
        assert g == cat[target], source


def test_same_seed_same_operations():
    for workload in run.WORKLOADS:
        lists = [
            [op.describe() for r in range(2) for op in workloads.make_round(workload, seed, r)] for seed in (5, 5, 6)
        ]
        assert lists[0] == lists[1], workload
        assert lists[0] != lists[2], workload


def test_metric_names_match_benchmark_json():
    units = run.metric_units()

    class NoCache:
        hits = misses = 0

    layers = list(tracer.layer_metrics(tracer.Tracer(()), NoCache, 0)) + ["trace_overhead"]
    assert sorted(units["per_layer"]) == sorted(layers)
    assert sorted(units["end_to_end"]) == sorted(run.end_to_end(*fake_reports())[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert [w["name"] for w in json.load(handle)["workloads"]] == list(run.WORKLOADS)


def fake_reports():
    main = {
        "latencies": [0.1, 0.2], "probe_near_s": [1.0, 2.0], "probe_min_s": 1.0,
        "round_busy": [0.3], "failures": [], "busy": 0.3, "cpu": 0.3, "rss_mb": 20.0, "kinds": ["a", "b"],
        "setup_s": 0.2, "setup_probe_s": 1.0,
    }
    return main, [main]


def test_latencies_are_scaled_by_the_probe():
    metrics, info = run.end_to_end(*fake_reports())
    # the second operation ran while the probe took twice its fastest time
    assert metrics["ops_per_s"] == 2 / (0.1 + 0.1)
    assert info["unscaled_ops_per_s"] == round(2 / 0.3, 4)


def test_traced_counts_repeat():
    for workload in run.WORKLOADS:
        reports = [run.spawn(time.monotonic() + 170, workload, 3, "traced", rounds=1) for _ in range(2)]
        counts = [
            {k: v for k, v in rep["layers"].items() if not k.endswith(".self_s")} for rep in reports
        ]
        assert counts[0] == counts[1], workload
        assert reports[0]["digest"] == reports[1]["digest"]
        assert not reports[0]["failures"], reports[0]["failures"]


def test_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-test"], cwd=ROOT, timeout=175)
    assert proc.returncode == 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "periods", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
