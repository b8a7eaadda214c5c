"""The host wall-clock bench and its regression gate.

``benchmarks/bench_host.py`` writes the one committed host baseline
(``BENCH_host.json``) and ``benchmarks/bench_regress.py`` gates fresh
runs against it. Both are driven in-process here, so nothing is written
under ``benchmarks/results/``.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_host  # noqa: E402
import bench_regress  # noqa: E402

TINY = {
    "bcast_heavy": {"sizes": (4,), "large_sizes": (), "words": 64, "rounds": 2, "repeats": 1},
    "ring_heavy": {"sizes": (2,), "words": 8, "rounds": 3, "repeats": 1},
}


def test_tiny_run_reports_every_headline_and_identity_flag():
    report = bench_host.run_benchmark(TINY)
    assert report["schema"] == bench_host.SCHEMA
    for name in bench_host.HEADLINES:
        values = report["headlines"][name]
        assert values and all(v > 0 for v in values.values()), name
    assert report["identical"] == dict.fromkeys(bench_host.IDENTITY_FLAGS, True)
    arms = {(row["workload"], row["arm"]) for row in report["rows"]}
    assert arms == {("bcast_heavy", arm) for arm in bench_host.BCAST_ARMS} | {
        ("ring_heavy", arm)
        for arm in ("plain", "traced", "metered", "power_run", "power_analyzed")
    }


# The bounds the four per-bench baselines gave before they were merged
# into BENCH_host.json; a refresh of the baseline may tighten a gate but
# never loosen it.
@pytest.mark.parametrize(
    "metric, limit",
    [
        ("speedup", 1.20),
        ("trace_overhead_ratio", 4.27),
        ("metrics_overhead_ratio", 2.90),
        ("power_analysis_ratio", 2.99),
    ],
)
def test_committed_baseline_gates_no_looser_than_before(metric, limit):
    checks = []
    baseline = bench_regress.check_baseline(ROOT, checks)
    assert baseline is not None and all(c["ok"] for c in checks), checks
    bound = round(bench_regress.gate_bound(metric, baseline), 2)
    direction = bench_regress.TOLERANCES[metric][0]
    assert bound >= limit if direction == "floor" else bound <= limit
