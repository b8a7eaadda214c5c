"""Host wall-clock bench: the simmpi substrate and its observers.

The paper's verdicts rest on exact F/W/S counts and virtual clocks.
This bench times the host side of producing them, and checks that
nothing it times perturbs them. Two workloads run as rows:

* ``bcast_heavy`` — the root broadcasts a ``words``-element array per
  round and every rank reads it (the worst case for per-hop copying),
  over the executor (``spawn``: :func:`repro.simmpi.run_spmd`; ``pool``:
  :class:`repro.simmpi.SpmdPool`) × payload (deep ``copy`` per hop or
  copy-on-write ``cow``) × collective engine (``message`` simulation or
  the analytic ``fast`` path) grid. ``large_sizes`` run only the
  pool+cow arms: the seed spawn+copy arm is impractical there.
* ``ring_heavy`` — a ring of small shifts plus a tiny metered kernel,
  one send+recv+flops hook triple per rank per round (the worst case
  per event), in five arms: ``plain``, ``traced`` (``trace=True``),
  ``metered`` (``metrics=True``), and ``power_run`` / ``power_analyzed``
  (machine-modeled and traced; the latter then builds a
  :class:`~repro.analysis.powertrace.PowerTrace` and its envelope).

Each arm is warmed once and timed ``repeats`` times. The headlines are
``{p: ratio}`` maps of best times:

* ``speedup`` — spawn+copy+message over pool+cow+message;
* ``fastpath_speedup`` — pool+cow+message over pool+cow+fast;
* ``speedup_vs_seed`` — spawn+copy+message over pool+cow+fast;
* ``trace_overhead_ratio`` — traced over plain;
* ``metrics_overhead_ratio`` — metered over plain;
* ``power_analysis_ratio`` — power_analyzed over power_run.

No time is trusted unless every flag in :data:`IDENTITY_FLAGS` holds;
each names the one comparison it makes. ``bench_regress.py`` gates the
headlines against the committed ``BENCH_host.json``.

Run from the repo root (exit 1 if any identity flag is false)::

    PYTHONPATH=src python benchmarks/bench_host.py --smoke
    PYTHONPATH=src python benchmarks/bench_host.py --output BENCH_host.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.analysis.powertrace import PowerTrace
from repro.machines.catalog import default_machine
from repro.simmpi import SpmdPool, run_spmd

SCHEMA = "bench_host/v1"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
TIMEOUT = 120.0  # deadlock watchdog seconds per run

#: the configuration behind the committed baseline
FULL = {
    "bcast_heavy": {"sizes": (16, 64, 256), "large_sizes": (1024, 4096),
                    "words": 1 << 16, "rounds": 3, "repeats": 3},
    "ring_heavy": {"sizes": (8, 32), "words": 64, "rounds": 200, "repeats": 5},
}
#: the configuration CI and ``bench_regress.py`` re-run
SMOKE = {
    "bcast_heavy": {"sizes": (8,), "large_sizes": (),
                    "words": 4096, "rounds": 2, "repeats": 2},
    "ring_heavy": {"sizes": (8,), "words": 64, "rounds": 40, "repeats": 2},
}

HEADLINES = (
    "speedup",
    "fastpath_speedup",
    "speedup_vs_seed",
    "trace_overhead_ratio",
    "metrics_overhead_ratio",
    "power_analysis_ratio",
)

#: bit-identity flag -> the comparison it makes
IDENTITY_FLAGS = {
    "bcast_counts": "counts identical across executor x payload x engine",
    "trace_counts": "traced counts match untraced",
    "metrics_counts": "metered counts match unmetered",
    "metrics_vtimes": "metered virtual clocks match unmetered",
    "power_counts": "counts match with power analysis on or off",
    "power_vtimes": "virtual clocks match with power analysis on or off",
}

#: bcast arm -> (executor, payload_mode, fastpath)
BCAST_ARMS = {
    "spawn+copy+message": ("spawn", "copy", False),
    "spawn+cow+message": ("spawn", "cow", False),
    "pool+copy+message": ("pool", "copy", False),
    "pool+cow+message": ("pool", "cow", False),
    "pool+cow+fast": ("pool", "cow", True),
}
LARGE_ARMS = ("pool+cow+message", "pool+cow+fast")


def bcast_heavy(comm, words: int, rounds: int) -> float:
    """Each round: root broadcasts a ``words``-element array, every rank
    folds it into a local checksum (so the buffer is actually read)."""
    total = 0.0
    for r in range(rounds):
        data = np.full(words, float(r), dtype=np.float64) if comm.rank == 0 else None
        got = comm.bcast(data, root=0)
        total += float(np.asarray(got)[0]) + float(np.asarray(got)[-1])
    return total


def ring_heavy(comm, words: int, rounds: int) -> float:
    """Each round: shift a small block around the ring and meter a tiny
    kernel — one send+recv+flops hook triple per rank per round."""
    block = np.full(words, float(comm.rank), dtype=np.float64)
    total = 0.0
    for _ in range(rounds):
        block = comm.shift(block, 1)
        comm.add_flops(2.0 * words, label="fold")
        total += float(block[0])
    return total


def _counts(out) -> tuple:
    return out.report.counts_signature()


def _vtimes(out) -> tuple:
    return tuple(r.vtime for r in out.report.ranks)


def _time(rows: list, workload: str, p: int, arm: str, repeats: int, run):
    """Warm ``run`` up once, time ``repeats`` more calls and append the
    row. Returns (best seconds, the warmup's result)."""
    out = run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    best, median = min(times), statistics.median(times)
    rows.append({"workload": workload, "p": p, "arm": arm,
                 "best_s": best, "median_s": median, "times_s": times})
    print(f"{workload} p={p:4d} {arm:18s} best={best:.4f}s median={median:.4f}s")
    return best, out


def run_benchmark(config: dict = FULL) -> dict:
    """Run both workloads at ``config`` and return the report."""
    machine = default_machine()
    rows: list[dict] = []
    headlines: dict[str, dict[str, float]] = {name: {} for name in HEADLINES}
    identical = dict.fromkeys(IDENTITY_FLAGS, True)

    def same(flag: str, p: int, a, b) -> None:
        if a != b:
            identical[flag] = False
            print(f"p={p}: {flag} DIVERGE")

    with SpmdPool() as pool:
        executors = {"spawn": run_spmd, "pool": pool.run}
        bc = config["bcast_heavy"]
        plan = [(p, tuple(BCAST_ARMS)) for p in bc["sizes"]]
        plan += [(p, LARGE_ARMS) for p in bc["large_sizes"]]
        for p, arms in plan:
            best, counts = {}, {}
            for arm in arms:
                executor, mode, fast = BCAST_ARMS[arm]
                run = partial(
                    executors[executor], p, bcast_heavy, bc["words"], bc["rounds"],
                    timeout=TIMEOUT, payload_mode=mode, fastpath=fast,
                )
                best[arm], out = _time(rows, "bcast_heavy", p, arm, bc["repeats"], run)
                counts[arm] = _counts(out)
            for arm in arms[1:]:
                same("bcast_counts", p, counts[arms[0]], counts[arm])
            key = str(p)
            headlines["fastpath_speedup"][key] = best["pool+cow+message"] / best["pool+cow+fast"]
            if "spawn+copy+message" in best:
                seed = best["spawn+copy+message"]
                headlines["speedup"][key] = seed / best["pool+cow+message"]
                headlines["speedup_vs_seed"][key] = seed / best["pool+cow+fast"]

        rc = config["ring_heavy"]
        for p in rc["sizes"]:
            ring = partial(pool.run, p, ring_heavy, rc["words"], rc["rounds"], timeout=TIMEOUT)

            def analyzed():
                out = ring(machine=machine, trace=True)
                PowerTrace.from_result(out, machine).peak_watts  # the envelope sweep
                return out

            arms = {
                "plain": ring,
                "traced": partial(ring, trace=True),
                "metered": partial(ring, metrics=True),
                "power_run": partial(ring, machine=machine, trace=True),
                "power_analyzed": analyzed,
            }
            best, outs = {}, {}
            for arm, run in arms.items():
                best[arm], outs[arm] = _time(rows, "ring_heavy", p, arm, rc["repeats"], run)
            same("trace_counts", p, _counts(outs["plain"]), _counts(outs["traced"]))
            same("metrics_counts", p, _counts(outs["plain"]), _counts(outs["metered"]))
            # Without a machine every clock reads zero, so metered clocks
            # are compared on a machine-modeled pair.
            same("metrics_vtimes", p, _vtimes(ring(machine=machine)),
                 _vtimes(ring(machine=machine, metrics=True)))
            same("power_counts", p, _counts(outs["power_run"]), _counts(outs["power_analyzed"]))
            same("power_vtimes", p, _vtimes(outs["power_run"]), _vtimes(outs["power_analyzed"]))
            key = str(p)
            headlines["trace_overhead_ratio"][key] = best["traced"] / best["plain"]
            headlines["metrics_overhead_ratio"][key] = best["metered"] / best["plain"]
            headlines["power_analysis_ratio"][key] = best["power_analyzed"] / best["power_run"]

    for name, by_p in headlines.items():
        print(f"{name}: " + ", ".join(f"p={p} {v:.2f}x" for p, v in by_p.items()))
    return {"schema": SCHEMA, "config": config, "rows": rows,
            "headlines": headlines, "identical": identical}


def append_to_ledger(report: dict, ledger_path: Path) -> None:
    """Append the headlines to the observatory run ledger."""
    from repro.observatory import Ledger, RunRecord

    Ledger(ledger_path).append(
        RunRecord.bench(
            workload="bench_host",
            params={"config": report["config"]},
            extra={"headlines": report["headlines"], "identical": report["identical"]},
            label="host wall-clock bench",
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="the small configuration CI and bench_regress.py run")
    ap.add_argument("--output", type=Path, default=RESULTS_DIR / "BENCH_host.json",
                    help="where to write the report (default benchmarks/results/)")
    args = ap.parse_args(argv)

    report = run_benchmark(SMOKE if args.smoke else FULL)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    append_to_ledger(report, RESULTS_DIR / "ledger.jsonl")
    print(f"wrote {args.output}")
    return 0 if all(report["identical"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
