"""One benchmark for host time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload observed-scale --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same numbers for people, plus ``error_rate``, the tail's percentile and
sample count, and the first failed checks.

How a run goes: this process starts ``SETUP_SAMPLES - 1`` fresh
interpreters that only set up, then one that sets up and measures
(``--phase setup`` / ``--phase work``); ``setup_s`` is the median of
their spawn-to-ready times. The measuring interpreter issues one
operation at a time, in whole passes over the workload's operations,
for at least ``--seconds`` seconds and at least the workload's
``min_passes`` passes (chosen so that the passes, and so the sample
count, are the same on every run), then checks every operation's
output. Every subprocess
runs in its own session and is killed with its whole process group if
it outlives the run's deadline.

``--perturb`` runs the timed phase under
``repro.conformance.differ.deliberately_perturbed()``; ``selftest.py``
uses it to show the output checks fail when the metering is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run (the measuring interpreter's own is one of them).
SETUP_SAMPLES = 3

#: Every run ends within this many seconds.
RUN_DEADLINE = 170.0

#: Operations the tail must leave beyond it.
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("cli-replay", "observed-scale")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="mis-meter every message-path send (checks must fail)")
    ap.add_argument("--phase", choices=("setup", "work"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with at least
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(walls)
    if len(ordered) > TAIL_BEYOND:
        i = len(ordered) - 1 - TAIL_BEYOND
    else:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


# ----------------------------------------------------------------------
# the measuring / set-up interpreter
# ----------------------------------------------------------------------


def _interp_seconds(env: dict) -> float:
    """Median wall time of a bare interpreter start and exit."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def timed_phase(wl, ctx, rng, seconds: float, min_passes: int):
    """Whole passes until ``seconds`` have passed and ``min_passes`` ran."""
    ops: list[dict] = []
    elapsed = 0.0
    passes = 0
    while elapsed < seconds or passes < min_passes:
        start = time.perf_counter()
        ops += wl.run_pass(ctx, rng)
        elapsed += time.perf_counter() - start
        passes += 1
    return ops, elapsed


def _layer_summary(ctx, plain: list[dict], traced: list[dict]) -> dict:
    """Per-operation means of the traced operations' layer samples, plus
    the run-level layer numbers."""
    samples = [op["layers"] for op in traced if op["layers"] is not None]
    if not samples:
        raise BenchError("no traced operation produced a layer sample")
    keys = set().union(*samples)
    out = {k: statistics.fmean(s.get(k, 0.0) for s in samples) for k in keys}
    coll = sum(s.get("simmpi.coll_calls", 0) for s in samples)
    fast = sum(s.get("simmpi.coll_fast_calls", 0) for s in samples)
    gets = sum(s.get("sweep.cache_gets", 0) for s in samples)
    hits = sum(s.get("sweep.cache_hits", 0) for s in samples)
    out["simmpi.fastpath_share"] = fast / coll if coll else 0.0
    out["sweep.cache_hit_ratio"] = hits / gets if gets else 0.0
    walls = [op["wall"] for op in traced]
    out["simmpi.pool_grow_s"] = ctx.pool_grow_s
    out["simmpi.threads_peak"] = ctx.threads_peak
    out["cli.interp_s"] = ctx.interp_s
    out["bench.trace_overhead_s"] = statistics.median(walls) - statistics.median(
        op["wall"] for op in plain
    )
    out["bench.unattributed_s"] = statistics.fmean(
        op["wall"] - op["layers"]["top_s"] for op in traced if op["layers"]
    )
    return out


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from outside import Tracer
    from workloads import WORKLOADS, Ctx

    ctx = Ctx(ROOT, Path(args.work))
    wl = WORKLOADS[args.workload]()
    wl.setup(ctx)
    ready = time.monotonic()
    if args.phase == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    rng = random.Random(args.seed)
    if args.perturb:
        from repro.conformance.differ import deliberately_perturbed

        perturbed = deliberately_perturbed()
    else:
        perturbed = nullcontext()
    layers = None
    with perturbed:
        if args.trace:
            ctx.interp_s = _interp_seconds(ctx.env)
            plain, _ = timed_phase(wl, ctx, rng, args.seconds / 2, 1)
            ctx.tracer = Tracer()
            ctx.tracer.install()
            traced, elapsed = timed_phase(wl, ctx, rng, args.seconds / 2, 1)
            ops = plain + traced
        else:
            ops, elapsed = timed_phase(wl, ctx, rng, args.seconds, wl.min_passes)
        if ctx.tracer is not None:
            ctx.tracer.reset()
        errors = []
        for op in ops:
            bad = op["error"] or wl.check(ctx, op)
            if bad:
                errors.append(bad)
        if ctx.tracer is not None:
            seconds, _calls = ctx.tracer.totals()
            ctx.tracer.uninstall()
            layers = _layer_summary(ctx, plain, traced)
            layers["conformance.oracle_s"] = seconds["conformance.oracle"] / len(ops)

    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(
        json.dumps(
            {
                "ready": ready,
                "walls": [op["wall"] for op in ops],
                "elapsed": elapsed,
                "failed": len(errors),
                "errors": errors[:5],
                "rss_mb": rss_kb / 1024.0,
                "layers": layers,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the driving process
# ----------------------------------------------------------------------


def _spawn(args, phase: str, work: Path, deadline: float) -> tuple[dict, str]:
    work.mkdir()
    cmd = [sys.executable]
    if args.trace and phase == "setup":
        cmd += ["-X", "importtime"]
    cmd += [
        str(Path(__file__).resolve()),
        "--phase", phase,
        "--work", str(work),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.perturb:
        cmd.append("--perturb")
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{phase} interpreter passed the run deadline") from None
    finally:
        # Sweep workers or CLI children left behind by a crash go too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{phase} interpreter exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result, err


def drive(args) -> int:
    from outside import import_rows

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        setups, imports = [], []
        for i in range(SETUP_SAMPLES - 1):
            res, err = _spawn(args, "setup", work / f"setup-{i}", deadline)
            setups.append(res["setup_s"])
            imports.append(import_rows(err))
        res, _err = _spawn(args, "work", work / "work", deadline)
        setups.append(res["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is using it

    walls = res["walls"]
    attempted = len(walls)
    failed = res["failed"]
    tail_value, tail_pct = tail(walls)
    if args.trace:
        values = dict(res["layers"])
        if args.workload != "cli-replay":
            for key in imports[0]:
                values[key] = statistics.median(row[key] for row in imports)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail_value,
            "ops_per_s": attempted / res["elapsed"],
            "peak_rss_mb": res["rss_mb"],
            "ok_rate": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} operation(s), {failed} failed")
    print(f"  error_rate      {failed / attempted:.6g} fraction")
    if not args.trace:
        print(f"  op_s_tail is p{tail_pct:.1f} of {attempted} operation(s)")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    for bad in res["errors"]:
        print(f"  FAILED: {bad}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {ROOT} is not a checkout of this repository "
              "(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    try:
        return worker(args) if args.phase else drive(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
