"""The benchmark's workloads: set-up, one timed pass, output checks.

Every workload is a closed loop with one client: the benchmark issues
one operation, waits for it, then issues the next. The only concurrency
is the program's own (``simmpi`` rank threads, sweep worker processes).
The seed fixes the order of operations within each pass; the program
sees only the cells built here.

An operation is a dict: ``wall`` (seconds, taken by the benchmark),
``error`` (None, or why the operation raised), ``check`` (what
:meth:`check` needs, evaluated after the timed phase so output checks
stay outside every timed span) and, in traced runs, ``layers`` (one
:func:`outside.layer_sample`).

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from outside import import_rows, layer_sample

#: Seconds one subprocess of the benchmark may take before it is killed.
CHILD_TIMEOUT = 120.0

PINS_PATH = Path(__file__).with_name("pins.json")


def digest(counts, vtimes) -> str:
    """sha256 over a run's per-rank counts signature and virtual clocks
    (JSON floats are shortest round-trip reprs, so equal runs agree)."""
    blob = json.dumps([[list(r) for r in counts], list(vtimes)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_kwargs(cell) -> dict:
    """Engine kwargs for a cell, exactly as ``execute_cell`` passes them."""
    kwargs = dict(cell.run_kwargs())
    if kwargs["node_size"] is None:
        kwargs.pop("node_size")
    if kwargs["max_message_words"] == math.inf:
        kwargs.pop("max_message_words")
    return kwargs


def _noop(comm) -> None:
    return None


def _timed(ctx, fn):
    """Run one operation; returns ``(wall, result, error, layers)``.

    The heap is collected first, outside the timed span, so cyclic
    garbage an earlier operation left (worlds, mailboxes, results) lands
    in neither this operation's time nor its memory peak."""
    gc.collect()
    if ctx.tracer is not None:
        ctx.tracer.reset()
    error = result = None
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    layers = layer_sample(ctx.tracer) if ctx.tracer is not None else None
    ctx.threads_peak = max(ctx.threads_peak, threading.active_count())
    return wall, result, error, layers


def _op(wall, error, check, layers) -> dict:
    return {"wall": wall, "error": error, "check": check, "layers": layers}


def _grow_pool(ctx, p: int) -> None:
    """Grow the shared rank-thread pool to ``p`` with one empty run."""
    from repro.simmpi.pool import shared_pool

    start = perf_counter()
    shared_pool().run(p, _noop)
    ctx.pool_grow_s = perf_counter() - start
    ctx.threads_peak = max(ctx.threads_peak, threading.active_count())


def _check_oracle(ctx, cell, counts, vtimes) -> str | None:
    """Counts and per-rank virtual clocks of a ``coll:*`` cell against
    its closed-form oracle (cached per cell: every pass repeats them)."""
    from repro.sweep import runner

    want = ctx.oracles.get(cell.cell_id)
    if want is None:
        oracle = runner.cell_oracle(cell)
        want = ctx.oracles[cell.cell_id] = (oracle.signature(), oracle.vtimes)
    want_counts, want_vtimes = want
    if [tuple(r) for r in counts] != [tuple(r) for r in want_counts]:
        return f"{cell.cell_id}: counts differ from the oracle"
    if tuple(vtimes) != tuple(want_vtimes):
        return f"{cell.cell_id}: virtual clocks differ from the oracle"
    return None


def _check_pinned(ctx, cell, counts, vtimes) -> str | None:
    """A scenario cell against its pinned untraced digest and its
    closed-form scenario oracle, plus word conservation."""
    from repro.conformance import oracles

    want = ctx.pins.get(cell.cell_id)
    if want is None:
        return f"{cell.cell_id}: no pinned digest in {PINS_PATH.name}"
    if digest(counts, vtimes) != want:
        return f"{cell.cell_id}: counts/vtimes digest differs from the pin"
    so = oracles.oracle_scenario(cell.workload, cell.p, cell.params["n"])
    rows = [tuple(r) for r in counts]
    if tuple(r[0] for r in rows) != so.rank_flops:
        return f"{cell.cell_id}: per-rank flops differ from the scenario oracle"
    if so.per_rank is not None and tuple(rows) != so.per_rank:
        return f"{cell.cell_id}: per-rank counts differ from the scenario oracle"
    if sum(r[1] for r in rows) != sum(r[3] for r in rows) or sum(
        r[2] for r in rows
    ) != sum(r[4] for r in rows):
        return f"{cell.cell_id}: words or messages not conserved"
    return None


class Ctx:
    """What one worker process shares between set-up, passes and checks."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        #: the outside-in tracer while a traced phase runs, else None
        self.tracer = None
        self.env = dict(os.environ)
        src = str(root / "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        self.pins: dict[str, str] = json.loads(PINS_PATH.read_text())
        self.oracles: dict[str, tuple] = {}
        self.pool_grow_s = 0.0
        self.threads_peak = threading.active_count()


# ----------------------------------------------------------------------
# cli-replay
# ----------------------------------------------------------------------


def _strip_provenance(line: str) -> str:
    """A ledger line without the sweep's hit/miss annotation, as
    canonical JSON (the cache stores records without it)."""
    payload = json.loads(line)
    extra = payload.get("extra") or {}
    extra.pop("sweep", None)
    payload["extra"] = extra or None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class CliReplay:
    """Warm ``python -m repro sweep run`` of the smoke spec, one fresh
    interpreter per operation, against the cache set-up filled."""

    min_passes = 25  # one operation per pass

    def _sweep_cmd(self, ledger: Path) -> list[str]:
        return [
            "sweep", "run", "--json",
            "--ledger", str(ledger),
            "--cache-dir", str(self.cache),
        ]

    def setup(self, ctx: Ctx) -> None:
        self.cache = ctx.work / "cache"
        ledger = ctx.work / "setup.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *self._sweep_cmd(ledger)],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cache fill failed: {proc.stderr.strip()}")
        self.cells = json.loads(proc.stdout)["cells"]
        self.expected = sorted(
            _strip_provenance(l) for l in ledger.read_text().splitlines() if l
        )
        self.count = 0

    def run_pass(self, ctx: Ctx, rng) -> list[dict]:
        self.count += 1
        ledger = ctx.work / f"replay-{self.count}.jsonl"
        cmd = [sys.executable, "-m", "repro", *self._sweep_cmd(ledger)]
        env = ctx.env
        spans = ctx.work / f"spans-{self.count}.json"
        if ctx.tracer is not None:
            hook = Path(__file__).with_name("clihook.py")
            cmd = [sys.executable, "-X", "importtime", str(hook), *cmd[3:]]
            env = dict(env, PERFBENCH_SPANS=str(spans))
        start = perf_counter()
        proc = subprocess.run(
            cmd, cwd=ctx.root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        wall = perf_counter() - start
        layers = None
        if ctx.tracer is not None and spans.is_file():
            layers = json.loads(spans.read_text())
            layers.update(import_rows(proc.stderr))
            layers["cli.interp_s"] = ctx.interp_s
            layers["observatory.record_bytes"] = (
                ledger.stat().st_size if ledger.is_file() else 0
            )
            layers["top_s"] += (
                layers["cli.interp_s"] + layers["cli.import_s"]
            )
        return [_op(wall, None, (proc.returncode, proc.stdout, str(ledger)), layers)]

    def check(self, ctx: Ctx, op: dict) -> str | None:
        code, stdout, ledger = op["check"]
        if code != 0:
            return f"sweep run exited {code}"
        outcome = json.loads(stdout)
        if outcome["hits"] != self.cells or outcome["failed"]:
            return f"expected {self.cells} cache hits, got {outcome['hits']}"
        got = sorted(
            _strip_provenance(l) for l in Path(ledger).read_text().splitlines() if l
        )
        if got != self.expected:
            return "replayed records differ from the records set-up wrote"
        return None


# ----------------------------------------------------------------------
# observed-scale
# ----------------------------------------------------------------------


#: Collectives on the message path (tracing forces it): the two whose
#: traced runs carry the most events per operation. Traced at p=1024
#: they take 30-50 s per operation, and the cheap bcast/allreduce/
#: barrier cells swing too widely to keep a steady median (README
#: "Left out, and why").
OBSERVED_SCALE = [(op, 256) for op in ("allgather", "reduce_scatter")]

#: The p2p-heavy scenario observed alongside the collectives.
OBSERVED_NBODY = {"n": 512, "p": 128}


class ObservedScale:
    """Traced, metered SPMD runs followed by Timeline, PowerTrace and a
    RunRecord appended to a ledger — one operation each."""

    min_passes = 8

    def setup(self, ctx: Ctx) -> None:
        # Import what the operations and checks use before anything is
        # timed, so no import lands in an operation or in oracle time.
        from repro.analysis import powertrace, timeline  # noqa: F401
        from repro.conformance import oracles  # noqa: F401
        from repro.observatory import Ledger
        from repro.sweep import SweepSpec, collective_cell, plan_cells
        from repro.sweep.spec import resolve_machine_spec

        machine = resolve_machine_spec("default")
        self.cells = [collective_cell(op, p, machine) for op, p in OBSERVED_SCALE]
        self.cells += plan_cells(
            SweepSpec("nbody", n=OBSERVED_NBODY["n"], p_values=(OBSERVED_NBODY["p"],))
        )
        self.ledger = Ledger(ctx.work / "observed.jsonl")
        _grow_pool(ctx, max(cell.p for cell in self.cells))

    def _observe(self, cell) -> tuple:
        from repro.analysis.powertrace import PowerTrace
        from repro.analysis.timeline import Timeline
        from repro.observatory.ledger import RunRecord
        from repro.simmpi.pool import shared_pool
        from repro.sweep import runner

        program, args, label = runner.build_cell_program(cell)
        machine = runner.cell_machine(cell)
        start = perf_counter()
        result = shared_pool().run(
            cell.p, program, *args, machine=machine, trace=True, metrics=True,
            **run_kwargs(cell),
        )
        run_wall = perf_counter() - start
        tl = Timeline.from_result(result)
        tl.breakdown()
        path = tl.critical_path()
        power = PowerTrace.from_result(result, machine, memory_words=cell.memory_words)
        record = RunRecord.from_result(
            result,
            workload=cell.workload,
            params=dict(cell.params),
            machine=machine,
            memory_words=cell.memory_words,
            label=cell.label or label,
            wall_seconds=run_wall,
        )
        self.ledger.append(record)
        report = result.report
        return (
            cell,
            report.counts_signature(),
            tuple(r.vtime for r in report.ranks),
            (power.energy_total, power.energy_terms),
            (record.energy_total, record.energy_terms),
            (path.total, report.simulated_time),
            sum(len(log) for log in tl.logs),
        )

    def run_pass(self, ctx: Ctx, rng) -> list[dict]:
        cells = list(self.cells)
        rng.shuffle(cells)
        ops = []
        for cell in cells:
            size = self.ledger.path.stat().st_size if self.ledger.path.exists() else 0
            wall, out, error, layers = _timed(ctx, lambda: self._observe(cell))
            if layers is not None and out is not None:
                layers["analysis.events"] = out[-1]
                layers["observatory.record_bytes"] = (
                    self.ledger.path.stat().st_size - size
                )
            ops.append(_op(wall, error, out, layers))
        return ops

    def check(self, ctx: Ctx, op: dict) -> str | None:
        cell, counts, vtimes, power, profile, path, _events = op["check"]
        if cell.workload.startswith("coll:"):
            bad = _check_oracle(ctx, cell, counts, vtimes)
        else:
            bad = _check_pinned(ctx, cell, counts, vtimes)
        if bad:
            return bad
        if power != profile:
            return f"{cell.cell_id}: PowerTrace energy differs from ModelProfile"
        if path[0] != path[1]:
            return f"{cell.cell_id}: critical path {path[0]!r} != simulated time {path[1]!r}"
        return None


WORKLOADS = {
    "cli-replay": CliReplay,
    "observed-scale": ObservedScale,
}
