"""Sharded sweep executor: fan cells over OS processes, funnel records
through a single writer, survive worker crashes.

The threaded simmpi pool parallelises *ranks inside one simulation*;
Python's GIL means two simulations never overlap in one process. This
executor gets real sweep-level parallelism by sharding cells across a
``multiprocessing`` pool — each worker process simulates its shard's
cells serially (reusing its process-local rank-thread pool) and streams
finished records back over a queue.

Three invariants the tests pin:

* **Single-writer funnel** — only the parent process ever touches the
  ledger or the cache. Workers ship ``RunRecord`` JSON over the queue;
  the parent appends. The ledger's append-only JSONL therefore never
  sees interleaved writes, whatever the worker count.
* **Crash-requeue** — a worker that dies mid-shard (segfault, OOM kill,
  injected ``os._exit``) loses nothing: results it already queued are
  drained, and the *remaining* cells of its shard are re-queued to a
  replacement worker. A shard that keeps dying exhausts its
  ``max_requeues`` budget and the sweep raises
  :class:`~repro.exceptions.SweepError` (partial results attached).
* **Cache short-circuit** — cells whose content address is already in
  the :class:`~repro.sweep.cache.RunCache` are *replayed* (the cached
  record re-appended bit-identically) without touching a worker; only
  misses are simulated, and fresh results are stored for next time.

Determinism: the simulator is deterministic per cell, so the *set* of
records a sweep produces is independent of worker count and scheduling;
only the ledger append order varies (the observatory's later-wins
querying is already order-insensitive).
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.exceptions import SweepError
from repro.observatory.ledger import Ledger, RunRecord
from repro.sweep.cache import RunCache, code_fingerprint
from repro.sweep.spec import Cell

__all__ = [
    "CellOutcome",
    "SweepOutcome",
    "default_workers",
    "run_sweep",
]

#: Queue poll period: how often the parent wakes to check worker health.
_POLL_SECONDS = 0.2


def default_workers() -> int:
    """Worker-count default: one per core, capped — sweeps are compute
    bound, more processes than cores just thrash."""
    return max(1, min(8, os.cpu_count() or 1))


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell: replayed from cache, simulated fresh,
    or failed (workload raised / shard abandoned)."""

    cell_id: str
    status: str  # "hit" | "simulated" | "failed"
    shard: int | None = None
    error: str | None = None
    wall_seconds: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "status": self.status,
            "shard": self.shard,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class SweepOutcome:
    """One sweep's ledgerable summary: per-cell outcomes + the records."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    records: dict[str, RunRecord] = field(default_factory=dict)
    requeues: int = 0
    elapsed: float = 0.0
    workers: int = 0

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def simulated(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "simulated")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        total = len(self.outcomes)
        bits = [
            f"{total} cell(s): {self.hits} cached, {self.simulated} simulated",
        ]
        if self.failed:
            bits.append(f"{self.failed} FAILED")
        if self.requeues:
            bits.append(f"{self.requeues} requeue(s)")
        bits.append(f"{self.elapsed:.3g} s ({self.workers} worker(s))")
        return ", ".join(bits)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro_sweep_outcome/v1",
            "cells": len(self.outcomes),
            "hits": self.hits,
            "simulated": self.simulated,
            "failed": self.failed,
            "requeues": self.requeues,
            "elapsed_seconds": self.elapsed,
            "workers": self.workers,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def _shard_worker(
    shard_id: int,
    payloads: Sequence[tuple[str, dict]],
    out_queue,
    crash_after: int | None = None,
) -> None:
    """Worker entry point (top-level so spawn contexts can pickle it).

    Simulates its shard's cells in order, streaming one message per
    cell. ``crash_after=k`` is the fault-injection hook: after queueing
    k results the worker flushes the queue feeder and dies with
    ``os._exit`` — no cleanup, no sentinel — exactly like a segfault.
    """
    from repro.sweep.runner import execute_cell

    done = 0
    for cell_id, cell_json in payloads:
        if crash_after is not None and done >= crash_after:
            # Flush buffered messages so the parent sees everything this
            # worker actually finished, then die without ceremony.
            out_queue.close()
            out_queue.join_thread()
            os._exit(137)
        try:
            record = execute_cell(Cell.from_json(cell_json))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            out_queue.put(
                ("failed", shard_id, cell_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            out_queue.put(("done", shard_id, cell_id, record.to_json()))
        done += 1
    out_queue.put(("shard_done", shard_id, None, None))


def _annotate(record: RunRecord, cache_status: str, cell_id: str) -> RunRecord:
    """The ledger copy of a record carries sweep provenance in ``extra``
    (the cache stores the *unannotated* record, so hit/miss replays stay
    bit-identical in every schema field the observatory reads)."""
    extra = dict(record.extra or {})
    extra["sweep"] = {"cache": cache_status, "cell": cell_id}
    return dataclasses.replace(record, extra=extra)


def _mp_context(name: str | None):
    import multiprocessing

    if name:
        return multiprocessing.get_context(name)
    # fork is cheap and inherits the imported simulator; fall back to
    # spawn where fork is unavailable (or deprecated, e.g. macOS).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


class _Shard:
    """Parent-side view of one shard: its pending cells + live process."""

    def __init__(self, shard_id: int, cells: list[Cell]):
        self.shard_id = shard_id
        self.pending: dict[str, Cell] = {c.cell_id: c for c in cells}
        self.order: list[str] = [c.cell_id for c in cells]
        self.process = None
        self.generation = 0
        self.finished = False

    def remaining(self) -> list[Cell]:
        return [self.pending[cid] for cid in self.order if cid in self.pending]

    def start(self, ctx, out_queue, crash_after: int | None) -> None:
        payloads = [(c.cell_id, c.to_json()) for c in self.remaining()]
        self.process = ctx.Process(
            target=_shard_worker,
            args=(self.shard_id, payloads, out_queue, crash_after),
            daemon=True,
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def run_sweep(
    cells: Iterable[Cell],
    ledger: Ledger | None = None,
    cache: RunCache | None = None,
    workers: int | None = None,
    mp_context: str | None = None,
    max_requeues: int = 2,
    crash_plan: dict[int, int] | None = None,
    fingerprint: str | None = None,
) -> SweepOutcome:
    """Run a planned cell list: replay cache hits, shard the misses over
    worker processes, funnel every record through this (single-writer)
    process into ``ledger`` and ``cache``.

    Parameters
    ----------
    workers:
        Process count for the miss shards. ``0`` simulates serially
        in-process (no multiprocessing at all — the reference path the
        fuzz suite differences the sharded path against). Default:
        :func:`default_workers`, capped at the miss count.
    max_requeues:
        Crash budget per shard. Each worker death re-queues the shard's
        remaining cells to a fresh process; one death past the budget
        raises :class:`SweepError` with the partial outcome attached as
        ``exc.outcome``.
    crash_plan:
        Fault injection for tests: ``{shard_id: k}`` makes that shard's
        *first* worker die after finishing k cells. Replacement workers
        never crash (generation > 0 runs clean).
    fingerprint:
        Override the code fingerprint (tests pin it to survive the
        source edits the test itself makes).
    """
    cells = list(cells)
    seen: set[str] = set()
    for cell in cells:
        if cell.cell_id in seen:
            raise SweepError(f"duplicate cell in plan: {cell.cell_id}")
        seen.add(cell.cell_id)
    outcome = SweepOutcome()
    start = time.perf_counter()
    if fingerprint is None and cache is not None:
        fingerprint = code_fingerprint()

    # -- cache replay (parent-only, no workers involved) ------------------
    misses: list[Cell] = []
    for cell in cells:
        cached = cache.get(cell, fingerprint) if cache is not None else None
        if cached is not None:
            if ledger is not None:
                ledger.append(_annotate(cached, "hit", cell.cell_id))
            outcome.records[cell.cell_id] = cached
            outcome.outcomes.append(
                CellOutcome(cell.cell_id, "hit", wall_seconds=cached.wall_seconds)
            )
        else:
            misses.append(cell)

    if workers is None:
        workers = min(default_workers(), max(1, len(misses)))
    outcome.workers = workers
    if not misses:
        outcome.elapsed = time.perf_counter() - start
        return outcome
    # Only a miss needs the simulator; loading it here, before any fork,
    # keeps warm replays free of it and lets workers inherit it.
    from repro.sweep.runner import execute_cell

    def _commit(cell: Cell, record: RunRecord, shard_id: int | None) -> None:
        if cache is not None:
            cache.put(cell, record, fingerprint)
        if ledger is not None:
            ledger.append(_annotate(record, "miss", cell.cell_id))
        outcome.records[cell.cell_id] = record
        outcome.outcomes.append(
            CellOutcome(
                cell.cell_id,
                "simulated",
                shard=shard_id,
                wall_seconds=record.wall_seconds,
            )
        )

    # -- serial reference path --------------------------------------------
    if workers == 0:
        for cell in misses:
            try:
                record = execute_cell(cell)
            except Exception as exc:  # noqa: BLE001 - reported per cell
                outcome.outcomes.append(
                    CellOutcome(
                        cell.cell_id,
                        "failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            else:
                _commit(cell, record, None)
        outcome.elapsed = time.perf_counter() - start
        return outcome

    # -- sharded path ------------------------------------------------------
    ctx = _mp_context(mp_context)
    out_queue = ctx.Queue()
    shard_lists: list[list[Cell]] = [[] for _ in range(min(workers, len(misses)))]
    for i, cell in enumerate(misses):
        shard_lists[i % len(shard_lists)].append(cell)
    shards = [_Shard(i, cs) for i, cs in enumerate(shard_lists)]
    cell_index = {c.cell_id: c for c in misses}
    crash_plan = dict(crash_plan or {})
    recorded: set[str] = set()

    for shard in shards:
        shard.start(ctx, out_queue, crash_plan.get(shard.shard_id))

    def _handle(msg) -> None:
        kind, shard_id, cell_id, payload = msg
        shard = shards[shard_id]
        if kind == "shard_done":
            shard.finished = True
            return
        if cell_id in recorded:
            return  # duplicate replay after a requeue race — drop it
        recorded.add(cell_id)
        shard.pending.pop(cell_id, None)
        if kind == "done":
            _commit(cell_index[cell_id], RunRecord.from_json(payload), shard_id)
        else:  # "failed" — the workload raised; not a crash, no requeue
            outcome.outcomes.append(
                CellOutcome(cell_id, "failed", shard=shard_id, error=payload)
            )

    try:
        while not all(s.finished or not s.pending for s in shards):
            try:
                _handle(out_queue.get(timeout=_POLL_SECONDS))
                continue
            except queue_mod.Empty:
                pass
            for shard in shards:
                if shard.finished or not shard.pending or shard.alive():
                    continue
                # Dead worker: drain what it managed to flush, then
                # requeue whatever is still pending.
                while True:
                    try:
                        _handle(out_queue.get(timeout=_POLL_SECONDS))
                    except queue_mod.Empty:
                        break
                if shard.finished or not shard.pending:
                    continue
                shard.generation += 1
                if shard.generation > max_requeues:
                    outcome.elapsed = time.perf_counter() - start
                    for cid in list(shard.pending):
                        outcome.outcomes.append(
                            CellOutcome(
                                cid,
                                "failed",
                                shard=shard.shard_id,
                                error=(
                                    f"shard {shard.shard_id} lost "
                                    f"{shard.generation} worker(s); requeue "
                                    f"budget ({max_requeues}) exhausted"
                                ),
                            )
                        )
                    err = SweepError(
                        f"shard {shard.shard_id} exhausted its requeue "
                        f"budget ({max_requeues}); "
                        f"{len(shard.pending)} cell(s) abandoned"
                    )
                    err.outcome = outcome
                    raise err
                outcome.requeues += 1
                # Replacement runs clean: an injected crash fires once.
                shard.start(ctx, out_queue, None)
    finally:
        for shard in shards:
            if shard.process is not None:
                shard.process.join(timeout=5.0)
                if shard.process.is_alive():  # pragma: no cover
                    shard.process.terminate()
        out_queue.close()

    outcome.elapsed = time.perf_counter() - start
    return outcome
