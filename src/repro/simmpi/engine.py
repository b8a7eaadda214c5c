"""The SPMD execution engine.

:func:`run_spmd` launches one OS thread per rank, each executing the
same ``program(comm, *args, **kwargs)`` — the SPMD idiom of mpi4py
scripts, with the communicator injected instead of imported. It joins
all ranks, converts any rank exception into
:class:`~repro.exceptions.RankFailedError` (after waking peers blocked
on receives), and returns an :class:`SpmdResult` carrying each rank's
return value plus the :class:`~repro.simmpi.trace.TraceReport` of
measured costs.

Threads (not processes) are the right substrate here: payload isolation
at the send boundary gives us distributed-memory semantics, the
workloads are NumPy-bound (GIL released inside BLAS), and determinism
of the *counts* is guaranteed by the algorithms' fixed communication
patterns, not by scheduling order.

Both executors — ``run_spmd`` and
:meth:`~repro.simmpi.pool.SpmdPool.run`, which keeps worker threads
alive across runs — drive one :class:`_Run`: it builds the
:class:`~repro.simmpi.world.World`, runs each rank's body, waits for
the join and builds the result. They differ only in where the rank
threads come from.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass
from time import monotonic as _monotonic
from time import perf_counter
from typing import Any, Callable

from repro.exceptions import DeadlockError, RankCrashedError, RankFailedError
from repro.simmpi.comm import Comm
from repro.simmpi.trace import TraceReport
from repro.simmpi.world import World

__all__ = ["run_spmd", "SpmdResult"]

#: The run options both executors take by keyword and hand to
#: :class:`~repro.simmpi.world.World` — every ``World`` parameter but
#: ``size``; any other keyword goes to the program.
WORLD_OPTIONS = tuple(inspect.signature(World).parameters)[1:]


@dataclass(frozen=True)
class SpmdResult:
    """Outcome of an SPMD run."""

    results: tuple  # per-rank return values, indexed by rank
    report: TraceReport  # measured F/W/S/M per rank
    #: per-rank EventLogs when the run was traced (``trace=True``),
    #: else None — input to the :mod:`repro.analysis.timeline` analyses
    event_logs: tuple | None = None
    #: merged run-level :class:`~repro.metrics.registry.MetricsRegistry`
    #: when the run was metered (``metrics=True``), else None
    metrics: object | None = None
    #: ranks whose injected crash fired during the run (their ``results``
    #: entries are None); empty for fault-free runs
    crashed: tuple[int, ...] = ()

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, rank: int):
        return self.results[rank]

    def timeline(self):
        """Build a :class:`~repro.analysis.timeline.Timeline` over this
        run's events (requires the run to have been traced)."""
        from repro.analysis.timeline import Timeline

        return Timeline.from_result(self)


def _join_budget(timeout: float) -> float:
    """Seconds the join watchdog waits for every rank: one full receive
    timeout for the slowest rank to unblock, another for its own cleanup
    cascade, plus scheduling slack."""
    return 2.0 * timeout + 1.0


def _join_timeout_message(stuck: list[int], timeout: float) -> str:
    """The join watchdog's verdict on the ranks still running."""
    return (
        f"rank thread(s) {stuck} did not finish within the "
        f"{_join_budget(timeout):.1f}s join budget (2*timeout+1, "
        f"timeout={timeout:g}s): either wedged outside a receive (e.g. an "
        "infinite loop in the SPMD program) or still running because the "
        "program needs longer than the budget (e.g. a large p); if it was "
        "making progress, raise `timeout=`"
    )


def _finalize(
    world: World,
    results: list[Any],
    failures: dict[int, BaseException],
    crashes: dict[int, BaseException] | None = None,
    wall_seconds: float = 0.0,
) -> SpmdResult:
    """Convert joined-run state into an SpmdResult or RankFailedError.

    ``crashes`` holds injected :class:`~repro.exceptions.RankCrashedError`
    unwinds. Alone they are *survivable* — the run succeeds with
    ``SpmdResult.crashed`` naming the victims (a resilient program
    completed around them). Combined with real ``failures`` they are
    primary context: a crash that a non-resilient program could not
    absorb is the root cause, and the orphaned-receive
    ``DeadlockError``/``PeerDeadError`` cascade on the survivors is
    secondary noise.
    """
    crashes = crashes or {}
    if failures:
        # Deadlock/abort cascades on other ranks are secondary noise; report
        # the primary failures (non-DeadlockError), including any injected
        # crashes the program failed to absorb, first if any exist.
        merged = {**crashes, **failures}
        primary = {r: e for r, e in merged.items() if not isinstance(e, DeadlockError)}
        raise RankFailedError(primary or merged)

    report = TraceReport(ranks=tuple(c.snapshot() for c in world.counters))
    metrics = None
    if world.rank_metrics is not None:
        from repro.metrics.runtime import collect_run_metrics

        metrics = collect_run_metrics(world)
    result = SpmdResult(
        results=tuple(results),
        report=report,
        event_logs=world.event_logs,
        metrics=metrics,
        crashed=tuple(sorted(crashes)),
    )
    if world.record is not None:
        # Ledger hook: runs strictly after the join, on the already-built
        # result — it can never perturb counts or virtual clocks.
        from repro.observatory.ledger import emit_run

        emit_run(world.record, world, result, wall_seconds)
    return result


class _Latch:
    """Countdown latch: ``wait()`` returns once ``count_down()`` has been
    called ``n`` times."""

    __slots__ = ("_remaining", "_cond")

    def __init__(self, n: int):
        self._remaining = n
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            self._remaining -= 1
            if self._remaining <= 0:
                self._cond.notify_all()

    def wait(self, timeout: float) -> bool:
        """Block until the count reaches zero or ``timeout`` seconds pass
        (absolute deadline — spurious wake-ups do not extend it); returns
        whether it reached zero."""
        deadline = _monotonic() + timeout
        with self._cond:
            while self._remaining > 0:
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


class _Run:
    """One SPMD run, whichever executor's threads carry its ranks.

    Splits the :data:`WORLD_OPTIONS` out of ``kwargs`` (the rest go to
    the program), builds the :class:`~repro.simmpi.world.World` once,
    and owns the per-rank results, failures and injected crashes until
    :meth:`finish` turns them into the outcome.
    """

    def __init__(self, size: int, program: Callable[..., Any], args: tuple, kwargs: dict):
        options = {k: kwargs.pop(k) for k in WORLD_OPTIONS if k in kwargs}
        self.world = World(size, **options)
        self.wall_start = _monotonic()
        self.program = program
        self.args = args
        self.kwargs = kwargs
        self.results: list[Any] = [None] * size
        self.failures: dict[int, BaseException] = {}
        self.crashes: dict[int, BaseException] = {}
        self.lock = threading.Lock()
        self.done = [False] * size
        self.latch = _Latch(size)

    def rank(self, rank: int, usage=None) -> None:
        """Run ``rank``'s program on the calling thread and book its
        outcome. ``usage`` is a metered pool worker's (jobs,
        busy-seconds) counter pair; it is charged before the rank counts
        down, so it is current once the run has joined."""
        start = perf_counter()
        comm = Comm(self.world, group=range(self.world.size), rank=rank)
        try:
            self.results[rank] = self.program(comm, *self.args, **self.kwargs)
        except RankCrashedError as exc:
            # Injected crash: isolate the rank instead of failing the
            # world, so resilient survivors can detect it and recover.
            with self.lock:
                self.crashes[rank] = exc
            self.world.mark_dead(rank)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with self.lock:
                self.failures[rank] = exc
            self.world.abort()
        finally:
            self.done[rank] = True
            if usage is not None:
                usage[0].value += 1.0
                usage[1].value += perf_counter() - start
            self.latch.count_down()

    def stuck(self) -> list[int]:
        """Wait for every rank; return the ranks that never finished.

        The mailbox deadlock timeout only covers ranks blocked in a
        receive. A rank wedged *outside* one (a user-code infinite loop)
        would hang a bare wait forever, so the wait is bounded by the
        join budget (``2*timeout + 1``). Past it the world is aborted,
        ranks blocked on the stuck ones get one second to unwind, and
        whoever is still running is returned (empty when the run joined).
        """
        if self.latch.wait(_join_budget(self.world.timeout)):
            return []
        self.world.abort()
        self.latch.wait(1.0)
        return [r for r, done in enumerate(self.done) if not done]

    def finish(self) -> SpmdResult:
        """The joined run's result (see :func:`_finalize`)."""
        return _finalize(
            self.world,
            self.results,
            self.failures,
            self.crashes,
            wall_seconds=_monotonic() - self.wall_start,
        )


def run_spmd(size: int, program: Callable[..., Any], *args: Any, **kwargs: Any) -> SpmdResult:
    """Run ``program(comm, *args, **kwargs)`` on ``size`` simulated ranks,
    one fresh daemon thread each.

    ``program`` receives a :class:`~repro.simmpi.comm.Comm` as its first
    argument; its return value is collected per rank. Keywords named in
    :data:`WORLD_OPTIONS` — every :class:`~repro.simmpi.world.World`
    parameter but ``size`` — configure the run as documented there;
    every other keyword goes to the program.

    Raises
    ------
    RankFailedError
        If any rank raises; carries the per-rank exceptions.
    DeadlockError
        If rank threads fail to join within the watchdog budget: a rank
        wedged outside a receive (e.g. a user-code infinite loop), or a
        program that needs longer than ``2*timeout + 1`` seconds.
    """
    run = _Run(size, program, args, kwargs)
    threads = [
        threading.Thread(target=run.rank, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    stuck = run.stuck()
    if stuck:
        raise DeadlockError(_join_timeout_message(stuck, run.world.timeout))
    return run.finish()
