"""Per-rank cost counters — the measured F, W, S, M of the paper's models.

Each simulated rank owns one :class:`CostCounter`. Communication
primitives update the word/message tallies automatically; computational
kernels call :meth:`CostCounter.add_flops` with exact operation counts
(e.g. 2·a·b·c for an a x b times b x c GEMM). Algorithms may also track
their live buffer footprint with :meth:`allocate`/:meth:`release` so the
memory term delta_e·M·T can be evaluated against a measured high-water
mark instead of the machine's physical capacity.

Counters are only mutated by their owning rank's thread, so no locking
is needed; snapshots taken after the SPMD run has joined are safe. The
one deliberate exception is the collective fast path
(:mod:`repro.simmpi.fastpath`): the leader rank of a gated collective
calls :meth:`CostCounter.apply_bulk` on every participant's counter
while those ranks are parked inside the gate, with the gate's rendezvous
as the synchronization point — still race-free, just not owner-thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.events import EventLog

__all__ = ["CostCounter", "CounterSnapshot"]


@dataclass(frozen=True, slots=True)
class CounterSnapshot:
    """Immutable copy of a rank's tallies at the end of a run."""

    rank: int
    flops: float
    words_sent: int
    messages_sent: int
    words_received: int
    messages_received: int
    mem_peak_words: int
    #: virtual-clock finish time (0.0 when the run had no machine model)
    vtime: float = 0.0
    #: internode sub-tallies (Fig. 2 two-level runs; zero otherwise)
    words_sent_internode: int = 0
    messages_sent_internode: int = 0
    words_received_internode: int = 0
    messages_received_internode: int = 0
    #: trace-event tallies (zero when the run was untraced)
    events_recorded: int = 0
    events_dropped: int = 0
    #: recovery sub-tallies: the share of the counts above spent inside a
    #: ``comm.recovery()`` scope (replica re-pushes, recomputation,
    #: retransmissions) — zero for fault-free runs
    recovery_flops: float = 0.0
    recovery_words_sent: int = 0
    recovery_messages_sent: int = 0
    recovery_words_received: int = 0
    recovery_messages_received: int = 0

    @property
    def words_sent_intranode(self) -> int:
        return self.words_sent - self.words_sent_internode

    @property
    def messages_sent_intranode(self) -> int:
        return self.messages_sent - self.messages_sent_internode

    @property
    def words(self) -> int:
        """Words sent (the paper's W counts traffic a processor injects)."""
        return self.words_sent

    @property
    def messages(self) -> int:
        """Messages sent (the paper's S)."""
        return self.messages_sent


@dataclass(slots=True)
class CostCounter:
    """Mutable per-rank tallies, updated during an SPMD run.

    Deliberately lock-free: each counter is mutated only by its owning
    rank's thread during the run, and snapshots are taken after join.
    ``slots=True`` keeps the hot-path attribute access cheap and guards
    against typo'd tally names."""

    rank: int
    flops: float = 0.0
    words_sent: int = 0
    messages_sent: int = 0
    words_received: int = 0
    messages_received: int = 0
    mem_words: int = 0
    mem_peak_words: int = 0
    vtime: float = 0.0  # virtual clock (seconds), advanced when metered
    words_sent_internode: int = 0
    messages_sent_internode: int = 0
    words_received_internode: int = 0
    messages_received_internode: int = 0
    #: recovery sub-tallies — mirror the main tallies while
    #: ``recovering`` is True (toggled by ``Comm.recovery()`` around
    #: replica re-pushes / recomputation / retransmissions), so the
    #: profiler can price what fault recovery cost on top of the
    #: algorithm's own F/W/S
    recovery_flops: float = 0.0
    recovery_words_sent: int = 0
    recovery_messages_sent: int = 0
    recovery_words_received: int = 0
    recovery_messages_received: int = 0
    recovering: bool = False
    #: optional per-rank event log, attached by the World when the run
    #: is traced; the Comm hooks append through it (None = no tracing)
    elog: EventLog | None = field(default=None, repr=False)
    _mem_stack: list[int] = field(default_factory=list, repr=False)

    def advance_clock(self, seconds: float) -> None:
        """Move the virtual clock forward by a local operation's cost."""
        if seconds < 0:
            raise ParameterError(f"clock advance must be >= 0, got {seconds!r}")
        self.vtime += seconds

    def sync_clock(self, arrival: float) -> None:
        """A message sent at ``arrival`` cannot be consumed earlier."""
        if arrival > self.vtime:
            self.vtime = arrival

    def add_flops(self, count: float) -> None:
        """Record ``count`` floating point operations."""
        if count < 0:
            raise ParameterError(f"flop count must be >= 0, got {count!r}")
        self.flops += count
        if self.recovering:
            self.recovery_flops += count

    def add_send(self, words: int, messages: int, internode: bool = False) -> None:
        if words < 0 or messages < 0:
            raise ParameterError("send tallies must be >= 0")
        self.words_sent += words
        self.messages_sent += messages
        if internode:
            self.words_sent_internode += words
            self.messages_sent_internode += messages
        if self.recovering:
            self.recovery_words_sent += words
            self.recovery_messages_sent += messages

    def add_recv(self, words: int, messages: int, internode: bool = False) -> None:
        if words < 0 or messages < 0:
            raise ParameterError("recv tallies must be >= 0")
        self.words_received += words
        self.messages_received += messages
        if internode:
            self.words_received_internode += words
            self.messages_received_internode += messages
        if self.recovering:
            self.recovery_words_received += words
            self.recovery_messages_received += messages

    def apply_bulk(
        self,
        words_sent: int,
        messages_sent: int,
        words_received: int,
        messages_received: int,
        words_sent_internode: int,
        messages_sent_internode: int,
        words_received_internode: int,
        messages_received_internode: int,
        vtime: float,
    ) -> None:
        """Land a whole collective's worth of increments at once.

        The fast path (:mod:`repro.simmpi.fastpath`) prices a gated
        collective with its closed-form oracle and lands each rank's
        column of the :class:`~repro.conformance.oracles.OracleCosts`
        here, in one call per rank: the eight word/message tallies are
        added, and ``vtime`` is the rank's *absolute* virtual-clock
        value after the collective (clocks only move forward). The flop
        tally and the recovery mirror are untouched: the built-in
        reductions meter no flops, and fault plans disable the fast
        path, so bulk applies never happen inside a recovery scope.
        """
        if min(
            words_sent,
            messages_sent,
            words_received,
            messages_received,
            words_sent_internode,
            messages_sent_internode,
            words_received_internode,
            messages_received_internode,
        ) < 0:
            raise ParameterError("bulk tallies must be >= 0")
        if vtime < self.vtime:
            raise ParameterError(
                f"bulk vtime {vtime!r} would move rank {self.rank}'s "
                f"clock backwards from {self.vtime!r}"
            )
        self.words_sent += words_sent
        self.messages_sent += messages_sent
        self.words_received += words_received
        self.messages_received += messages_received
        self.words_sent_internode += words_sent_internode
        self.messages_sent_internode += messages_sent_internode
        self.words_received_internode += words_received_internode
        self.messages_received_internode += messages_received_internode
        self.vtime = vtime

    # -- memory high-water tracking (opt-in per algorithm) -------------

    def allocate(self, words: int) -> None:
        """Record acquiring a buffer of ``words`` words."""
        if words < 0:
            raise ParameterError(f"allocation must be >= 0 words, got {words!r}")
        self.mem_words += words
        self._mem_stack.append(words)
        if self.mem_words > self.mem_peak_words:
            self.mem_peak_words = self.mem_words

    def release(self) -> int:
        """Release the most recently allocated buffer (stack discipline);
        returns the freed word count (used by the trace hooks)."""
        if not self._mem_stack:
            raise ParameterError("release() without matching allocate()")
        freed = self._mem_stack.pop()
        self.mem_words -= freed
        return freed

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(
            rank=self.rank,
            flops=self.flops,
            words_sent=self.words_sent,
            messages_sent=self.messages_sent,
            words_received=self.words_received,
            messages_received=self.messages_received,
            mem_peak_words=self.mem_peak_words,
            vtime=self.vtime,
            words_sent_internode=self.words_sent_internode,
            messages_sent_internode=self.messages_sent_internode,
            words_received_internode=self.words_received_internode,
            messages_received_internode=self.messages_received_internode,
            events_recorded=self.elog.recorded if self.elog is not None else 0,
            events_dropped=self.elog.dropped if self.elog is not None else 0,
            recovery_flops=self.recovery_flops,
            recovery_words_sent=self.recovery_words_sent,
            recovery_messages_sent=self.recovery_messages_sent,
            recovery_words_received=self.recovery_words_received,
            recovery_messages_received=self.recovery_messages_received,
        )
