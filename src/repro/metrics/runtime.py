"""The simulator's per-rank instrument bundle and run-end collection.

A run started with ``metrics=True`` (see
:func:`repro.simmpi.engine.run_spmd` / :meth:`repro.simmpi.pool.SpmdPool.run`)
gives every rank a :class:`RankMetrics`: a private
:class:`~repro.metrics.registry.MetricsRegistry` plus direct references
to the hot-path instruments, so a metering hook is one attribute load
and one method call — no name lookup. The hooks live in
:mod:`repro.simmpi.comm` (message sizes), :mod:`repro.simmpi.events`
(collective fan-out, via the shared span object),
:mod:`repro.simmpi.mailbox` (queue depth at deposit) and the run-end
collector below (trace-ring occupancy and drops). Like tracing, the
disabled path pays a single ``is None`` test per operation and the
metered counts/virtual clocks are bit-identical either way
(the ``metered`` arm of ``benchmarks/bench_host.py`` guards both).

Instrument reference
--------------------

==================================== ========= ==============================
name                                 kind      meaning
==================================== ========= ==============================
simmpi_sends_total                   counter   point-to-point sends issued
simmpi_sent_words_total              counter   words injected (the model's W)
simmpi_sent_messages_total           counter   messages injected (S)
simmpi_message_words                 histogram words per send
simmpi_collectives_total             counter   depth-0 collective calls,
                                               labeled ``collective=<name>``
simmpi_collective_fanout             histogram communicator size per depth-0
                                               collective call
simmpi_mailbox_depth                 histogram pending messages in the
                                               destination mailbox after
                                               each deposit
simmpi_trace_events_dropped_total    counter   trace events lost to ring
                                               wraparound (traced runs)
simmpi_trace_ring_occupancy_ratio    gauge     final ring fill fraction,
                                               max over ranks (traced runs)
==================================== ========= ==============================

Pool-level worker instruments (``simmpi_pool_*``) are registered by
:class:`~repro.simmpi.pool.SpmdPool` when constructed with
``metrics=True``; see that module.
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry

__all__ = [
    "RankMetrics",
    "collect_run_metrics",
    "MESSAGE_WORD_BUCKETS",
    "COLLECTIVE_FANOUT_BUCKETS",
    "MAILBOX_DEPTH_BUCKETS",
]

#: Message-size buckets (words per send): powers of four from a bare
#: scalar to a 16M-word block — every workload in the repo lands inside.
MESSAGE_WORD_BUCKETS = (
    0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
    16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
)

#: Collective fan-out buckets (communicator size at a depth-0 call).
COLLECTIVE_FANOUT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Mailbox depth buckets (pending envelopes right after a deposit).
MAILBOX_DEPTH_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)


class RankMetrics:
    """One rank's registry plus cached hot-path instruments."""

    __slots__ = (
        "rank",
        "registry",
        "span_depth",
        "sends_total",
        "sent_words_total",
        "sent_messages_total",
        "message_words",
        "collective_fanout",
        "mailbox_depth",
        "events_dropped",
        "ring_occupancy",
        "_collective_counters",
    )

    def __init__(self, rank: int):
        self.rank = rank
        reg = MetricsRegistry()
        self.registry = reg
        #: live collective-nesting depth (only depth-0 calls are counted,
        #: so e.g. the reduce+bcast inside an allreduce is one call)
        self.span_depth = 0
        self.sends_total = reg.counter(
            "simmpi_sends_total", help="Point-to-point sends issued."
        )
        self.sent_words_total = reg.counter(
            "simmpi_sent_words_total",
            help="Words injected into the network (the model's W).",
        )
        self.sent_messages_total = reg.counter(
            "simmpi_sent_messages_total",
            help="Messages injected into the network (the model's S).",
        )
        self.message_words = reg.histogram(
            "simmpi_message_words",
            MESSAGE_WORD_BUCKETS,
            help="Distribution of words per point-to-point send.",
        )
        self.collective_fanout = reg.histogram(
            "simmpi_collective_fanout",
            COLLECTIVE_FANOUT_BUCKETS,
            help="Communicator size per depth-0 collective call.",
        )
        self.mailbox_depth = reg.histogram(
            "simmpi_mailbox_depth",
            MAILBOX_DEPTH_BUCKETS,
            help="Pending messages in the destination mailbox after a deposit.",
        )
        self.events_dropped = reg.counter(
            "simmpi_trace_events_dropped_total",
            help="Trace events lost to ring-buffer wraparound.",
        )
        self.ring_occupancy = reg.gauge(
            "simmpi_trace_ring_occupancy_ratio",
            help="Final trace-ring fill fraction (max over ranks when merged).",
        )
        self._collective_counters: dict[str, object] = {}

    # -- hooks (hot paths) ----------------------------------------------

    def observe_send(self, words: int, messages: int) -> None:
        """Record one point-to-point send of ``words`` in ``messages``."""
        self.sends_total.value += 1.0
        self.sent_words_total.value += words
        self.sent_messages_total.value += messages
        self.message_words.observe(words)

    def observe_collective(self, name: str, size: int) -> None:
        """Record entering a depth-0 collective on a ``size``-rank comm."""
        counter = self._collective_counters.get(name)
        if counter is None:
            counter = self.registry.counter(
                "simmpi_collectives_total",
                labels={"collective": name},
                help="Depth-0 collective calls by name.",
            )
            self._collective_counters[name] = counter
        counter.value += 1.0  # type: ignore[attr-defined]
        self.collective_fanout.observe(size)


def collect_run_metrics(world) -> MetricsRegistry:
    """Finalize and merge a run's per-rank registries (post-join only).

    Folds trace-ring health (drops, occupancy) into each rank's registry
    when the run was also traced, then returns the cross-rank merge:
    counters and histograms sum, gauges keep the worst rank.
    """
    for rm, counter in zip(world.rank_metrics, world.counters):
        elog = counter.elog
        if elog is not None:
            if elog.dropped:
                rm.events_dropped.inc(elog.dropped)
            rm.ring_occupancy.set(len(elog) / elog.capacity)
    return MetricsRegistry.merged(rm.registry for rm in world.rank_metrics)
