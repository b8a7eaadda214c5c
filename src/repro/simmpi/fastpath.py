"""Analytic fast path for collectives — O(1) rendezvous, oracle-priced costs.

The message path in :mod:`repro.simmpi.collectives` simulates every
collective faithfully: a p-rank broadcast moves p-1 envelopes through
thread mailboxes, each paying a lock, a condition-variable wake and
per-hop metering under the GIL. Those envelopes exist only to produce
three observable effects — per-rank counter increments, per-rank
virtual-clock advances, and delivered payloads. When nothing is
watching the individual messages (no tracing, no metrics, no fault
plan, no custom reduce op), the counts and clocks follow from the
collective's closed-form cost recurrence, and only the payloads need
routing — without any envelope ever crossing a mailbox.

Mechanics: all ranks of the communicator meet at a
:class:`CollectiveGate` (one per communicator context, owned by the
:class:`~repro.simmpi.world.World`). The last rank to arrive becomes
the *leader* and resolves the whole collective once. It validates the
call (raising the message path's exact errors), routes the payloads
(one freeze or copy per block, built-in reductions in the tree's or
ring's association order), and prices the call with the collective's
oracle in :mod:`repro.conformance.oracles`, entered at every rank's
current virtual clock. It lands each rank's column of the returned
:class:`~repro.conformance.oracles.OracleCosts` with
:meth:`~repro.simmpi.counters.CostCounter.apply_bulk` (safe because all
other ranks are parked in the gate) and publishes the per-rank results.
Everyone wakes, picks up its result, and continues. Cost per
collective: one rendezvous plus the oracle's arithmetic in a single
thread, instead of O(edges) cross-thread envelope deliveries. The
recurrence itself is written only in the oracles; this module holds no
metering code.

Equivalence contract (enforced by ``benchmarks/bench_regress.py``'s
``regress_fastpath`` gate and ``tests/test_fastpath.py``): for every
supported collective the fast path is **bit-identical** to the message
path in ``TraceReport.counts_signature()``, in every rank's virtual
clock, and in delivered payload contents — including copy-on-write
read-only-view semantics, two-level internode sub-tallies, and the
exact float association order of built-in reductions.

Semantics note: the fast path gives every collective *synchronizing*
semantics (all ranks must arrive before any proceeds), which MPI
permits for every collective. A program that relies on a collective
NOT synchronizing (e.g. a root racing ahead of its bcast to satisfy a
peer's earlier point-to-point receive) is erroneous under the MPI
standard; it deadlocks here and should run with ``fastpath=False``.
Mismatched arguments across ranks (different roots, different
collectives on the same communicator) are reported as
:class:`~repro.exceptions.CommunicatorError` instead of the message
path's eventual timeout — a deliberate diagnostic upgrade.

The fall-back rules live at the dispatch sites in
:mod:`repro.simmpi.collectives`: tracing, metrics, fault plans,
non-default algorithms and non-builtin reduce ops all take the real
message path, unchanged.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Any, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, DeadlockError, SimulationError
from repro.simmpi.payload import copy_payload, freeze_payload, payload_words

__all__ = ["CollectiveGate", "run_collective", "resolve"]


class _Err:
    """Outcome wrapper marking 'raise this on that rank' resolutions."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class _Cycle:
    """One rendezvous generation: who parked, who led, and the
    published outcomes."""

    __slots__ = ("parked", "leader", "outcomes", "aborted")

    def __init__(self, size: int):
        self.parked = [False] * size
        self.leader = -1
        self.outcomes: list | None = None
        self.aborted = False


class CollectiveGate:
    """Reusable rendezvous for one communicator's rank group.

    Each collective call deposits ``(name, args)`` and blocks; the last
    arriver resolves the whole collective (see :func:`resolve`) and
    publishes per-rank outcomes through the current :class:`_Cycle`.
    The gate is cyclic: a fresh cycle is installed before the old one
    is published, and a rank can only re-arrive after picking up its
    previous outcome, so generations never overlap.

    Parked ranks block on persistent per-rank *turnstiles*: plain
    ``threading.Lock`` objects held in the locked state, used as binary
    semaphores (wake = ``release()`` by any thread, wait =
    ``acquire()``, which leaves the turnstile re-armed for the next
    cycle with zero allocations — much leaner per wake than
    ``Event``/``Condition``, which allocate a fresh waiter lock on
    every wait).

    Waking is a *relay*, not a broadcast: the leader wakes only its
    ring successor, and every rank wakes the next on its way out,
    stopping after the ring wraps back to the leader. Releasing all
    p-1 turnstiles from one thread would make every parked thread
    runnable at once — at p = 4096 on few cores that thundering herd
    turns each collective into an OS-scheduler/GIL convoy orders of
    magnitude slower than the arithmetic it replaced. The relay keeps
    the runnable set at ~2 threads, the same discipline the message
    path gets for free from pairwise envelope hand-offs.
    """

    __slots__ = (
        "world", "group", "size", "_lock", "_arrived", "_inputs", "_cycle",
        "_turnstiles",
    )

    def __init__(self, world, group: Sequence[int]):
        self.world = world
        self.group = tuple(group)
        self.size = len(self.group)
        self._lock = threading.Lock()
        self._arrived = 0
        self._inputs: list = [None] * self.size
        self._cycle = _Cycle(self.size)
        # Armed (locked) turnstiles; acquire() consumes a wake and
        # leaves the turnstile armed again.
        self._turnstiles = [threading.Lock() for _ in range(self.size)]
        for turnstile in self._turnstiles:
            turnstile.acquire()

    def rendezvous(self, local_rank: int, item: tuple) -> Any:
        """Deposit this rank's call and block until the collective is
        resolved; returns (or raises) this rank's outcome."""
        with self._lock:
            cycle = self._cycle
            self._inputs[local_rank] = item
            self._arrived += 1
            if self._arrived == self.size:
                cycle.leader = local_rank
                inputs = self._inputs
                self._inputs = [None] * self.size
                self._arrived = 0
                self._cycle = _Cycle(self.size)
                try:
                    cycle.outcomes = resolve(self.world, self.group, inputs)
                finally:
                    if cycle.outcomes is None:  # resolver unwound (defensive)
                        cycle.outcomes = [
                            _Err(SimulationError("collective resolution failed"))
                        ] * self.size
                    self._wake_next(cycle, local_rank)
                return self._pick(cycle, local_rank)
            cycle.parked[local_rank] = True
            aborted = cycle.aborted  # World.abort() already swept this cycle
        # Parked path: wait without the lock. world.abort() interrupts
        # via the turnstiles; a genuine never-arriving peer trips the
        # same watchdog budget a blocking receive gets.
        turnstile = self._turnstiles[local_rank]
        deadline = monotonic() + self.world.timeout
        while not aborted:
            woke = turnstile.acquire(timeout=max(0.0, deadline - monotonic()))
            if cycle.outcomes is not None:
                self._wake_next(cycle, local_rank)
                return self._pick(cycle, local_rank)
            if cycle.aborted:
                break
            if not woke:
                if self.world.failed.is_set():
                    break
                raise DeadlockError(
                    f"rank {self.group[local_rank]} timed out after "
                    f"{self.world.timeout}s waiting for peers to enter a "
                    "collective; likely deadlock (some rank never made the "
                    "matching call)"
                )
            # Spurious wake: a stale arm left over from a wake that
            # raced a timeout or an abort sweep. Just park again.
        raise DeadlockError(
            f"rank {self.group[local_rank]}: collective abandoned because "
            "a peer rank failed"
        )

    def _wake_next(self, cycle: _Cycle, local_rank: int) -> None:
        """Relay the wake to this rank's ring successor; the chain
        stops once it wraps back around to the leader, so each parked
        rank is woken exactly once per cycle."""
        nxt = local_rank + 1
        if nxt >= self.size:
            nxt = 0
        if nxt == cycle.leader:
            return
        try:
            self._turnstiles[nxt].release()
        except RuntimeError:  # lost a race with interrupt(); the extra
            pass              # arm is absorbed by the spurious-wake loop

    @staticmethod
    def _pick(cycle: _Cycle, local_rank: int) -> Any:
        out = cycle.outcomes[local_rank]
        if type(out) is _Err:
            raise out.exc
        return out

    def interrupt(self) -> None:
        """Wake ranks parked in an incomplete rendezvous (called by
        :meth:`~repro.simmpi.world.World.abort` after the failed flag is
        set). Waking with ``outcomes`` still None is how waiters learn
        the collective was abandoned. The ``aborted`` flag catches
        ranks that arrive after this sweep, so they never park."""
        with self._lock:
            cycle = self._cycle
            cycle.aborted = True
            for local, is_parked in enumerate(cycle.parked):
                if is_parked:
                    try:
                        self._turnstiles[local].release()
                    except RuntimeError:  # already armed by the relay
                        pass


def run_collective(comm, name: str, args: tuple) -> Any:
    """Entry point used by the dispatchers in
    :mod:`repro.simmpi.collectives` once a call has been deemed
    eligible (``comm._gate`` is set and per-call conditions hold)."""
    return comm._gate.rendezvous(comm.rank, (name, args))


# -- resolution ----------------------------------------------------------


class _Ctx:
    """Per-resolution view of the world restricted to one rank group,
    with the cost oracle of the collective being resolved."""

    __slots__ = ("group", "p", "cow", "counters", "spec", "oracle")

    def __init__(self, world, group: tuple, name: str):
        from repro.conformance import oracles

        self.group = group
        self.p = len(group)
        self.cow = world.copy_on_write
        self.counters = [world.counters[w] for w in group]
        ns = world.node_size
        self.spec = oracles.OracleSpec(
            self.p,
            max_message_words=world.max_message_words,
            machine=world.machine,
            nodes=None if ns is None else tuple(w // ns for w in group),
        )
        self.oracle = oracles.COLLECTIVE_ORACLES[name]

    def price(self, *args, **kwargs) -> None:
        """Price the collective with its oracle, entered at every rank's
        current virtual clock, and land each rank's costs on its
        counter (safe: every other participant is parked in the gate)."""
        costs = self.oracle(
            self.spec, *args, entry=[c.vtime for c in self.counters], **kwargs
        )
        for counter, *rank in zip(self.counters, *costs.counts, costs.vtimes):
            counter.apply_bulk(*rank)


def _pack(ctx: _Ctx, obj: Any):
    """(frozen-or-None, words) of a payload — the one freeze a CoW send
    chain pays, or a traversal word count for legacy copy worlds."""
    if ctx.cow:
        fp = freeze_payload(obj)
        return fp, fp.words
    return None, payload_words(obj)


def _deliver(ctx: _Ctx, fp, obj: Any) -> Any:
    """What one receiver ends up holding: a fresh read-only view of the
    frozen buffer (CoW) or its own deep copy (legacy copy mode)."""
    if ctx.cow:
        return fp.view()
    return copy_payload(obj)


def _all_err(p: int, exc: BaseException) -> list:
    return [_Err(exc)] * p


def _partial_err(ctx: _Ctx, errs: dict[int, BaseException]) -> list:
    """Per-rank failures: the named ranks raise their own exceptions,
    everyone else is abandoned exactly like a receiver whose peer
    failed (the engine then reports the named errors as primary)."""
    out: list = []
    for i in range(ctx.p):
        if i in errs:
            out.append(_Err(errs[i]))
        else:
            out.append(
                _Err(
                    DeadlockError(
                        f"rank {ctx.group[i]}: collective abandoned because a "
                        "peer rank failed"
                    )
                )
            )
    return out


def _check_common_root(ctx: _Ctx, argslist: list, root_index: int):
    """Validate the root argument: in range (every rank raises, exactly
    like the per-rank ``_check_root``) and identical across ranks (the
    message path would deadlock on mismatched tags; the fast path
    upgrades that to an immediate diagnostic)."""
    roots = {args[root_index] for args in argslist}
    if len(roots) != 1:
        return None, _all_err(
            ctx.p,
            CommunicatorError(
                f"collective root mismatch across ranks: {sorted(roots)!r}"
            ),
        )
    root = roots.pop()
    if not 0 <= root < ctx.p:
        return None, _all_err(
            ctx.p, CommunicatorError(f"root {root} out of range for size {ctx.p}")
        )
    return root, None


# -- per-collective resolvers: validate, route payloads, price ----------


def _resolve_barrier(ctx: _Ctx, argslist: list) -> list:
    ctx.price()
    return [None] * ctx.p


def _resolve_bcast(ctx: _Ctx, argslist: list) -> list:
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    obj = argslist[root][0]
    fp, w = _pack(ctx, obj)
    ctx.price(w, root=root)
    return [_deliver(ctx, fp, obj) for _ in range(ctx.p)]


def _resolve_reduce(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 2)
    if err is not None:
        return err
    op = argslist[root][1]
    # Accumulators in vrank order, starting from each rank's private
    # copy, combined in the binomial tree's exact association order.
    accs: list = [copy_payload(argslist[(v + root) % p][0]) for v in range(p)]
    words = [0] * p  # per rank: its accumulator's size when it sends
    mask = 1
    while mask < p:
        for me in range(0, p - mask, mask << 1):
            s = me + mask
            words[(s + root) % p] = payload_words(accs[s])
            try:
                accs[me] = op(accs[me], accs[s])
            except Exception as exc:
                return _partial_err(ctx, {(me + root) % p: exc})
            accs[s] = None  # that rank has exited the tree
        mask <<= 1
    ctx.price(words, root=root)
    out: list = [None] * p
    out[root] = accs[0]
    return out


def _resolve_reduce_scatter(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    bad = {
        i: CommunicatorError(
            f"reduce_scatter needs an ndarray payload, got {type(args[0]).__name__}"
        )
        for i, args in enumerate(argslist)
        if not isinstance(args[0], np.ndarray)
    }
    if bad:
        return _partial_err(ctx, bad)
    op = argslist[0][1]
    accs = [
        [np.array(c, copy=True) for c in np.array_split(args[0].ravel(), p)]
        for args in argslist
    ]
    words = np.empty((p, p), dtype=np.int64)  # [round, rank] chunk sizes
    for s in range(1, p):
        sent = [accs[r][(r - s + 1) % p] for r in range(p)]
        words[s - 1] = [a.size for a in sent]
        for r in range(p):
            recv_idx = (r - s) % p
            try:
                accs[r][recv_idx] = op(accs[r][recv_idx], sent[(r - 1) % p])
            except Exception as exc:
                return _partial_err(ctx, {r: exc})
    # Ownership rotation: rank r ships its reduced chunk (r+1)%p right.
    owned = [accs[r][(r + 1) % p] for r in range(p)]
    words[p - 1] = [a.size for a in owned]
    ctx.price(words)
    out: list = []
    for r in range(p):
        chunk = owned[(r - 1) % p]
        fp = freeze_payload(chunk) if ctx.cow else None
        out.append(_deliver(ctx, fp, chunk))
    return out


def _resolve_allgather(ctx: _Ctx, argslist: list) -> list:
    packs = [_pack(ctx, args[0]) for args in argslist]
    ctx.price([w for _fp, w in packs])
    return [
        [_deliver(ctx, fp, argslist[o][0]) for o, (fp, _w) in enumerate(packs)]
        for _ in range(ctx.p)
    ]


def _resolve_gather(ctx: _Ctx, argslist: list) -> list:
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    packs = [_pack(ctx, args[0]) for args in argslist]
    ctx.price([w for _fp, w in packs], root=root)
    out: list = [None] * ctx.p
    out[root] = [_deliver(ctx, fp, argslist[r][0]) for r, (fp, _w) in enumerate(packs)]
    return out


def _resolve_scatter(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    objs = argslist[root][0]
    if objs is None or len(objs) != p:
        return _partial_err(
            ctx,
            {
                root: CommunicatorError(
                    f"scatter root needs a length-{p} sequence, got "
                    f"{None if objs is None else len(objs)}"
                )
            },
        )
    packs = [_pack(ctx, objs[r]) for r in range(p)]
    ctx.price([w for _fp, w in packs], root=root)
    return [_deliver(ctx, packs[r][0], objs[r]) for r in range(p)]


def _resolve_alltoall(ctx: _Ctx, argslist: list, name: str = "alltoall") -> list:
    p = ctx.p
    bad = {
        i: CommunicatorError(
            f"{name} needs one block per rank ({p}), got {len(args[0])}"
        )
        for i, args in enumerate(argslist)
        if len(args[0]) != p
    }
    if bad:
        return _partial_err(ctx, bad)
    # Every block is frozen once: a Bruck block's log p re-shippings
    # all adopt the same buffer.
    packs = [[_pack(ctx, block) for block in args[0]] for args in argslist]
    ctx.price([[w for _fp, w in row] for row in packs])
    return [
        [_deliver(ctx, packs[src][r][0], argslist[src][0][r]) for src in range(p)]
        for r in range(p)
    ]


def _resolve_alltoall_bruck(ctx: _Ctx, argslist: list) -> list:
    if ctx.p & (ctx.p - 1):
        return _all_err(
            ctx.p,
            CommunicatorError(
                f"alltoall_bruck requires a power-of-two size, got {ctx.p}"
            ),
        )
    return _resolve_alltoall(ctx, argslist, "alltoall_bruck")


_RESOLVERS = {
    "barrier": _resolve_barrier,
    "bcast": _resolve_bcast,
    "reduce": _resolve_reduce,
    "reduce_scatter": _resolve_reduce_scatter,
    "allgather": _resolve_allgather,
    "gather": _resolve_gather,
    "scatter": _resolve_scatter,
    "alltoall": _resolve_alltoall,
    "alltoall_bruck": _resolve_alltoall_bruck,
}


def resolve(world, group: tuple, inputs: list) -> list:
    """Leader-side resolution of one collective call for a whole group.

    ``inputs[i]`` is local rank i's deposited ``(name, args)``. Returns
    one outcome per rank: a value to return, or an :class:`_Err` to
    raise. Never raises itself — resolution failures become per-rank
    errors so the gate can never wedge its waiters.
    """
    p = len(group)
    names = {name for name, _args in inputs}
    if len(names) != 1:
        return _all_err(
            p,
            CommunicatorError(
                "collective mismatch on fast path: ranks concurrently called "
                f"{sorted(names)!r} on the same communicator"
            ),
        )
    name = inputs[0][0]
    try:
        return _RESOLVERS[name](_Ctx(world, group, name), [args for _n, args in inputs])
    except BaseException as exc:  # noqa: BLE001 - delivered to every rank
        return _all_err(p, exc)
