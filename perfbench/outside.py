"""Outside-in layer tracing for the benchmark's traced runs.

Nothing under ``src/repro`` is edited. :meth:`Tracer.install` swaps
timing wrappers in for the package's public entry points (class
attributes, and every ``repro.*`` module global bound to a wrapped
function) and :meth:`Tracer.uninstall` puts the originals back, so the
untraced timed runs execute the unmodified program.

Two kinds of wrapper:

* **rank calls** run on simulated-rank threads: the ``Comm``
  point-to-point methods and the ten collectives. Each thread
  counts only the *outermost* call of a kind, so ``sendrecv -> send``
  or ``allreduce -> reduce`` is not counted twice; sums over threads
  are rank-seconds. The SPMD program's entry and exit on every rank are
  stamped by the wrapper around the run that starts it.
* **layer calls** run on the thread that issues an operation: planning,
  fingerprinting, cache get/put, ``World`` construction, the SPMD run,
  record building, ledger appends and the analyses. Calls made while
  no other layer call is open on the thread add to ``top``, the part
  of an operation's wall time that some layer accounts for.

State is per thread (no cross-thread read-modify-write); totals are
summed on demand, between operations, while no rank thread runs.
"""

from __future__ import annotations

import functools
import re
import sys
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "import_rows", "layer_sample"]

#: ``Comm`` methods that move point-to-point messages.
P2P_METHODS = ("send", "recv", "isend", "irecv", "sendrecv", "shift")


class _ThreadState:
    __slots__ = ("depth", "seconds", "calls", "world_end")

    def __init__(self) -> None:
        self.depth: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.world_end = 0.0

    def clear(self) -> None:
        self.depth.clear()
        self.seconds.clear()
        self.calls.clear()


class Tracer:
    """Install/uninstall the wrappers and total what they measured."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: one entry per SPMD run: its World-built, per-rank program
        #: entry/exit and return stamps
        self.runs: list[dict] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    def reset(self) -> None:
        """Forget everything measured so far. Call between operations,
        while no wrapped call is open."""
        with self._lock:
            for st in self._states:
                st.clear()
        self.runs.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        with self._lock:
            for st in self._states:
                for k, v in st.seconds.items():
                    seconds[k] += v
                for k, v in st.calls.items():
                    calls[k] += v
        return seconds, calls

    # -- wrappers -----------------------------------------------------------

    def _rank_call(self, kind: str, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            depth = st.depth
            outer = depth[kind] == 0
            outer_any = depth["simmpi"] == 0
            if kind == "coll" and outer and args[0].fastpath_enabled:
                st.calls["coll_fast"] += 1
            depth[kind] += 1
            depth["simmpi"] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[kind] -= 1
                depth["simmpi"] -= 1
                if outer:
                    st.seconds[kind] += dt
                    st.calls[kind] += 1
                if outer_any:
                    st.seconds["simmpi"] += dt

        return wrapper

    def _layer_call(self, key: str, fn, on_exit=None):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            depth = st.depth
            top = depth["layer"] == 0
            outer = depth[key] == 0
            depth["layer"] += 1
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth["layer"] -= 1
                depth[key] -= 1
                if outer:
                    st.seconds[key] += t1 - t0
                    st.calls[key] += 1
                if top:
                    st.seconds["top"] += t1 - t0
            if on_exit is not None:
                on_exit(st, t1, result)
            return result

        return wrapper

    def _spmd_run(self, fn, program_index: int):
        """Wrap ``SpmdPool.run`` / ``run_spmd``: time the call as layer
        ``simmpi.run`` and stamp every rank's program entry and exit."""
        layered = self._layer_call("simmpi.run", fn)
        state = self._state
        runs = self.runs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = args[program_index - 1]
            program = args[program_index]
            entry = [0.0] * size
            leave = [0.0] * size

            def stamped(comm, *a, **k):
                t0 = entry[comm.rank] = perf_counter()
                try:
                    return program(comm, *a, **k)
                finally:
                    t1 = leave[comm.rank] = perf_counter()
                    state().seconds["body"] += t1 - t0

            args = args[:program_index] + (stamped,) + args[program_index + 1:]
            result = layered(*args, **kwargs)
            runs.append(
                {
                    "world_end": state().world_end,
                    "entry": entry,
                    "exit": leave,
                    "end": perf_counter(),
                }
            )
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_attr(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_function(self, fn, make) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it,
        so ``from x import fn`` re-exports see the wrapper too."""
        new = make(fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, new)

    def install(self) -> None:
        """Wrap every traced entry point (their modules must be imported)."""
        from repro.analysis.powertrace import PowerTrace
        from repro.analysis.profiler import ModelProfile
        from repro.analysis.timeline import Timeline
        from repro.conformance import oracles
        from repro.observatory.ledger import Ledger, RunRecord
        from repro.simmpi import collectives, engine
        from repro.simmpi.comm import Comm
        from repro.simmpi.pool import SpmdPool
        from repro.simmpi.world import World
        from repro.sweep import cache, executor, runner, spec

        rank, layer = self._rank_call, self._layer_call
        for name in P2P_METHODS:
            self._patch_attr(Comm, name, lambda f: rank("p2p", f))
        for name in spec.COLLECTIVE_OPS:
            self._patch_function(getattr(collectives, name), lambda f: rank("coll", f))

        def world_built(st, t1, _result):
            st.world_end = t1

        def cache_got(st, _t1, record):
            if record is not None:
                st.calls["cache_hit"] += 1

        self._patch_attr(
            World, "__init__", lambda f: layer("simmpi.world", f, world_built)
        )
        self._patch_attr(SpmdPool, "run", lambda f: self._spmd_run(f, 2))
        self._patch_function(engine.run_spmd, lambda f: self._spmd_run(f, 1))
        self._patch_attr(spec.SweepSpec, "cells", lambda f: layer("sweep.plan", f))
        self._patch_function(
            cache.code_fingerprint, lambda f: layer("sweep.fingerprint", f)
        )
        self._patch_function(cache.cache_key, lambda f: layer("sweep.key", f))
        self._patch_attr(
            cache.RunCache, "get", lambda f: layer("sweep.cache_get", f, cache_got)
        )
        self._patch_attr(cache.RunCache, "put", lambda f: layer("sweep.cache_put", f))
        self._patch_function(executor.run_sweep, lambda f: layer("sweep.run", f))
        self._patch_function(
            runner.build_cell_program, lambda f: layer("sweep.build", f)
        )
        for oracle in (runner.cell_oracle, oracles.oracle_scenario):
            self._patch_function(oracle, lambda f: layer("conformance.oracle", f))
        self._patch_attr(
            ModelProfile, "from_report", lambda f: layer("core.profile", f)
        )
        self._patch_attr(
            RunRecord, "from_result", lambda f: layer("observatory.record", f)
        )
        self._patch_attr(Ledger, "append", lambda f: layer("observatory.append", f))
        for name in ("from_result", "breakdown", "critical_path"):
            self._patch_attr(Timeline, name, lambda f: layer("analysis.timeline", f))
        self._patch_attr(
            PowerTrace, "from_result", lambda f: layer("analysis.power", f)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def layer_sample(tracer: Tracer) -> dict[str, float]:
    """One operation's per-layer numbers, from everything measured since
    the last :meth:`Tracer.reset` (sums, so several SPMD runs add)."""
    seconds, calls = tracer.totals()
    body_rank_s = seconds["body"]
    dispatch = body = join = 0.0
    for run in tracer.runs:
        last_in = max(run["entry"])
        last_out = max(run["exit"])
        dispatch += last_in - run["world_end"]
        body += last_out - last_in
        join += run["end"] - last_out
    return {
        "simmpi.p2p_rank_s": seconds["p2p"],
        "simmpi.p2p_calls": calls["p2p"],
        "simmpi.coll_rank_s": seconds["coll"],
        "simmpi.coll_calls": calls["coll"],
        "simmpi.coll_fast_calls": calls["coll_fast"],
        "simmpi.world_s": seconds["simmpi.world"],
        "simmpi.dispatch_s": dispatch,
        "simmpi.body_s": body,
        "simmpi.join_s": join,
        "simmpi.body_rank_s": body_rank_s,
        "algorithms.local_rank_s": body_rank_s - seconds["simmpi"],
        "sweep.plan_s": seconds["sweep.plan"],
        "sweep.fingerprint_s": seconds["sweep.fingerprint"],
        "sweep.key_s": seconds["sweep.key"],
        "sweep.cache_get_s": seconds["sweep.cache_get"],
        "sweep.cache_gets": calls["sweep.cache_get"],
        "sweep.cache_hits": calls["cache_hit"],
        "sweep.cache_put_s": seconds["sweep.cache_put"],
        "core.profile_s": seconds["core.profile"],
        "observatory.record_s": seconds["observatory.record"],
        "observatory.append_s": seconds["observatory.append"],
        "analysis.timeline_s": seconds["analysis.timeline"],
        "analysis.power_s": seconds["analysis.power"],
        "conformance.oracle_s": seconds["conformance.oracle"],
        "top_s": seconds["top"],
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_rows(stderr: str) -> dict[str, float]:
    """Import seconds from ``python -X importtime`` output.

    ``cli.import_s`` and ``core.import_s`` are the cumulative times of
    ``repro.cli`` and ``repro.core``; ``core.scipy_import_s`` sums the
    outermost ``scipy`` imports made while ``repro.core`` was loading.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e6))
    out = {"cli.import_s": 0.0, "core.import_s": 0.0, "core.scipy_import_s": 0.0}
    # importtime prints a module after its imports; walk backwards so
    # each row's enclosing imports are on the stack when it is seen.
    stack: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        outer = [n for _i, n in stack]
        if name == "repro.cli" and "repro.cli" not in outer:
            out["cli.import_s"] += cumulative
        elif name == "repro.core" and "repro.core" not in outer:
            out["core.import_s"] += cumulative
        elif (
            name.split(".")[0] == "scipy"
            and "repro.core" in outer
            and not any(n.split(".")[0] == "scipy" for n in outer)
        ):
            out["core.scipy_import_s"] += cumulative
        stack.append((indent, name))
    return out
