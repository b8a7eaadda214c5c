"""Cell execution: turn a planned :class:`~repro.sweep.spec.Cell` into a
finished :class:`~repro.observatory.ledger.RunRecord`.

This is the code both faces of the sweep engine share: the sharded
executor's worker processes call :func:`execute_cell` for cache misses,
and the in-process paths (``workers=0``, the regression gate's live
reference runs) call the very same function — so "live" and "sharded"
runs are the same simulation by construction, and any divergence the
property tests catch is real.

Scenario cells reuse the CLI's workload builders (same rng seed, same
payload construction), so a sweep cell for ``matmul25d`` prices exactly
the run ``repro trace matmul25d`` would. Collective cells (``coll:*``)
mirror the conformance grid's payload conventions word for word, which
is what lets :func:`cell_oracle` hand back the closed-form
:class:`~repro.conformance.oracles.OracleCosts` the property suite
differences against.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.parameters import MachineParameters
from repro.exceptions import ParameterError
from repro.observatory.ledger import RunRecord
from repro.sweep.spec import COLLECTIVE_OPS, Cell

__all__ = [
    "build_cell_program",
    "cell_machine",
    "cell_oracle",
    "execute_cell",
]


def cell_machine(cell: Cell) -> MachineParameters:
    """The live MachineParameters a cell's stored constants resolve to."""
    return MachineParameters(**cell.machine)


def _scenario_program(cell: Cell) -> tuple[Callable, tuple, str]:
    """(program, args, label) for a CLI-registry scenario cell.

    matmul25d honours an explicit ``c`` param (the replication-band
    walk); other workloads take their (p, n) straight from the cell.
    """
    from repro.cli import _build_trace_program

    n = cell.params.get("n")
    if n is None:
        raise ParameterError(
            f"scenario cell {cell.cell_id} needs an 'n' param"
        )
    if cell.workload == "matmul25d" and "c" in cell.params:
        from repro.algorithms.matmul25d import grid_for_25d, matmul_25d

        c = int(cell.params["c"])
        grid_for_25d(cell.p, c)  # validates p = q^2 c with c | q
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        return matmul_25d, (a, b, c), f"matmul25d(n={n}, c={c})"
    return _build_trace_program(cell.workload, cell.p, n)


def _collective_program(cell: Cell) -> tuple[Callable, tuple, str]:
    """(program, args, label) for a ``coll:<op>`` cell, mirroring the
    conformance grid's payload/word conventions exactly."""
    from repro.conformance.differ import _payload
    from repro.simmpi import collectives as _c

    op = cell.workload[5:]
    words = int(cell.params.get("words", 17))
    kind = cell.params.get("payload", "array")
    root = int(cell.params.get("root", cell.p - 1))
    builder, _bw = _payload(kind, words)

    if op == "barrier":
        prog = lambda comm: _c.barrier(comm)  # noqa: E731
    elif op == "bcast":
        prog = lambda comm: _c.bcast(  # noqa: E731
            comm, builder() if comm.rank == root else None, root=root
        )
    elif op == "reduce":
        prog = lambda comm: _c.reduce(  # noqa: E731
            comm, np.arange(float(words)), root=root
        )
    elif op == "allreduce":
        prog = lambda comm: _c.allreduce(comm, np.arange(float(words)))  # noqa: E731
    elif op == "reduce_scatter":
        total = 3 * words + 5
        prog = lambda comm: _c.reduce_scatter(  # noqa: E731
            comm, np.arange(float(total))
        )
    elif op == "allgather":
        prog = lambda comm: _c.allgather(  # noqa: E731
            comm, np.arange(float(3 + comm.rank % 4))
        )
    elif op == "gather":
        prog = lambda comm: _c.gather(  # noqa: E731
            comm, np.arange(float(3 + comm.rank % 4)), root=root
        )
    elif op == "scatter":
        prog = lambda comm: _c.scatter(  # noqa: E731
            comm,
            [np.arange(float(3 + d % 4)) for d in range(comm.size)]
            if comm.rank == root
            else None,
            root=root,
        )
    elif op == "alltoall":
        prog = lambda comm: _c.alltoall(  # noqa: E731
            comm, [np.arange(3.0) for _ in range(comm.size)]
        )
    elif op == "alltoall_bruck":
        prog = lambda comm: _c.alltoall_bruck(  # noqa: E731
            comm, [np.arange(3.0) for _ in range(comm.size)]
        )
    else:  # pragma: no cover - Cell.__post_init__ already rejects these
        raise ParameterError(f"unknown collective {op!r}")
    return prog, (), cell.label or f"{op}(p={cell.p})"


def build_cell_program(cell: Cell) -> tuple[Callable, tuple, str]:
    """Resolve any cell to ``(program, args, label)`` for the engine."""
    if cell.workload.startswith("coll:"):
        return _collective_program(cell)
    return _scenario_program(cell)


def cell_oracle(cell: Cell):
    """The closed-form :class:`OracleCosts` for a ``coll:*`` cell — what
    the property suite differences the executed counts against."""
    from repro.conformance import oracles as _o
    from repro.conformance.differ import _payload

    if not cell.workload.startswith("coll:"):
        raise ParameterError(
            f"only coll:* cells have closed-form oracles, not {cell.workload!r}"
        )
    op = cell.workload[5:]
    words = int(cell.params.get("words", 17))
    kind = cell.params.get("payload", "array")
    root = int(cell.params.get("root", cell.p - 1))
    kwargs = cell.run_kwargs()
    ns = kwargs["node_size"]
    spec = _o.OracleSpec(
        cell.p,
        max_message_words=kwargs["max_message_words"],
        machine=cell_machine(cell),
        nodes=None if ns is None else tuple(r // ns for r in range(cell.p)),
    )
    _builder, bw = _payload(kind, words)
    if op == "barrier":
        return _o.oracle_barrier(spec)
    if op == "bcast":
        return _o.oracle_bcast(spec, bw, root=root)
    if op == "reduce":
        return _o.oracle_reduce(spec, words, root=root)
    if op == "allreduce":
        return _o.oracle_allreduce(spec, words)
    if op == "reduce_scatter":
        return _o.oracle_reduce_scatter(spec, 3 * words + 5)
    ragged = [3 + (r % 4) for r in range(cell.p)]
    if op == "allgather":
        return _o.oracle_allgather(spec, ragged)
    if op == "gather":
        return _o.oracle_gather(spec, ragged, root=root)
    if op == "scatter":
        return _o.oracle_scatter(spec, ragged, root=root)
    if op == "alltoall":
        return _o.oracle_alltoall(spec, 3)
    assert op == "alltoall_bruck"
    return _o.oracle_alltoall_bruck(spec, 3)


def execute_cell(cell: Cell) -> RunRecord:
    """Simulate one cell and return its RunRecord (not ledger-appended —
    the single-writer funnel owns all ledger and cache writes).

    Runs through the process-local
    :func:`~repro.simmpi.pool.shared_pool`, which reuses rank threads
    across the cells a worker executes.
    """
    from repro.simmpi.pool import shared_pool

    program, prog_args, label = build_cell_program(cell)
    machine = cell_machine(cell)
    start = time.perf_counter()
    result = shared_pool().run(
        cell.p, program, *prog_args, machine=machine, **cell.run_kwargs()
    )
    wall = time.perf_counter() - start
    return RunRecord.from_result(
        result,
        workload=cell.workload,
        params=dict(cell.params),
        machine=machine,
        memory_words=cell.memory_words,
        label=cell.label or label,
        wall_seconds=wall,
    )
