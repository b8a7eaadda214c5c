"""Sharded sweep engine with a content-addressed run cache.

The paper's claims are sweep-shaped — perfect strong scaling across the
whole replication band, energy flatness across p — so the repo runs the
same grids over and over (observatory, drift checks, conformance,
benchmarks). This package makes those grids cheap:

* :mod:`repro.sweep.spec` — declarative sweep specs expanded into
  deterministic cells with stable content-derived IDs;
* :mod:`repro.sweep.runner` — one-cell execution shared by every path
  (in-process, sharded worker, regression reference);
* :mod:`repro.sweep.executor` — the ``multiprocessing`` fan-out with a
  single-writer ledger funnel and crash-requeue;
* :mod:`repro.sweep.cache` — the content-addressed record store keyed
  by (cell identity, code fingerprint), replaying cached records
  bit-identically and invalidating on any source change.

CLI: ``repro sweep plan|run|gc``.
"""

from repro._lazy import lazy_exports

#: defining module -> the public names it provides, imported on first use
_EXPORTS = {
    "repro.sweep.cache": (
        "CacheStats",
        "RunCache",
        "cache_key",
        "code_fingerprint",
    ),
    "repro.sweep.executor": (
        "CellOutcome",
        "SweepOutcome",
        "default_workers",
        "run_sweep",
    ),
    "repro.sweep.runner": (
        "build_cell_program",
        "cell_machine",
        "cell_oracle",
        "execute_cell",
    ),
    "repro.sweep.spec": (
        "COLLECTIVE_OPS",
        "SCENARIO_WORKLOADS",
        "Cell",
        "SweepSpec",
        "collective_cell",
        "plan_cells",
        "smoke_spec",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "COLLECTIVE_OPS",
    "SCENARIO_WORKLOADS",
    "CacheStats",
    "Cell",
    "CellOutcome",
    "RunCache",
    "SweepOutcome",
    "SweepSpec",
    "build_cell_program",
    "cache_key",
    "cell_machine",
    "cell_oracle",
    "code_fingerprint",
    "collective_cell",
    "default_workers",
    "execute_cell",
    "plan_cells",
    "run_sweep",
    "smoke_spec",
]
