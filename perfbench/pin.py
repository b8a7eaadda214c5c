"""Regenerate ``pins.json``: the untraced reference digest of every
scenario cell the benchmark checks.

Each digest covers a cell's per-rank counts signature and virtual
clocks, run once through ``execute_cell`` (shared pool, fast path on,
no observers). Re-pin only after a change that is meant to alter what
the simulator computes, and say so in the change::

    python3 perfbench/pin.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sweep import SweepSpec, execute_cell, plan_cells  # noqa: E402

from workloads import OBSERVED_NBODY, PINS_PATH, digest  # noqa: E402

if __name__ == "__main__":
    spec = SweepSpec("nbody", n=OBSERVED_NBODY["n"], p_values=(OBSERVED_NBODY["p"],))
    pins = {}
    for cell in plan_cells(spec):
        record = execute_cell(cell)
        pins[cell.cell_id] = digest(record.counts, record.vtimes)
        print(f"{cell.cell_id}  {pins[cell.cell_id][:16]}")
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
