"""Anti-vacuity self-test for the benchmark's output checks.

Runs ``observed-scale`` under
``repro.conformance.differ.deliberately_perturbed()`` (every
message-path send metered one word heavy) and requires the run to
report failed operations. If it passed its checks while the metering
was wrong, its correctness gate would be vacuous. Run from
the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every perturbed workload reports ``error_rate > 0``.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
PERTURBED = ("observed-scale",)

if __name__ == "__main__":
    vacuous = []
    for workload in PERTURBED:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--perturb"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        print(f"{workload}: error_rate {rate:.3f} under deliberately_perturbed()")
        if rate == 0:
            vacuous.append(workload)
    if vacuous:
        print(f"checks passed under perturbation: {', '.join(vacuous)}")
        sys.exit(1)
