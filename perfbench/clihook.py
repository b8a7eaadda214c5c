"""Run the ``repro`` CLI with the outside-in tracer installed.

Used for the traced operations of the ``cli-replay`` workload, under
``python -X importtime``::

    PERFBENCH_SPANS=out.json python -X importtime perfbench/clihook.py sweep run ...

Arguments are the CLI's. The layer sample (see
:func:`outside.layer_sample`) is written as JSON to the file named by
``PERFBENCH_SPANS``; the exit code is the CLI's.
"""

import json
import os
import sys

import repro.cli

from outside import Tracer, layer_sample

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = repro.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump(layer_sample(tracer), fh)
    sys.exit(code)
