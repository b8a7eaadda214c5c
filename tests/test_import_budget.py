"""Import budget: start-up loads only what the command runs.

A warm ``repro sweep run`` replays every cell from the run cache, so it
must not load the simulator, the algorithms, the analysis layer or the
numeric stack; ``import repro`` must not load scipy. Checked by listing
``sys.modules`` in a fresh interpreter at exit, not by timing, so the
verdict does not depend on how loaded the machine is.
"""

import json
import subprocess
import sys
import textwrap

#: Packages a warm cache-hit sweep must never import.
WARM_SWEEP_FORBIDDEN = (
    "scipy",
    "numpy",
    "repro.simmpi",
    "repro.algorithms",
    "repro.analysis",
)

_DUMP_AT_EXIT = textwrap.dedent(
    """
    import atexit, json, sys

    atexit.register(
        lambda: sys.stderr.write("MODULES " + json.dumps(sorted(sys.modules)) + "\\n")
    )
    """
)

_RUN_CLI = "import runpy\nrunpy.run_module('repro', run_name='__main__')\n"


def _loaded_modules(env, body: str, argv=()) -> tuple[list[str], str]:
    """Run ``body`` in a fresh interpreter with ``sys.argv[1:] = argv``;
    return the modules loaded when it exits, and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP_AT_EXIT + body, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = next(l for l in proc.stderr.splitlines() if l.startswith("MODULES "))
    return json.loads(line[len("MODULES "):]), proc.stdout


def _under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_repro_loads_no_scipy(src_env):
    modules, _ = _loaded_modules(src_env, "import repro\n")
    assert _under(modules, "scipy") == []


def test_warm_sweep_run_loads_only_what_it_runs(src_env, tmp_path):
    argv = [
        "sweep", "run", "--json",
        "--ledger", str(tmp_path / "ledger.jsonl"),
        "--cache-dir", str(tmp_path / "cache"),
    ]
    _, cold = _loaded_modules(src_env, _RUN_CLI, argv)
    cold = json.loads(cold)
    assert cold["failed"] == 0 and cold["simulated"] == cold["cells"] > 0

    modules, warm = _loaded_modules(src_env, _RUN_CLI, argv)
    warm = json.loads(warm)
    assert warm["failed"] == 0 and warm["hits"] == warm["cells"] == cold["cells"]
    loaded = {pkg: _under(modules, pkg) for pkg in WARM_SWEEP_FORBIDDEN}
    assert {pkg: mods for pkg, mods in loaded.items() if mods} == {}


def test_fast_path_loads_the_oracles_but_not_the_differ(src_env):
    # The gate prices collectives with conformance.oracles, imported on
    # its first resolve; the lazy package root keeps the differ out.
    modules, _ = _loaded_modules(
        src_env, "import repro.simmpi\nrepro.simmpi.run_spmd(4, lambda c: c.barrier())\n"
    )
    assert "repro.conformance.oracles" in modules
    assert _under(modules, "repro.conformance.differ") == []
