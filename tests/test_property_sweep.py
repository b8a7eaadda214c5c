"""Property-based fuzzing of the sweep engine.

Hypothesis generates random collective cells — all ten collectives,
sizes 2..33 (primes included), random roots, random payload shapes,
random message-size caps — and the suite asserts the two bit-identity
contracts the cache rests on:

* **oracle bit-identity** — an executed cell's counts signature and
  per-rank virtual clocks equal the closed-form conformance oracle's,
  whatever the executor path (in-process, shared pool, sharded worker);
* **cache-replay bit-identity** — a record pulled back out of the
  content-addressed cache is byte-for-byte the record that went in, so
  a warm sweep replays exactly what a cold sweep simulated.

Seeded like tests/test_fuzz_simmpi.py: failures reproduce in CI, and
REPRO_FUZZ_SEED=<int> explores a different corner of the space.
"""

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.observatory.ledger import Ledger, RunRecord
from repro.simmpi import run_spmd
from repro.sweep import (
    COLLECTIVE_OPS,
    RunCache,
    cell_oracle,
    collective_cell,
    execute_cell,
    run_sweep,
)
from repro.sweep.runner import build_cell_program, cell_machine

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20130527"))

#: Conformance's neutral machine: every cost term nonzero so clock and
#: energy drift can't hide behind a zero coefficient.
from repro.conformance.differ import MACHINE  # noqa: E402

#: Sizes 2..33 — primes included, matching the conformance random grid.
size_strategy = st.integers(min_value=2, max_value=33)
pow2_size_strategy = st.sampled_from([2, 4, 8, 16, 32])
words_strategy = st.integers(min_value=1, max_value=40)
payload_strategy = st.sampled_from(["array", "scalar", "str", "dict", "tuple"])


@st.composite
def cell_strategy(draw, ops=COLLECTIVE_OPS):
    op = draw(st.sampled_from(list(ops)))
    p = draw(pow2_size_strategy if op == "alltoall_bruck" else size_strategy)
    kwargs = {
        "words": draw(words_strategy),
        "root": draw(st.integers(min_value=0, max_value=p - 1)),
        "payload": draw(payload_strategy),
        "fastpath": draw(st.booleans()),
    }
    if draw(st.booleans()):
        kwargs["max_message_words"] = float(
            draw(st.integers(min_value=1, max_value=64))
        )
    return collective_cell(op, p, MACHINE, **kwargs)


def _signature(record):
    return [tuple(r) for r in record.counts]


def _spawned_record(cell):
    """The cell's RunRecord from a fresh ``run_spmd`` rather than the
    shared pool :func:`execute_cell` runs on."""
    program, args, label = build_cell_program(cell)
    machine = cell_machine(cell)
    result = run_spmd(cell.p, program, *args, machine=machine, **cell.run_kwargs())
    return RunRecord.from_result(
        result,
        workload=cell.workload,
        params=dict(cell.params),
        machine=machine,
        memory_words=cell.memory_words,
        label=cell.label or label,
    )


class TestOracleBitIdentity:
    @seed(FUZZ_SEED)
    @given(cell_strategy())
    @settings(max_examples=60, deadline=None)
    def test_executed_counts_and_clocks_match_oracle(self, cell):
        record = execute_cell(cell)
        oracle = cell_oracle(cell)
        assert _signature(record) == [tuple(r) for r in oracle.signature()]
        assert list(record.vtimes) == list(oracle.vtimes)

    @seed(FUZZ_SEED)
    @given(cell_strategy())
    @settings(max_examples=15, deadline=None)
    def test_pool_and_engine_paths_identical(self, cell):
        pooled = execute_cell(cell)
        fresh = _spawned_record(cell)
        assert _signature(pooled) == _signature(fresh)
        assert pooled.vtimes == fresh.vtimes
        assert pooled.time_terms == fresh.time_terms
        assert pooled.energy_terms == fresh.energy_terms


class TestCacheReplayBitIdentity:
    @seed(FUZZ_SEED)
    @given(cell_strategy())
    @settings(max_examples=25, deadline=None)
    def test_replay_equals_original_byte_for_byte(self, tmp_path_factory, cell):
        cache = RunCache(tmp_path_factory.mktemp("cache"))
        record = execute_cell(cell)
        cache.put(cell, record, "fp")
        replay = cache.get(cell, "fp")
        assert replay is not None
        assert replay.to_json() == record.to_json()

    @seed(FUZZ_SEED)
    @given(st.lists(cell_strategy(), min_size=1, max_size=4, unique_by=lambda c: c.cell_id))
    @settings(max_examples=10, deadline=None)
    def test_warm_sweep_replays_cold_sweep(self, tmp_path_factory, cells):
        tmp = tmp_path_factory.mktemp("sweep")
        cache = RunCache(tmp / "cache")
        cold = run_sweep(cells, cache=cache, workers=0, fingerprint="fp")
        warm_ledger = Ledger(tmp / "warm.jsonl")
        warm = run_sweep(
            cells, ledger=warm_ledger, cache=cache, workers=0, fingerprint="fp"
        )
        assert cold.simulated == len(cells) and warm.hits == len(cells)
        for cid in cold.records:
            assert cold.records[cid].to_json() == warm.records[cid].to_json()
        # ...and what lands in the ledger differs only by provenance tag
        for rec in warm_ledger.records():
            assert rec.extra["sweep"]["cache"] == "hit"
            assert _signature(rec) == _signature(
                cold.records[rec.extra["sweep"]["cell"]]
            )
