"""Sweep engine tests: planner determinism, content-addressed cache,
sharded executor, crash-requeue, and the single-writer ledger funnel."""

import json
import multiprocessing
import threading

import pytest

from repro.exceptions import ParameterError, SweepError
from repro.observatory.ledger import Ledger
from repro.sweep import (
    Cell,
    RunCache,
    SweepSpec,
    cache_key,
    cell_oracle,
    code_fingerprint,
    collective_cell,
    execute_cell,
    plan_cells,
    run_sweep,
    smoke_spec,
)
from repro.sweep.cache import FINGERPRINT_ENV


def _machine_dict():
    from repro.machines.catalog import default_machine

    m = default_machine()
    return {
        k: float(getattr(m, k))
        for k in (
            "gamma_t", "beta_t", "alpha_t", "gamma_e", "beta_e",
            "alpha_e", "delta_e", "epsilon_e", "memory_words",
            "max_message_words",
        )
    }


class TestPlanner:
    def test_smoke_spec_matches_observatory_walk(self):
        cells = smoke_spec(48).cells()
        assert [c.p for c in cells] == [36, 72, 108]
        assert [c.params["c"] for c in cells] == [1, 2, 3]
        for c in cells:
            assert c.workload == "matmul25d"
            assert c.params["n"] == 48 and c.params["q"] == 6
            assert c.memory_words == 3 * (48 // 6) ** 2
            assert c.label == f"matmul25d(n=48, c={c.params['c']})"

    def test_cell_ids_are_deterministic_and_distinct(self):
        a = smoke_spec(48).cells()
        b = smoke_spec(48).cells()
        assert [c.cell_id for c in a] == [c.cell_id for c in b]
        assert len({c.cell_id for c in a}) == 3

    def test_cell_id_changes_with_any_identity_field(self):
        base = collective_cell("bcast", 8, _machine_dict(), words=9)
        assert (
            collective_cell("bcast", 8, _machine_dict(), words=10).cell_id
            != base.cell_id
        )
        assert (
            collective_cell("bcast", 9, _machine_dict(), words=9).cell_id
            != base.cell_id
        )
        bumped = dict(_machine_dict())
        bumped["beta_t"] *= 2
        assert collective_cell("bcast", 8, bumped, words=9).cell_id != base.cell_id
        assert (
            collective_cell(
                "bcast", 8, _machine_dict(), words=9, fastpath=False
            ).cell_id
            != base.cell_id
        )

    def test_cell_json_roundtrip(self):
        cell = collective_cell(
            "gather", 6, _machine_dict(), words=5, root=2,
            max_message_words=16, node_size=3,
        )
        clone = Cell.from_json(json.loads(json.dumps(cell.to_json())))
        assert clone == cell
        assert clone.cell_id == cell.cell_id

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(workload="fft", n=64, p_values=(2, 4, 8))
        clone = SweepSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert [c.cell_id for c in clone.cells()] == [
            c.cell_id for c in spec.cells()
        ]

    def test_plan_cells_concatenates_specs(self):
        cells = plan_cells(
            [smoke_spec(24), SweepSpec(workload="fft", n=64, p_values=(2,))]
        )
        assert len(cells) == 4

    def test_rejects_unknown_workload(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="nosuch", p_values=(2,))

    def test_rejects_qc_on_non_matmul(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="fft", n=64, q=2, c_values=(1,))

    def test_rejects_non_dividing_c(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="matmul25d", n=24, q=6, c_values=(4,))

    def test_rejects_bad_collective(self):
        with pytest.raises(ParameterError):
            collective_cell("nosuch", 4, _machine_dict())

    def test_rejects_bruck_on_non_pow2(self):
        with pytest.raises(ParameterError):
            collective_cell("alltoall_bruck", 6, _machine_dict())

    def test_rejects_out_of_range_root(self):
        with pytest.raises(ParameterError):
            collective_cell("bcast", 4, _machine_dict(), root=7)

    def test_rejects_unknown_mode_flag(self):
        with pytest.raises(ParameterError):
            Cell(
                workload="fft", p=2, params={"n": 64},
                machine=_machine_dict(), mode={"bogus": 1},
            )


class TestCache:
    def test_key_depends_on_fingerprint(self):
        cell = collective_cell("barrier", 4, _machine_dict())
        assert cache_key(cell, "fp-a") != cache_key(cell, "fp-b")
        assert cache_key(cell, "fp-a") == cache_key(cell, "fp-a")

    def test_fingerprint_env_override(self, monkeypatch):
        monkeypatch.setenv(FINGERPRINT_ENV, "pinned")
        assert code_fingerprint() == "pinned"
        monkeypatch.delenv(FINGERPRINT_ENV)
        real = code_fingerprint()
        assert len(real) == 64 and real != "pinned"

    def test_put_get_roundtrip_is_bit_identical(self, tmp_path):
        cell = collective_cell("allreduce", 5, _machine_dict(), words=7)
        record = execute_cell(cell)
        cache = RunCache(tmp_path / "cache")
        cache.put(cell, record, "fp")
        replay = cache.get(cell, "fp")
        assert replay is not None
        assert replay.to_json() == record.to_json()

    def test_get_misses_across_fingerprints(self, tmp_path):
        cell = collective_cell("allreduce", 5, _machine_dict(), words=7)
        cache = RunCache(tmp_path / "cache")
        cache.put(cell, execute_cell(cell), "fp-old")
        assert cache.get(cell, "fp-new") is None
        assert cache.get(cell, "fp-old") is not None

    def test_gc_removes_only_stale(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        old = collective_cell("barrier", 4, _machine_dict())
        new = collective_cell("barrier", 5, _machine_dict())
        cache.put(old, execute_cell(old), "fp-old")
        cache.put(new, execute_cell(new), "fp-new")
        assert cache.stats("fp-new").stale == 1
        assert cache.gc("fp-new") == 1
        assert cache.get(new, "fp-new") is not None
        assert cache.stats("fp-new").entries == 1

    def test_gc_drop_all(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cell = collective_cell("barrier", 4, _machine_dict())
        cache.put(cell, execute_cell(cell), "fp")
        assert cache.gc("fp", drop_all=True) == 1
        assert cache.stats("fp").entries == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cell = collective_cell("barrier", 4, _machine_dict())
        key = cache.put(cell, execute_cell(cell), "fp")
        path = cache._entry_path(key)
        path.write_text("{ not json")
        assert cache.get(cell, "fp") is None


class TestExecutor:
    def test_serial_and_sharded_records_identical(self, tmp_path):
        cells = smoke_spec(24).cells()
        serial = run_sweep(cells, workers=0)
        sharded = run_sweep(cells, workers=2)
        assert set(serial.records) == set(sharded.records)
        for cid in serial.records:
            a, b = serial.records[cid], sharded.records[cid]
            assert a.counts == b.counts
            assert a.vtimes == b.vtimes
            assert a.time_terms == b.time_terms
            assert a.energy_terms == b.energy_terms

    def test_warm_run_hits_every_cell_and_is_faster(self, tmp_path):
        cells = smoke_spec(24).cells()
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(cells, cache=cache, workers=2)
        warm = run_sweep(cells, cache=cache, workers=2)
        assert cold.simulated == 3 and cold.hits == 0
        assert warm.hits == 3 and warm.simulated == 0
        assert warm.elapsed < cold.elapsed / 5

    def test_ledger_funnel_annotates_provenance(self, tmp_path):
        cells = smoke_spec(24).cells()
        cache = RunCache(tmp_path / "cache")
        led1 = Ledger(tmp_path / "cold.jsonl")
        run_sweep(cells, ledger=led1, cache=cache, workers=2)
        led2 = Ledger(tmp_path / "warm.jsonl")
        run_sweep(cells, ledger=led2, cache=cache, workers=0)
        tags1 = [r.extra["sweep"]["cache"] for r in led1.records()]
        tags2 = [r.extra["sweep"]["cache"] for r in led2.records()]
        assert tags1 == ["miss"] * 3
        assert tags2 == ["hit"] * 3
        # provenance never leaks into the cached (replayable) record
        for cell in cells:
            assert "sweep" not in (cache.get(cell).extra or {})

    def test_crash_requeue_recovers_all_cells(self, tmp_path):
        cells = smoke_spec(24).cells()
        led = Ledger(tmp_path / "l.jsonl")
        out = run_sweep(cells, ledger=led, workers=2, crash_plan={0: 1})
        assert out.requeues == 1
        assert out.failed == 0
        assert len(out.records) == 3
        assert len(led.records()) == 3
        assert not led.quarantined()

    def test_crash_requeue_records_match_clean_run(self):
        cells = smoke_spec(24).cells()
        clean = run_sweep(cells, workers=0)
        crashed = run_sweep(cells, workers=2, crash_plan={0: 0, 1: 0})
        assert crashed.requeues == 2
        for cid in clean.records:
            assert clean.records[cid].counts == crashed.records[cid].counts
            assert clean.records[cid].vtimes == crashed.records[cid].vtimes

    def test_requeue_budget_exhaustion_raises_with_partial(self):
        cells = smoke_spec(24).cells()
        with pytest.raises(SweepError) as exc:
            run_sweep(cells, workers=1, max_requeues=0, crash_plan={0: 0})
        outcome = exc.value.outcome
        assert outcome.failed == 3
        assert all(o.error and "requeue" in o.error for o in outcome.outcomes)

    def test_failed_cell_reported_not_raised(self, tmp_path):
        bad = SweepSpec(workload="fft", n=100, p_values=(2,)).cells()
        good = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        out = run_sweep(good + bad, workers=2)
        assert out.failed == 1 and out.simulated == 1
        failed = next(o for o in out.outcomes if o.status == "failed")
        assert "power-of-two" in failed.error

    def test_duplicate_cells_rejected(self):
        cells = smoke_spec(24).cells()
        with pytest.raises(SweepError):
            run_sweep(cells + cells[:1], workers=0)

    def test_spawn_context_also_works(self, tmp_path):
        # The worker entry point must be picklable for spawn contexts.
        cells = SweepSpec(workload="fft", n=64, p_values=(2, 4)).cells()
        out = run_sweep(cells, workers=2, mp_context="spawn")
        assert out.simulated == 2 and out.failed == 0

    def test_outcome_json_schema(self):
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        payload = run_sweep(cells, workers=0).to_json()
        assert payload["schema"] == "repro_sweep_outcome/v1"
        assert payload["cells"] == 1
        assert payload["outcomes"][0]["status"] == "simulated"


class TestCollectiveCells:
    def test_execute_matches_oracle_signature(self):
        cell = collective_cell("reduce_scatter", 6, _machine_dict(), words=11)
        record = execute_cell(cell)
        oracle = cell_oracle(cell)
        assert [tuple(r) for r in record.counts] == [
            tuple(r) for r in oracle.signature()
        ]
        assert list(record.vtimes) == list(oracle.vtimes)

    def test_oracle_rejects_scenario_cells(self):
        with pytest.raises(ParameterError):
            cell_oracle(smoke_spec(24).cells()[0])


class TestLargeScaleSweeps:
    """Tier-2 (slow marker): the executor and oracles at p >= 1024 —
    the scale the paper's replication-band claims actually live at."""

    @pytest.mark.slow
    def test_p1024_collectives_match_oracles(self):
        for op in ("allreduce", "bcast", "reduce_scatter"):
            cell = collective_cell(op, 1024, _machine_dict(), words=9)
            record = execute_cell(cell)
            oracle = cell_oracle(cell)
            assert [tuple(r) for r in record.counts] == [
                tuple(r) for r in oracle.signature()
            ]
            assert list(record.vtimes) == list(oracle.vtimes)

    @pytest.mark.slow
    def test_p1024_sharded_sweep_matches_serial(self, tmp_path):
        cells = [
            collective_cell("allreduce", 1024, _machine_dict(), words=w)
            for w in (3, 9)
        ]
        serial = run_sweep(cells, workers=0)
        cache = RunCache(tmp_path / "cache")
        sharded = run_sweep(cells, cache=cache, workers=2)
        warm = run_sweep(cells, cache=cache, workers=2)
        assert warm.hits == len(cells)
        for cid in serial.records:
            assert serial.records[cid].counts == sharded.records[cid].counts
            assert sharded.records[cid].to_json() == warm.records[cid].to_json()


class TestLedgerSingleWriter:
    """The funnel invariant, stress-tested: many concurrent appenders
    (threads and processes) may hammer one ledger file without
    interleaved or corrupt lines — which is why routing every shard's
    records through the parent is safe even under crash-requeue."""

    def test_concurrent_thread_appends_never_corrupt(self, tmp_path):
        led = Ledger(tmp_path / "ledger.jsonl")
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        record = execute_cell(cells[0])

        def hammer(k: int):
            for _ in range(25):
                led.append(record)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = led.records()
        assert len(got) == 200
        assert not led.quarantined()
        assert all(r.counts == record.counts for r in got)

    def test_concurrent_process_appends_never_corrupt(self, tmp_path):
        led_path = tmp_path / "ledger.jsonl"
        led = Ledger(led_path)
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        record = execute_cell(cells[0])
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_hammer_ledger, args=(str(led_path), record.to_json())
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        got = led.records()
        assert len(got) == 100
        assert not led.quarantined()
        sigs = {json.dumps(r.counts) for r in got}
        assert len(sigs) == 1


def _hammer_ledger(path: str, record_json: dict) -> None:
    """Top-level so fork/spawn contexts can run it."""
    from repro.observatory.ledger import Ledger, RunRecord

    led = Ledger(path)
    rec = RunRecord.from_json(record_json)
    for _ in range(25):
        led.append(rec)
