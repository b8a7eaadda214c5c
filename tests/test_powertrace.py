"""Power telemetry acceptance tests.

The hard invariant (ISSUE acceptance matrix): for every scenario in the
CLI registry at p in {4, 16, 64} (caps at its nearest admissible
p = 7^k points), the per-rank power-trace integral reproduces the
rank's Eq. (2) pricing bit-exactly from replayed counts, the aggregate
terms ARE the ModelProfile terms, and the whole-run average power
equals ``core.power.average_power_from_report`` bitwise.
"""

import numpy as np
import pytest

from repro.analysis.powertrace import (
    SCHEMA,
    PowerCaps,
    PowerTrace,
    catalog_power_caps,
)
from repro.analysis.profiler import ENERGY_TERM_KEYS, ModelProfile
from repro.cli import _build_trace_program
from repro.core.power import average_power_from_report
from repro.exceptions import ParameterError
from repro.machines.catalog import default_machine
from repro.simmpi import run_spmd

MACHINE = default_machine()

#: (workload, p, n) — p in {4, 16, 64} wherever the scenario's layout
#: admits it. caps needs p = 7^k, so it runs at 7 and 49; fft needs
#: p^2 | n, so p=64 rides on n=4096.
MATRIX = [
    ("matmul25d", 4, 16),
    ("matmul25d", 16, 16),
    ("matmul25d", 64, 16),
    ("cannon", 4, 16),
    ("cannon", 16, 16),
    ("cannon", 64, 16),
    ("summa", 4, 16),
    ("summa", 16, 16),
    ("summa", 64, 16),
    ("nbody", 4, 64),
    ("nbody", 16, 64),
    ("nbody", 64, 64),
    ("fft", 4, 1024),
    ("fft", 16, 1024),
    ("fft", 64, 4096),
    ("caps", 7, 14),
    ("caps", 49, 28),
]


def _trace(workload, p, n, machine=MACHINE, **kwargs):
    program, prog_args, label = _build_trace_program(workload, p, n)
    out = run_spmd(
        p, program, *prog_args, machine=machine, trace=True, **kwargs
    )
    return out, PowerTrace.from_result(out, machine, label=label)


class TestBitExactness:
    @pytest.mark.parametrize("workload,p,n", MATRIX)
    def test_acceptance_matrix(self, workload, p, n):
        out, pt = _trace(workload, p, n)
        report = out.report

        # Aggregate terms ARE the ModelProfile terms (same floats).
        profile = ModelProfile.from_report(report, MACHINE)
        assert pt.energy_terms == profile.energy_terms
        assert pt.energy_total == profile.energy.total
        assert pt.time_total == profile.time.total

        # Whole-run average power is E/T on the same floats.
        assert pt.average_watts == average_power_from_report(
            report, MACHINE, memory_words=pt.memory_words
        )

        # Per-rank: the closed-form integral's counts are the counter
        # snapshots, bit for bit, so each term is rate x count exactly.
        T = pt.time.total
        for r in range(report.size):
            counters = report.ranks[r]
            rt = pt.ranks[r]
            assert rt.flops == counters.flops
            assert rt.words == counters.words_sent
            assert rt.messages == counters.messages_sent
            assert pt.rank_energy_terms(r) == {
                "gammaF": MACHINE.gamma_e * counters.flops,
                "betaW": MACHINE.beta_e * counters.words_sent,
                "alphaS": MACHINE.alpha_e * counters.messages_sent,
                "deltaMT": MACHINE.delta_e * pt.memory_words * T,
                "epsT": MACHINE.epsilon_e * T,
            }

    def test_numeric_integral_matches_closed_form(self):
        # sum(watts * dt) re-rounds, so it only matches the closed form
        # to float re-association — but that is a 1e-9 statement, and
        # it covers the extra baseline draw on [T_model, T_sim].
        _, pt = _trace("matmul25d", 8, 16)
        for r in range(pt.size):
            terms = pt.rank_energy_terms(r)
            dynamic = terms["gammaF"] + terms["betaW"] + terms["alphaS"]
            expected = dynamic + pt.baseline_watts * pt.horizon
            assert pt.trace_joules(r) == pytest.approx(expected, rel=1e-9)

    def test_rank_energy_sums_in_term_key_order(self):
        _, pt = _trace("cannon", 4, 16)
        terms = pt.rank_energy_terms(0)
        assert pt.rank_energy(0) == sum(terms[k] for k in ENERGY_TERM_KEYS)


class TestStructure:
    def test_segments_tile_horizon_exactly(self):
        _, pt = _trace("summa", 4, 16)
        for rt in pt.ranks:
            assert rt.segments[0].t0 == 0.0
            assert rt.segments[-1].t1 == pt.horizon
            for a, b in zip(rt.segments, rt.segments[1:]):
                assert a.t1 == b.t0
        assert pt.envelope[0].t0 == 0.0
        assert pt.envelope[-1].t1 == pt.horizon
        for a, b in zip(pt.envelope, pt.envelope[1:]):
            assert a.t1 == b.t0

    def test_peak_is_envelope_max_and_bounded_by_rank_sum(self):
        _, pt = _trace("matmul25d", 8, 16)
        assert pt.peak_watts == max(seg.watts for seg in pt.envelope)
        assert pt.peak_watts <= sum(rt.peak_watts for rt in pt.ranks) + 1e-12
        assert pt.peak_watts >= pt.size * pt.baseline_watts

    def test_utilization_fractions_sum_to_one(self):
        _, pt = _trace("nbody", 4, 64)
        for frac in pt.utilization().values():
            assert frac["busy"] + frac["stall"] + frac["idle"] == (
                pytest.approx(1.0, rel=1e-9)
            )

    def test_stalled_receives_draw_baseline_only(self):
        _, pt = _trace("cannon", 4, 16)
        stalls = [
            seg
            for rt in pt.ranks
            for seg in rt.segments
            if seg.kind in ("stall", "idle")
        ]
        assert stalls  # cannon shifts always stall someone
        for seg in stalls:
            assert seg.watts == pt.baseline_watts

    def test_to_json_payload(self):
        _, pt = _trace("fft", 4, 1024)
        payload = pt.to_json()
        assert payload["schema"] == SCHEMA
        assert payload["p"] == 4
        assert len(payload["per_rank"]) == 4
        assert payload["average_watts"] == pt.average_watts
        assert payload["peak_watts"] == pt.peak_watts
        for row in payload["per_rank"]:
            assert set(row["energy_terms"]) == set(ENERGY_TERM_KEYS)
        for (t0, t1, watts), seg in zip(payload["envelope"], pt.envelope):
            assert (t0, t1, watts) == (seg.t0, seg.t1, seg.watts)

    def test_render_mentions_headline_numbers(self):
        _, pt = _trace("matmul25d", 8, 16)
        text = pt.render()
        assert "machine power over virtual time" in text
        assert "average" in text and "peak" in text
        assert "mean rank utilization" in text


class TestCapViolations:
    def test_cap_above_peak_finds_nothing(self):
        _, pt = _trace("matmul25d", 8, 16)
        assert pt.cap_violations(pt.peak_watts + 1.0) == ()

    def test_cap_below_peak_finds_merged_intervals(self):
        _, pt = _trace("matmul25d", 8, 16)
        cap = pt.size * pt.baseline_watts + 0.5 * (
            pt.peak_watts - pt.size * pt.baseline_watts
        )
        violations = pt.cap_violations(cap)
        assert violations
        for v in violations:
            assert v.rank is None
            assert 0.0 <= v.t0 < v.t1 <= pt.horizon
            assert v.peak_watts > cap
        # maximal intervals never touch: merged at shared endpoints
        for a, b in zip(violations, violations[1:]):
            assert a.t1 < b.t0
        assert max(v.peak_watts for v in violations) == pt.peak_watts

    def test_per_rank_cap_violations(self):
        _, pt = _trace("matmul25d", 8, 16)
        cap = pt.baseline_watts + 0.5 * (
            max(rt.peak_watts for rt in pt.ranks) - pt.baseline_watts
        )
        violations = pt.rank_cap_violations(cap)
        assert violations
        for v in violations:
            assert v.rank in range(pt.size)
            assert v.peak_watts > cap

    def test_nonpositive_cap_rejected(self):
        _, pt = _trace("cannon", 4, 16)
        with pytest.raises(ParameterError):
            pt.cap_violations(0.0)
        with pytest.raises(ParameterError):
            pt.rank_cap_violations(-1.0)


class TestCounterEvents:
    def test_counter_tracks_only_ph_c(self):
        _, pt = _trace("matmul25d", 8, 16)
        events = pt.counter_events()
        assert events
        names = {e["name"] for e in events}
        assert "machine power [W]" in names
        assert f"rank {pt.size - 1} power [W]" in names
        for e in events:
            assert e["ph"] == "C"
            assert set(e["args"]) == {"watts"}

    def test_tracks_close_at_zero(self):
        _, pt = _trace("cannon", 4, 16)
        events = pt.counter_events(per_rank=False)
        assert events[-1]["args"]["watts"] == 0.0
        assert events[-1]["ts"] == pytest.approx(pt.horizon * 1e6)


class TestRejections:
    def test_untraced_run_rejected(self):
        out = run_spmd(
            4,
            _build_trace_program("cannon", 4, 16)[0],
            *_build_trace_program("cannon", 4, 16)[1],
            machine=MACHINE,
        )
        with pytest.raises(ParameterError, match="trace=True"):
            PowerTrace.from_result(out, MACHINE)

    def test_dropped_events_rejected(self):
        program, prog_args, _label = _build_trace_program("matmul25d", 8, 16)
        out = run_spmd(
            8,
            program,
            *prog_args,
            machine=MACHINE,
            trace=True,
            trace_capacity=4,
        )
        with pytest.raises(ParameterError, match="trace_capacity"):
            PowerTrace.from_result(out, MACHINE)

    def test_unmodeled_run_rejected(self):
        program, prog_args, _label = _build_trace_program("cannon", 4, 16)
        out = run_spmd(4, program, *prog_args, trace=True)
        with pytest.raises(ParameterError, match="machine"):
            PowerTrace.from_result(out, MACHINE)


class TestImpulses:
    def test_zero_cost_machine_tallies_impulses(self):
        # beta_t = alpha_t = 0 makes every send span zero-width: its
        # joules land in impulse_joules, never in a segment — and the
        # closed-form integral still reproduces the counter pricing
        # bit-exactly (counts accumulate before the impulse check).
        machine = MACHINE.replace(beta_t=0.0, alpha_t=0.0, alpha_e=1e-7)
        out, pt = _trace("cannon", 4, 16, machine=machine)
        assert sum(rt.impulse_joules for rt in pt.ranks) > 0.0
        for r in range(pt.size):
            counters = out.report.ranks[r]
            terms = pt.rank_energy_terms(r)
            assert terms["betaW"] == machine.beta_e * counters.words_sent
            assert terms["alphaS"] == (
                machine.alpha_e * counters.messages_sent
            )


class TestCatalogCaps:
    def test_table1_values(self):
        caps = catalog_power_caps(8)
        assert isinstance(caps, PowerCaps)
        assert caps.per_processor_watts == pytest.approx(176.95)
        assert caps.total_watts == pytest.approx(8 * 176.95)
        assert caps.total_watts == 8 * caps.per_processor_watts

    def test_catalog_caps_hold_for_a_traced_run(self):
        # On the Table I machine a flop span draws exactly the chip TDP
        # (gamma_e / gamma_t = 150 W), below the 176.95 W catalog cap.
        from repro.machines.catalog import jaketown_machine

        machine = jaketown_machine()
        out, pt = _trace("matmul25d", 8, 16, machine=machine)
        caps = catalog_power_caps(pt.size)
        assert pt.rank_cap_violations(caps.per_processor_watts) == ()
        assert pt.cap_violations(caps.total_watts) == ()

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ParameterError):
            catalog_power_caps(0)
