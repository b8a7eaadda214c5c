"""Tests for deterministic fault injection and replication-based recovery."""

import os

import numpy as np
import pytest

from repro.exceptions import (
    DeadlockError,
    ParameterError,
    PeerDeadError,
    RankCrashedError,
    RankFailedError,
)
from repro.algorithms.matmul25d import (
    assemble_resilient,
    matmul_25d,
    matmul_25d_resilient,
)
from repro.analysis.profiler import ModelProfile
from repro.machines.catalog import default_machine
from repro.simmpi.engine import run_spmd
from repro.simmpi.faults import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    SlowdownFault,
    park_until_crash,
)


class TestFaultPlan:
    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ParameterError):
            FaultPlan([CrashFault(rank=0, at_op=0)])
        with pytest.raises(ParameterError):
            FaultPlan([SlowdownFault(rank=0, factor=0.0, first_op=1, last_op=2)])
        with pytest.raises(ParameterError):
            FaultPlan([SlowdownFault(rank=0, factor=2.0, first_op=3, last_op=2)])
        with pytest.raises(ParameterError):
            FaultPlan([DropFault(src=0, dst=1, nth=-1)])
        with pytest.raises(ParameterError):
            FaultPlan([DelayFault(src=0, dst=1, delay=-1.0)])
        with pytest.raises(ParameterError):
            FaultPlan(["not a fault"])

    def test_validate_checks_world_size(self):
        plan = FaultPlan.single_crash(rank=7, at_op=1)
        with pytest.raises(ParameterError):
            plan.validate(4)
        plan.validate(8)
        with pytest.raises(ParameterError):
            FaultPlan([DropFault(src=0, dst=9)]).validate(4)

    def test_plan_is_immutable_and_boolish(self):
        plan = FaultPlan.single_crash(rank=0, at_op=1)
        with pytest.raises(AttributeError):
            plan.faults = ()
        assert plan
        assert not FaultPlan()

    def test_random_plans_are_deterministic(self):
        kw = dict(size=16, crashes=2, drops=3, duplicates=1, delays=1, slowdowns=2)
        a = FaultPlan.random(seed=7, **kw)
        b = FaultPlan.random(seed=7, **kw)
        assert a.faults == b.faults
        assert FaultPlan.random(seed=8, **kw).faults != a.faults
        assert len(a.crash_ranks()) == 2

    def test_empty_plan_means_no_fault_state(self):
        out = run_spmd(2, lambda comm: comm.rank, faults=FaultPlan())
        assert out.crashed == ()


class TestCrashIsolation:
    def test_survivors_complete_and_victims_reported(self):
        def prog(comm):
            if comm.rank in comm.doomed_ranks():
                park_until_crash(comm)
            comm.add_flops(1.0)
            return comm.rank

        out = run_spmd(4, prog, faults=FaultPlan.single_crash(rank=2, at_op=3))
        assert out.crashed == (2,)
        assert out.results == (0, 1, None, 3)

    def test_crash_fires_at_exact_operation(self):
        seen = {}

        def prog(comm):
            for i in range(10):
                comm.add_flops(1.0)
                seen[comm.rank] = i + 1

        out = run_spmd(2, prog, faults=FaultPlan.single_crash(rank=1, at_op=4))
        assert out.crashed == (1,)
        # at_op=4 kills the 4th metered op before it takes effect.
        assert seen[1] == 3
        assert out.report.ranks[1].flops == 3.0

    def test_unabsorbed_crash_is_the_primary_failure(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1.0], 1)
                comm.recv(1)  # never satisfied: rank 1 dies first
            else:
                comm.recv(0)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                2,
                prog,
                faults=FaultPlan.single_crash(rank=1, at_op=1),
                timeout=2.0,
            )
        failures = ei.value.failures
        # The crash is reported, not the PeerDeadError noise on rank 0.
        assert isinstance(failures[1], RankCrashedError)
        assert failures[1].rank == 1
        assert not any(isinstance(e, DeadlockError) for e in failures.values())

    def test_receive_from_dead_rank_raises_peer_dead(self):
        errors = {}

        def prog(comm):
            if comm.rank in comm.doomed_ranks():
                park_until_crash(comm)
            try:
                comm.recv(1)
            except PeerDeadError as exc:
                errors[comm.rank] = exc
                raise

        with pytest.raises(RankFailedError):
            run_spmd(
                2, prog, faults=FaultPlan.single_crash(rank=1, at_op=1), timeout=5.0
            )
        assert 0 in errors
        assert isinstance(errors[0], DeadlockError)  # shadowable subclass

    def test_dead_and_alive_queries(self):
        def prog(comm):
            if comm.rank in comm.doomed_ranks():
                park_until_crash(comm)
            assert comm.doomed_ranks() == frozenset({1})
            # Deterministic only after the crash has certainly fired:
            # wait for the dead set via a receive timeout-free check.
            while comm.is_alive(1):
                pass
            assert comm.dead_ranks() == frozenset({1})
            return True

        out = run_spmd(3, prog, faults=FaultPlan.single_crash(rank=1, at_op=1))
        assert out.results == (True, None, True)

    def test_park_is_noop_for_live_ranks(self):
        def prog(comm):
            park_until_crash(comm)
            return comm.rank

        assert run_spmd(2, prog).results == (0, 1)


class TestMessageFaults:
    def test_drop_then_recv_reliable_recovers(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(8.0), 1, tag="x")
                return None
            return comm.recv_reliable(0, tag="x", retry_timeout=0.02).sum()

        plan = FaultPlan([DropFault(src=0, dst=1, nth=0)])
        out = run_spmd(2, prog, faults=plan, timeout=5.0)
        assert out.results[1] == 28.0
        r1 = out.report.ranks[1]
        # The retransmission is metered as recovery on the receiver: one
        # proxy re-send plus the receive.
        assert r1.recovery_words_sent == 8
        assert r1.recovery_messages_sent == 1
        assert r1.recovery_words_received == 8
        assert r1.recovery_messages_received == 1
        # Sender paid once, receiver proxy-paid the retransmission: the
        # word crossed the network twice, arrived once.
        assert out.report.total_words == 16
        assert out.report.total_words_received == 8

    def test_drop_without_retry_times_out(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1.0], 1)
                return None
            return comm.recv(0)

        plan = FaultPlan([DropFault(src=0, dst=1, nth=0)])
        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, faults=plan, timeout=0.3)
        assert any(isinstance(e, DeadlockError) for e in ei.value.failures.values())

    def test_recv_reliable_gives_up_on_missing_message(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv_reliable(0, retry_timeout=0.02, max_retries=2)

        plan = FaultPlan([DelayFault(src=1, dst=0, nth=99)])  # inert, activates state
        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, faults=plan, timeout=0.5)
        assert any(isinstance(e, DeadlockError) for e in ei.value.failures.values())

    def test_recv_reliable_without_faults_is_plain_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([5.0], 1)
                return None
            return comm.recv_reliable(0)[0]

        out = run_spmd(2, prog)
        assert out.results[1] == 5.0
        assert not out.report.has_recovery

    def test_duplicate_delivers_twice(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1.0, 2.0], 1, tag="d")
                return None
            first = comm.recv(0, tag="d")
            second = comm.recv(0, tag="d")
            return list(first), list(second)

        plan = FaultPlan([DuplicateFault(src=0, dst=1, nth=0)])
        out = run_spmd(2, prog, faults=plan, timeout=5.0)
        assert out.results[1] == ([1.0, 2.0], [1.0, 2.0])
        # Sender metered once; receiver metered both copies.
        assert out.report.ranks[0].words_sent == 2
        assert out.report.ranks[1].words_received == 4

    def test_delay_shifts_virtual_arrival(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1.0] * 4, 1)
                return None
            comm.recv(0)
            return comm.counter.vtime

        machine = default_machine()
        base = run_spmd(2, prog, machine=machine)
        delayed = run_spmd(
            2,
            prog,
            machine=machine,
            faults=FaultPlan([DelayFault(src=0, dst=1, nth=0, delay=0.5)]),
            timeout=5.0,
        )
        assert delayed.results[1] == pytest.approx(base.results[1] + 0.5)
        # Counts are untouched by delays.
        assert base.report.counts_signature() == delayed.report.counts_signature()

    def test_slowdown_stretches_flop_window(self):
        def prog(comm):
            for _ in range(4):
                comm.add_flops(100.0)
            return comm.counter.vtime

        machine = default_machine()
        base = run_spmd(1, prog, machine=machine)
        slow = run_spmd(
            1,
            prog,
            machine=machine,
            faults=FaultPlan(
                [SlowdownFault(rank=0, factor=3.0, first_op=2, last_op=3)]
            ),
        )
        # Ops 2 and 3 cost 3x: total 1+3+3+1 = 8 instead of 4 units.
        assert slow.results[0] == pytest.approx(base.results[0] * 2.0)
        assert base.report.counts_signature() == slow.report.counts_signature()


class TestDisabledPathIdentity:
    def test_inert_plan_is_bit_identical_to_no_plan(self):
        from repro.algorithms.cannon import cannon_matmul

        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        machine = default_machine()
        base = run_spmd(4, cannon_matmul, a, b, machine=machine)
        inert = FaultPlan([DelayFault(src=0, dst=1, nth=10**9, delay=1.0)])
        hooked = run_spmd(4, cannon_matmul, a, b, machine=machine, faults=inert)
        assert base.report.counts_signature() == hooked.report.counts_signature()
        assert tuple(r.vtime for r in base.report.ranks) == tuple(
            r.vtime for r in hooked.report.ranks
        )
        assert not hooked.report.has_recovery


class TestResilientMatmul:
    n, p, c = 16, 8, 2

    def _operands(self):
        rng = np.random.default_rng(42)
        return (
            rng.standard_normal((self.n, self.n)),
            rng.standard_normal((self.n, self.n)),
        )

    def test_fault_free_matches_numpy(self):
        a, b = self._operands()
        out = run_spmd(self.p, matmul_25d_resilient, a, b, c=self.c)
        assert np.allclose(assemble_resilient(out.results, self.n), a @ b)
        assert not out.report.has_recovery

    def test_recovers_from_non_front_crash(self):
        a, b = self._operands()
        # rank 3 = (i=0, j=1, layer 1): a replica-layer rank.
        out = run_spmd(
            self.p,
            matmul_25d_resilient,
            a,
            b,
            c=self.c,
            faults=FaultPlan.single_crash(rank=3, at_op=5),
            timeout=10.0,
        )
        assert out.crashed == (3,)
        assert np.allclose(assemble_resilient(out.results, self.n), a @ b)
        assert out.report.has_recovery
        assert out.report.total_recovery_flops > 0
        assert out.report.total_recovery_words > 0
        # The buddy (rank 2, layer 0 of the same fiber) carries it.
        assert out.report.ranks[2].recovery_flops > 0

    def test_recovers_from_front_layer_crash(self):
        a, b = self._operands()
        out = run_spmd(
            self.p,
            matmul_25d_resilient,
            a,
            b,
            c=self.c,
            faults=FaultPlan.single_crash(rank=0, at_op=2),
            timeout=10.0,
        )
        assert out.crashed == (0,)
        assert np.allclose(assemble_resilient(out.results, self.n), a @ b)

    def test_recovery_counts_are_deterministic(self):
        a, b = self._operands()
        plan = FaultPlan.single_crash(rank=3, at_op=5)
        sigs = set()
        for _ in range(3):
            out = run_spmd(
                self.p, matmul_25d_resilient, a, b, c=self.c, faults=plan,
                timeout=10.0,
            )
            sigs.add(out.report.counts_signature())
        assert len(sigs) == 1

    def test_rejects_unrecoverable_configurations(self):
        a, b = self._operands()
        # c = 1: a crash loses the only copy.
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                4,
                matmul_25d_resilient,
                a,
                b,
                c=1,
                faults=FaultPlan.single_crash(rank=1, at_op=1),
                timeout=5.0,
            )
        assert any(
            isinstance(e, ParameterError) for e in ei.value.failures.values()
        )
        # Whole fiber doomed: tiles unrecoverable even at c = 2.
        whole_fiber = FaultPlan(
            [CrashFault(rank=2, at_op=50), CrashFault(rank=3, at_op=50)]
        )
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                self.p, matmul_25d_resilient, a, b, c=self.c,
                faults=whole_fiber, timeout=5.0,
            )
        assert any(
            isinstance(e, ParameterError) for e in ei.value.failures.values()
        )

    def test_profiler_prices_recovery_terms(self):
        a, b = self._operands()
        machine = default_machine()
        out = run_spmd(
            self.p,
            matmul_25d_resilient,
            a,
            b,
            c=self.c,
            machine=machine,
            faults=FaultPlan.single_crash(rank=3, at_op=5),
            timeout=10.0,
        )
        prof = ModelProfile.from_result(out, machine, label="resilient")
        assert prof.has_recovery
        tt = prof.recovery_time_terms
        et = prof.recovery_energy_terms
        assert tt["gammaF"] == machine.gamma_t * out.report.total_recovery_flops
        assert tt["betaW"] == machine.beta_t * out.report.total_recovery_words
        assert tt["alphaS"] == machine.alpha_t * out.report.total_recovery_messages
        assert et["betaW"] == machine.beta_e * out.report.total_recovery_words
        rendered = prof.render()
        assert "fault-recovery overhead" in rendered
        payload = prof.to_json()
        assert payload["recovery"]["words"] == out.report.total_recovery_words

    def test_fault_free_profile_has_no_recovery_section(self):
        a, b = self._operands()
        machine = default_machine()
        out = run_spmd(self.p, matmul_25d_resilient, a, b, c=self.c)
        prof = ModelProfile.from_result(out, machine)
        assert not prof.has_recovery
        assert "fault-recovery" not in prof.render()
        assert prof.to_json()["recovery"] is None

    def test_classic_and_resilient_agree_fault_free(self):
        a, b = self._operands()
        classic = run_spmd(self.p, matmul_25d, a, b, self.c)
        resilient = run_spmd(self.p, matmul_25d_resilient, a, b, c=self.c)
        got = assemble_resilient(resilient.results, self.n)
        bsz = self.n // 2
        for entry in resilient.results:
            if entry is None:
                continue
            (i, j), _tile = entry
            assert np.allclose(
                got[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz],
                classic.results[(i * 2 + j) * self.c][:, :],
            )


def _chaos_seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "1,2,3")
    return [int(s) for s in raw.split(",") if s.strip()]


@pytest.mark.parametrize("seed", _chaos_seeds())
def test_chaos_matrix_single_crash(seed):
    """Seed-swept chaos check (CI sweeps REPRO_CHAOS_SEEDS): a random
    single-rank crash at a random operation is always absorbed at c=2."""
    rng = np.random.default_rng(seed)
    n, p, c = 16, 8, 2
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    victim = int(rng.integers(p))
    at_op = int(rng.integers(1, 40))
    out = run_spmd(
        p,
        matmul_25d_resilient,
        a,
        b,
        c=c,
        faults=FaultPlan.single_crash(rank=victim, at_op=at_op),
        timeout=10.0,
    )
    assert out.crashed == (victim,)
    assert np.allclose(assemble_resilient(out.results, n), a @ b)
    assert out.report.has_recovery


@pytest.mark.parametrize("seed", _chaos_seeds())
def test_chaos_matrix_message_faults(seed):
    """Random drop + duplicate + delay faults on a ring exchange: drops
    recovered by recv_reliable, counts deterministic per seed."""

    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        total = 0.0
        for step in range(3):
            comm.send(np.full(4, float(comm.rank + step)), right, tag=step)
            total += comm.recv_reliable(left, tag=step, retry_timeout=0.02).sum()
        return total

    p = 4
    plan = FaultPlan.random(
        seed=seed, size=p, crashes=0, drops=2, duplicates=1, delays=1
    )
    out1 = run_spmd(p, prog, faults=plan, timeout=10.0)
    out2 = run_spmd(p, prog, faults=plan, timeout=10.0)
    base = run_spmd(p, prog)
    assert out1.results == base.results  # payloads recovered exactly
    assert out1.report.counts_signature() == out2.report.counts_signature()
