"""Fault subsystem units: plans, injector, faulty device, circuit breaker."""

import dataclasses
import json

import pytest

from repro import (
    BreakerConfig,
    CircuitBreaker,
    ConfigError,
    DeviceFault,
    FaultInjector,
    FaultPlan,
    FaultySsd,
    SimulatedSsd,
    StorageError,
)
from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN
from repro.faults.injector import (
    BROWNOUT,
    CORRUPT,
    DEAD_PAGE,
    LATENCY_SPIKE,
    OK,
    READ_ERROR,
    SUBMIT_FAILURES,
)
from repro.ssd import SsdProfile


def make_device(queue_depth=32, latency=10.0):
    profile = SsdProfile(
        "fault-test",
        read_latency_us=latency,
        bandwidth_gb_s=4.096,  # 1 page per microsecond
        queue_depth=queue_depth,
    )
    return SimulatedSsd(profile, page_size=4096)


class TestFaultPlan:
    def test_default_plan_is_faultless(self):
        plan = FaultPlan()
        assert not plan.page_is_dead(0)
        assert not plan.draw_read_error(0, 0, 0)

    @pytest.mark.parametrize(
        "field", ["read_error_rate", "dead_page_rate", "corrupt_rate"]
    )
    def test_rates_validated(self, field):
        with pytest.raises(ConfigError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ConfigError):
            FaultPlan(**{field: -0.1})

    def test_brownout_windows_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(brownouts=((100.0, 50.0),))
        with pytest.raises(ConfigError):
            FaultPlan(brownouts=((-5.0, 50.0),))

    def test_brownout_membership_and_end(self):
        plan = FaultPlan(brownouts=((100.0, 200.0), (500.0, 600.0)))
        assert plan.in_brownout(150.0)
        assert not plan.in_brownout(200.0)  # half-open interval
        assert plan.brownout_end(150.0) == 200.0
        assert plan.brownout_end(300.0) == 300.0

    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=3, read_error_rate=0.5)
        b = FaultPlan(seed=3, read_error_rate=0.5)
        draws = [(p, att, s) for p in range(8) for att in range(3) for s in range(3)]
        assert [a.draw_read_error(*d) for d in draws] == [
            b.draw_read_error(*d) for d in draws
        ]

    def test_dead_pages_depend_only_on_seed_and_page(self):
        plan = FaultPlan(seed=11, dead_page_rate=0.3)
        dead = [p for p in range(200) if plan.page_is_dead(p)]
        assert dead  # 30 % of 200 pages: some must die
        assert len(dead) < 200
        # The draw is stable across repeated queries.
        assert dead == [p for p in range(200) if plan.page_is_dead(p)]

    def test_rate_controls_draw_frequency(self):
        plan = FaultPlan(seed=5, read_error_rate=0.2)
        hits = sum(
            plan.draw_read_error(p, 0, s)
            for p in range(40)
            for s in range(40)
        )
        assert 0.1 < hits / 1600 < 0.3

    def test_to_from_dict_round_trip(self):
        plan = FaultPlan(
            seed=9,
            read_error_rate=0.05,
            dead_page_rate=0.01,
            corrupt_rate=0.02,
            latency_spike_rate=0.1,
            latency_spike_us=750.0,
            brownouts=((10.0, 20.0),),
        )
        data = json.loads(json.dumps(dataclasses.asdict(plan)))
        assert data["brownouts"] == [[10.0, 20.0]]
        assert FaultPlan.from_dict(data) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown fault plan"):
            FaultPlan.from_dict({"seed": 1, "wat": 2})

    def test_from_spec_inline(self):
        plan = FaultPlan.from_spec(
            "seed=3,read_error=0.05,corrupt=0.01,brownout=100:200"
        )
        assert plan.seed == 3
        assert plan.read_error_rate == 0.05
        assert plan.corrupt_rate == 0.01
        assert plan.brownouts == ((100.0, 200.0),)

    def test_from_spec_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        original = FaultPlan(seed=4, dead_page_rate=0.02)
        path.write_text(json.dumps(dataclasses.asdict(original)))
        assert FaultPlan.from_spec(str(path)) == original

    @pytest.mark.parametrize(
        "spec",
        ["", "read_error", "read_error=abc", "wat=1", "brownout=oops"],
    )
    def test_from_spec_rejects_malformed(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec(spec)


class TestFaultInjector:
    def test_faultless_plan_always_ok(self):
        injector = FaultInjector(FaultPlan())
        decisions = [injector.decide(p, 0.0) for p in range(50)]
        assert all(d.kind == OK for d in decisions)
        assert not any(injector.counters.values())

    def test_dead_page_takes_precedence(self):
        plan = FaultPlan(seed=1, dead_page_rate=1.0, read_error_rate=1.0)
        injector = FaultInjector(plan)
        assert injector.decide(0, 0.0).kind == DEAD_PAGE

    def test_brownout_beats_transient_draws(self):
        plan = FaultPlan(
            seed=1, read_error_rate=1.0, brownouts=((0.0, 100.0),)
        )
        injector = FaultInjector(plan)
        decision = injector.decide(0, 50.0)
        assert decision.kind == BROWNOUT
        assert decision.retry_at_us == 100.0
        assert injector.decide(0, 150.0).kind == READ_ERROR

    def test_spike_carries_extra_latency(self):
        plan = FaultPlan(
            seed=1, latency_spike_rate=1.0, latency_spike_us=321.0
        )
        decision = FaultInjector(plan).decide(0, 0.0)
        assert decision.kind == LATENCY_SPIKE
        assert decision.extra_latency_us == 321.0
        assert decision.kind not in SUBMIT_FAILURES  # it still completes

    def test_counters_track_kinds(self):
        plan = FaultPlan(seed=2, read_error_rate=0.5)
        injector = FaultInjector(plan)
        for page in range(100):
            injector.decide(page, 0.0)
        assert injector.counters[READ_ERROR] == sum(injector.counters.values())
        assert 20 < injector.counters[READ_ERROR] < 80

    def test_sequence_decorrelates_repeated_reads(self):
        # The same (page, attempt) coordinates must not always draw the
        # same transient fate: the submission sequence number varies it.
        plan = FaultPlan(seed=2, read_error_rate=0.5)
        injector = FaultInjector(plan)
        kinds = {injector.decide(7, 0.0, attempt=0).kind for _ in range(64)}
        assert kinds == {OK, READ_ERROR}


class TestFaultySsd:
    def test_faultless_wrapper_is_passthrough(self):
        plain = make_device()
        wrapped = FaultySsd(make_device(), FaultPlan())
        for page in range(6):
            a = plain.submit_read(page, float(page))
            b = wrapped.submit_read(page, float(page))
            assert a.completed_at_us == b.completed_at_us
        assert plain.drain() == wrapped.drain()

    def test_submit_failure_raises_device_fault(self):
        wrapped = FaultySsd(
            make_device(latency=10.0), FaultPlan(seed=1, read_error_rate=1.0)
        )
        with pytest.raises(DeviceFault) as info:
            wrapped.submit_read(3, 100.0)
        fault = info.value
        assert fault.page_id == 3
        assert fault.kind == READ_ERROR
        assert fault.failed_at_us == 110.0  # discovery costs a read latency
        assert isinstance(fault, StorageError)

    def test_brownout_failure_points_past_window(self):
        wrapped = FaultySsd(
            make_device(), FaultPlan(brownouts=((0.0, 500.0),))
        )
        with pytest.raises(DeviceFault) as info:
            wrapped.submit_read(0, 100.0)
        assert info.value.kind == BROWNOUT
        assert info.value.failed_at_us == 500.0

    def test_corrupt_read_completes_then_fails_check(self):
        wrapped = FaultySsd(
            make_device(), FaultPlan(seed=1, corrupt_rate=1.0)
        )
        completion = wrapped.submit_read(0, 0.0)
        assert wrapped.is_corrupt(completion)
        # The verdict is consumed: asking again is clean.
        assert not wrapped.is_corrupt(completion)

    def test_spiked_completion_held_back_from_poll(self):
        wrapped = FaultySsd(
            make_device(latency=10.0),
            FaultPlan(seed=1, latency_spike_rate=1.0, latency_spike_us=500.0),
        )
        completion = wrapped.submit_read(0, 0.0)
        assert completion.completed_at_us >= 510.0
        # At the un-spiked completion time nothing retires...
        assert wrapped.poll(completion.completed_at_us - 500.0) == []
        # ...but the stretched deadline delivers it.
        done = wrapped.poll(completion.completed_at_us)
        assert [c.ticket for c in done] == [completion.ticket]

    def test_drain_honours_spiked_times(self):
        wrapped = FaultySsd(
            make_device(latency=10.0),
            FaultPlan(seed=1, latency_spike_rate=1.0, latency_spike_us=500.0),
        )
        completion = wrapped.submit_read(0, 0.0)
        assert wrapped.drain() == completion.completed_at_us

    def test_fault_counters_surface_injector_state(self):
        wrapped = FaultySsd(
            make_device(), FaultPlan(seed=1, read_error_rate=1.0)
        )
        with pytest.raises(DeviceFault):
            wrapped.submit_read(0, 0.0)
        assert wrapped.fault_counters[READ_ERROR] == 1
        assert wrapped.fault_counters[CORRUPT] == 0


class TestCircuitBreaker:
    def test_config_validated(self):
        with pytest.raises(ConfigError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerConfig(recovery_timeout_us=-1.0)
        with pytest.raises(ConfigError):
            BreakerConfig(half_open_probes=0)

    def test_full_cycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2, recovery_timeout_us=1000.0)
        )
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)
        breaker.record_failure(10.0)
        assert breaker.state == CLOSED  # one below threshold
        breaker.record_failure(20.0)
        assert breaker.state == OPEN
        # Open rejects until the recovery timeout elapses.
        assert not breaker.allow(500.0)
        assert breaker.allow(1020.0)  # probe admitted
        assert breaker.state == HALF_OPEN
        breaker.record_success(1030.0)
        assert breaker.state == CLOSED
        states = [(t.from_state, t.to_state) for t in breaker.transitions]
        assert states == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_half_open_failure_reopens_and_restarts_timer(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_timeout_us=1000.0)
        )
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert breaker.allow(1000.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure(1100.0)
        assert breaker.state == OPEN
        # The timer restarted at the half-open failure.
        assert not breaker.allow(1999.0)
        assert breaker.allow(2100.0)

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED  # streak broken by the success

    def test_multiple_probes_required_to_close(self):
        breaker = CircuitBreaker(
            BreakerConfig(
                failure_threshold=1,
                recovery_timeout_us=100.0,
                half_open_probes=2,
            )
        )
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_success(110.0)
        assert breaker.state == HALF_OPEN  # one probe is not enough
        breaker.record_success(120.0)
        assert breaker.state == CLOSED

    def test_transitions_are_timestamped_records(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1))
        breaker.record_failure(42.0)
        (transition,) = breaker.transitions
        assert dataclasses.astuple(transition) == (42.0, CLOSED, OPEN)
