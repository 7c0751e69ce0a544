"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim import Process, Signal, SimulationError, Simulator
from repro.telemetry import Profiler
from tests.test_profiler import FakeClock


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]

    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_args_are_passed(self):
        sim = Simulator()
        result = []
        sim.schedule(0.0, lambda a, b: result.append(a + b), 2, 3)
        sim.run()
        assert result == [5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        times = []
        sim.schedule_at(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(1.0, second)

        def second():
            times.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, True)
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        event.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_stops_the_clock_there(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_then_resume(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run(until=2.0)
        assert times == []
        sim.run()
        assert times == [5.0]

    def test_run_advances_to_until_with_empty_heap(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        count = []
        for _ in range(10):
            sim.schedule(1.0, count.append, 1)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert len(count) == 3

    def test_step(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "x")
        assert sim.step() is True
        assert out == ["x"]
        assert sim.step() is False

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        event = sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0
        event.cancel()
        assert sim.peek() is None

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.processed == 4


class TestProcess:
    def test_yield_number_sleeps(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 2.0]

    def test_yield_none_resumes_immediately(self):
        sim = Simulator()
        trace = []

        def proc():
            yield None
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0]

    def test_return_value_recorded(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        process = sim.process(proc())
        sim.run()
        assert process.done
        assert process.result == 42

    def test_wait_on_signal(self):
        sim = Simulator()
        signal = sim.signal()
        got = []

        def proc():
            value = yield signal
            got.append((sim.now, value))

        sim.process(proc())
        sim.schedule(3.0, signal.fire, "hello")
        sim.run()
        assert got == [(3.0, "hello")]

    def test_signal_fire_is_idempotent(self):
        sim = Simulator()
        signal = sim.signal()
        signal.fire("first")
        signal.fire("second")
        assert signal.value == "first"

    def test_wait_on_already_fired_signal(self):
        sim = Simulator()
        signal = sim.signal()
        signal.fire("early")
        got = []

        def proc():
            value = yield signal
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["early"]

    def test_wait_on_other_process(self):
        sim = Simulator()
        trace = []

        def worker():
            yield 2.0
            return "done"

        def waiter(target):
            result = yield target
            trace.append((sim.now, result))

        target = sim.process(worker())
        sim.process(waiter(target))
        sim.run()
        assert trace == [(2.0, "done")]

    def test_interrupt_stops_process(self):
        sim = Simulator()
        trace = []

        def proc():
            yield 5.0
            trace.append("should not happen")

        process = sim.process(proc())
        sim.schedule(1.0, process.interrupt)
        sim.run()
        assert trace == []
        assert process.done

    def test_bad_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "not a valid target"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_many_processes_interleave_deterministically(self):
        sim = Simulator()
        trace = []

        def proc(name, period):
            for _ in range(3):
                yield period
                trace.append((sim.now, name))

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.5))
        sim.run()
        # at t=3.0 both fire; "b" scheduled its event first (at t=1.5,
        # before "a" rescheduled at t=2.0), so it runs first.
        assert trace == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                         (3.0, "a"), (4.5, "b")]


class TestOrderingUnderLoad:
    """Ordering guarantees the batching refactor must preserve."""

    def test_same_timestamp_fifo_under_load(self):
        """Hundreds of events at one timestamp, interleaved with other
        times: ties always break by schedule order (seq)."""
        sim = Simulator()
        fired = []
        for index in range(300):
            # schedule out of time order on purpose
            at = 1.0 if index % 3 else 2.0
            sim.schedule(at, fired.append, (at, index))
        sim.run()
        at_1 = [i for (at, i) in fired if at == 1.0]
        at_2 = [i for (at, i) in fired if at == 2.0]
        assert at_1 == sorted(at_1)
        assert at_2 == sorted(at_2)
        assert fired == [item for item in fired if item[0] == 1.0] + \
            [item for item in fired if item[0] == 2.0]

    def test_signal_fire_wakes_waiters_in_wait_order(self):
        sim = Simulator()
        signal = Signal(sim)
        woken = []

        def waiter(name):
            yield signal
            woken.append(name)

        for name in ("a", "b", "c", "d"):
            sim.process(waiter(name), name=name)
        sim.run()  # all parked on the signal
        assert woken == []
        signal.fire("go")
        sim.run()
        assert woken == ["a", "b", "c", "d"]


def _profiled_sim():
    """A simulator whose profiler runs on a fake clock that only moves
    when a callback advances it — attribution is exact to the tick."""
    sim = Simulator()
    clock = FakeClock(step=0.0)
    sim.telemetry.profiler = Profiler(clock=clock).enable()
    return sim, clock, sim.telemetry.profiler


class TestDispatchProfiling:
    """The event loop opens every dispatch as a profiler region named
    by the event's kind — the one wall-clock instrument."""

    def test_off_by_default_and_records_nothing(self):
        sim = Simulator()
        profiler = sim.telemetry.profiler
        assert not profiler.enabled
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run(until=0.5)
        assert sim.step() is True
        assert sim.processed == 2
        assert profiler.stats == {}
        assert profiler.entries == 0
        assert profiler.render_flame() == ""

    def test_kind_classification(self):
        from functools import partial
        from repro.sim import classify_callback

        class Owner:
            def method(self):
                pass
        owner = Owner()
        kind = classify_callback(owner.method)
        assert kind.endswith("Owner.method")
        assert not kind.startswith("repro.")
        assert classify_callback(partial(owner.method)) == kind

    def test_partials_and_instances_share_one_kind(self):
        from functools import partial
        sim, clock, profiler = _profiled_sim()

        class Owner:
            def method(self, seconds=1.0):
                clock.advance(seconds)
        sim.schedule(0.0, Owner().method)
        sim.schedule(0.0, Owner().method)
        sim.schedule(0.0, partial(Owner().method, 2.0))
        sim.schedule(0.0, partial(partial(Owner().method), 3.0))
        sim.run()
        (kind, stat), = profiler.stats.items()
        assert kind.endswith("Owner.method")
        assert stat.calls == 4
        assert stat.self_time == 7.0

    def test_per_kind_counts_are_exact(self):
        sim, _clock, profiler = _profiled_sim()
        fired = []
        for _ in range(5):
            sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, sorted, [3, 1])
        sim.run(until=1.5)
        assert sim.step() is True  # step() names its dispatch too
        assert {name: stat.calls
                for name, stat in profiler.stats.items()} == {
            "list.append": 5, "sorted": 1}
        assert profiler.entries == sim.processed == 6

    def test_cancel_heavy_workload_counts_churn(self):
        """Cancelled events popped by the loop are counted, not
        silently skipped — always on, no instrument needed."""
        sim = Simulator()
        fired = []
        keep = []
        for index in range(200):
            event = sim.schedule(1.0 + index * 0.001, fired.append, index)
            if index % 2:
                event.cancel()
            else:
                keep.append(index)
        sim.run()
        assert fired == keep
        assert sim.cancelled_popped == 100

    def test_step_and_peek_count_cancelled_churn(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0  # peek discards the cancelled head
        assert sim.cancelled_popped == 1
        assert sim.step() is True
        assert sim.step() is False

    def test_nested_step_pumping_subtracts_self_time(self):
        """A callback that pumps step() is charged only its own time;
        the pumped event is charged to its own kind, nested under the
        pumping one in the flame paths (no double counting)."""
        sim, clock, profiler = _profiled_sim()

        def inner():
            clock.advance(3.0)

        def outer():
            clock.advance(1.0)
            sim.schedule(0.0, inner)
            sim.step()
            clock.advance(0.5)
        sim.schedule(1.0, outer)
        sim.run()
        outer_stat, = [stat for name, stat in profiler.stats.items()
                       if name.endswith(".outer")]
        inner_stat, = [stat for name, stat in profiler.stats.items()
                       if name.endswith(".inner")]
        assert (outer_stat.calls, inner_stat.calls) == (1, 1)
        assert outer_stat.cum == 4.5
        assert outer_stat.self_time == 1.5
        assert inner_stat.self_time == inner_stat.cum == 3.0
        assert profiler.collapsed(unit=0.5) == [
            "%s 3" % outer_stat.name,
            "%s;%s 6" % (outer_stat.name, inner_stat.name)]

    def test_self_times_sum_to_root_cumulative_time(self):
        """Every region is a root or charged to its parent as child
        time, so there is nothing to reconcile: the self times of all
        regions — event kinds, pumped kinds, hand-placed regions —
        sum exactly to the cumulative time of the root regions."""
        sim, clock, profiler = _profiled_sim()

        def leaf():
            clock.advance(0.25)
            with profiler.profile("netem.link.transmit"):
                clock.advance(2.0)

        def pumping():
            clock.advance(1.0)
            with profiler.profile("netconf.rpc.dispatch"):
                clock.advance(0.5)
                sim.step()          # a leaf, nested two regions deep
            clock.advance(0.125)
        sim.schedule(0.0, pumping)
        for _ in range(3):
            sim.schedule(0.0, leaf)
        sim.run()
        by_suffix = {name.rsplit(".", 1)[-1]: stat
                     for name, stat in profiler.stats.items()}
        assert by_suffix["leaf"].calls == 3
        roots = {path.split(";")[0] for path in profiler._paths}
        assert roots == {by_suffix["pumping"].name, by_suffix["leaf"].name}
        # the pumped leaf's time is inside pumping's cum: count root
        # entries only — one pumping dispatch and the two leaves the
        # run loop itself dispatched
        root_cum = by_suffix["pumping"].cum + 2 * 2.25
        assert by_suffix["pumping"].cum == 1.0 + 0.5 + 2.25 + 0.125
        assert profiler.total_self == root_cum == 8.375
        for path in profiler._paths:
            if "netem.link.transmit" in path:
                assert path.split(";")[-2] == by_suffix["leaf"].name

    def test_raising_callback_still_closes_its_region(self):
        sim, clock, profiler = _profiled_sim()

        def failing():
            clock.advance(1.0)
            raise ValueError("boom")
        sim.schedule(0.0, failing)
        sim.schedule(0.0, failing)
        with pytest.raises(ValueError):
            sim.run()
        with pytest.raises(ValueError):
            sim.step()
        stat, = profiler.stats.values()
        assert stat.name.endswith(".failing")
        assert (stat.calls, stat.cum) == (2, 2.0)
        assert profiler._stack == []

    def test_nested_pumping_never_dispatches_late(self):
        """Nested step() pops in time order and only advances the
        clock: every callback, pumped or not, runs at exactly its
        scheduled time."""
        sim = Simulator()
        ran_at = []

        def outer():
            # pump both pending events from inside a callback
            sim.step()
            sim.step()
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, lambda when=when: ran_at.append(
                (when, sim.now)))
        sim.schedule(0.5, outer)
        sim.run()
        assert ran_at == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_heap_depth_gauges(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(float(index), lambda: None)
        assert sim.heap_depth == 10
        assert sim.scheduled == 10
        sim.run()
        assert sim.heap_depth == 0
        assert sim.processed == 10

    def test_processed_is_current_inside_a_run(self):
        """Gauges sample ``processed`` from inside callbacks (the
        series sampler): it counts every callback already returned."""
        sim = Simulator()
        seen = []
        for index in range(3):
            sim.schedule(float(index), lambda: seen.append(sim.processed))
        sim.run()
        assert seen == [0, 1, 2]
        assert sim.processed == 3

    def test_reset_keeps_enabled_state(self):
        sim, _clock, profiler = _profiled_sim()
        sim.schedule(0.0, sorted, ())
        sim.run()
        assert profiler.region("sorted").calls == 1
        profiler.reset()
        assert profiler.enabled
        assert profiler.stats == {}
        # the simulator's cached kind names outlive the reset
        sim.schedule(0.0, sorted, ())
        sim.run()
        assert profiler.region("sorted").calls == 1

    def test_event_repr_names_the_kind(self):
        sim = Simulator()
        event = sim.schedule(1.5, sorted, [3, 1])
        text = repr(event)
        assert "sorted" in text
        assert "pending" in text
        event.cancel()
        assert "cancelled" in repr(event)

    def test_render_top_lists_hottest_kind_first(self):
        sim, clock, profiler = _profiled_sim()

        def busy():
            clock.advance(2.0)

        def idle():
            clock.advance(0.001)
        for index in range(20):
            sim.schedule(float(index), busy)
        sim.schedule(30.0, idle)
        sim.run()
        lines = profiler.render_top().splitlines()
        assert "region" in lines[0]
        assert "busy" in lines[1] and "idle" in lines[2]
