"""Tests for the discrete-event simulation core."""

import pytest

from repro.click import ConfigError, Router
from repro.netem import Interface, Link, ResourceBudget
from repro.packet import EthAddr
from repro.sim import SimulationError, Simulator
from repro.telemetry import Profiler
from repro.telemetry.profiler import render_regions
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
        event.cancel()
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


class TestWakeup:
    """One callback, at most one pending shot, however often re-armed."""

    def test_arm_fires_once_at_the_last_armed_instant(self):
        sim = Simulator()
        fired = []
        wakeup = sim.wakeup(lambda: fired.append(sim.now))
        wakeup.arm(5.0)
        wakeup.arm_at(2.0)   # earlier
        wakeup.arm_at(3.0)   # later again
        assert wakeup.armed and sim.pending == 1
        sim.run()
        assert fired == [3.0]
        assert not wakeup.armed

    def test_same_instant_keeps_the_shot(self):
        sim = Simulator()
        wakeup = sim.wakeup(lambda: None)
        event = wakeup.arm_at(2.0)
        assert wakeup.arm_at(2.0) is event
        assert sim.scheduled == 1 and sim.heap_depth == 1

    def test_arm_before_only_pulls_earlier(self):
        sim = Simulator()
        fired = []
        wakeup = sim.wakeup(lambda: fired.append(sim.now))
        first = wakeup.arm_before(4.0)       # idle: arms
        assert wakeup.arm_before(6.0) is first  # never pushes later
        assert wakeup.arm_before(1.0).time == 1.0
        sim.run()
        assert fired == [1.0]

    def test_past_instants_clamp_to_now(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.wakeup(lambda: None).arm_at(1.0).time == 3.0

    def test_disarm_then_rearm(self):
        sim = Simulator()
        fired = []
        wakeup = sim.wakeup(fired.append, "x")
        wakeup.arm(1.0)
        wakeup.disarm()
        assert not wakeup.armed and sim.pending == 0
        sim.run()
        assert fired == []
        wakeup.arm(1.0)
        sim.run()
        assert fired == ["x"]

    def test_moved_shot_runs_after_events_already_queued_there(self):
        """A re-armed shot is a fresh event: it takes a fresh ``seq``
        and so runs after whatever was already queued for its new
        instant - whether it moved later or earlier."""
        sim = Simulator()
        order = []
        wakeup = sim.wakeup(order.append, "wakeup")
        wakeup.arm_at(1.0)                       # armed first ...
        sim.schedule_at(2.0, order.append, "a")
        sim.schedule_at(0.5, order.append, "b")
        wakeup.arm_at(2.0)                       # ... moved later: after a
        sim.run(until=1.5)
        assert order == ["b"]
        sim.run()
        assert order == ["b", "a", "wakeup"]
        order.clear()
        wakeup.arm(5.0)
        sim.schedule(1.0, order.append, "c")
        wakeup.arm(1.0)                          # moved earlier: after c
        sim.run()
        assert order == ["c", "wakeup"]

    def test_10000_rearms_hold_one_event_and_a_bounded_heap(self):
        """Every re-arm leaves a cancelled entry behind; compaction is
        the one mechanism that bounds them."""
        sim = Simulator()
        fired = []
        wakeup = sim.wakeup(lambda: fired.append(sim.now))
        for index in range(10000):
            wakeup.arm_at(1.0 + (index % 7) * 0.125)
            assert sim.pending == 1
            assert sim.heap_depth < 2 * sim.COMPACT_MIN
        assert sim.compactions > 100
        assert sim.scheduled == (sim.processed + sim.cancelled_popped
                                 + sim.heap_depth)
        sim.run()
        assert fired == [1.0 + (9999 % 7) * 0.125]
        assert sim.heap_depth == 0


class TestWait:
    """``Simulator.wait``: the one loop blocking-style code pumps."""

    def test_true_at_once_when_done_already_holds(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert sim.wait(lambda: True, 0.0) is True
        assert sim.processed == 0 and sim.now == 0.0

    def test_pumps_until_done(self):
        sim = Simulator()
        out = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, out.append, delay)
        assert sim.wait(lambda: len(out) == 2, 10.0) is True
        assert out == [1.0, 2.0] and sim.now == 2.0
        assert sim.pending == 1

    def test_false_without_advancing_past_the_deadline(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "early")
        sim.schedule(2.0, out.append, "on the deadline")
        sim.schedule(2.5, out.append, "late")
        assert sim.wait(lambda: False, 2.0) is False
        assert out == ["early", "on the deadline"]
        assert sim.now == 2.0 and sim.pending == 1
        # nothing due at all: the clock stays where it is
        assert sim.wait(lambda: False, 0.25) is False
        assert sim.now == 2.0

    def test_false_on_an_empty_heap(self):
        sim = Simulator()
        assert sim.wait(lambda: False, 5.0) is False
        assert sim.now == 0.0

    def test_nested_inside_a_callback_inside_run(self):
        sim = Simulator()
        order = []

        def blocking():
            order.append(("blocking", sim.now))
            assert sim.wait(lambda: ("reply", 2.0) in order, 5.0)
            order.append(("resumed", sim.now))

        sim.schedule(1.0, blocking)
        sim.schedule(1.5, lambda: order.append(("other", sim.now)))
        sim.schedule(2.0, lambda: order.append(("reply", sim.now)))
        sim.schedule(3.0, lambda: order.append(("after", sim.now)))
        assert sim.run(until=2.5) == 1  # the rest ran inside the wait
        assert order == [("blocking", 1.0), ("other", 1.5),
                         ("reply", 2.0), ("resumed", 2.0)]
        assert sim.now == 2.5 and sim.processed == 3
        sim.run()
        assert order[-1] == ("after", 3.0)


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
        the pumped event is charged to its own kind, inside the pumping
        one's cumulative time (no double counting)."""
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
        # the pumped leaf's time is inside pumping's cum: count root
        # entries only — one pumping dispatch and the two leaves the
        # run loop itself dispatched
        root_cum = by_suffix["pumping"].cum + 2 * 2.25
        assert by_suffix["pumping"].cum == 1.0 + 0.5 + 2.25 + 0.125
        assert by_suffix["dispatch"].cum == 0.5 + 2.25
        assert sum(stat.self_time for stat in profiler.stats.values()
                   ) == root_cum == 8.375
        # the hand-placed region is charged to the leaf it ran in
        assert by_suffix["leaf"].cum - by_suffix["leaf"].self_time == \
            by_suffix["transmit"].cum == 3 * 2.0

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
        assert profiler.stats["sorted"].calls == 1
        profiler.reset()
        assert profiler.enabled
        assert profiler.stats == {}
        # the simulator's cached kind names outlive the reset
        sim.schedule(0.0, sorted, ())
        sim.run()
        assert profiler.stats["sorted"].calls == 1

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
        lines = render_regions(profiler.report())
        assert "region" in lines[0]
        assert "busy" in lines[1] and "idle" in lines[2]


# -- NaN from outside input ------------------------------------------------

NAN = float("nan")


def _link(**shaping):
    return Link(Simulator(), Interface("a", None, EthAddr(1)),
                Interface("b", None, EthAddr(2)), **shaping)


def _flap(down_for):
    link = _link()
    try:
        link.flap(down_for)
    finally:
        assert link.up  # refused before the link went down


def _click(config, handler, value):
    router = Router.from_config(config)
    router.write_handler(handler, value)


SHAPED = "Idle -> Queue -> sh :: Shaper(10) -> Unqueue -> Discard;"
DELAYED = "Idle -> dq :: DelayQueue(0.1) -> Unqueue -> Discard;"


@pytest.mark.parametrize("refuse", [
    lambda: Simulator().schedule(NAN, print),
    lambda: Simulator().schedule_at(NAN, print),
    lambda: Simulator().wakeup(print).arm(NAN),
    lambda: _link(delay=NAN),
    lambda: _link(loss=NAN),
    lambda: _link(jitter=NAN),
    lambda: _link(bandwidth=NAN),
    lambda: _link().set_degradation(delay=NAN),
    lambda: _link().set_degradation(loss=NAN),
    lambda: _link().set_degradation(jitter=NAN),
    lambda: _flap(NAN),
    lambda: ResourceBudget(cpu=NAN),
    lambda: _click(SHAPED, "sh.rate", "nan"),
    lambda: _click(DELAYED, "dq.delay", "nan"),
], ids=["schedule", "schedule_at", "wakeup.arm", "link.delay",
        "link.loss", "link.jitter", "link.bandwidth", "degrade.delay",
        "degrade.loss", "degrade.jitter", "link.flap", "budget.cpu",
        "Shaper.rate", "DelayQueue.delay"])
def test_nan_fails_every_range_check(refuse):
    """``json.loads`` reads ``NaN`` and the handlers parse strings, and
    NaN passes every ``x < 0`` test: each check must refuse it."""
    with pytest.raises((SimulationError, ValueError, ConfigError)):
        refuse()
