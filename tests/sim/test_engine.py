"""The discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, HeapTimeQueue, SimulationError

#: A delay far beyond anything a kernel schedules in one step.
FAR = float(1 << 20)


class TestScheduling:
    def test_time_starts_at_zero(self, engine):
        assert engine.now == 0

    def test_callbacks_run_in_time_order(self, engine):
        order = []
        engine.schedule(5, lambda: order.append("b"))
        engine.schedule(2, lambda: order.append("a"))
        engine.schedule(9, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9

    def test_ties_run_fifo(self, engine):
        order = []
        for tag in "abc":
            engine.schedule(3, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self, engine):
        engine.schedule(5, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1, lambda: None)

    def test_run_until_stops_early(self, engine):
        hits = []
        engine.schedule(10, lambda: hits.append(1))
        engine.run(until=5)
        assert not hits
        assert engine.now == 5
        engine.run()
        assert hits == [1]

    def test_run_until_the_past_is_rejected(self, engine):
        engine.schedule(20, lambda: None)
        engine.run(until=12)
        with pytest.raises(SimulationError, match="past"):
            engine.run(until=5)
        # The clock never rewinds, so t=7 stays in the past.
        assert engine.now == 12
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(7, lambda: None)
        assert engine.run(until=12) == 12


class TestProcesses:
    def test_delay_advances_time(self, engine):
        def proc():
            yield 10
            yield 5
            return engine.now

        assert engine.run_process(proc()) == 15

    def test_return_value(self, engine):
        def proc():
            yield 1
            return "done"

        assert engine.run_process(proc()) == "done"

    def test_zero_delay_allowed(self, engine):
        def proc():
            yield 0
            return True

        assert engine.run_process(proc()) is True

    def test_negative_delay_raises_inside_process(self, engine):
        def proc():
            yield -3

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_yielding_garbage_raises(self, engine):
        def proc():
            yield "not a delay"

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_process_waits_on_event(self, engine):
        ev = engine.event("gate")

        def opener():
            yield 7
            ev.succeed("payload")

        def waiter():
            value = yield ev
            return engine.now, value

        engine.process(opener())
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (7, "payload")

    def test_process_waits_on_process(self, engine):
        def child():
            yield 4
            return 42

        def parent():
            result = yield engine.process(child())
            return result + 1

        assert engine.run_process(parent()) == 43

    def test_event_failure_propagates(self, engine):
        ev = engine.event()

        def failer():
            yield 1
            ev.fail(RuntimeError("boom"))

        def waiter():
            yield ev

        engine.process(failer())
        proc = engine.process(waiter())
        engine.run()
        with pytest.raises(RuntimeError, match="boom"):
            proc.value

    def test_exception_can_be_caught_in_process(self, engine):
        ev = engine.event()

        def failer():
            yield 1
            ev.fail(ValueError("expected"))

        def waiter():
            try:
                yield ev
            except ValueError:
                return "recovered"

        engine.process(failer())
        assert engine.run_process(waiter()) == "recovered"

    def test_deadlock_detected_by_run_process(self, engine):
        ev = engine.event("never")

        def stuck():
            yield ev

        with pytest.raises(SimulationError, match="did not finish"):
            engine.run_process(stuck())


class TestEvents:
    def test_double_trigger_rejected(self, engine):
        ev = engine.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self, engine):
        ev = engine.event("pending")
        with pytest.raises(SimulationError):
            ev.value

    def test_waiting_on_triggered_event_resumes_immediately(self, engine):
        ev = engine.event()
        ev.succeed(5)

        def proc():
            value = yield ev
            return engine.now, value

        assert engine.run_process(proc()) == (0, 5)

    def test_timeout(self, engine):
        def proc():
            yield engine.timeout(12)
            return engine.now

        assert engine.run_process(proc()) == 12

    def test_all_of_waits_for_every_event(self, engine):
        events = [engine.event(str(i)) for i in range(3)]
        for delay, ev in zip((3, 9, 6), events):
            engine.schedule(delay, lambda e=ev, d=delay: e.succeed(d))

        def proc():
            values = yield engine.all_of(events)
            return engine.now, values

        assert engine.run_process(proc()) == (9, [3, 9, 6])

    def test_all_of_empty_fires_now(self, engine):
        def proc():
            values = yield engine.all_of([])
            return values

        assert engine.run_process(proc()) == []

    def test_livelock_guard(self, engine):
        def spinner():
            while True:
                yield 0

        engine.process(spinner())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=1000)


class TestMaxEventsBoundary:
    """The guard raises when the (max_events + 1)-th callback is
    *attempted* — never after silently executing it."""

    def test_exactly_max_events_completes(self, engine):
        ran = []
        for i in range(5):
            engine.schedule(i, lambda i=i: ran.append(i))
        assert engine.run(max_events=5) == 4
        assert ran == [0, 1, 2, 3, 4]

    def test_one_past_the_guard_raises_without_executing(self, engine):
        ran = []
        for i in range(6):
            engine.schedule(i, lambda i=i: ran.append(i))
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=5)
        assert ran == [0, 1, 2, 3, 4]

    def test_guard_applies_to_the_deque_fast_path_too(self, engine):
        ran = []
        for i in range(6):
            engine.schedule(engine.now, lambda i=i: ran.append(i))
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=5)
        assert ran == [0, 1, 2, 3, 4]

    def test_guard_bounds_polling_on_a_triggered_event(self, engine):
        """Every wakeup of an already-triggered event is one counted
        callback, so a poll-forever loop stops at the guard."""
        done = engine.event("done")
        done.succeed()
        polls = []

        def poller():
            while True:
                yield done
                polls.append(engine.now)

        engine.process(poller())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=100)
        assert engine.events_processed == 100
        # One callback starts the process; each later one is one poll.
        assert len(polls) == 99


class TestFarFuture:
    """Engine edges with far-future entries and same-time storms."""

    def test_zero_delay_self_reschedule_storm(self, engine):
        """A process re-arming zero timeouts must interleave FIFO-fairly."""
        order = []

        def storm(pid, n):
            for i in range(n):
                yield engine.timeout(0)
                order.append((engine.now, pid, i))

        engine.process(storm("a", 50))
        engine.process(storm("b", 50))
        engine.run()
        assert engine.now == 0
        # Strict round-robin: both processes alternate at time zero.
        assert order == [(0, pid, i) for i in range(50) for pid in ("a", "b")]

    def test_far_future_timeouts_fire_in_order(self, engine):
        delays = [0, 1, FAR - 1, FAR + 3, 2.5 * FAR, 10 * FAR]
        fired = []
        for d in delays:
            engine.timeout(d).add_callback(
                lambda ev, d=d: fired.append((engine.now, d)))
        engine.run()
        assert fired == [(d, d) for d in sorted(delays)]
        assert engine.now == 10 * FAR

    def test_max_events_boundary_with_far_future_entries(self, engine):
        def ticker():
            for _ in range(10):
                yield 2 * FAR   # every resume costs one callback

        engine.process(ticker())
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=3)
        # Exactly 3 callbacks ran (start, two resumes); the 4th was
        # refused before the clock advanced to it.
        assert engine.events_processed == 3
        assert engine.now == 4 * FAR

    def test_exactly_max_events_completes_with_far_future_entries(
            self, engine):
        fired = []
        for i in range(3):
            engine.timeout((i + 1) * 3 * FAR).add_callback(
                lambda ev, i=i: fired.append(i))
        # Each timeout costs two callbacks: the succeed, then the waiter.
        engine.run(max_events=6)
        assert fired == [0, 1, 2]


def _drain(q):
    out = []
    while q.size:
        head = q.head
        entry = q.pop()
        assert entry[:2] == head[:2]
        assert q.head is None or q.head[:2] > entry[:2]
        out.append(entry[:2])
    assert q.head is None
    return out


class TestHeapTimeQueue:
    """The time heap pops by ``(at, ticket)`` and keeps ``head`` current."""

    @given(ats=st.lists(st.floats(min_value=0, max_value=1e9,
                                  allow_nan=False, width=32), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_drains_in_at_ticket_order(self, ats):
        q = HeapTimeQueue()
        for ticket, at in enumerate(ats):
            q.push(at, ticket, None)
            assert q.head[:2] == min((a, t) for t, a in
                                     enumerate(ats[:ticket + 1]))
            assert q.size == ticket + 1
        assert _drain(q) == sorted((at, t) for t, at in enumerate(ats))

    @given(ats=st.lists(st.floats(min_value=0, max_value=1e9,
                                  allow_nan=False, width=32),
                        min_size=1, max_size=120),
           pops=st.lists(st.integers(min_value=0, max_value=3),
                         max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_interleaved_push_pop_matches_sorted_reference(self, ats, pops):
        q = HeapTimeQueue()
        pending = []
        it = iter(pops + [0] * len(ats))
        for ticket, at in enumerate(ats):
            q.push(at, ticket, None)
            pending.append((at, ticket))
            for _ in range(next(it)):
                if not q.size:
                    break
                pending.sort()
                assert q.pop()[:2] == pending.pop(0)
                assert q.head is None or q.head[:2] == min(pending)
        assert _drain(q) == sorted(pending)

    def test_equal_time_ties_break_by_ticket(self):
        q = HeapTimeQueue()
        for ticket in (5, 1, 3):
            q.push(3 * FAR, ticket, f"cb{ticket}")
        assert [q.pop()[1] for _ in range(3)] == [1, 3, 5]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            HeapTimeQueue().pop()
