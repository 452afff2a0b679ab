"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    KERNELS,
    Delay,
    Future,
    Interrupt,
    SimulationDeadlock,
    Simulator,
    make_simulator,
)


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, seen.append, "c")
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_in_insertion_order():
    sim = Simulator()
    seen = []
    for tag in range(8):
        sim.schedule(5, seen.append, tag)
    sim.run()
    assert seen == list(range(8))


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(25, seen.append, "x"))
    sim.run()
    assert seen == ["x"]
    assert sim.now == 25


def test_schedule_at_past_rejected():
    sim = Simulator()

    def later():
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    sim.schedule(10, later)
    sim.run()


def test_event_cancellation():
    sim = Simulator()
    seen = []
    handle = sim.schedule(10, seen.append, "cancelled")
    sim.schedule(10, seen.append, "kept")
    handle.cancel()
    sim.run()
    assert seen == ["kept"]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, "early")
    sim.schedule(100, seen.append, "late")
    sim.run(until=50)
    assert seen == ["early"]
    assert sim.now == 50
    sim.run()
    assert seen == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(i, seen.append, i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert seen == [0, 1, 2]


def test_process_delays_advance_time():
    sim = Simulator()
    marks = []

    def body():
        marks.append(sim.now)
        yield 100
        marks.append(sim.now)
        yield Delay(50)
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [0, 100, 150]


def test_process_returns_value_via_join():
    sim = Simulator()

    def child():
        yield 10
        return 42

    def parent():
        result = yield sim.spawn(child(), name="child")
        return result

    proc = sim.spawn(parent(), name="parent")
    sim.run()
    assert proc.done
    assert proc.value == 42


def test_future_resolution_wakes_process_with_value():
    sim = Simulator()
    future = Future()
    got = []

    def waiter():
        value = yield future
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(77, future.set_result, "hello")
    sim.run()
    assert got == [(77, "hello")]


def test_future_exception_propagates_into_process():
    sim = Simulator()
    future = Future()
    caught = []

    def waiter():
        try:
            yield future
        except ValueError as err:
            caught.append(str(err))

    sim.spawn(waiter())
    sim.schedule(5, future.set_exception, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_yielding_already_resolved_future_resumes_immediately():
    sim = Simulator()
    future = Future()
    future.set_result("ready")
    got = []

    def waiter():
        got.append((yield future))

    sim.spawn(waiter())
    sim.run()
    assert got == ["ready"]
    assert sim.now == 0


def test_process_failure_is_reported_by_run():
    sim = Simulator()

    def bad():
        yield 1
        raise RuntimeError("kaboom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_failure_collected_when_not_strict():
    sim = Simulator()
    sim.strict_failures = False

    def bad():
        yield 1
        raise RuntimeError("kaboom")

    proc = sim.spawn(bad(), name="bad")
    sim.run()
    assert proc.done
    assert isinstance(sim.failures[0][1], RuntimeError)


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yielding_garbage_fails_the_process():
    sim = Simulator()
    sim.strict_failures = False

    def bad():
        yield object()

    proc = sim.spawn(bad(), name="bad")
    sim.run()
    assert proc.done
    assert isinstance(proc.exception, TypeError)


def test_negative_delay_fails_the_process():
    sim = Simulator()
    sim.strict_failures = False

    def bad():
        yield -5

    proc = sim.spawn(bad(), name="bad")
    sim.run()
    assert isinstance(proc.exception, ValueError)


def test_interrupt_during_delay_cancels_sleep():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 1_000_000
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.spawn(sleeper(), name="sleeper")
    sim.schedule(50, proc.interrupt, "preempt")
    sim.run()
    assert log == [("interrupted", 50, "preempt")]
    # Crucially the stale delay wakeup at t=1_000_000 must not
    # resume the generator a second time (log stays length 1).
    assert len(log) == 1


def test_interrupt_during_future_wait_suppresses_stale_wakeup():
    sim = Simulator()
    future = Future()
    log = []

    def waiter():
        try:
            value = yield future
            log.append(("value", value))
        except Interrupt:
            log.append("interrupted")
            # Go back to sleep on a delay after the interrupt.
            yield 100
            log.append(("resumed", sim.now))

    proc = sim.spawn(waiter(), name="waiter")
    sim.schedule(10, proc.interrupt, None)
    sim.schedule(20, future.set_result, "late")  # must be ignored
    sim.run()
    assert log == ["interrupted", ("resumed", 110)]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield 1

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("too late")
    sim.run()
    assert proc.done


def test_uncaught_interrupt_terminates_process_with_cause_as_value():
    sim = Simulator()

    def sleeper():
        yield 1_000

    proc = sim.spawn(sleeper(), name="sleeper")
    sim.schedule(5, proc.interrupt, "killed")
    sim.run()
    assert proc.done
    assert proc.value == "killed"


def test_run_until_done_raises_deadlock_when_heap_drains():
    sim = Simulator()
    future = Future()  # never resolved

    def stuck():
        yield future

    proc = sim.spawn(stuck(), name="stuck")
    with pytest.raises(SimulationDeadlock):
        sim.run_until_done([proc])


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_done_timeout_runs_nothing_past_the_limit(kernel):
    # Events at t <= limit_ns run and none later does, on both kernels:
    # the spinner's first step runs at t=0, while its t=10 step and the
    # three t=10 callbacks stay queued.
    sim = make_simulator(kernel)
    fired = []

    def spin():
        while True:
            yield 10

    proc = sim.spawn(spin(), name="spinner")
    for i in range(3):
        sim._post(10, fired.append, (i,))
    with pytest.raises(TimeoutError) as excinfo:
        sim.run_until_done([proc], limit_ns=5)
    assert "spinner" in str(excinfo.value)
    assert (sim.now, sim.events_executed, fired) == (0, 1, [])
    assert sim.pending_events == 4
    sim.run(until=10)
    assert fired == [0, 1, 2]


def test_run_check_deadlock_flag():
    sim = Simulator()
    future = Future()

    def stuck():
        yield future

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(SimulationDeadlock) as excinfo:
        sim.run(check_deadlock=True)
    assert "stuck" in str(excinfo.value)


def test_timeout_future():
    sim = Simulator()
    times = []

    def body():
        yield sim.timeout(123)
        times.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert times == [123]


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(tag, period):
        for _ in range(3):
            yield period
            order.append((sim.now, tag))

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 15))
    sim.run()
    # At t=30 both wake; "b" scheduled its wakeup first (at t=15, vs
    # "a" at t=20), so insertion order puts "b" first — deterministic.
    assert order == [
        (10, "a"),
        (15, "b"),
        (20, "a"),
        (30, "b"),
        (30, "a"),
        (45, "b"),
    ]


def test_yield_none_is_cooperative_reschedule():
    sim = Simulator()
    order = []

    def one():
        order.append("one-start")
        yield None
        order.append("one-end")

    def two():
        order.append("two-start")
        yield None
        order.append("two-end")

    sim.spawn(one())
    sim.spawn(two())
    sim.run()
    assert order == ["one-start", "two-start", "one-end", "two-end"]


def test_waitable_value_raises_before_completion():
    future = Future()
    with pytest.raises(RuntimeError):
        _ = future.value


def test_future_double_completion_rejected():
    future = Future()
    future.set_result(1)
    with pytest.raises(RuntimeError):
        future.set_result(2)
