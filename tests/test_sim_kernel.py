"""Unit tests for the discrete-event kernel: clock, events, processes."""

import pytest

from repro.sim import Interrupt, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=30.0)
    assert sim.now == 30.0


def test_run_until_is_inclusive_of_events_at_stop_time():
    """run(until=t) processes events scheduled at exactly t."""
    sim = Simulator()
    fired = []
    sim.call_later(3.0, fired.append, "at-stop")
    sim.call_later(3.5, fired.append, "after-stop")
    sim.run(until=3.0)
    assert fired == ["at-stop"]
    assert sim.now == 3.0
    sim.run()
    assert fired == ["at-stop", "after-stop"]


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_nan_rejected():
    """``nan < now`` is false and ``when > nan`` is false: unchecked, the
    run drains the whole queue and leaves the clock at nan."""
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "drained")
    with pytest.raises(ValueError, match="until .*nan"):
        sim.run(until=float("nan"))
    assert fired == [] and sim.now == 0.0
    sim.run(until=2.0)
    assert fired == ["drained"] and sim.now == 2.0


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.call_later(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_waits_for_multiple_timeouts():
    sim = Simulator()
    times = []

    def proc(sim):
        for _ in range(3):
            yield sim.timeout(1.5)
            times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [1.5, 3.0, 4.5]


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter(sim, event):
        value = yield event
        got.append(value)

    sim.process(waiter(sim, event))
    sim.call_later(2.0, event.succeed, "hello")
    sim.run()
    assert got == ["hello"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_process_exception_propagates_to_run():
    """A process that raises makes ``run`` raise at that instant: later
    entries stay queued and the process is over."""
    sim = Simulator()
    later = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("broken process")

    process = sim.process(bad(sim))
    sim.call_later(2.0, later.append, "not reached")
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 1.0 and later == [] and not process.is_alive
    sim.run()
    assert later == ["not reached"]


def test_a_process_that_ends_queues_nothing():
    """A process's start and its waits are its only kernel entries."""
    sim = Simulator()

    def proc(sim):
        yield 2.0
        return "done"

    process = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.0 and sim.events_processed == 2
    assert not process.is_alive and not sim._queue


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def bad(sim):
        yield "soon"  # a number would be a sleep

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()


def test_a_process_is_not_something_to_wait_on():
    sim = Simulator()

    def child(sim):
        yield 4.0

    def parent(sim):
        yield sim.process(child(sim))

    sim.process(parent(sim))
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    log = []

    def proc(sim):
        timeout = sim.timeout(1.0, value="early")
        yield sim.timeout(5.0)
        value = yield timeout  # processed long ago
        log.append((sim.now, value))

    sim.process(proc(sim))
    sim.run()
    assert log == [(5.0, "early")]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    process = sim.process(sleeper(sim))
    sim.call_later(3.0, process.interrupt, "wake-up")
    sim.run()
    assert log == [(3.0, "wake-up")]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    process = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    processes = []

    def selfish(sim):
        yield sim.timeout(0.0)
        processes[0].interrupt()

    processes.append(sim.process(selfish(sim)))
    with pytest.raises(RuntimeError, match="itself"):
        sim.run()


def test_an_interrupt_of_a_process_that_ended_meanwhile_is_dropped():
    """An interrupt queued behind the one that ends its process finds
    the process over and does nothing."""
    sim = Simulator()
    log = []

    def waiter(sim):
        try:
            yield sim.event()
        except Interrupt as interrupt:
            log.append(interrupt.cause)

    process = sim.process(waiter(sim))

    def interrupt_twice():
        process.interrupt("first")  # dispatched first; ends the process
        process.interrupt("too late")

    sim.call_later(1.0, interrupt_twice)
    sim.run()
    assert log == ["first"] and not process.is_alive
    assert sim.events_processed == 4  # start, call, interrupt, spent interrupt


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def tenacious(sim):
        try:
            yield sim.timeout(50.0)
        except Interrupt:
            pass
        yield sim.timeout(2.0)
        log.append(sim.now)

    process = sim.process(tenacious(sim))
    sim.call_later(10.0, process.interrupt)
    sim.run()
    assert log == [12.0]


def test_schedule_callback_with_args():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, lambda a, b: seen.append(a + b), 2, 3)
    sim.run()
    assert seen == [5]


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    process = sim.process(proc(sim))
    assert process.is_alive
    sim.run()
    assert not process.is_alive


def test_public_kernel_surface_is_all_imported_outside_the_kernel():
    """Every name in ``repro.sim.__all__`` is imported by at least one
    module under ``src/repro/`` outside ``sim/`` — the kernel exports
    what the simulator uses and cannot quietly regrow unused surface."""
    import ast
    import pathlib

    import repro
    import repro.sim

    package = pathlib.Path(repro.__file__).parent
    imported = set()
    for path in package.rglob("*.py"):
        if path.is_relative_to(package / "sim"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro.sim" or node.module.startswith("repro.sim.")
            ):
                imported.update(alias.name for alias in node.names)
    assert set(repro.sim.__all__) <= imported, sorted(
        set(repro.sim.__all__) - imported
    )
    assert all(hasattr(repro.sim, name) for name in repro.sim.__all__)


def test_every_public_simulator_method_is_read_off_a_simulator():
    """Every public method of ``Simulator`` is read off a simulator
    (``sim.run``, ``self.sim.timeout``) by a module under ``src/repro/``
    outside ``sim/`` or under ``perf/``.  The receiver is matched, not
    only the name, so another class's ``peek`` keeps no
    ``Simulator.peek`` alive."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    package = root / "src" / "repro"
    paths = [p for p in package.rglob("*.py") if not p.is_relative_to(package / "sim")]
    paths += (root / "perf").rglob("*.py")
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id == "sim" or (
                isinstance(receiver, ast.Attribute) and receiver.attr == "sim"
            ):
                read.add(node.attr)
    public = {
        name
        for name, value in vars(Simulator).items()
        if callable(value) and not name.startswith("_")
    }
    assert public and public <= read, sorted(public - read)
