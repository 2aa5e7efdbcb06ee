"""Unit tests for coroutine processes, futures and combinators."""

import pytest

from repro.botnet.attacks import AttackStats, udp_plain_flood
from repro.netsim.process import (
    AllOf,
    AnyOf,
    ProcessKilled,
    SimFuture,
    SimProcess,
    Timeout,
)
from repro.netsim.simulator import SimulationError, Simulator
from tests.conftest import drive


class TestSimFuture:
    def test_succeed_delivers_value(self, sim):
        future = SimFuture(sim)
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        future.succeed(42)
        assert seen == [42]
        assert future.ok

    def test_callback_after_resolution_fires_immediately(self, sim):
        future = SimFuture(sim)
        future.succeed("done")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == ["done"]

    def test_fail_records_error(self, sim):
        future = SimFuture(sim)
        future.fail(ValueError("bad"))
        assert future.done and not future.ok
        assert isinstance(future.error, ValueError)

    def test_double_resolution_rejected(self, sim):
        future = SimFuture(sim)
        future.succeed(1)
        with pytest.raises(RuntimeError):
            future.succeed(2)


class TestTimeout:
    def test_timeout_fires_after_delay(self, sim):
        timeout = Timeout(sim, 3.0, value="ping")
        sim.run()
        assert timeout.ok
        assert timeout.value == "ping"
        assert sim.now == 3.0

    def test_cancelled_timeout_never_fires(self, sim):
        timeout = Timeout(sim, 3.0)
        timeout.cancel()
        sim.run()
        assert not timeout.done


class TestSimProcess:
    def test_returns_generator_value(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            return "result"

        assert drive(sim, worker()) == "result"

    def test_receives_future_values(self, sim):
        def worker():
            value = yield Timeout(sim, 1.0, value=10)
            return value * 2

        assert drive(sim, worker()) == 20

    def test_sequential_timeouts_advance_clock(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            yield Timeout(sim, 2.0)
            return sim.now

        assert drive(sim, worker()) == 3.0

    def test_failed_future_raises_inside_generator(self, sim):
        def worker():
            future = SimFuture(sim)
            sim.schedule(1.0, future.fail, RuntimeError("boom"))
            try:
                yield future
            except RuntimeError as error:
                return f"caught {error}"

        assert drive(sim, worker()) == "caught boom"

    def test_uncaught_exception_fails_process(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            raise KeyError("oops")

        process = SimProcess(sim, worker())
        sim.run()
        assert process.done
        assert isinstance(process.error, KeyError)

    def test_yielding_non_future_is_an_error(self, sim):
        def worker():
            yield 42

        process = SimProcess(sim, worker())
        sim.run()
        assert isinstance(process.error, TypeError)

    def test_kill_raises_processkilled(self, sim):
        cleaned = []

        def worker():
            try:
                yield Timeout(sim, 100.0)
            finally:
                cleaned.append(True)

        process = SimProcess(sim, worker())
        sim.schedule(1.0, process.kill)
        sim.run()
        assert cleaned == [True]
        assert isinstance(process.error, ProcessKilled)

    def test_kill_after_completion_is_noop(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            return "ok"

        process = SimProcess(sim, worker())
        sim.run()
        process.kill()
        sim.run()
        assert process.value == "ok"

    def test_process_waits_on_process(self, sim):
        def inner():
            yield Timeout(sim, 2.0)
            return "inner-value"

        def outer():
            value = yield SimProcess(sim, inner())
            return f"got {value}"

        assert drive(sim, outer()) == "got inner-value"

    def test_yield_from_subgenerator(self, sim):
        def helper():
            yield Timeout(sim, 1.0)
            return 5

        def worker():
            value = yield from helper()
            return value + 1

        assert drive(sim, worker()) == 6


class TestSleep:
    def test_float_sleep_advances_clock(self, sim):
        def worker():
            value = yield 1.5
            yield 2.0
            return value, sim.now

        assert drive(sim, worker()) == (None, 3.5)

    def test_sleep_runs_the_same_events_as_a_timeout(self):
        def sleeper(clock, wake_times, use_timeout):
            for delay in (0.25, 0.5, 0.125):
                yield Timeout(clock, delay) if use_timeout else delay
                wake_times.append(clock.now)

        runs = []
        for use_timeout in (True, False):
            clock = Simulator()
            wake_times = []
            SimProcess(clock, sleeper(clock, wake_times, use_timeout))
            clock.run()
            runs.append((wake_times, clock.events_executed))
        assert runs[0] == runs[1]

    def test_flood_killed_between_sleeps_sends_nothing_more(self, sim, two_hosts):
        node_a, node_b, _star = two_hosts
        stats = AttackStats()
        # 52 B payload + 48 B UDP/IPv6 headers at 8 kbps: one packet per 0.1 s
        flood = SimProcess(sim, udp_plain_flood(
            node_a, node_b.primary_address(), 9, duration=10.0,
            payload_size=52, rate_bps=8000.0, stats=stats,
        ))
        sim.schedule(0.25, flood.kill)
        sim.run(until=0.26)
        assert isinstance(flood.error, ProcessKilled)
        assert stats.packets_sent == 3  # t = 0, 0.1, 0.2
        # The sleep pending at the kill still wakes at t = 0.3; it must
        # neither resume the dead generator nor send.
        assert sim.pending_events > 0
        sim.run()
        assert stats.packets_sent == 3
        assert node_a.ip.default_device.tx_packets == 3
        assert isinstance(flood.error, ProcessKilled)

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_bad_sleep_is_raised_inside_generator(self, sim, delay):
        def worker():
            try:
                yield delay
            except SimulationError:
                return "caught"

        assert drive(sim, worker()) == "caught"

    def test_uncaught_bad_sleep_fails_only_the_process(self, sim):
        def worker():
            yield -1.0

        process = SimProcess(sim, worker())
        sim.run()  # the error must not escape the run loop
        assert isinstance(process.error, SimulationError)


class TestCombinators:
    def test_allof_waits_for_every_child(self, sim):
        futures = [Timeout(sim, t) for t in (1.0, 3.0, 2.0)]

        def worker():
            yield AllOf(sim, futures)
            return sim.now

        assert drive(sim, worker()) == 3.0

    def test_allof_with_no_children_resolves_immediately(self, sim):
        both = AllOf(sim, [])
        assert both.done

    def test_anyof_resolves_with_first_child(self, sim):
        fast = Timeout(sim, 1.0, value="fast")
        slow = Timeout(sim, 5.0, value="slow")

        def worker():
            winner = yield AnyOf(sim, [fast, slow])
            return winner.value

        assert drive(sim, worker()) == "fast"

    def test_anyof_identifies_winner_object(self, sim):
        fast = Timeout(sim, 1.0)
        slow = Timeout(sim, 5.0)

        def worker():
            winner = yield AnyOf(sim, [fast, slow])
            return winner is fast

        assert drive(sim, worker()) is True
