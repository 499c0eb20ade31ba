"""Tests for the EffectInterpreter interface and the partition interpreter."""

import logging

import pytest

from repro import obs
from repro.core import effects as fx
from repro.core.exceptions import internal
from repro.core.messages import SuspendedMessage
from tests.conftest import make_simple_system, partition_notes

FAULT = internal("fault")


# ----------------------------------------------------------------------
# The abstract dispatch machinery (core.effects.EffectInterpreter)
# ----------------------------------------------------------------------
class TestHandlerNaming:
    def test_camel_case_becomes_snake_case(self):
        assert fx.handler_name(fx.SendTo) == "on_send_to"
        assert fx.handler_name(fx.ChargeTime) == "on_charge_time"
        assert fx.handler_name(fx.AbortNested) == "on_abort_nested"
        assert fx.handler_name(fx.LogEvent) == "on_log_event"


class Recorder(fx.EffectInterpreter):
    """Interpreter recording dispatches, batches and yielded values."""

    def __init__(self):
        super().__init__()
        self.events = []
        self.finished_batches = []

    def begin_batch(self):
        return []

    def finish_batch(self, batch):
        self.finished_batches.append(list(batch))

    def on_log_event(self, effect):
        self.events.append(("log", effect.text))
        self.batch.append(effect.text)

    def on_charge_time(self, effect):
        self.events.append(("charge", effect.kind))
        yield effect.kind


class TestDispatch:
    def test_effects_dispatch_in_order(self):
        recorder = Recorder()
        list(recorder.execute([fx.LogEvent("a"), fx.LogEvent("b")]))
        assert recorder.events == [("log", "a"), ("log", "b")]

    def test_generator_handlers_are_delegated_to(self):
        recorder = Recorder()
        yielded = list(recorder.execute([fx.ChargeTime("resolution"),
                                         fx.LogEvent("after")]))
        assert yielded == ["resolution"]
        assert recorder.events == [("charge", "resolution"), ("log", "after")]

    def test_unknown_effect_raises_by_default(self):
        recorder = Recorder()
        with pytest.raises(NotImplementedError):
            list(recorder.execute([fx.SendTo(("T2",), object())]))

    def test_batch_finishes_after_all_effects(self):
        recorder = Recorder()
        list(recorder.execute([fx.LogEvent("x"), fx.LogEvent("y")]))
        assert recorder.finished_batches == [["x", "y"]]

    def test_nested_execute_uses_its_own_batch(self):
        class Nesting(Recorder):
            def on_charge_time(self, effect):
                yield from self.execute([fx.LogEvent("inner")])

        interpreter = Nesting()
        list(interpreter.execute([fx.LogEvent("before"),
                                  fx.ChargeTime("resolution"),
                                  fx.LogEvent("outer")]))
        # The inner batch completed (and finished) before the outer one,
        # and the outer batch kept collecting after the nested call.
        assert interpreter.finished_batches == [
            ["inner"], ["before", "outer"]]

    def test_interleaved_execute_generators_keep_separate_batches(self):
        # Two execute() generators on the same interpreter can be suspended
        # concurrently (a thread and its dispatcher both waiting out a
        # ChargeTime); completing in any order must not mix their batches.
        recorder = Recorder()
        first = recorder.execute([fx.ChargeTime("resolution"),
                                  fx.LogEvent("first-tail")])
        second = recorder.execute([fx.ChargeTime("resolution"),
                                   fx.LogEvent("second-tail")])
        next(first)                      # both suspend mid-batch
        next(second)
        list(first)                      # first completes while second waits
        list(second)
        assert recorder.finished_batches == [["first-tail"], ["second-tail"]]

    def test_abandoned_batch_is_not_finished(self):
        class Failing(Recorder):
            def on_send_to(self, effect):
                raise RuntimeError("boom")

        interpreter = Failing()
        with pytest.raises(RuntimeError):
            list(interpreter.execute([fx.LogEvent("x"),
                                      fx.SendTo(("T2",), object())]))
        assert interpreter.finished_batches == []


# ----------------------------------------------------------------------
# The concrete partition interpreter
# ----------------------------------------------------------------------
@pytest.fixture
def system():
    return make_simple_system(n_threads=2, resolution_time=0.5)


@pytest.fixture
def partition(system):
    return system.partitions["T1"]


def run_effects(partition, effects):
    partition.kernel.process(partition.execute_effects(effects))
    partition.kernel.run()


class TestPartitionInterpreter:
    def test_log_event_becomes_a_partition_note(self, system, partition):
        obs.observe_system(system)
        run_effects(partition, [fx.LogEvent("hello")])
        assert partition_notes(system, "T1") == ["hello"]

    def test_send_to_reaches_the_network(self, system, partition):
        message = SuspendedMessage("A", "T1")
        run_effects(partition, [fx.SendTo(("T2",), message)])
        assert system.network.stats.by_type["SuspendedMessage"] == 1
        assert system.network.stats.by_link[("T1", "T2")] == 1

    def test_charge_time_advances_virtual_time(self, system, partition):
        run_effects(partition, [fx.ChargeTime("resolution")])
        assert system.now == pytest.approx(0.5)

    def test_charge_time_multiplies_by_count(self, system, partition):
        run_effects(partition, [fx.ChargeTime("resolution", count=3)])
        assert system.now == pytest.approx(1.5)

    def test_abort_nested_records_pending_abort(self, partition):
        run_effects(partition, [fx.AbortNested(("Inner",), "Outer", FAULT)])
        assert partition.pending_abort is not None
        assert partition.pending_abort.covers("Inner")
        assert partition.pending_abort.resume_action == "Outer"
        assert partition.pending_abort.outermost == "Inner"

    def test_interrupt_role_records_suspension(self, system, partition):
        run_effects(partition, [fx.InterruptRole("A", FAULT)])
        assert system.metrics.suspensions == 1

    def test_interrupts_are_deferred_to_batch_end(self, system, partition):
        # The suspension (the visible side effect of the interrupt request)
        # must be recorded only after the trailing ChargeTime let virtual
        # time pass — i.e. at t=0.5, not at t=0.
        seen = []
        original = system.metrics.record_suspension
        system.metrics.record_suspension = \
            lambda thread, action, now: seen.append(now)
        try:
            run_effects(partition, [fx.InterruptRole("A", FAULT),
                                    fx.ChargeTime("resolution")])
        finally:
            system.metrics.record_suspension = original
        assert seen == [pytest.approx(0.5)]

    def test_handle_resolved_for_unknown_frame_is_logged(self, system,
                                                         partition, caplog):
        obs.observe_system(system)
        with caplog.at_level(logging.WARNING):
            run_effects(partition,
                        [fx.HandleResolved("Ghost", FAULT, resolver="T1")])
        assert any("unknown frame" in text
                   for text in partition_notes(system, "T1"))
        assert "unknown frame" in caplog.text
