"""Direct unit tests of the partition dispatcher subsystem."""

import logging

import pytest

from repro import obs
from repro.core.exceptions import internal
from repro.core.messages import (
    ApplicationMessage,
    EnterActionMessage,
    ExitReadyMessage,
    ToBeSignalledMessage,
)
from tests.conftest import make_simple_system, partition_notes

FAULT = internal("fault")


def drive(generator):
    """Run a dispatch generator to completion, collecting anything it yields."""
    return list(generator)


@pytest.fixture
def partition():
    return make_simple_system(n_threads=3).partitions["T1"]


class TestEntryExitBookkeeping:
    def test_entry_announcements_accumulate(self, partition):
        dispatcher = partition.dispatcher
        assert not dispatcher.entry_complete("A#1", {"T2", "T3"})
        drive(dispatcher.dispatch(EnterActionMessage("A", "T2", "r2", "A#1")))
        assert not dispatcher.entry_complete("A#1", {"T2", "T3"})
        drive(dispatcher.dispatch(EnterActionMessage("A", "T3", "r3", "A#1")))
        assert dispatcher.entry_complete("A#1", {"T2", "T3"})

    def test_entry_wait_event_triggers_on_last_announcement(self, partition):
        dispatcher = partition.dispatcher
        drive(dispatcher.dispatch(EnterActionMessage("A", "T2", "r2", "A#1")))
        event = dispatcher.register_entry_wait("A#1", {"T2", "T3"})
        assert not event.triggered
        drive(dispatcher.dispatch(EnterActionMessage("A", "T3", "r3", "A#1")))
        assert event.triggered

    def test_cleared_entry_wait_is_not_triggered(self, partition):
        dispatcher = partition.dispatcher
        event = dispatcher.register_entry_wait("A#1", {"T2"})
        dispatcher.clear_entry_wait("A#1")
        drive(dispatcher.dispatch(EnterActionMessage("A", "T2", "r2", "A#1")))
        assert not event.triggered

    def test_exit_bookkeeping_mirrors_entry(self, partition):
        dispatcher = partition.dispatcher
        event = dispatcher.register_exit_wait("A#1", {"T2"})
        drive(dispatcher.dispatch(
            ExitReadyMessage("A", "T2", "success", "A#1")))
        assert dispatcher.exit_complete("A#1", {"T2"})
        assert event.triggered

    def test_instances_are_tracked_separately(self, partition):
        dispatcher = partition.dispatcher
        drive(dispatcher.dispatch(EnterActionMessage("A", "T2", "r2", "A#1")))
        assert dispatcher.entry_complete("A#1", {"T2"})
        assert not dispatcher.entry_complete("A#2", {"T2"})


class TestRouting:
    def test_application_message_reaches_mailbox(self, partition):
        kernel = partition.kernel
        message = ApplicationMessage(action="A#1", sender="T2",
                                     recipient="T1", tag="data", body=41)
        drive(partition.dispatcher.dispatch(message))
        received = []

        def consumer():
            received.append((yield partition.dispatcher.mailbox("A#1",
                                                                "data").get()))

        kernel.process(consumer())
        kernel.run()
        assert received == [41]

    def test_mailboxes_are_per_instance_and_tag(self, partition):
        dispatcher = partition.dispatcher
        assert dispatcher.mailbox("A#1", "x") is dispatcher.mailbox("A#1", "x")
        assert dispatcher.mailbox("A#1", "x") is not dispatcher.mailbox("A#1",
                                                                       "y")
        assert dispatcher.mailbox("A#1", "x") is not dispatcher.mailbox("A#2",
                                                                       "x")

    def test_signalling_message_parked_without_frame(self, partition):
        message = ToBeSignalledMessage("A", "T2", FAULT)
        drive(partition.dispatcher.dispatch(message))
        assert partition.dispatcher.take_pending_signals("A") == [message]
        # Taking the pending list empties it.
        assert partition.dispatcher.take_pending_signals("A") == []

    def test_protocol_message_feeds_coordinator(self, partition):
        # Without an active action the coordinator retains the message; the
        # dispatcher must not crash and must not emit effects.
        from repro.core.messages import ExceptionMessage
        drive(partition.dispatcher.dispatch(
            ExceptionMessage("A", "T2", FAULT)))
        assert partition.coordinator.retained

    def test_unknown_payload_is_noted(self, partition):
        system = partition.system
        obs.observe_system(system)
        drive(partition.dispatcher.dispatch(object()))
        assert any("unhandled payload" in text
                   for text in partition_notes(system, "T1"))

    def test_unknown_payload_is_logged(self, partition, caplog):
        # Reported even with observability off: never a silent drop.
        with caplog.at_level(logging.WARNING):
            drive(partition.dispatcher.dispatch(object()))
        assert any(record.levelno == logging.WARNING
                   and "unhandled payload" in record.getMessage()
                   for record in caplog.records)
