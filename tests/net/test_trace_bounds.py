"""Regression: the network keeps no per-message record of its own.

The network used to append every envelope to a 4096-entry ring
(``Network.trace``, unbounded with an opt-in), every node kept a
4096-entry ring of received envelopes, and the fault plan kept a ring of
formatted fault descriptions.  Long capacity runs held thousands of dead
envelopes, and the canonical trace refused to render more messages than
the ring held.  The record of a message is now its ``message.sent`` obs
event, emitted once the message's fate is known; counters still count
every message and every fault.
"""

from __future__ import annotations

import weakref
from types import SimpleNamespace

import pytest

from repro import obs
from repro.explore.trace import canonical_trace
from repro.net import network as network_module
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import SeededStreams

#: The size of each of the deleted rings; the tests run well past it.
OLD_RING = 4096

#: An event list and nothing else (no metrics, no flight ring).
EVENTS_ONLY = obs.ObsConfig(metrics=False, flight_recorder=False)


def build_network(faults=None):
    kernel = Kernel()
    network = Network(kernel, latency=ConstantLatency(0.0), faults=faults)
    network.add_node("a")
    network.add_node("b")
    return kernel, network


def observe(network):
    """A bare system for ``canonical_trace`` with an observed network."""
    system = SimpleNamespace(kernel=network.kernel, network=network,
                             partitions={})
    system.observation = obs.SystemObservation(system, EVENTS_ONLY)
    network._obs = system.observation
    return system


def consume_forever(node):
    while True:
        yield node.inbox.get()


def sent_events(system):
    return [event for event in system.observation.events
            if event["kind"] == "message.sent"]


class TestNoRetention:
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    def test_a_long_run_leaves_no_live_envelope(self, monkeypatch,
                                                observed):
        live = weakref.WeakSet()

        class CensusEnvelope(network_module.Envelope):
            __slots__ = ("__weakref__",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)

        monkeypatch.setattr(network_module, "Envelope", CensusEnvelope)
        plan = FaultPlan(streams=SeededStreams(3), drop_probability=0.25)
        kernel, network = build_network(plan)
        network.add_node("dead").crash()
        if observed:
            observe(network)
        kernel.process(consume_forever(network.node("b")))

        def sender():
            for i in range(3 * OLD_RING + 100):
                network.send("a", "b", i)
                yield kernel.timeout(0.001)
            for _ in range(4):
                network.send("a", "dead", "lost")

        kernel.process(sender())
        kernel.run()

        stats = network.stats
        assert stats.sent == 3 * OLD_RING + 104
        assert plan.stats.dropped > 0
        assert stats.dropped > plan.stats.dropped  # + dead-target drops
        assert stats.delivered == stats.sent - stats.dropped
        assert len(live) == 0


class TestCanonicalTraceFromEvents:
    def test_renders_more_messages_than_the_old_ring_with_no_opt_in(self):
        kernel, network = build_network()
        system = observe(network)
        total = OLD_RING + 10
        for i in range(total):
            network.send("a", "b", i)
        kernel.run()
        text = canonical_trace(system)
        lines = [line for line in text.splitlines() if "deliver=" in line]
        assert len(lines) == total
        assert lines[0] == "#0 t=0.000000000 a->b 0 deliver=0.000000000"
        assert lines[-1].startswith(f"#{total - 1} t=0.000000000 a->b "
                                    f"{total - 1} deliver=")

    def test_dropped_and_corrupted_messages_render_their_fate(self):
        plan = FaultPlan()
        plan.drop_nth_message("a", "b", 1)
        plan.corrupt_nth_message("a", "b", 2)
        kernel, network = build_network(plan)
        system = observe(network)
        network.send("a", "b", "x")
        network.send("a", "b", "y")
        kernel.run()
        network_section = canonical_trace(system).split(
            "== network ==\n")[1].split("\n== coordinators ==")[0]
        assert network_section.splitlines() == [
            "#0 t=0.000000000 a->b 'x' deliver=dropped",
            "#1 t=0.000000000 a->b 'y' deliver=0.000000000 corrupted",
        ]


class TestMessageSentRecord:
    def test_event_carries_payload_fate_and_corruption(self):
        plan = FaultPlan()
        plan.drop_nth_message("a", "b", 2)
        plan.corrupt_nth_message("a", "b", 3)
        plan.add_link_delay("a", "b", 0.5)
        kernel = Kernel()
        network = Network(kernel, latency=ConstantLatency(0.25),
                          faults=plan)
        network.add_node("a")
        network.add_node("b")
        system = observe(network)
        envelopes = [network.send("a", "b", payload)
                     for payload in ("one", "two", "three")]
        kernel.run()
        events = sent_events(system)
        assert [event["seq"] for event in events] == [1, 2, 3]
        assert [event["payload"] for event in events] == [
            "'one'", "'two'", "'three'"]
        assert [event["deliver"] for event in events] == [
            envelope.deliver_time for envelope in envelopes]
        assert [event["deliver"] for event in events] == [0.75, None, 0.75]
        assert [event["corrupted"] for event in events] == [
            False, False, True]

    def test_a_fault_drop_is_sent_then_dropped(self):
        plan = FaultPlan()
        plan.drop_nth_message("a", "b", 1)
        kernel, network = build_network(plan)
        system = observe(network)
        network.send("a", "b", "gone")
        kinds = [(event["kind"], event.get("reason"))
                 for event in system.observation.events]
        assert kinds == [("message.sent", None),
                         ("message.dropped", "fault")]


class TestFaultCounting:
    """``FaultPlan.stats`` and the ``message.dropped`` events count it all."""

    def test_long_lossy_run_counts_every_fault(self):
        plan = FaultPlan(streams=SeededStreams(7), drop_probability=0.5)
        kernel, network = build_network(plan)
        system = observe(network)
        total = OLD_RING * 4
        sent = [network.send("a", "b", i) for i in range(total)]
        kernel.run()
        draws = SeededStreams(7)
        expected = sum(draws.random("drop") < 0.5 for _ in range(total))
        assert expected > OLD_RING
        assert plan.stats.dropped == expected
        assert network.stats.dropped == expected
        assert network.stats.delivered == total - expected
        dropped = [event for event in system.observation.events
                   if event["kind"] == "message.dropped"]
        assert [event["reason"] for event in dropped] == ["fault"] * expected
        assert [event["payload"] for event in sent_events(system)
                if event["deliver"] is None] == [
            repr(envelope.payload) for envelope in sent
            if envelope.deliver_time is None]
