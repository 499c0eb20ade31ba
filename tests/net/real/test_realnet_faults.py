"""Regression: the real backend's wire path honours the fault plan.

``RealNetwork.send`` used to stamp and forward a message for a remote
node on a path of its own that never consulted ``self.faults``, so a
fault plan silently applied only to intra-process traffic.  Local and
remote sends now share :meth:`Network.send`'s sequence — counters, fault
plan, FIFO clamp, obs — and differ only in the last step: a remote
message is forwarded with the stamped delivery time and corruption flag
instead of being scheduled locally.  No child process is started; the
forwarder records the frames it is handed.
"""

from __future__ import annotations

from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.real.realnet import RealNetwork
from repro.simkernel.kernel import Kernel


class Ping:
    pass


class CommitMessage:
    pass


def build(faults=None, latency=0.1):
    """Node ``A`` is local, ``B`` lives in another process."""
    kernel = Kernel()
    forwarded = []
    network = RealNetwork(kernel, ConstantLatency(latency), local={"A"},
                          forward=lambda *frame: forwarded.append(frame),
                          faults=faults)
    network.add_node("A")
    network.add_node("B")
    return kernel, network, forwarded


def test_a_dropped_remote_message_is_not_forwarded():
    faults = FaultPlan()
    faults.drop_nth_message("A", "B", 2)
    _kernel, network, forwarded = build(faults)
    envelopes = [network.send("A", "B", n) for n in (1, 2, 3)]
    assert [frame[2] for frame in forwarded] == [1, 3]
    assert envelopes[1].deliver_time is None
    assert network.stats.sent == 3
    assert network.stats.dropped == 1
    assert faults.stats.dropped == 1


def test_a_type_delay_moves_the_forwarded_delivery_time():
    faults = FaultPlan()
    faults.delay_message_type("A", "B", "CommitMessage", 0.5)
    _kernel, network, forwarded = build(faults)
    network.send("A", "B", Ping())
    network.send("A", "B", CommitMessage())
    # (source, destination, payload, send_vt, deliver_vt, corrupted)
    assert [(type(frame[2]).__name__, frame[4]) for frame in forwarded] \
        == [("Ping", 0.1), ("CommitMessage", 0.6)]
    assert faults.stats.delayed == 1


def test_the_remote_link_keeps_fifo_under_a_delay():
    faults = FaultPlan()
    faults.delay_nth_message("A", "B", 1, 1.0)
    _kernel, network, forwarded = build(faults)
    network.send("A", "B", "first")
    network.send("A", "B", "second")
    assert [frame[4] for frame in forwarded] == [1.1, 1.1]


def test_corruption_travels_with_the_frame():
    faults = FaultPlan()
    faults.corrupt_nth_message("A", "B", 1)
    _kernel, network, forwarded = build(faults)
    network.send("A", "B", "bad")
    network.send("A", "B", "good")
    assert [frame[5] for frame in forwarded] == [True, False]

    kernel, receiver, _ = build()
    receiver.local = {"B"}
    for source, destination, payload, _send, deliver, corrupted \
            in forwarded:
        receiver.inject(source, destination, payload, deliver, corrupted)
    kernel.run()
    assert [(e.payload, e.corrupted)
            for e in receiver.node("B").inbox.peek_all()] \
        == [("bad", True), ("good", False)]


def test_local_traffic_is_scheduled_not_forwarded():
    faults = FaultPlan()
    faults.drop_nth_message("B", "A", 1)
    kernel, network, forwarded = build(faults)
    network.send("B", "A", "dropped")
    network.send("B", "A", "kept")
    kernel.run()
    assert forwarded == []
    assert [e.payload for e in network.node("A").inbox.peek_all()] \
        == ["kept"]
    assert network.stats.dropped == 1


def test_a_worker_process_forwards_to_the_remote_object_host():
    # The object host is registered (as a stub) in every process, so a
    # worker's RPC to it takes the one send sequence and is forwarded.
    # Both workers run in this process, wired to each other in lockstep.
    from repro.net.real.scenarios import REAL_SCENARIOS, spec_params

    spec = REAL_SCENARIOS["transactional"]
    networks, links = {}, []

    def forward(source, destination, payload, _send_vt, deliver_vt,
                corrupted):
        links.append((source, destination))
        if destination in networks:
            networks[destination].inject(source, destination, payload,
                                         deliver_vt, corrupted)

    for worker in ("W1", "W2"):
        built = spec.build(spec_params(spec, {}), worker, forward)
        networks[worker] = built.system.network
    for step in range(1, 21):
        for network in networks.values():
            network.kernel.run(until=step * 0.05)
    assert ("W1", "objhost") in links
