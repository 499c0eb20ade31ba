"""Regression: the real backend counts the wire deliveries it clamps.

``RealNetwork.inject`` cannot deliver a wire message before this
process's clock or before an earlier message on the same link, so it
moves such a delivery later.  That used to happen silently; each clamp
is now counted per link with its largest virtual-time error, and the
count stays out of the message statistics that digests and parity
checks read.
"""

from __future__ import annotations

from repro.net.latency import ConstantLatency
from repro.net.real.realnet import RealNetwork
from repro.simkernel.kernel import Kernel


def build():
    kernel = Kernel()
    network = RealNetwork(kernel, ConstantLatency(0.0), local={"B"},
                          forward=lambda *frame: None)
    network.add_node("A")
    network.add_node("B")
    return kernel, network


def test_on_time_injection_is_not_a_clamp():
    kernel, network = build()
    network.inject("A", "B", "m", deliver_vt=1.0)
    kernel.run()
    assert network.clamps == {}
    assert [e.deliver_time for e in network.node("B").inbox.peek_all()] \
        == [1.0]


def test_late_injection_is_clamped_to_now_and_counted():
    kernel, network = build()
    kernel.run(until=2.0)
    network.inject("A", "B", "late", deliver_vt=1.25)
    kernel.run()
    assert network.clamps[("A", "B")] == (1, 0.75)
    assert network.node("B").inbox.peek_all()[-1].deliver_time == 2.0


def test_injection_behind_the_link_clock_is_counted():
    kernel, network = build()
    network.inject("A", "B", "first", deliver_vt=3.0)
    network.inject("A", "B", "second", deliver_vt=2.5)
    network.inject("A", "B", "third", deliver_vt=2.0)
    kernel.run()
    assert network.clamps[("A", "B")] == (2, 1.0)
    received = network.node("B").inbox.peek_all()
    assert [e.payload for e in received] == ["first", "second", "third"]
    assert [e.deliver_time for e in received] == [3.0, 3.0, 3.0]


def test_clamps_are_per_link_and_out_of_the_statistics():
    kernel, network = build()
    network.add_node("C")
    network.local.add("C")
    kernel.run(until=1.0)
    network.inject("A", "B", "m", deliver_vt=0.5)
    network.inject("A", "C", "m", deliver_vt=1.5)
    kernel.run()
    assert set(network.clamps) == {("A", "B")}
    assert network.clamp_snapshot() == {"A->B": (1, 0.5)}
    snapshot = network.stats.snapshot()
    assert set(snapshot) == {"sent", "delivered", "dropped", "by_type",
                             "by_link"}
    assert snapshot["delivered"] == 2
