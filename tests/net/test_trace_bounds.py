"""Regression: the network's envelope trace must not grow without bound.

The trace used to be an unbounded list appended to on every send, which
made long capacity sweeps grow linearly in memory for a debugging aid
nobody was reading.  It is now a bounded ring by default; consumers that
genuinely need every envelope (canonical replay traces) opt in with
``keep_trace=True`` and the digest path refuses to run on an overflowed
ring rather than producing a silently wrong digest.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.simkernel.kernel import Kernel


def build_network(**kwargs):
    kernel = Kernel()
    network = Network(kernel, latency=ConstantLatency(0.0), **kwargs)
    network.add_node("a")
    network.add_node("b")
    return kernel, network


def _bare_system(network):
    """What canonical_trace touches: network, partitions, obs events."""
    return SimpleNamespace(network=network, partitions={},
                           observation=SimpleNamespace(events=[]))


class TestBoundedDefault:
    def test_long_run_memory_is_flat(self):
        _kernel, network = build_network()
        total = Network.TRACE_CAPACITY * 3
        for _ in range(total):
            network.send("a", "b", "ping")
        assert len(network.trace) == Network.TRACE_CAPACITY
        assert network.stats.sent == total  # counters still see everything

    def test_ring_keeps_the_most_recent_envelopes(self):
        kernel, network = build_network()
        for i in range(Network.TRACE_CAPACITY + 10):
            network.send("a", "b", i)
        payloads = [env.payload for env in network.trace]
        assert payloads[0] == 10
        assert payloads[-1] == Network.TRACE_CAPACITY + 9

    def test_short_runs_are_unaffected(self):
        _kernel, network = build_network()
        for i in range(5):
            network.send("a", "b", i)
        assert [env.payload for env in network.trace] == [0, 1, 2, 3, 4]


class TestOptInRetention:
    def test_keep_trace_retains_every_envelope(self):
        _kernel, network = build_network(keep_trace=True)
        total = Network.TRACE_CAPACITY + 100
        for _ in range(total):
            network.send("a", "b", "ping")
        assert len(network.trace) == total

    def test_canonical_trace_refuses_an_overflowed_ring(self):
        from repro.explore.trace import canonical_trace

        _kernel, network = build_network()
        for _ in range(Network.TRACE_CAPACITY + 1):
            network.send("a", "b", "ping")

        with pytest.raises(RuntimeError, match="keep_trace"):
            canonical_trace(_bare_system(network))

    def test_canonical_trace_accepts_a_full_retained_trace(self):
        from repro.explore.trace import canonical_trace

        _kernel, network = build_network(keep_trace=True)
        for _ in range(10):
            network.send("a", "b", "ping")

        text = canonical_trace(_bare_system(network))
        assert text.count("deliver=") == 10


class TestFaultLogBound:
    """``FaultPlan.log`` is a ring too; ``FaultPlan.stats`` counts it all."""

    def test_long_lossy_run_keeps_the_log_at_capacity(self):
        from repro.net.faults import FaultPlan
        from repro.simkernel.rng import SeededStreams

        plan = FaultPlan(streams=SeededStreams(7), drop_probability=0.5)
        kernel, network = build_network(faults=plan)
        total = FaultPlan.LOG_CAPACITY * 4
        sent = [network.send("a", "b", i) for i in range(total)]
        kernel.run()
        draws = SeededStreams(7)
        expected = sum(draws.random("drop") < 0.5 for _ in range(total))
        assert expected > FaultPlan.LOG_CAPACITY
        assert len(plan.log) == FaultPlan.LOG_CAPACITY
        assert plan.stats.dropped == expected
        assert network.stats.dropped == expected
        assert network.stats.delivered == total - expected
        # The ring holds the most recent faults, oldest first.
        dropped = [env for env in sent if env.deliver_time is None]
        recent = dropped[-FaultPlan.LOG_CAPACITY:]
        assert list(plan.log) == [f"dropped {env!r} (probabilistic)"
                                  for env in recent]
