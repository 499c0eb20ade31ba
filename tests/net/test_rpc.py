"""Direct unit tests for the asynchronous RPC layer (net/rpc.py)."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint, RpcReply, RpcRequest
from repro.simkernel.kernel import Kernel


def build_pair(latency: float = 0.1):
    kernel = Kernel()
    network = Network(kernel, latency=ConstantLatency(latency))
    alpha = RpcEndpoint(network.add_node("alpha"), network)
    beta = RpcEndpoint(network.add_node("beta"), network)
    return kernel, network, alpha, beta


def record_sends(network):
    """Collect the envelope each ``network.send`` returns, in send order."""
    envelopes = []
    send = network.send

    def recording_send(source, destination, payload):
        envelopes.append(send(source, destination, payload))
        return envelopes[-1]

    network.send = recording_send
    return envelopes


class TestOneWayCalls:
    def test_oneway_invokes_registered_handler(self):
        kernel, _network, alpha, beta = build_pair()
        calls = []
        beta.register("note", lambda *args, **kwargs: calls.append(
            (args, kwargs)))
        alpha.call_oneway("beta", "note", 1, 2, flag=True)
        kernel.run()
        assert calls == [((1, 2), {"flag": True})]

    def test_oneway_to_unknown_procedure_is_dropped_silently(self):
        kernel, network, alpha, _beta = build_pair()
        alpha.call_oneway("beta", "missing")
        kernel.run()
        # The message was still sent and delivered at the network level.
        assert network.stats.sent == 1
        assert network.stats.delivered == 1

    def test_register_twice_is_an_error_and_unregister_frees_the_name(self):
        _kernel, _network, _alpha, beta = build_pair()
        beta.register("p", lambda: None)
        with pytest.raises(ValueError):
            beta.register("p", lambda: None)
        beta.unregister("p")
        beta.register("p", lambda: 42)  # no error after unregister
        beta.unregister("never-registered")  # idempotent


class TestRequestReply:
    def test_call_returns_reply_value(self):
        kernel, _network, alpha, beta = build_pair()
        beta.register("add", lambda a, b: a + b)
        results = []

        def program():
            value = yield alpha.call("beta", "add", 19, 23)
            results.append(value)

        kernel.process(program())
        kernel.run()
        assert results == [42]
        # Round trip: request there, reply back, both with latency 0.1.
        assert kernel.now == pytest.approx(0.2)

    def test_call_unknown_procedure_fails_with_runtime_error(self):
        kernel, _network, alpha, _beta = build_pair()
        errors = []

        def program():
            try:
                yield alpha.call("beta", "nope")
            except RuntimeError as error:
                errors.append(str(error))

        kernel.process(program())
        kernel.run()
        assert errors == ["unknown procedure 'nope'"]

    def test_handler_exception_becomes_remote_error(self):
        kernel, _network, alpha, beta = build_pair()

        def boom():
            raise ValueError("bad input")

        beta.register("boom", boom)
        errors = []

        def program():
            try:
                yield alpha.call("beta", "boom")
            except RuntimeError as error:
                errors.append(str(error))

        kernel.process(program())
        kernel.run()
        assert errors == ["ValueError: bad input"]

    def test_unsolicited_reply_is_ignored(self):
        kernel, network, _alpha, _beta = build_pair()
        network.send("beta", "alpha", RpcReply(call_id=999_999, value="?"))
        kernel.run()  # must not raise


class TestFallback:
    def test_non_rpc_payload_goes_to_fallback(self):
        kernel = Kernel()
        network = Network(kernel, latency=ConstantLatency(0.0))
        seen = []
        RpcEndpoint(network.add_node("alpha"), network)
        RpcEndpoint(network.add_node("beta"), network,
                    fallback=seen.append)
        network.send("alpha", "beta", {"kind": "app"})
        kernel.run()
        assert len(seen) == 1
        assert seen[0].payload == {"kind": "app"}

    def test_without_fallback_non_rpc_payload_is_dropped(self):
        kernel = Kernel()
        network = Network(kernel, latency=ConstantLatency(0.0))
        RpcEndpoint(network.add_node("alpha"), network)
        RpcEndpoint(network.add_node("beta"), network)
        network.send("alpha", "beta", "plain-string")
        kernel.run()  # silently dropped; statistics still counted it
        assert network.stats.delivered == 1


class TestRequestDataclass:
    def test_endpoint_call_ids_are_unique_and_increasing(self):
        kernel, network, alpha, beta = build_pair()
        sent = record_sends(network)
        beta.register("p", lambda: None)

        def program():
            yield alpha.call("beta", "p")

        alpha.call_oneway("beta", "p")
        kernel.process(program())
        kernel.run()
        ids = [env.payload.call_id for env in sent
               if isinstance(env.payload, RpcRequest)]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_call_ids_are_per_endpoint_not_process_global(self):
        # Two endpoints built in sequence must both start their call ids
        # at 1: replay determinism may not depend on process history.
        _k1, n1, a1, _b1 = build_pair()
        _k2, n2, a2, _b2 = build_pair()
        sent1, sent2 = record_sends(n1), record_sends(n2)
        a1.call_oneway("beta", "p")
        a2.call_oneway("beta", "p")
        assert sent1[0].payload.call_id == 1
        assert sent2[0].payload.call_id == 1

    def test_defaults(self):
        request = RpcRequest("p", args=(1,))
        assert request.kwargs == {}
        assert request.call_id == 0
        assert request.reply_to is None
        assert not request.expects_reply
