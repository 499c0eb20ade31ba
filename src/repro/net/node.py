"""Nodes (partitions) of the simulated distributed system.

A :class:`Node` corresponds to one Ada 95 *partition* in the paper's
prototype: it has its own address space (plain Python object state that is
never shared), a cyclic receive buffer, and runs one or more processes on
the shared simulation kernel.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, TYPE_CHECKING

from ..simkernel.channels import CyclicBuffer
from ..simkernel.kernel import Kernel
from .message import Envelope

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class Node:
    """A processing node with a receive buffer.

    Parameters
    ----------
    kernel:
        The shared simulation kernel (time source).
    name:
        Unique node name; used as the network address.
    buffer_capacity:
        Capacity of the cyclic receive buffer (messages).
    """

    def __init__(self, kernel: Kernel, name: str,
                 buffer_capacity: int = 4096) -> None:
        self.kernel = kernel
        self.name = name
        self.inbox: CyclicBuffer = CyclicBuffer(kernel, capacity=buffer_capacity)
        self.network: Optional["Network"] = None
        self.alive = True
        #: Free-form per-node registry used by upper layers (the partition
        #: executive stores itself here so application code co-located on
        #: the node can find it).
        self.services: Dict[str, Any] = {}
        #: Delivery log (envelopes received), useful for debugging/tests.
        #: The network appends to it and fills :attr:`inbox` directly.
        #: Bounded for the same reason as ``Network.trace``: a debugging
        #: aid must not grow a long capacity run's memory.
        self.received: Deque[Envelope] = deque(maxlen=4096)

    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Called by the network when the node is registered."""
        self.network = network

    def send(self, destination: str, payload: Any) -> Envelope:
        """Send ``payload`` to the node called ``destination``.

        Sending is asynchronous (the paper's prototype uses asynchronous
        RPC without out-parameters): the call returns immediately with the
        envelope; delivery happens after the network latency.
        """
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        return self.network.send(self.name, destination, payload)

    def crash(self) -> None:
        """Mark the node as crashed: no further delivery or sending."""
        self.alive = False

    def recover(self) -> None:
        """Bring a crashed node back (its inbox content is preserved)."""
        self.alive = True

    def __repr__(self) -> str:
        status = "up" if self.alive else "crashed"
        return f"<Node {self.name} {status} inbox={len(self.inbox)}>"
