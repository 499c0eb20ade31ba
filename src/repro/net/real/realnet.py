"""The per-process transport of the real backend.

Each child process builds the *full* system — every partition exists as
a stub so bindings, participant sets, and instance-key allocation stay
identical to the sim build — but spawns only its local node's program.
:class:`RealNetwork` keeps intra-process traffic on the ordinary sim
path and forwards everything addressed to a non-local node over the
wire: :meth:`Network.send` runs its one sequence (fault plan included)
and the sender forwards the stamped virtual delivery time and corruption
flag; the receiving process injects it no earlier than that virtual time
(clamped to its local clock and per-link FIFO), so cross-process timing matches the sim schedule up to wall-clock
jitter.  Every clamp is counted per link with its largest virtual-time
error (:attr:`RealNetwork.clamps`), outside the message statistics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from ...simkernel.events import Timeout
from ...simkernel.kernel import Kernel
from ..faults import FaultPlan
from ..latency import LatencyModel
from ..message import Envelope
from ..network import MessageStatistics, Network

#: forwarder(source, destination, payload, send_vt, deliver_vt, corrupted)
Forwarder = Callable[[str, str, Any, float, float, bool], None]


class RealNetwork(Network):
    """Sim network for local nodes + wire forwarding for remote ones."""

    def __init__(self, kernel: Kernel, latency: Optional[LatencyModel],
                 local: Iterable[str], forward: Forwarder,
                 faults: Optional[FaultPlan] = None) -> None:
        super().__init__(kernel, latency=latency, faults=faults)
        #: Node names whose delivery happens in this process.
        self.local: Set[str] = set(local)
        self._forward = forward
        #: Wire deliveries moved later than the sender's stamp, per link:
        #: ``(source, destination) -> (count, largest virtual-time error)``.
        self.clamps: Dict[Tuple[str, str], Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def _transmit(self, envelope: Envelope, delay: float) -> None:
        if envelope.destination in self.local:
            super()._transmit(envelope, delay)
            return
        # Remote destination: hand the stamped envelope to the wire.  The
        # receiver enforces arrival no earlier than ``deliver_time`` on
        # its own clock.
        self._forward(envelope.source, envelope.destination,
                      envelope.payload, envelope.send_time,
                      envelope.deliver_time, envelope.corrupted)

    # ------------------------------------------------------------------
    def inject(self, source: str, destination: str, payload: Any,
               deliver_vt: float, corrupted: bool = False) -> None:
        """Schedule delivery of a wire message into a local node.

        ``deliver_vt`` is the sender's virtual delivery time; it is
        clamped to this process's clock (wire latency may have outrun
        the wall-clock pacing) and to per-link FIFO.  A clamped delivery
        is counted in :attr:`clamps`.  ``corrupted`` carries the sender's
        fault-plan verdict.
        """
        kernel = self.kernel
        now = kernel._now
        envelope = Envelope(source, destination, payload, now,
                            corrupted=corrupted)
        link = (source, destination)
        deliver_at = max(deliver_vt, now)
        last = self._link_clock.get(link)
        if last is not None and deliver_at < last:
            deliver_at = last
        if deliver_at > deliver_vt:
            count, error = self.clamps.get(link, (0, 0.0))
            self.clamps[link] = (count + 1, max(error, deliver_at - deliver_vt))
        self._link_clock[link] = deliver_at
        envelope.deliver_time = deliver_at
        Timeout(kernel, deliver_at - now, envelope).callbacks.append(
            self._deliver_callback)

    def clamp_snapshot(self) -> Dict[str, Tuple[int, float]]:
        """:attr:`clamps` keyed ``"src->dst"``, for a child's final record."""
        return {MessageStatistics.encode_link(link): value
                for link, value in self.clamps.items()}
