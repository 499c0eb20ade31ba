"""Child-process entry point of the real backend.

Each node process builds its view of the scenario (see
:mod:`repro.net.real.scenarios`), connects to the parent hub, and runs
the *deterministic sim kernel* paced against the wall clock: an event
scheduled at virtual time ``t`` executes no earlier than
``start + t * time_scale`` seconds of real time.  Between kernel steps
the process pumps its hub socket with ``select`` — wire messages are
injected into the local :class:`~repro.net.real.realnet.RealNetwork`
honouring the sender's virtual delivery stamp.

The kernel is single-threaded and generator-based, which is exactly why
the child does **not** use asyncio: a blocking ``select`` between steps
is the whole event loop it needs.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Any, Dict, Optional

from .framing import FrameDecoder, encode_frame

#: Safety cap on the unpaced drain after ``finalize`` (a healthy run
#: needs a few hundred steps; a livelocked one must not hang the child).
FINALIZE_STEP_CAP = 100_000

#: Longest single wait between socket polls while idle (seconds).
_POLL = 0.05


class _HubLink:
    """Blocking socket + framing to the parent hub."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.closed = False

    def send(self, frame: Dict[str, Any]) -> None:
        if self.closed:
            return
        try:
            self.sock.sendall(encode_frame(frame))
        except OSError:
            self.closed = True

    def poll(self, timeout: float):
        """Frames that arrived within ``timeout`` seconds (maybe none)."""
        if self.closed:
            time.sleep(timeout)
            return []
        ready, _, _ = select.select([self.sock], [], [], timeout)
        if not ready:
            return []
        try:
            data = self.sock.recv(65536)
        except OSError:
            self.closed = True
            return []
        if not data:
            self.closed = True
            return []
        return list(self.decoder.feed(data))


def _programs_finished(system) -> bool:
    programs = getattr(system, "_programs", [])
    return all(process.triggered for process in programs)


def run_node(host: str, port: int, scenario: str, node: str,
             params: Dict[str, Any], time_scale: float) -> None:
    """Run one node of ``scenario`` against the hub at ``host:port``.

    This is the ``multiprocessing`` (spawn) target: everything it needs
    arrives as picklable arguments and the scenario registry is resolved
    by name inside the child.
    """
    from .scenarios import REAL_SCENARIOS, collect_record, spec_params

    link = _HubLink(host, port)
    spec = REAL_SCENARIOS[scenario]
    built = spec.build(spec_params(spec, params), node,
                       lambda src, dst, payload, send_vt, deliver_vt,
                       corrupted:
                       link.send({"kind": "msg", "src": src, "dst": dst,
                                  "payload": payload, "send_vt": send_vt,
                                  "deliver_vt": deliver_vt,
                                  "corrupted": corrupted}))
    system = built.system
    kernel = system.kernel
    network = system.network

    link.send({"kind": "hello", "node": node})

    started = finalizing = False

    def pump(timeout: float) -> None:
        """Handle every frame arriving within ``timeout`` seconds — also
        at the start barrier, where a ``msg`` may share ``start``'s chunk."""
        nonlocal started, finalizing
        for frame in link.poll(timeout):
            kind = frame.get("kind")
            if kind == "msg":
                network.inject(frame["src"], frame["dst"],
                               frame["payload"], frame["deliver_vt"],
                               frame.get("corrupted", False))
            elif kind == "start":
                started = True
            elif kind == "finalize":
                finalizing = True

    # Hold the kernel until every node is connected, so no early message
    # races another child's registration at the hub.
    while not started and not link.closed:
        pump(_POLL)

    start_wall = time.monotonic()
    done_sent = False
    while started and not link.closed:
        pump(0)
        if finalizing:
            break
        if not done_sent and _programs_finished(system):
            link.send({"kind": "done", "node": node})
            done_sent = True
        next_vt = kernel.peek()
        if next_vt == float("inf"):
            # Nothing scheduled locally: wait for the wire.
            pump(_POLL)
            continue
        wait = start_wall + next_vt * time_scale - time.monotonic()
        if wait > 0:
            pump(min(wait, _POLL))
            continue
        kernel.step()

    # Finalize: drain the local schedule unpaced, then ship the record.
    steps = 0
    while kernel.peek() != float("inf") and steps < FINALIZE_STEP_CAP:
        kernel.step()
        steps += 1
    record = collect_record(built, local=node)
    record["finalize_steps"] = steps
    record["clamps"] = network.clamp_snapshot()
    link.send({"kind": "final", "node": node, "record": record})
    # Leave the socket open briefly so the final frame flushes before the
    # process exits (the hub closes the connection once it has read it).
    link.poll(0.2)
