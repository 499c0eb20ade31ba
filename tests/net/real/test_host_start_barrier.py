"""Regression: a wire message sharing a ``recv`` chunk with ``start``.

A faster child starts stepping as soon as it reads ``start`` and may
send a virtual-time-0 ``msg`` that reaches a slower child in the same
chunk as that child's own ``start``.  The start barrier used to keep
only the ``start`` frame and drop the rest, so the message was lost and
figure9 hung until the wall timeout.

The node runs :func:`run_node` on a thread against a scripted socket
hub in this process — no child process is spawned.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.core.messages import EnterActionMessage
from repro.net.real.framing import FrameDecoder, encode_frame
from repro.net.real.host import run_node


class ScriptedHub:
    """One accepted node connection speaking the framed protocol."""

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.decoder = FrameDecoder()
        self.received = []

    def expect(self, kind: str):
        """Read frames until one of ``kind`` arrives (others recorded)."""
        while True:
            for frame in self.received:
                if frame["kind"] == kind:
                    self.received.remove(frame)
                    return frame
            data = self.conn.recv(65536)
            assert data, f"node closed while waiting for {kind!r}"
            self.received.extend(self.decoder.feed(data))


def test_msg_in_the_start_chunk_is_delivered():
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(10.0)
    port = server.getsockname()[1]
    node = threading.Thread(
        target=run_node, args=("127.0.0.1", port, "figure9", "T2", {}, 0.01),
        daemon=True)
    node.start()
    conn, _ = server.accept()
    conn.settimeout(10.0)
    try:
        hub = ScriptedHub(conn)
        assert hub.expect("hello")["node"] == "T2"
        payload = EnterActionMessage("Outer", "T1", "a1",
                                     instance="probe")
        conn.sendall(encode_frame({"kind": "start"})
                     + encode_frame({"kind": "msg", "src": "T1",
                                     "dst": "T2", "payload": payload,
                                     "send_vt": 0.0, "deliver_vt": 0.0}))
        # A separate chunk, so the start barrier cannot swallow it too.
        time.sleep(0.2)
        conn.sendall(encode_frame({"kind": "finalize"}))
        record = hub.expect("final")["record"]
    finally:
        conn.close()
        server.close()
        node.join(timeout=10.0)
    assert not node.is_alive()
    delivered = [event for event in record["obs_events"]
                 if event["kind"] == "message.delivered"
                 and event["src"] == "T1"]
    assert len(delivered) == 1
    assert record["stats"]["delivered"] == 1
