"""The host-speed reference that the timed metrics are scaled by.

The benchmark runs on a shared host whose speed drifts by up to 2x within
minutes, and a pure-Python program slows with it.  So the timed
end-to-end metrics are reported on a *nominal host*: one on which
:func:`chunk` (fixed pure-Python work that does not touch the library)
takes :data:`NOMINAL_CHUNK_S` seconds.  The chunk is timed in the same
moments as the measured work -- interleaved into a repetition by
:class:`Sampler`, or right before and right after a set-up probe -- and a
wall time ``w`` measured alongside chunks of mean ``c`` seconds becomes
``w * NOMINAL_CHUNK_S / c`` nominal seconds.  A change to the library
moves ``w`` and not ``c``.  The raw wall times stay in the run file.

A chunk is an arithmetic loop followed by a small event loop over a heap
of generators that post messages to dict-held mailboxes.  Against the
simulator's own speed changes within a run, the arithmetic loop alone
under-corrects (log-log slope 1.1-1.5) and the event loop alone
over-corrects (0.7-1.0); their sum lands at 0.96-1.21.  The event loop
runs with the cyclic garbage collector paused: its objects die by
reference counting, and a collection of the simulator's heap triggered
inside a chunk would time the simulator, not the host.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush

#: Iterations of the arithmetic loop of one chunk.
LOOP_ITERATIONS = 10_000
#: Generators ("processes") of the event loop of one chunk.
PROCESSES = 48
#: Messages each process posts.
POSTS = 6
#: Seconds one chunk takes on the nominal host.  A fixed constant, close
#: to a chunk's time on the 2-vCPU Xeon host the benchmark was written on;
#: it only sets the scale.
NOMINAL_CHUNK_S = 0.001
#: Seconds of work between two chunks inside a repetition.
INTERVAL_S = 0.008


class _Message:
    __slots__ = ("source", "sequence", "body")

    def __init__(self, source: int, sequence: int, body: dict) -> None:
        self.source = source
        self.sequence = sequence
        self.body = body


def _process(pid: int, mailboxes: dict):
    for k in range(POSTS):
        box = mailboxes.setdefault((pid * 7 + k) % 32, [])
        box.append(_Message(pid, k, {"k": k}))
        if len(box) > 4:
            box.pop(0)
        yield (k * 13 + pid) % 5 * 0.1


def _event_loop() -> None:
    heap: list = []
    mailboxes: dict = {}
    for pid in range(PROCESSES):
        heappush(heap, (0.0, pid, _process(pid, mailboxes)))
    sequence = PROCESSES
    while heap:
        when, _, process = heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        sequence += 1
        heappush(heap, (when + delay, sequence, process))


def chunk() -> float:
    """Seconds taken by one chunk of fixed pure-Python work."""
    collecting = gc.isenabled()
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    gc.disable()
    try:
        _event_loop()
    finally:
        if collecting:
            gc.enable()
    return time.perf_counter() - started


def chunks(count: int) -> float:
    """Mean seconds of ``count`` chunks run back to back."""
    return sum(chunk() for _ in range(count)) / count


class Sampler:
    """Kernel step hook: counts events and, if ``sampling``, times chunks.

    Installed with ``Kernel.add_tracer``.  With ``sampling`` it runs one
    chunk after each :data:`INTERVAL_S` seconds of work, so the chunks see
    the host's speed at the same moments as the work they accompany.
    ``chunk_s`` is the chunks' total time, which the caller subtracts from
    the repetition's wall time.
    """

    def __init__(self, sampling: bool) -> None:
        self.sampling = sampling
        self.events = 0
        self.chunks = 0
        self.chunk_s = 0.0
        self._next = time.perf_counter() + INTERVAL_S

    def __call__(self, _when, _priority, _eid, _event) -> None:
        self.events += 1
        if self.sampling and time.perf_counter() >= self._next:
            self.chunk_s += chunk()
            self.chunks += 1
            self._next = time.perf_counter() + INTERVAL_S

    def scale(self) -> float:
        """Nominal seconds per measured second (1.0 without sampling).

        A run too short to hold a chunk is scaled by one timed after it.
        """
        if not self.sampling:
            return 1.0
        if not self.chunks:
            return NOMINAL_CHUNK_S / chunk()
        return NOMINAL_CHUNK_S / (self.chunk_s / self.chunks)
