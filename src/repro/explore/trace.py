"""Canonical run traces and digests for deterministic replay checking.

A run's canonical trace is a plain-text rendering of everything observable
about it, built only from per-run data (notably *not* from
``Envelope.sequence``, which is a process-global counter):

* **kernel** — every scheduler step, from ``kernel.step`` obs events;
* **network** — every envelope in send order (timing, link, payload
  repr, fate), from :attr:`Network.trace`;
* **coordinators** — every resolution-coordinator transition, from
  ``coord.note`` obs events, grouped by thread in partition order;
* **statistics** — the final :class:`MessageStatistics` snapshot.

:func:`observe_for_trace` attaches the observation the obs-rendered
sections need; without an event list :func:`canonical_trace` raises.

Two runs of the same ``(target, plan)`` must produce byte-identical
canonical traces; :func:`trace_digest` hashes them so sweeps can compare
thousands of runs cheaply and the engine's parallel/sequential paths can
be checked for equality without shipping full traces between processes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from .. import obs
from ..net.message import Envelope
from ..obs.events import COORD_NOTE, KERNEL_STEP
from ..runtime.system import DistributedCASystem

#: A traced run's observation: events, kernel steps and the flight ring.
TRACE_CONFIG = obs.ObsConfig(metrics=False, kernel_steps=True)


def observe_for_trace(system: DistributedCASystem) -> obs.SystemObservation:
    """Attach the observation :func:`canonical_trace` reads (once, pre-run).

    An ambient ``obs.capture()`` observation is reused; the kernel-step
    hook is added only when that capture does not record steps itself.
    """
    observation = system.observation
    if observation is None:
        return obs.observe_system(system, TRACE_CONFIG)
    if not observation.config.kernel_steps:
        system.kernel.add_tracer(observation.kernel_step)
    return observation


def _envelope_line(index: int, envelope: Envelope) -> str:
    deliver = ("dropped" if envelope.deliver_time is None
               else f"{envelope.deliver_time:.9f}")
    corrupted = " corrupted" if envelope.corrupted else ""
    return (f"#{index} t={envelope.send_time:.9f} "
            f"{envelope.source}->{envelope.destination} "
            f"{envelope.payload!r} deliver={deliver}{corrupted}")


def canonical_trace(system: DistributedCASystem) -> str:
    """The run's canonical plain-text trace (see module docstring)."""
    observation = system.observation
    events = observation.events if observation is not None else None
    if events is None:
        raise RuntimeError(
            "canonical_trace renders obs events: observe the system with "
            "an event list (see observe_for_trace)")
    sections: List[str] = ["== kernel =="]
    notes: Dict[str, List[str]] = {}
    for event in events:
        kind = event["kind"]
        if kind == KERNEL_STEP:
            sections.append(f"{event['t']:.9f} p{event['priority']} "
                            f"e{event['eid']} {event['event']}")
        elif kind == COORD_NOTE:
            thread = event["thread"]
            notes.setdefault(thread, []).append(f"{thread}: {event['text']}")
    sections.append("== network ==")
    network = system.network
    if not getattr(network, "keep_trace", True) \
            and network.stats.sent > len(network.trace):
        # The bounded ring has already evicted envelopes; a digest built
        # from it would be silently wrong.  Build the system with
        # ``keep_trace=True`` (the explorer targets do).
        raise RuntimeError(
            "canonical_trace needs full envelope retention: construct the "
            "network with keep_trace=True")
    sections.extend(_envelope_line(i, envelope)
                    for i, envelope in enumerate(network.trace))
    sections.append("== coordinators ==")
    for name in sorted(system.partitions):
        sections.extend(notes.get(name, ()))
    sections.append("== statistics ==")
    sections.append(json.dumps(system.network.stats.snapshot(),
                               sort_keys=True))
    return "\n".join(sections)


def trace_digest(trace_text: str) -> str:
    """SHA-256 of a canonical trace."""
    return hashlib.sha256(trace_text.encode("utf-8")).hexdigest()
