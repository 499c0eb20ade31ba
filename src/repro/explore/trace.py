"""Canonical run traces and digests for deterministic replay checking.

A run's canonical trace is a plain-text rendering of everything observable
about it, built only from per-run data:

* **kernel** — every scheduler step, from ``kernel.step`` obs events;
* **network** — every message in send order (timing, link, payload
  repr, fate), from ``message.sent`` obs events;
* **coordinators** — every resolution-coordinator transition, from
  ``coord.note`` obs events, grouped by thread in partition order;
* **statistics** — the final :class:`MessageStatistics` snapshot.

:func:`observe_for_trace` attaches the observation the obs-rendered
sections need; without an event list :func:`canonical_trace` raises.

Nothing is retained outside the event list, so a trace of any length
renders without an opt-in.

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
from ..obs.events import COORD_NOTE, KERNEL_STEP, MESSAGE_SENT
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


def _message_line(index: int, event: Dict) -> str:
    deliver = event["deliver"]
    deliver = "dropped" if deliver is None else f"{deliver:.9f}"
    corrupted = " corrupted" if event["corrupted"] else ""
    return (f"#{index} t={event['t']:.9f} {event['src']}->{event['dst']} "
            f"{event['payload']} deliver={deliver}{corrupted}")


def canonical_trace(system: DistributedCASystem) -> str:
    """The run's canonical plain-text trace (see module docstring)."""
    observation = system.observation
    events = observation.events if observation is not None else None
    if events is None:
        raise RuntimeError(
            "canonical_trace renders obs events: observe the system with "
            "an event list (see observe_for_trace)")
    sections: List[str] = ["== kernel =="]
    messages: List[str] = []
    notes: Dict[str, List[str]] = {}
    for event in events:
        kind = event["kind"]
        if kind == KERNEL_STEP:
            sections.append(f"{event['t']:.9f} p{event['priority']} "
                            f"e{event['eid']} {event['event']}")
        elif kind == MESSAGE_SENT:
            messages.append(_message_line(len(messages), event))
        elif kind == COORD_NOTE:
            thread = event["thread"]
            notes.setdefault(thread, []).append(f"{thread}: {event['text']}")
    sections.append("== network ==")
    sections.extend(messages)
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
