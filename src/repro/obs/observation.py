"""Per-system observation: the sink every instrumentation point feeds.

One :class:`SystemObservation` is attached to one
:class:`~repro.runtime.system.DistributedCASystem` (and its network,
lock manager, and any workload driver built on top).  The
instrumentation sites themselves stay trivial — each holds an ``_obs``
attribute that is ``None`` when observability is off, so the disabled
cost is a single attribute-is-None check and **no event dict is ever
allocated**.  When attached, every site calls one method here; this
class normalizes the payload into a plain event record and fans it out
to the enabled collectors (event list, metrics registry, flight ring).

Nothing in this module schedules kernel events, draws randomness, or
mutates run results: observation is strictly read-only with respect to
the simulation, which is what keeps conformance digests bit-identical
with observability on.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from . import events as kinds
from .config import ObsConfig
from .events import PROBE_KINDS
from .metrics import MetricsRegistry
from .recorder import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import DistributedCASystem
    from ..workload.driver import WorkloadDriver


def _plain(value: Any) -> Any:
    """JSON-friendly form of a probe payload value.

    ``ActionStatus`` enums become their string value, exception
    descriptors their name; anything else non-primitive falls back to
    ``str``.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)


class SystemObservation:
    """Collector state for one observed system."""

    __slots__ = ("config", "system", "_kernel", "events", "flight",
                 "metrics", "_message_seq", "_envelope_seq",
                 "_open_starts", "_tracked_links")

    def __init__(self, system: "DistributedCASystem",
                 config: Optional[ObsConfig] = None) -> None:
        config = config or ObsConfig()
        self.config = config
        self.system = system
        self._kernel = system.kernel
        self.events: Optional[List[Dict[str, Any]]] = \
            [] if config.spans else None
        self.flight: Optional[FlightRecorder] = \
            FlightRecorder(config.flight_capacity) \
            if config.flight_recorder else None
        self.metrics: Optional[MetricsRegistry] = \
            MetricsRegistry(config.timeline_interval) \
            if config.metrics else None
        self._message_seq = 0
        self._envelope_seq: Dict[int, int] = {}
        self._open_starts: Dict[Tuple[Any, ...], float] = {}
        self._tracked_links: set = set()
        if self.metrics is not None:
            stats = system.network.stats
            timeline = self.metrics.timeline
            timeline.track("messages_sent", lambda: stats.sent)
            timeline.track("messages_delivered", lambda: stats.delivered)
            timeline.track("messages_dropped", lambda: stats.dropped)

    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        if self.events is not None:
            self.events.append(event)
        if self.flight is not None:
            self.flight.append(event)

    # ------------------------------------------------------------------
    # Life-cycle probes (runtime/{lifecycle,dispatcher,effects}.py)
    # ------------------------------------------------------------------
    def on_probe(self, name: str, **data: Any) -> None:
        """Adapter registered on ``system.probes``."""
        kind = PROBE_KINDS.get(name, None)
        if kind is None:
            kind = "probe." + name
        now = self._kernel.now
        event: Dict[str, Any] = {"t": now, "kind": kind}
        for key, value in data.items():
            event[key] = _plain(value)
        self._emit(event)
        metrics = self.metrics
        if metrics is None:
            return
        if kind == kinds.ACTION_ENTERED:
            metrics.counter("actions_entered_total").inc()
            key = (data.get("action"), data.get("instance"),
                   data.get("thread"))
            self._open_starts[key] = now
        elif kind == kinds.ACTION_CONCLUDED:
            metrics.counter("actions_concluded_total",
                            {"status": event.get("status", "unknown")}).inc()
            key = (data.get("action"), data.get("instance"),
                   data.get("thread"))
            start = self._open_starts.pop(key, None)
            if start is not None:
                metrics.histogram("span_duration").record(now - start)
        elif kind == kinds.ACTION_RAISED:
            metrics.counter("actions_raised_total").inc()
        elif kind == kinds.ACTION_ABORTING:
            metrics.counter("abortions_total").inc()
        elif kind == kinds.ACTION_SIGNALLED:
            metrics.counter("signals_total").inc()
        metrics.timeline.maybe_sample(now)

    # ------------------------------------------------------------------
    # Messaging (net/network.py)
    # ------------------------------------------------------------------
    def message_sent(self, envelope: Any) -> None:
        """The one record of a message, emitted once its fate is known."""
        self._message_seq += 1
        seq = self._message_seq
        self._envelope_seq[id(envelope)] = seq
        src, dst = envelope.source, envelope.destination
        payload = envelope.payload
        self._emit({"t": self._kernel.now, "kind": kinds.MESSAGE_SENT,
                    "src": src, "dst": dst,
                    "type": type(payload).__name__, "seq": seq,
                    "payload": repr(payload),
                    "deliver": envelope.deliver_time,
                    "corrupted": envelope.corrupted})
        metrics = self.metrics
        if metrics is not None:
            link = f"{src}->{dst}"
            metrics.counter("messages_sent_total", {"link": link}).inc()
            if link not in self._tracked_links:
                self._tracked_links.add(link)
                by_link = self.system.network.stats.by_link
                key = (src, dst)
                metrics.timeline.track(
                    f"messages_sent[{link}]",
                    lambda key=key: by_link.get(key, 0))
            metrics.timeline.maybe_sample(self._kernel.now)

    def message_delivered(self, envelope: Any) -> None:
        seq = self._envelope_seq.pop(id(envelope), 0)
        self._emit({"t": self._kernel.now, "kind": kinds.MESSAGE_DELIVERED,
                    "src": envelope.source, "dst": envelope.destination,
                    "type": type(envelope.payload).__name__, "seq": seq})
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("messages_delivered_total").inc()
            metrics.timeline.maybe_sample(self._kernel.now)

    def rpc_failure(self, node: str, procedure: str, error: str) -> None:
        """A one-way RPC handler raised (there is no reply to carry it)."""
        self._emit({"t": self._kernel.now, "kind": kinds.RPC_FAILURE,
                    "node": node, "procedure": procedure, "error": error})
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("rpc_failures_total",
                            {"procedure": procedure}).inc()

    def message_dropped(self, envelope: Any, reason: str) -> None:
        seq = self._envelope_seq.pop(id(envelope), 0)
        self._emit({"t": self._kernel.now, "kind": kinds.MESSAGE_DROPPED,
                    "src": envelope.source, "dst": envelope.destination,
                    "type": type(envelope.payload).__name__, "seq": seq,
                    "reason": reason})
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("messages_dropped_total",
                            {"reason": reason}).inc()
            metrics.timeline.maybe_sample(self._kernel.now)

    # ------------------------------------------------------------------
    # Workload admission + jobs (workload/driver.py)
    # ------------------------------------------------------------------
    def register_driver(self, driver: "WorkloadDriver") -> None:
        """Add the driver's in-flight / queue-depth timeline gauges."""
        metrics = self.metrics
        if metrics is None:
            return
        admission = driver.admission
        metrics.timeline.track("in_flight", lambda: admission.in_flight)
        metrics.timeline.track("queue_depth", lambda: len(admission.queue))

    def _job_event(self, kind: str, job: Any, **extra: Any) -> None:
        event: Dict[str, Any] = {"t": self._kernel.now, "kind": kind,
                                 "instance": job.instance,
                                 "action": job.action}
        event.update(extra)
        self._emit(event)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(kind.replace(".", "_") + "_total").inc()
            metrics.timeline.maybe_sample(self._kernel.now)

    def job_submitted(self, job: Any) -> None:
        self._job_event(kinds.JOB_SUBMITTED, job)

    def job_dispatched(self, job: Any, in_flight: int) -> None:
        self._job_event(kinds.JOB_DISPATCHED, job, in_flight=in_flight)

    def job_completed(self, job: Any, status: str, latency: float) -> None:
        self._job_event(kinds.JOB_COMPLETED, job, status=status,
                        latency=latency)
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram("job_latency").record(latency)

    def job_dropped(self, job: Any) -> None:
        self._job_event(kinds.JOB_DROPPED, job)

    def admission_queued(self, job: Any, depth: int) -> None:
        self._job_event(kinds.ADMISSION_QUEUED, job, queue_depth=depth)

    def admission_retry(self, job: Any) -> None:
        self._job_event(kinds.ADMISSION_RETRY, job, attempts=job.attempts)

    def admission_dropped(self, job: Any) -> None:
        self._job_event(kinds.ADMISSION_DROPPED, job)

    # ------------------------------------------------------------------
    # Shared objects (objects/locks.py)
    # ------------------------------------------------------------------
    def lock_event(self, kind: str, object_name: Optional[str],
                   transaction_id: Any, mode: Optional[str] = None,
                   **extra: Any) -> None:
        event: Dict[str, Any] = {"t": self._kernel.now, "kind": kind,
                                 "object": object_name,
                                 "transaction": _plain(transaction_id)}
        if mode is not None:
            event["mode"] = mode
        event.update(extra)
        self._emit(event)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(kind.replace(".", "_") + "_total").inc()
            metrics.timeline.maybe_sample(self._kernel.now)

    # ------------------------------------------------------------------
    # Per-thread notes (core/{resolution,signalling}.py, runtime/)
    # ------------------------------------------------------------------
    def note(self, kind: str, thread: str, text: str) -> None:
        """One diagnostic line: a ``coord``/``signal``/``partition.note``."""
        self._emit({"t": self._kernel.now, "kind": kind, "thread": thread,
                    "text": text})

    # ------------------------------------------------------------------
    # Scheduler steps (simkernel/kernel.py, opt-in)
    # ------------------------------------------------------------------
    def kernel_step(self, when: float, priority: int, eid: int,
                    event: Any) -> None:
        """Step-tracer hook (registered via ``Kernel.add_tracer``)."""
        self._emit({"t": when, "kind": kinds.KERNEL_STEP,
                    "priority": priority, "eid": eid,
                    "event": type(event).__name__})
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("kernel_steps_total").inc()

    # ------------------------------------------------------------------
    def flight_dump(self) -> Optional[Dict[str, Any]]:
        """The flight recorder's dump, or None when the ring is off."""
        if self.flight is None:
            return None
        return self.flight.dump()

    def __repr__(self) -> str:
        collected = len(self.events) if self.events is not None else 0
        return (f"<SystemObservation events={collected} "
                f"flight={self.flight!r} metrics={self.metrics!r}>")
