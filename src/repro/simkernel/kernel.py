"""The discrete-event simulation kernel.

The kernel owns the virtual clock and the event queue.  It is deliberately
small: events are scheduled with :meth:`Kernel.schedule`, processes are
created with :meth:`Kernel.process`, and :meth:`Kernel.run` advances the
clock until a stop condition.

Determinism: ties in the event queue are broken first by priority
(urgent before normal) and then by insertion order, so two runs of the same
program produce the same trace.

Schedule exploration: a kernel can be created with a ``tie_seed``, in which
case events that share both timestamp and priority are ordered by a seeded
pseudo-random key drawn at scheduling time (insertion order remains the
final tie-break).  Each seed selects one deterministic interleaving of the
otherwise-concurrent events, so the fault-space explorer can sweep many
legal schedules while every individual run stays exactly reproducible.
"""

from __future__ import annotations

import heapq
import logging
import random
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional, Union

from .events import AllOf, AnyOf, Event, NORMAL, Timeout
from .process import Process

# Bound once at import: the hot loop pays a module-global lookup instead of
# an attribute chain per event.
_heappush = heapq.heappush
_heappop = heapq.heappop

logger = logging.getLogger(__name__)

#: Signature of a step tracer: ``hook(when, priority, eid, event)``.
StepTracer = Callable[[float, int, int, Any], None]


class EmptySchedule(Exception):
    """Raised by :meth:`Kernel.step` when no events remain."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Kernel.run` early (carries the stop value)."""


Infinity = float("inf")


class Kernel:
    """Discrete-event simulation kernel with a virtual clock.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (defaults to 0.0).
    tie_seed:
        When not ``None``, events scheduled for the same (time, priority)
        are ordered by a pseudo-random key from this seed instead of pure
        insertion order.  Each seed is one deterministic interleaving.
    """

    def __init__(self, initial_time: float = 0.0,
                 tie_seed: Optional[int] = None) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = count()
        #: Bound method caches for :meth:`schedule` (the single hottest
        #: call in a run): event-id draw and, when tie perturbation is on,
        #: the seeded tie-key draw (``None`` keeps the constant 0.0 key).
        self._next_eid = self._eid.__next__
        self._active_process: Optional[Process] = None
        self._tie_random = (random.Random(tie_seed).random
                            if tie_seed is not None else None)
        self.tie_seed = tie_seed
        #: Optional step hook called as ``tracer(when, priority, eid, event)``
        #: just before each event's callbacks run (used by the fault-space
        #: explorer's trace recorder; must itself be deterministic).  A hook
        #: that raises is logged and disabled — it never kills the run (and
        #: never defuses the traced event).  Assign directly for one hook, or
        #: use :meth:`add_tracer`/:meth:`remove_tracer` to chain several.
        self.tracer: Optional[StepTracer] = None
        self._tracers: List[StepTracer] = []

    # ------------------------------------------------------------------
    # Step tracers
    # ------------------------------------------------------------------
    def add_tracer(self, hook: StepTracer) -> None:
        """Attach ``hook`` alongside any already-installed step tracer.

        A single hook is installed directly (the hot loop sees exactly
        the old single-slot cost); two or more are fanned out through
        one composite closure.  A pre-existing directly-assigned
        :attr:`tracer` is adopted into the chain.
        """
        if not self._tracers and self.tracer is not None:
            self._tracers.append(self.tracer)
        self._tracers.append(hook)
        self._bind_tracers()

    def remove_tracer(self, hook: StepTracer) -> None:
        """Detach ``hook``; unknown hooks are ignored."""
        if hook in self._tracers:
            self._tracers.remove(hook)
            self._bind_tracers()
        elif self.tracer is hook:
            self.tracer = None

    def _bind_tracers(self) -> None:
        if not self._tracers:
            self.tracer = None
        elif len(self._tracers) == 1:
            self.tracer = self._tracers[0]
        else:
            hooks = tuple(self._tracers)

            def fan_out(when: float, priority: int, eid: int,
                        event: Any) -> None:
                for hook in hooks:
                    try:
                        hook(when, priority, eid, event)
                    except Exception:
                        self._tracer_failed(hook)

            self.tracer = fan_out

    def _tracer_failed(self, hook: StepTracer) -> None:
        """Disable a step hook that raised (logged once per hook).

        Each hook can fail at most once — it is removed here — so the
        ``logger.exception`` below cannot spam per event.
        """
        logger.exception("step tracer %r raised; disabling it", hook)
        if hook in self._tracers:
            self._tracers.remove(hook)
            self._bind_tracers()
        else:
            # A directly-assigned hook (or a stale composite): clear the
            # slot outright rather than risk re-raising every step.
            self.tracer = None
            self._tracers.clear()

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        if not self._queue:
            return Infinity
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a plain, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register a generator as a new simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create an event that fires when all ``events`` have fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create an event that fires when any of ``events`` has fired."""
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Put ``event`` on the queue to fire ``delay`` from now."""
        # The tie key is 0.0 without a tie seed, reducing the ordering to
        # (time, priority, insertion); with one, it is drawn in scheduling
        # order from the seeded stream, so it is itself reproducible.
        tie_random = self._tie_random
        _heappush(self._queue,
                  (self._now + delay, priority,
                   0.0 if tie_random is None else tie_random(),
                   self._next_eid(), event))

    def step(self) -> None:
        """Process the next scheduled event.

        The body is duplicated inside :meth:`run`'s inner loop (with the
        queue and tracer bound to locals); keep the two in sync.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        when, priority, _tie, eid, event = _heappop(queue)

        self._now = when
        tracer = self.tracer
        if tracer is not None:
            try:
                tracer(when, priority, eid, event)
            except Exception:
                self._tracer_failed(tracer)
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # Nobody caught the failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                Run until the event queue is exhausted.
            a number
                Run until the clock reaches that time.
            an :class:`Event`
                Run until that event fires; its value is returned.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed: return its value immediately.
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(
                    f"until ({at}) must not be earlier than now ({self._now})")
            stop_event = Event(self)
            # Urgent so that the run stops *before* processing other events
            # scheduled for exactly that time (tie key 0.0 sorts first).
            heapq.heappush(self._queue,
                           (at, 0, 0.0, next(self._eid), stop_event))
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(self._stop_callback)

        # The loop is :meth:`step`'s body inlined with ``queue`` bound to a
        # local (the tracer is re-read per event so it can be attached or
        # detached mid-run); keep the two in sync.
        queue = self._queue
        try:
            while True:
                if not queue:
                    raise EmptySchedule()
                when, priority, _tie, eid, event = _heappop(queue)
                self._now = when
                tracer = self.tracer
                if tracer is not None:
                    try:
                        tracer(when, priority, eid, event)
                    except Exception:
                        self._tracer_failed(tracer)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "simulation ended before the awaited event fired") from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
