"""Outside-in wall-clock tracing of the library's layers.

:class:`Tracer` wraps public entry points of each layer -- ``simkernel``,
``net``, ``runtime``, ``core``, ``objects`` and ``workload`` -- by
replacing class attributes, so it must be installed before the system
under test is built (bound methods cached at construction then point at
the wrappers).  Uninstalling restores every original attribute, so
untraced runs in the same process execute the library's own code.

Every wrapped call, and every resume of a wrapped generator, records one
span in memory: its name, start, end and the span that was open when it
began.  :meth:`Tracer.ledger` turns the spans into per-name counts,
inclusive time and self time (a span's duration minus the time its
children cover).  Spans are properly nested, so the self times of all
spans add up to the duration of the root spans (``Kernel.run``).
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, List, Tuple

from repro.core.exception_graph import ExceptionGraph
from repro.core.resolution import ResolutionCoordinator
from repro.core.signalling import SignalCoordinator
from repro.net.network import Network
from repro.objects.locks import DeadlockError, LockManager
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.lifecycle import ActionLifecycle
from repro.runtime.partition import Partition
from repro.simkernel.kernel import Kernel
from repro.workload.admission import AdmissionController
from repro.workload.driver import WorkloadDriver

#: (class, attribute, span name, kind).  ``call`` wraps a plain call;
#: ``gen`` wraps a method returning a generator and times each resume.
TARGETS: Tuple[Tuple[type, str, str, str], ...] = (
    (Kernel, "run", "simkernel", "call"),
    (Network, "send", "net.send", "call"),
    (Dispatcher, "dispatch_sync", "runtime.dispatch", "call"),
    (Partition, "execute_effects", "runtime.effects", "gen"),
    (ActionLifecycle, "execute_action", "runtime.lifecycle", "gen"),
    (ResolutionCoordinator, "receive", "core.receive", "call"),
    (SignalCoordinator, "propose", "core.signal", "call"),
    (SignalCoordinator, "receive", "core.signal", "call"),
    (ExceptionGraph, "resolve", "core.resolve", "call"),
    (LockManager, "acquire", "objects.lock.acquire", "call"),
    (AdmissionController, "offer", "workload.admission", "call"),
    (AdmissionController, "pop_placeable", "workload.admission", "call"),
    (AdmissionController, "job_dispatched", "workload.admission", "call"),
    (AdmissionController, "job_finished", "workload.admission", "call"),
    (WorkloadDriver, "submit", "workload.submit", "call"),
)


class _TimedGenerator:
    """Delegates to a generator, recording one span per resume."""

    __slots__ = ("_generator", "_tracer", "_name")

    def __init__(self, generator, tracer: "Tracer", name: int) -> None:
        self._generator = generator
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        span = self._tracer.open(self._name)
        try:
            return self._generator.send(value)
        finally:
            self._tracer.close(span)

    def throw(self, *args):
        span = self._tracer.open(self._name)
        try:
            return self._generator.throw(*args)
        finally:
            self._tracer.close(span)

    def close(self):
        return self._generator.close()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        #: Counts that are not spans: generator creations per span name,
        #: refused lock requests, transactions that requested a lock and
        #: trace entries appended by signalling coordinators.
        self.calls: Dict[str, int] = {}
        self.deadlocks = 0
        self.lock_transactions: set = set()
        self.signal_trace_entries = 0
        self._saved: List[Tuple[type, str, Any]] = []

    # -- spans ----------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------
    def _wrap_call(self, function, name: str):
        tracer, span_id = self, self.name_id(name)

        def traced(*args, **kwargs):
            span = tracer.open(span_id)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced

    def _wrap_generator(self, function, name: str):
        tracer, span_id, calls = self, self.name_id(name), self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            return _TimedGenerator(function(*args, **kwargs), tracer,
                                   span_id)
        return traced

    def _wrap_acquire(self, traced):
        tracer = self

        def acquire(manager, object_name, transaction_id, mode):
            tracer.lock_transactions.add(transaction_id)
            event = traced(manager, object_name, transaction_id, mode)
            if event.triggered and not event.ok and \
                    isinstance(event.value, DeadlockError):
                tracer.deadlocks += 1
            return event
        return acquire

    def _wrap_signal(self, traced):
        tracer = self

        def signal(coordinator, *args, **kwargs):
            before = len(coordinator.trace)
            try:
                return traced(coordinator, *args, **kwargs)
            finally:
                tracer.signal_trace_entries += len(coordinator.trace) - before
        return signal

    def install(self) -> None:
        """Replace every target attribute with its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attribute, name, kind in TARGETS:
            original = cls.__dict__[attribute]
            self._saved.append((cls, attribute, original))
            if kind == "gen":
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap_call(original, name)
            if cls is LockManager:
                wrapper = self._wrap_acquire(wrapper)
            elif cls is SignalCoordinator:
                wrapper = self._wrap_signal(wrapper)
            setattr(cls, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._saved:
            cls, attribute, original = self._saved.pop()
            setattr(cls, attribute, original)

    # -- ledger ---------------------------------------------------------
    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``spans``, inclusive and self seconds."""
        if len(self._stack) != 1:
            raise RuntimeError("ledger requested with spans still open")
        n_spans = len(self.span_start)
        child = [0.0] * n_spans
        durations = [end - start for start, end
                     in zip(self.span_start, self.span_end)]
        parents = self.span_parent
        for index in range(n_spans):
            parent = parents[index]
            if parent >= 0:
                child[parent] += durations[index]
        rows = {name: {"spans": 0, "inclusive_s": 0.0, "self_s": 0.0}
                for name in self.names}
        names = self.names
        for index in range(n_spans):
            row = rows[names[self.span_name[index]]]
            row["spans"] += 1
            row["inclusive_s"] += durations[index]
            row["self_s"] += durations[index] - child[index]
        for name, created in self.calls.items():
            rows[name]["calls"] = created
        return rows
