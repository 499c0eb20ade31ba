"""Fault injection for the message-passing substrate.

The resolution algorithm of the paper assumes reliable FIFO messaging
(Assumptions 1 and 2) and explicitly does *not* tolerate node or link
crashes; the signalling algorithm, by contrast, "can be easily extended to
cope with crashes of nodes or communication lines" by treating a corrupted
or lost message as a failure exception ``ƒ``.

This module provides the injection hooks that let the test-suite exercise
both sides: verifying the algorithm under the stated assumptions, and
verifying that the signalling layer degrades to ``ƒ`` when the assumptions
are violated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..simkernel.rng import SeededStreams
from .message import Envelope


@dataclass
class FaultStatistics:
    """Counts of injected faults, for assertions in tests and reports."""

    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    blocked_by_crash: int = 0


#: The surgical fault kinds a :class:`FaultDirective` can describe.
DIRECTIVE_KINDS = ("drop_nth", "corrupt_nth", "delay_link", "delay_type",
                   "delay_nth", "crash", "restore")

#: Directive kinds that keep the paper's Assumptions 1 and 2 intact: they
#: only *delay* messages (delivery stays exactly-once, uncorrupted, FIFO).
#: Plans built solely from these may legitimately be held to the
#: algorithms' full safety *and* liveness guarantees.  (``restore`` on its
#: own blocks nothing; the crash it undoes carries the violation.)
DELIVERY_PRESERVING_KINDS = frozenset({"delay_link", "delay_type",
                                       "delay_nth", "restore"})


@dataclass(frozen=True)
class FaultDirective:
    """One serializable fault-injection instruction.

    A directive is the unit the fault-space explorer samples, shrinks and
    replays: a plan is a sequence of directives plus a seed, and
    :meth:`FaultPlan.from_directives` rebuilds an identical plan from them.

    Fields are interpreted per ``kind``:

    * ``drop_nth`` / ``corrupt_nth`` — drop/corrupt the ``n``-th message on
      the ``source``→``destination`` link;
    * ``delay_link`` — add ``extra`` delay to every message on the link;
    * ``delay_type`` — add ``extra`` delay to messages on the link whose
      payload type name is ``type_name``;
    * ``delay_nth`` — add ``extra`` delay to the ``n``-th message on the
      link;
    * ``crash`` — crash node ``node`` (from ``at_time`` onwards if given);
    * ``restore`` — revive node ``node`` (from ``at_time`` onwards if
      given, immediately otherwise), masking its earlier crash.
    """

    kind: str
    source: str = ""
    destination: str = ""
    n: int = 0
    extra: float = 0.0
    type_name: str = ""
    node: str = ""
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DIRECTIVE_KINDS:
            raise ValueError(f"unknown directive kind {self.kind!r}; "
                             f"choose from {DIRECTIVE_KINDS}")

    @property
    def preserves_delivery(self) -> bool:
        """True if this directive only delays (Assumptions 1/2 hold)."""
        return self.kind in DELIVERY_PRESERVING_KINDS

    def to_dict(self) -> Dict[str, Any]:
        """A compact JSON-serializable form (defaults omitted)."""
        blank = FaultDirective(kind=self.kind)
        return {key: value for key, value in asdict(self).items()
                if key == "kind" or value != getattr(blank, key)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultDirective":
        """Rebuild a directive from :meth:`to_dict` output."""
        return cls(**data)

    def describe(self) -> str:
        """A one-line human-readable rendering (used by shrink reports)."""
        if self.kind == "crash":
            when = "" if self.at_time is None else f" at t={self.at_time:g}"
            return f"crash {self.node}{when}"
        if self.kind == "restore":
            when = "" if self.at_time is None else f" at t={self.at_time:g}"
            return f"restore {self.node}{when}"
        link = f"{self.source}->{self.destination}"
        if self.kind == "drop_nth":
            return f"drop message #{self.n} on {link}"
        if self.kind == "corrupt_nth":
            return f"corrupt message #{self.n} on {link}"
        if self.kind == "delay_link":
            return f"delay every message on {link} by {self.extra:g}"
        if self.kind == "delay_nth":
            return f"delay message #{self.n} on {link} by {self.extra:g}"
        return (f"delay {self.type_name} messages on {link} "
                f"by {self.extra:g}")


class FaultPlan:
    """A deterministic plan of message- and node-level faults.

    Faults can be specified either probabilistically (per-message drop and
    corruption probabilities drawn from a seeded stream) or surgically
    (drop/corrupt the *n*-th message on a given link, crash a node at a
    given time).  Surgical injection is what the tests mostly use, because
    it makes failure scenarios reproducible and targeted.
    """

    #: Ring size of :attr:`log`: the most recent fault descriptions are
    #: kept, while :attr:`stats` counts every fault of the run.
    LOG_CAPACITY = 4096

    def __init__(self, streams: Optional[SeededStreams] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0) -> None:
        self._streams = streams or SeededStreams(0)
        self._drop_probability = 0.0
        self._corrupt_probability = 0.0
        self._drop_nth: Dict[Tuple[str, str], Set[int]] = {}
        self._corrupt_nth: Dict[Tuple[str, str], Set[int]] = {}
        self._extra_delay: Dict[Tuple[str, str], float] = {}
        self._type_delay: Dict[Tuple[str, str, str], float] = {}
        self._nth_delay: Dict[Tuple[str, str], Dict[int, float]] = {}
        self._link_counts: Dict[Tuple[str, str], int] = {}
        self._crashed_nodes: Set[str] = set()
        self._crash_times: Dict[str, float] = {}
        self._restore_times: Dict[str, float] = {}
        self.stats = FaultStatistics()
        self.log: Deque[str] = deque(maxlen=self.LOG_CAPACITY)
        #: The surgical directives this plan was built from, in application
        #: order (probabilistic parameters are serialized separately).
        self.directives: List[FaultDirective] = []
        #: Link-indexed shortcut, kept current by every mutator so faults
        #: added mid-run take effect at once: while ``_shortcut`` is set,
        #: a message on a link outside ``_surgical_links`` (the links any
        #: surgical directive names) is only counted, never touched.
        self._shortcut = True
        self._surgical_links: Set[Tuple[str, str]] = set()
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self._refresh_shortcut()

    @property
    def drop_probability(self) -> float:
        """Per-message drop probability (assignable at any time)."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self._drop_probability = value
        self._refresh_shortcut()

    @property
    def corrupt_probability(self) -> float:
        """Per-message corruption probability (assignable at any time)."""
        return self._corrupt_probability

    @corrupt_probability.setter
    def corrupt_probability(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("corrupt_probability must be in [0, 1]")
        self._corrupt_probability = value
        self._refresh_shortcut()

    def _refresh_shortcut(self) -> None:
        """Recompute the shortcut flag after a global-fault mutation.

        Only an exact :class:`FaultPlan` with no crash, timed crash or
        drop/corrupt probability — faults that can touch any link — takes
        the shortcut; subclasses (tests override ``apply`` or the crash
        queries) never do.
        """
        self._shortcut = type(self) is FaultPlan and not (
            self.drop_probability or self.corrupt_probability
            or self._crashed_nodes or self._crash_times)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def drop_nth_message(self, source: str, destination: str, n: int) -> None:
        """Drop the ``n``-th (1-based) message sent from source to destination."""
        if n < 1:
            raise ValueError("n is 1-based and must be >= 1")
        self._drop_nth.setdefault((source, destination), set()).add(n)
        self.directives.append(FaultDirective(
            "drop_nth", source=source, destination=destination, n=n))
        self._surgical_links.add((source, destination))

    def corrupt_nth_message(self, source: str, destination: str, n: int) -> None:
        """Corrupt the ``n``-th (1-based) message on the given link."""
        if n < 1:
            raise ValueError("n is 1-based and must be >= 1")
        self._corrupt_nth.setdefault((source, destination), set()).add(n)
        self.directives.append(FaultDirective(
            "corrupt_nth", source=source, destination=destination, n=n))
        self._surgical_links.add((source, destination))

    def add_link_delay(self, source: str, destination: str, extra: float) -> None:
        """Add a fixed extra delay to every message on the given link."""
        if extra < 0:
            raise ValueError("extra delay must be non-negative")
        self._extra_delay[(source, destination)] = extra
        self.directives.append(FaultDirective(
            "delay_link", source=source, destination=destination, extra=extra))
        self._surgical_links.add((source, destination))

    def delay_message_type(self, source: str, destination: str,
                           type_name: str, extra: float) -> None:
        """Add a fixed extra delay to messages of one payload type on a link.

        ``type_name`` is the class name of the envelope payload (e.g.
        ``"CommitMessage"``), matching the keys of
        :class:`~repro.net.network.MessageStatistics` ``by_type`` counters.
        This is the generalisation of the hand-crafted Commit-delaying plan
        that exposed the lost-Commit abortion race.
        """
        if extra < 0:
            raise ValueError("extra delay must be non-negative")
        if not type_name:
            raise ValueError("type_name must be non-empty")
        self._type_delay[(source, destination, type_name)] = extra
        self.directives.append(FaultDirective(
            "delay_type", source=source, destination=destination,
            type_name=type_name, extra=extra))
        self._surgical_links.add((source, destination))

    def delay_nth_message(self, source: str, destination: str, n: int,
                          extra: float) -> None:
        """Add a fixed extra delay to the ``n``-th (1-based) message on a link."""
        if n < 1:
            raise ValueError("n is 1-based and must be >= 1")
        if extra < 0:
            raise ValueError("extra delay must be non-negative")
        self._nth_delay.setdefault((source, destination), {})[n] = extra
        self.directives.append(FaultDirective(
            "delay_nth", source=source, destination=destination, n=n,
            extra=extra))
        self._surgical_links.add((source, destination))

    def crash_node(self, node: str, at_time: Optional[float] = None) -> None:
        """Mark a node as crashed (optionally from ``at_time`` onwards).

        A crashed node neither sends nor receives messages.
        """
        if at_time is None:
            self._crashed_nodes.add(node)
        else:
            self._crash_times[node] = at_time
        self.directives.append(FaultDirective("crash", node=node,
                                              at_time=at_time))
        self._refresh_shortcut()

    def restore_node(self, node: str,
                     at_time: Optional[float] = None) -> None:
        """Undo a crash, immediately or from ``at_time`` onwards.

        Recorded as its own ``restore`` directive — the earlier ``crash``
        stays in the plan's history, so serialization replays the same
        crash-then-restore sequence (and ``preserves_delivery`` still
        reports the crash) instead of pretending it never happened.

        A timed restore masks the node's crash for every virtual time at
        or after ``at_time``: crash at ``t1`` plus restore at ``t2 > t1``
        models an outage window ``[t1, t2)``.  At most one crash/restore
        wave per node is expressible — a later restore masks every
        earlier crash of that node from its time onward.
        """
        if at_time is None:
            self._crashed_nodes.discard(node)
            self._crash_times.pop(node, None)
            self._restore_times.pop(node, None)
        else:
            self._restore_times[node] = at_time
        self.directives.append(FaultDirective("restore", node=node,
                                              at_time=at_time))
        self._refresh_shortcut()

    def apply_directive(self, directive: FaultDirective) -> None:
        """Apply one :class:`FaultDirective` to this plan."""
        if directive.kind == "drop_nth":
            self.drop_nth_message(directive.source, directive.destination,
                                  directive.n)
        elif directive.kind == "corrupt_nth":
            self.corrupt_nth_message(directive.source, directive.destination,
                                     directive.n)
        elif directive.kind == "delay_link":
            self.add_link_delay(directive.source, directive.destination,
                                directive.extra)
        elif directive.kind == "delay_type":
            self.delay_message_type(directive.source, directive.destination,
                                    directive.type_name, directive.extra)
        elif directive.kind == "delay_nth":
            self.delay_nth_message(directive.source, directive.destination,
                                   directive.n, directive.extra)
        elif directive.kind == "crash":
            self.crash_node(directive.node, directive.at_time)
        else:  # "restore" — __post_init__ guarantees the kind is known
            self.restore_node(directive.node, directive.at_time)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable description of the plan's *construction*.

        Captures the surgical directives and the probabilistic parameters
        (with the seed of the plan's streams), not the mutable runtime
        bookkeeping: :meth:`from_dict` on the result builds a plan that
        behaves identically on the same message sequence.
        """
        return {
            "seed": self._streams.seed,
            "drop_probability": self.drop_probability,
            "corrupt_probability": self.corrupt_probability,
            "directives": [d.to_dict() for d in self.directives],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        plan = cls(streams=SeededStreams(data.get("seed", 0)),
                   drop_probability=data.get("drop_probability", 0.0),
                   corrupt_probability=data.get("corrupt_probability", 0.0))
        for directive in data.get("directives", ()):
            plan.apply_directive(FaultDirective.from_dict(directive))
        return plan

    @classmethod
    def from_directives(cls, directives: Iterable[FaultDirective],
                        **kwargs: Any) -> "FaultPlan":
        """Build a plan by applying ``directives`` in order."""
        plan = cls(**kwargs)
        for directive in directives:
            plan.apply_directive(directive)
        return plan

    def preserves_delivery(self) -> bool:
        """True if this plan cannot drop, corrupt or block any message.

        Such plans stay within the paper's Assumptions 1 and 2, so the
        resolution algorithm's full guarantees apply and any stranded
        thread found under them is a protocol bug, not a violated
        assumption.
        """
        return (self.drop_probability == 0.0
                and self.corrupt_probability == 0.0
                and all(d.preserves_delivery for d in self.directives))

    # ------------------------------------------------------------------
    # Queries used by the network
    # ------------------------------------------------------------------
    def count_link(self, link: Tuple[str, str]) -> int:
        """Advance and return the 1-based message ordinal of ``link``.

        The single owner of the per-link ordinals that the surgical
        ``*_nth`` directives key on: :meth:`apply` calls it for every
        message, and the network's inline shortcut calls it directly, so
        the bookkeeping cannot diverge between the two.
        """
        count = self._link_counts.get(link, 0) + 1
        self._link_counts[link] = count
        return count

    def is_crashed(self, node: str, now: float) -> bool:
        """True if ``node`` is considered crashed at virtual time ``now``."""
        restore_at = self._restore_times.get(node)
        if restore_at is not None and now >= restore_at:
            return False
        if node in self._crashed_nodes:
            return True
        crash_at = self._crash_times.get(node)
        return crash_at is not None and now >= crash_at

    def apply(self, envelope: Envelope, now: float) -> Tuple[bool, float]:
        """Decide the fate of ``envelope``.

        Returns ``(deliver, extra_delay)``.  May also set
        ``envelope.corrupted``.  Updates the fault statistics.
        """
        link = (envelope.source, envelope.destination)
        count = self.count_link(link)

        if self._shortcut and link not in self._surgical_links:
            # No crash, probability or directive can touch a message on
            # this link.  The link count above is still maintained so a
            # directive added mid-run sees the true message ordinals.
            return True, 0.0

        if self.is_crashed(envelope.source, now) or self.is_crashed(
                envelope.destination, now):
            self.stats.blocked_by_crash += 1
            self.log.append(f"blocked {envelope!r} (crashed endpoint)")
            return False, 0.0

        if count in self._drop_nth.get(link, ()):  # surgical drop
            self.stats.dropped += 1
            self.log.append(f"dropped {envelope!r} (surgical #{count})")
            return False, 0.0

        if self.drop_probability and \
                self._streams.random("drop") < self.drop_probability:
            self.stats.dropped += 1
            self.log.append(f"dropped {envelope!r} (probabilistic)")
            return False, 0.0

        if count in self._corrupt_nth.get(link, ()):  # surgical corruption
            envelope.corrupted = True
            self.stats.corrupted += 1
            self.log.append(f"corrupted {envelope!r} (surgical #{count})")
        elif self.corrupt_probability and \
                self._streams.random("corrupt") < self.corrupt_probability:
            envelope.corrupted = True
            self.stats.corrupted += 1
            self.log.append(f"corrupted {envelope!r} (probabilistic)")

        extra = self._extra_delay.get(link, 0.0)
        extra += self._type_delay.get(
            (envelope.source, envelope.destination,
             type(envelope.payload).__name__), 0.0)
        extra += self._nth_delay.get(link, {}).get(count, 0.0)
        if extra:
            self.stats.delayed += 1
            self.log.append(f"delayed {envelope!r} by {extra:g}")
        return True, extra


#: A fault plan that never injects anything — the default for experiments
#: reproducing the paper's figures, which assume a reliable network.
NO_FAULTS = FaultPlan()
