"""Per-thread action-execution state shared by the runtime subsystems.

The dispatcher, the effect interpreter and the action life-cycle all operate
on the same per-thread state: the stack of :class:`ActionFrame` objects, the
pending-abort record and the per-action occurrence counters.  This module
holds those data structures (and nothing else), so the behavioural modules
stay free of mutual imports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.action import CAActionDefinition
from ..core.exceptions import ExceptionDescriptor
from ..core.signalling import SignalCoordinator
from ..core.state import ActionContext
from ..objects.transaction import Transaction
from ..simkernel.events import Event
from .report import ActionReport


class AbortedByEnclosing(Exception):
    """Internal unwinding signal: a nested action was aborted from above."""

    def __init__(self, report: ActionReport) -> None:
        super().__init__(report.action)
        self.report = report


@dataclass(slots=True)
class PendingAbort:
    """Recorded abort request: which nested actions, down to which action."""

    actions: Tuple[str, ...]
    resume_action: str
    cause: Optional[ExceptionDescriptor] = None

    def covers(self, action: str) -> bool:
        return action in self.actions

    @property
    def outermost(self) -> str:
        return self.actions[-1] if self.actions else self.resume_action


@dataclass(slots=True)
class ActionFrame:
    """Per-thread runtime state of one action instance being executed."""

    action: str
    role: str
    occurrence: int
    instance_key: str
    definition: CAActionDefinition
    context: ActionContext
    transaction: Transaction
    parent: Optional["ActionFrame"] = None
    started_at: float = 0.0
    #: Becomes True as soon as any exception activity touches this action.
    exception_mode: bool = False
    #: The resolving exception, once known.
    resolved: Optional[ExceptionDescriptor] = None
    resolution_event: Optional[Event] = None
    #: Signalling phase state.
    signal_coordinator: Optional[SignalCoordinator] = None
    signal_event: Optional[Event] = None
    #: External-object exceptions already notified (deduplication).
    informed: Set[str] = field(default_factory=set)


class FrameStack:
    """The stack of active action frames of one thread.

    Also keeps the per-parent occurrence counters from which instance keys
    are derived, so that every cooperating thread computes the same key for
    the same joint attempt even if some earlier nested attempt was abandoned
    during recovery.
    """

    def __init__(self) -> None:
        self.frames: List[ActionFrame] = []
        self.occurrences: Dict[str, int] = defaultdict(int)

    def push(self, frame: ActionFrame) -> None:
        self.frames.append(frame)

    def remove(self, frame: ActionFrame) -> None:
        self.frames.remove(frame)

    def find(self, action: str) -> Optional[ActionFrame]:
        """The innermost frame executing ``action`` (by name or instance key)."""
        for frame in reversed(self.frames):
            if frame.action == action or frame.instance_key == action:
                return frame
        return None

    def next_instance_key(self, action: str,
                          parent: Optional[ActionFrame]) -> Tuple[int, str]:
        """Allocate the next (occurrence, instance key) pair for ``action``."""
        parent_key = parent.instance_key if parent else ""
        counter_key = f"{parent_key}|{action}"
        self.occurrences[counter_key] += 1
        occurrence = self.occurrences[counter_key]
        instance_key = (f"{parent_key}/{action}#{occurrence}" if parent_key
                        else f"{action}#{occurrence}")
        return occurrence, instance_key

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)
