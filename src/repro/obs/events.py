"""The observability event taxonomy.

Every instrumentation point in the kernel, network, runtime, and
workload layers emits one **event record**: a plain dict with two
mandatory keys — ``"t"`` (virtual time) and ``"kind"`` (one of the
constants below) — plus kind-specific fields.  Plain dicts keep the hot
path allocation-cheap, make JSONL export trivial, and survive pickling
unchanged.

Kinds are dotted ``layer.verb`` strings grouped into six categories:

========== =====================================================
category   kinds
========== =====================================================
action     ``action.entered`` ``action.raised`` ``action.aborting``
           ``action.resolved`` ``action.signalled``
           ``action.concluded`` ``action.abortion_completed``
           ``signal.parked`` ``signal.stale_dropped``
message    ``message.sent`` ``message.delivered`` ``message.dropped``
workload   ``job.submitted`` ``job.dispatched`` ``job.completed``
           ``job.dropped`` ``admission.queued`` ``admission.retry``
           ``admission.dropped``
objects    ``lock.granted`` ``lock.waiting`` ``lock.deadlock``
           ``lock.released``
note       ``coord.note`` ``signal.note`` ``partition.note``
kernel     ``kernel.step`` (opt-in; one record per scheduler step)
========== =====================================================

Notes carry ``thread`` and ``text``: a coordinator or signalling transition,
or a partition remark; canonical explorer traces render ``coord.note``.

Message records carry ``src``, ``dst``, ``type`` and ``seq`` (send order).
``message.sent``, the one record of a message, is emitted once its fate
is known and adds ``payload`` (its ``repr``), ``deliver`` (``None`` when
the fault plan dropped it) and ``corrupted``; canonical explorer traces
render it.  ``message.dropped`` adds ``reason``: ``fault``/``dead_target``.

Life-cycle kinds are derived mechanically from the runtime's probe
names (``system.probe("entered", ...)`` becomes ``action.entered``);
unknown probe names pass through as ``probe.<name>`` so a future probe
is recorded rather than lost.
"""

from __future__ import annotations

from typing import Dict

# --- action life-cycle (from ``DistributedCASystem.probes``) ----------
ACTION_ENTERED = "action.entered"
ACTION_RAISED = "action.raised"
ACTION_ABORTING = "action.aborting"
ACTION_RESOLVED = "action.resolved"
ACTION_SIGNALLED = "action.signalled"
ACTION_CONCLUDED = "action.concluded"
ACTION_ABORTION_COMPLETED = "action.abortion_completed"
SIGNAL_PARKED = "signal.parked"
SIGNAL_STALE_DROPPED = "signal.stale_dropped"

# --- messaging (from ``Network`` / ``RpcEndpoint``) -------------------
MESSAGE_SENT = "message.sent"
MESSAGE_DELIVERED = "message.delivered"
MESSAGE_DROPPED = "message.dropped"
RPC_FAILURE = "rpc.failure"

# --- workload admission + jobs (from ``WorkloadDriver``) --------------
JOB_SUBMITTED = "job.submitted"
JOB_DISPATCHED = "job.dispatched"
JOB_COMPLETED = "job.completed"
JOB_DROPPED = "job.dropped"
ADMISSION_QUEUED = "admission.queued"
ADMISSION_RETRY = "admission.retry"
ADMISSION_DROPPED = "admission.dropped"

# --- shared objects (from ``LockManager``) ----------------------------
LOCK_GRANTED = "lock.granted"
LOCK_WAITING = "lock.waiting"
LOCK_DEADLOCK = "lock.deadlock"
LOCK_RELEASED = "lock.released"

# --- per-thread diagnostics (coordinators and partitions) ------------
COORD_NOTE = "coord.note"
SIGNAL_NOTE = "signal.note"
PARTITION_NOTE = "partition.note"

# --- scheduler (opt-in, high volume) ----------------------------------
KERNEL_STEP = "kernel.step"

#: Runtime probe name → event kind.  Probes not listed here are still
#: recorded, as ``probe.<name>``.
PROBE_KINDS: Dict[str, str] = {
    "entered": ACTION_ENTERED,
    "raised": ACTION_RAISED,
    "aborting": ACTION_ABORTING,
    "resolved": ACTION_RESOLVED,
    "signalled": ACTION_SIGNALLED,
    "concluded": ACTION_CONCLUDED,
    "abortion_completed": ACTION_ABORTION_COMPLETED,
    "signal_parked": SIGNAL_PARKED,
    "signal_stale_dropped": SIGNAL_STALE_DROPPED,
}

#: Kind → category, used by the Chrome exporter to pick track and
#: phase, and by :func:`repro.obs.export.summarize` to group counts.
CATEGORIES: Dict[str, str] = {}
for _kind in (ACTION_ENTERED, ACTION_RAISED, ACTION_ABORTING,
              ACTION_RESOLVED, ACTION_SIGNALLED, ACTION_CONCLUDED,
              ACTION_ABORTION_COMPLETED, SIGNAL_PARKED,
              SIGNAL_STALE_DROPPED):
    CATEGORIES[_kind] = "action"
for _kind in (MESSAGE_SENT, MESSAGE_DELIVERED, MESSAGE_DROPPED,
              RPC_FAILURE):
    CATEGORIES[_kind] = "message"
for _kind in (JOB_SUBMITTED, JOB_DISPATCHED, JOB_COMPLETED, JOB_DROPPED,
              ADMISSION_QUEUED, ADMISSION_RETRY, ADMISSION_DROPPED):
    CATEGORIES[_kind] = "workload"
for _kind in (LOCK_GRANTED, LOCK_WAITING, LOCK_DEADLOCK, LOCK_RELEASED):
    CATEGORIES[_kind] = "objects"
for _kind in (COORD_NOTE, SIGNAL_NOTE, PARTITION_NOTE):
    CATEGORIES[_kind] = "note"
CATEGORIES[KERNEL_STEP] = "kernel"
del _kind


def category(kind: str) -> str:
    """The category of an event kind (``"probe"`` for pass-throughs)."""
    return CATEGORIES.get(kind, "probe")
