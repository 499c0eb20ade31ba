"""The scenario systems the fault-space explorer runs plans against.

A target is a deterministic builder: given a fault plan and a schedule
seed it produces a fully-spawned
:class:`~repro.runtime.system.DistributedCASystem`.  All randomness lives
in the plan, so ``(target, plan)`` fixes the run exactly.

Two targets ship by default:

* ``nested_abort`` — the nested-action-with-abortion-window shape in which
  the lost-Commit race of PR 2 lived: T2 raises and resolves inside the
  nested action while T1's outer exception forces T2/T3 to abort it, so
  any protocol message delayed into the abortion window stresses the
  abort/resolution interleaving;
* ``concurrent_raises`` — three threads raise different exceptions nearly
  simultaneously (the Figure 12 shape), the classic workload for the
  resolution algorithm itself and the natural one for differential
  comparison against the baseline algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.action import CAActionDefinition, RoleDefinition
from ..core.exception_graph import generate_full_graph
from ..core.exceptions import internal
from ..core.handlers import HandlerMap, HandlerResult
from ..net.faults import FaultPlan
from ..net.latency import ConstantLatency
from ..runtime.config import RuntimeConfig
from ..runtime.system import DistributedCASystem
from ..simkernel.kernel import Kernel

#: Signature of a target builder.
Builder = Callable[[FaultPlan, Optional[int], str], DistributedCASystem]


@dataclass(frozen=True)
class ExplorationTarget:
    """A named, explorable scenario."""

    name: str
    builder: Builder
    threads: Tuple[str, ...]
    description: str = ""

    def build(self, faults: FaultPlan, tie_seed: Optional[int] = None,
              algorithm: str = "ours") -> DistributedCASystem:
        return self.builder(faults, tie_seed, algorithm)


# ----------------------------------------------------------------------
# nested_abort: the abortion-window scenario
# ----------------------------------------------------------------------
OUTER_FAULT = internal("outer_fault")
ABORT_RESIDUE = internal("abort_residue")
INNER_FAULT = internal("inner_fault")


def build_nested_abort(faults: FaultPlan, tie_seed: Optional[int] = None,
                       algorithm: str = "ours") -> DistributedCASystem:
    """Nested action aborted while its resolution is still in flight.

    ``T1``–``T3`` run ``Outer``; ``T2``/``T3`` enter the nested ``Inner``.
    ``T2`` raises in ``Inner`` at t=1 and (as the largest exceptional
    thread) resolves it; its handler is slow, so when ``T1`` raises in
    ``Outer`` at t=2 both nested participants abort ``Inner`` — ``T3``
    possibly while the Inner ``Commit`` is still travelling toward it.
    The abortion handler signals ``abort_residue``, and all three threads
    recover through the ``abort_residue&outer_fault`` cover.
    """
    config = RuntimeConfig(algorithm=algorithm, abort_time=3.0,
                           resolution_time=0.0)
    system = DistributedCASystem(config, latency=ConstantLatency(0.1),
                                 faults=faults,
                                 kernel=Kernel(tie_seed=tie_seed))
    system.add_threads(["T1", "T2", "T3"])

    outer_graph = generate_full_graph([OUTER_FAULT, ABORT_RESIDUE],
                                      action_name="Outer")
    inner_graph = generate_full_graph([INNER_FAULT], action_name="Inner")

    def outer_handler(ctx):
        yield ctx.delay(0.2)
        return HandlerResult.success()

    def slow_inner_handler(ctx):
        # Keeps the nested participants inside the (abort-interruptible)
        # handling phase when the outer exception arrives.
        yield ctx.delay(10.0)
        return HandlerResult.success()

    def signal_residue(ctx):
        return HandlerResult.signal(ABORT_RESIDUE)

    def inner_raiser(ctx):
        yield ctx.delay(1.0)
        ctx.raise_exception(INNER_FAULT)

    def inner_worker(ctx):
        yield ctx.delay(50.0)

    inner = CAActionDefinition(
        "Inner",
        [RoleDefinition("b2", inner_raiser,
                        HandlerMap(default_handler=slow_inner_handler)),
         RoleDefinition("b3", inner_worker,
                        HandlerMap(abortion_handler=signal_residue,
                                   default_handler=slow_inner_handler))],
        internal_exceptions=[INNER_FAULT], graph=inner_graph, parent="Outer")

    def outer_raiser(ctx):
        yield ctx.delay(2.0)
        ctx.raise_exception(OUTER_FAULT)

    def nesting_role(role):
        def body(ctx):
            yield ctx.delay(0.1)
            report = yield from ctx.perform_nested("Inner", role)
            return report
        return body

    outer = CAActionDefinition(
        "Outer",
        [RoleDefinition("a1", outer_raiser,
                        HandlerMap(default_handler=outer_handler)),
         RoleDefinition("a2", nesting_role("b2"),
                        HandlerMap(default_handler=outer_handler)),
         RoleDefinition("a3", nesting_role("b3"),
                        HandlerMap(default_handler=outer_handler))],
        internal_exceptions=[OUTER_FAULT, ABORT_RESIDUE], graph=outer_graph)

    system.define_action(outer)
    system.define_action(inner)
    system.bind("Outer", {"a1": "T1", "a2": "T2", "a3": "T3"})
    system.bind("Inner", {"b2": "T2", "b3": "T3"})

    for thread, role in (("T1", "a1"), ("T2", "a2"), ("T3", "a3")):
        system.spawn(thread, _single_action_program("Outer", role))
    return system


# ----------------------------------------------------------------------
# concurrent_raises: the Figure 12 shape
# ----------------------------------------------------------------------
CONCURRENT_FAULTS = tuple(internal(f"fault_{i}") for i in (1, 2, 3))


def build_concurrent_raises(faults: FaultPlan, tie_seed: Optional[int] = None,
                            algorithm: str = "ours") -> DistributedCASystem:
    """Three threads raise different exceptions nearly simultaneously."""
    config = RuntimeConfig(algorithm=algorithm, resolution_time=0.1)
    system = DistributedCASystem(config, latency=ConstantLatency(0.1),
                                 faults=faults,
                                 kernel=Kernel(tie_seed=tie_seed))
    threads = ["T1", "T2", "T3"]
    system.add_threads(threads)

    graph = generate_full_graph(list(CONCURRENT_FAULTS),
                                action_name="Concurrent")

    def resolving_handler(ctx):
        yield ctx.delay(0.2)
        return HandlerResult.success()

    def make_raising_role(index):
        def body(ctx):
            yield ctx.delay(1.0 + 0.001 * index)
            ctx.raise_exception(CONCURRENT_FAULTS[index])
        return body

    roles = [RoleDefinition(f"r{i + 1}", make_raising_role(i),
                            HandlerMap(default_handler=resolving_handler))
             for i in range(3)]
    action = CAActionDefinition("Concurrent", roles,
                                internal_exceptions=list(CONCURRENT_FAULTS),
                                graph=graph)
    system.define_action(action)
    system.bind("Concurrent", {f"r{i + 1}": threads[i] for i in range(3)})

    for i, thread in enumerate(threads):
        system.spawn(thread, _single_action_program("Concurrent", f"r{i + 1}"))
    return system


def _single_action_program(action: str, role: str):
    def program(ctx):
        report = yield from ctx.perform_action(action, role)
        return report
    return program


#: The default target registry.
TARGETS: Dict[str, ExplorationTarget] = {
    target.name: target for target in (
        ExplorationTarget(
            "nested_abort", build_nested_abort, ("T1", "T2", "T3"),
            "nested action aborted while its resolution is in flight"),
        ExplorationTarget(
            "concurrent_raises", build_concurrent_raises, ("T1", "T2", "T3"),
            "three threads raise different exceptions simultaneously"),
    )
}


def get_target(name_or_target) -> ExplorationTarget:
    """Resolve a target given by name or already-constructed object."""
    if isinstance(name_or_target, ExplorationTarget):
        return name_or_target
    try:
        return TARGETS[name_or_target]
    except KeyError:
        raise KeyError(f"unknown exploration target {name_or_target!r}; "
                       f"registered: {sorted(TARGETS)}") from None
