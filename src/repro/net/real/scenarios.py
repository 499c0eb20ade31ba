"""Scenario specs that run on either execution backend.

A :class:`RealScenarioSpec` names the OS-process nodes of a scenario and
knows how to build each node's view of the system: the *same* builder
runs all-local on the sim kernel (``local=None``) or as one child
process per node (``local=<node name>`` plus a wire forwarder).  The
parity contract — identical oracle verdicts and outcome counts across
backends — is what the ``realbackend``-marked tests assert.

These specs live in their own registry, deliberately separate from
``repro.bench.engine.REGISTRY``: the conformance coverage guard pins
every engine scenario to a committed digest, and real-backend runs are
wall-clock timed, so they are gated by oracles instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ... import obs
from ...bench.scenarios import build_experiment1
from ...core.exception_graph import generate_full_graph
from ...core.exceptions import internal
from ...core.action import CAActionDefinition, RoleDefinition
from ...core.handlers import HandlerMap, HandlerResult
from ...explore.monitor import InvariantMonitor
from ...net.latency import ConstantLatency
from ...net.network import Network
from ...net.rpc import RpcEndpoint
from ...obs.config import ObsConfig
from ...objects.remote import ObjectHostService, install_remote_objects
from ...runtime.config import RuntimeConfig
from ...runtime.system import DistributedCASystem
from ...simkernel.kernel import Kernel
from .realnet import RealNetwork

#: Observation profile for backend runs: spans only — events are plain
#: picklable dicts the children ship back to the hub.
_OBS = ObsConfig(spans=True, metrics=False, flight_recorder=False)


@dataclass
class BuiltNode:
    """One node's (or the all-local sim run's) constructed world."""

    system: DistributedCASystem
    monitor: InvariantMonitor
    observation: Any
    #: (object, key) counters created *in this process* and tracked for
    #: the no-lost-update oracle.
    counters: List[Tuple[str, str]] = field(default_factory=list)
    #: Kept alive so the host's RPC procedures stay registered.
    service: Optional[ObjectHostService] = None


@dataclass(frozen=True)
class RealScenarioSpec:
    """A scenario executable on both the sim and the real backend."""

    name: str
    nodes: Tuple[str, ...]
    build: Callable[[Dict[str, Any], Optional[str], Any], BuiltNode]
    defaults: Dict[str, Any]
    #: Whether liveness-flavoured oracles apply (no faults injected).
    require_liveness: bool = True


def _make_network(local: Optional[str], forward, kernel: Kernel,
                  latency) -> Network:
    if local is None:
        return Network(kernel, latency=latency)
    return RealNetwork(kernel, latency, local={local}, forward=forward)


# ----------------------------------------------------------------------
# figure9: the paper's Experiment 1 application across three processes
# ----------------------------------------------------------------------
def _build_figure9(params: Dict[str, Any], local: Optional[str],
                   forward) -> BuiltNode:
    t_msg = params.get("t_msg", 0.2)
    t_abort = params.get("t_abort", 0.1)
    t_resolution = params.get("t_resolution", 0.3)
    iterations = params.get("iterations", 2)
    algorithm = params.get("algorithm", "ours")
    if local is None:
        system = build_experiment1(t_msg, t_abort, t_resolution,
                                   iterations=iterations,
                                   algorithm=algorithm)
    else:
        system = build_experiment1(
            t_msg, t_abort, t_resolution, iterations=iterations,
            algorithm=algorithm, spawn_threads=[local],
            network_factory=lambda kernel, latency: _make_network(
                local, forward, kernel, latency))
    monitor = InvariantMonitor(system)
    observation = obs.observe_system(system, _OBS)
    return BuiltNode(system, monitor, observation)


# ----------------------------------------------------------------------
# transactional: external atomic objects behind an RPC object host
# ----------------------------------------------------------------------
def _build_transactional(params: Dict[str, Any], local: Optional[str],
                         forward) -> BuiltNode:
    """Workers ``W1``/``W2`` increment a counter hosted on ``objhost``.

    Every object access crosses the RPC layer — locks, reads, writes,
    commit — in *both* backends, so the sim run exercises exactly the
    code path the real processes do.  ``W1`` reads the counter under an
    exclusive lock, writes ``value + 1``, and raises ``overdraft`` once
    the value it read reaches ``limit`` (deterministic from the
    authoritative host state); the resolved exception is handled by
    both workers and the action still commits.
    """
    t_msg = params.get("t_msg", 0.1)
    iterations = params.get("iterations", 3)
    limit = params.get("limit", 1)
    algorithm = params.get("algorithm", "ours")
    rpc_timeout = params.get("rpc_timeout", 60.0)
    config = RuntimeConfig(algorithm=algorithm,
                           resolution_time=params.get("t_resolution", 0.2),
                           abort_time=params.get("t_abort", 0.1))
    kernel = Kernel()
    latency = ConstantLatency(t_msg)
    network = _make_network(local, forward, kernel, latency)
    system = DistributedCASystem(config, kernel=kernel, network=network)
    system.add_threads(["W1", "W2"])

    counters: List[Tuple[str, str]] = []
    service: Optional[ObjectHostService] = None
    # Every process registers the object host (a stub where it is
    # remote): sends to it take the network's one send sequence.
    objhost = network.add_node("objhost")
    if local is None or local == "objhost":
        system.create_object("acct", {"value": 0})
        counters.append(("acct", "value"))
        service = ObjectHostService(RpcEndpoint(objhost, network),
                                    system.transactions)

    endpoints = {}
    for worker in ("W1", "W2"):
        if local is None or local == worker:
            # drain=False: the partition dispatcher owns the inbox and
            # routes RPC payloads to the endpoint (see Dispatcher).
            endpoints[worker] = RpcEndpoint(network.node(worker), network,
                                            drain=False)
    if endpoints:
        designated = local if local in endpoints else "W1"
        install_remote_objects(
            system, lambda _instance_key: endpoints[designated], "objhost",
            timeout=rpc_timeout)

    overdraft = internal("overdraft")
    graph = generate_full_graph([overdraft], action_name="Transfer")

    def handled(ctx):
        yield ctx.delay(0.1)
        return HandlerResult.success()

    def u1_body(ctx):
        txn = ctx.transaction
        yield txn.lock("acct")
        value = yield txn.read("acct", "value")
        txn.write("acct", "value", value + 1)
        yield ctx.delay(0.2)
        if value >= limit:
            ctx.raise_exception(overdraft)
        return value

    def u2_body(ctx):
        yield ctx.delay(0.4)
        return "ok"

    transfer = CAActionDefinition(
        "Transfer",
        [RoleDefinition("u1", u1_body, HandlerMap(default_handler=handled)),
         RoleDefinition("u2", u2_body, HandlerMap(default_handler=handled))],
        internal_exceptions=[overdraft], graph=graph,
        external_objects=["acct"])
    system.define_action(transfer)
    system.bind("Transfer", {"u1": "W1", "u2": "W2"})

    def make_program(role):
        def program(ctx):
            reports = []
            for _ in range(iterations):
                report = yield from ctx.perform_action("Transfer", role)
                reports.append(report)
            return reports
        return program

    for worker, role in (("W1", "u1"), ("W2", "u2")):
        if local is None or local == worker:
            system.spawn(worker, make_program(role))

    monitor = InvariantMonitor(system)
    for object_name, key in counters:
        monitor.track_counter(object_name, key)
    observation = obs.observe_system(system, _OBS)
    return BuiltNode(system, monitor, observation, counters=counters,
                     service=service)


#: The real-backend scenario registry (separate from the engine's — see
#: module docstring).
REAL_SCENARIOS: Dict[str, RealScenarioSpec] = {
    "figure9": RealScenarioSpec(
        name="figure9", nodes=("T1", "T2", "T3"), build=_build_figure9,
        defaults={"t_msg": 0.2, "t_abort": 0.1, "t_resolution": 0.3,
                  "iterations": 2, "algorithm": "ours"}),
    "transactional": RealScenarioSpec(
        name="transactional", nodes=("W1", "W2", "objhost"),
        build=_build_transactional,
        defaults={"t_msg": 0.1, "iterations": 3, "limit": 1,
                  "algorithm": "ours"}),
}


def spec_params(spec: RealScenarioSpec,
                overrides: Dict[str, Any]) -> Dict[str, Any]:
    params = dict(spec.defaults)
    params.update(overrides)
    return params


# ----------------------------------------------------------------------
# Node-record collection (shared by the sim runner and the child host)
# ----------------------------------------------------------------------
def collect_record(built: BuiltNode,
                   local: Optional[str] = None) -> Dict[str, Any]:
    """One node's contribution to the merged oracle evaluation.

    Everything in the record is plain picklable data; ``local`` filters
    the quiescence snapshots to the node's own partition (the stub
    partitions of a child process never run and would read as stranded).
    """
    system = built.system
    monitor = built.monitor
    quiescence = monitor.quiescence()
    if local is not None:
        quiescence = [snap for snap in quiescence if snap.thread == local]
    locks = system.transactions.locks
    events = built.observation.events or []
    return {
        "resolutions": {key: list(value)
                        for key, value in monitor.resolutions.items()},
        "outcomes": dict(monitor.outcomes),
        "resolved_map": dict(monitor.resolved_map),
        "quiescence": quiescence,
        "counters": monitor.counter_records(),
        "locks_held": locks.all_holders() if locks is not None else {},
        "locks_waiting": locks.all_waiters() if locks is not None else {},
        "finished_txns": [t.transaction_id
                          for t in system.transactions.finished],
        "stats": system.network.stats.snapshot(),
        "obs_events": list(events),
    }


def run_sim(name: str, **overrides: Any):
    """Run a real-scenario spec all-local on the deterministic sim kernel.

    Returns the same :class:`~repro.net.real.backend.RealRunResult`
    shape as :func:`run_real`, which is what the parity tests compare.
    """
    from .backend import assemble_result

    spec = REAL_SCENARIOS[name]
    params = spec_params(spec, overrides)
    built = spec.build(params, None, None)
    built.system.kernel.run()
    record = collect_record(built)
    return assemble_result(spec, "sim", {"sim": record}, crashed=[],
                           wall_time=0.0)


def run_real(name: str, **overrides: Any):
    """Run a real-scenario spec across OS processes (convenience)."""
    from .backend import RealBackend

    backend = RealBackend(
        time_scale=overrides.pop("time_scale", 0.05),
        wall_timeout=overrides.pop("wall_timeout", 120.0),
        settle=overrides.pop("settle", 0.5),
        stall=overrides.pop("stall", 5.0))
    return backend.run(name, kill=overrides.pop("kill", None), **overrides)
