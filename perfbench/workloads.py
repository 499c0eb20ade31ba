"""The benchmark's three workloads, built from the library's public constructors.

Each workload is one open-loop Poisson arrival stream (virtual time) over a
shared worker pool, with t_msg = 0.02 and t_resolution = 0.05:

* ``steady`` -- the capacity sweep's ``pool64`` shape just under its
  measured knee: 64 workers, width-2 ``Serve``, 10% raising, 18 arrivals
  per unit of virtual time, queue 128.  Lifecycle, driver and kernel
  carry the cost.
* ``storm`` -- width-8 ``Serve`` on 64 workers, every instance raising, 4
  arrivals per unit, with seeded delivery-preserving delay noise on the
  protocol messages.  Network, coordinator and dispatcher carry the cost.
* ``txn`` -- the registered ``Transfer`` action over 8 shared accounts:
  width 2, 30% raising, 50% of raisers aborting, 1 arrival per unit.  The
  only workload that touches ``repro.objects`` (strict 2PL, deadlock
  recovery, rollback).

Why the loads differ from the capacity sweep's ``pool64`` point is
recorded in ``NOTES.md``.

:func:`build` constructs one run (system, monitor, driver, arrival process)
and :func:`check` turns the finished run into its oracle verdict and its
deterministic fingerprint.  Neither reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.explore.monitor import InvariantMonitor
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedCASystem
from repro.simkernel.rng import SeededStreams
from repro.workload.admission import AdmissionController
from repro.workload.arrivals import OpenLoopPoisson
from repro.workload.driver import WorkloadDriver, WorkloadReport
from repro.workload.transactional import account_name

T_MSG = 0.02
T_RESOLUTION = 0.05

#: Workload parameters.  ``jobs`` is the instance count of one repetition;
#: ``scenario`` names the registered engine scenario whose row a
#: repetition must reproduce (``None`` when no scenario builds the same
#: system).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "steady": {"jobs": 3000, "pool": 64, "width": 2, "load": 18.0,
               "raise_probability": 0.1, "queue": 128,
               "scenario": "capacity"},
    "storm": {"jobs": 300, "pool": 64, "width": 8, "load": 4.0,
              "raise_probability": 1.0, "queue": 128,
              "noise_directives": 400, "noise_max_extra": 0.4,
              "scenario": None},
    "txn": {"jobs": 1500, "pool": 8, "width": 2, "load": 1.0,
            "raise_probability": 0.3, "abort_probability": 0.5,
            "accounts": 8, "queue": 32, "scenario": "transactional"},
}

#: Protocol message types the storm's delay noise targets.
_NOISE_TYPES = ("ExceptionMessage", "SuspendedMessage", "CommitMessage",
                "ToBeSignalledMessage")


@dataclass
class Run:
    """One built (not yet run) workload repetition."""

    workload: str
    seed: int
    jobs: int
    system: DistributedCASystem
    driver: WorkloadDriver
    monitor: InvariantMonitor
    arrivals: OpenLoopPoisson


def _workers(pool: int) -> List[str]:
    return [f"W{i:02d}" for i in range(1, pool + 1)]


def _noise_plan(seed: int, workers: List[str], directives: int,
                max_extra: float) -> FaultPlan:
    """Seeded per-link delays of protocol message types (no drops)."""
    plan = FaultPlan(streams=SeededStreams(seed))
    stream = SeededStreams(seed).stream("perfbench-noise")
    for _ in range(directives):
        source = stream.choice(workers)
        destination = stream.choice([w for w in workers if w != source])
        plan.delay_message_type(source, destination,
                                stream.choice(_NOISE_TYPES),
                                round(stream.uniform(0.05, max_extra), 3))
    return plan


def build(workload: str, seed: int) -> Run:
    """Build one repetition of ``workload`` with inputs drawn from ``seed``."""
    params = WORKLOADS[workload]
    jobs = params["jobs"]
    workers = _workers(params["pool"])
    faults = None
    if workload == "storm":
        faults = _noise_plan(seed, workers, params["noise_directives"],
                             params["noise_max_extra"])
    system = DistributedCASystem(
        RuntimeConfig(algorithm="ours", resolution_time=T_RESOLUTION),
        latency=ConstantLatency(T_MSG), faults=faults)
    system.add_threads(workers)
    if workload == "txn":
        for index in range(params["accounts"]):
            system.create_object(account_name(index), {"value": 0})
    monitor = InvariantMonitor(system)
    if workload == "txn":
        for index in range(params["accounts"]):
            monitor.track_counter(account_name(index))
    driver = WorkloadDriver(
        system, seed=seed,
        admission=AdmissionController(queue_capacity=params["queue"],
                                      policy="drop"))
    if workload == "txn":
        driver.add_action("Transfer", width=params["width"],
                          raise_probability=params["raise_probability"],
                          abort_probability=params["abort_probability"],
                          n_accounts=params["accounts"])
    else:
        driver.add_action("Serve", width=params["width"],
                          raise_probability=params["raise_probability"])
    return Run(workload, seed, jobs, system, driver, monitor,
               OpenLoopPoisson(rate=params["load"], count=jobs))


def check(run: Run, report: WorkloadReport) -> Dict[str, Any]:
    """The finished run's oracle verdict and deterministic fingerprint.

    ``violations`` lists every invariant-oracle violation (liveness
    included: every workload's faults preserve delivery).  The
    ``fingerprint`` holds only quantities fixed by the seed, so two runs
    of one seed -- traced or not -- must produce equal fingerprints.
    """
    violations = [str(v) for v in run.monitor.check(require_liveness=True)]
    if report.completed + report.dropped != report.jobs or \
            report.jobs != run.jobs:
        violations.append(f"job accounting: {report.jobs} jobs, "
                          f"{report.completed} completed, "
                          f"{report.dropped} dropped, {run.jobs} offered")
    messages = run.system.network.stats.protocol_messages()
    fingerprint = {
        "jobs": report.jobs,
        "completed": report.completed,
        "dropped": report.dropped,
        "outcomes": dict(report.outcome_counts),
        "admission": dict(report.admission),
        "protocol_messages": messages,
        "latency": dict(report.latency),
        "wait": dict(report.wait),
        "total_time": report.total_time,
    }
    if run.workload == "txn":
        manager = run.system.transactions
        fingerprint["account_total"] = sum(
            manager.object(account_name(i)).committed_value("value")
            for i in range(WORKLOADS["txn"]["accounts"]))
        fingerprint["committed_increments"] = sum(
            record["committed_writers"]
            for record in run.monitor.counter_records())
        if fingerprint["account_total"] != \
                fingerprint["committed_increments"]:
            violations.append("account total differs from committed "
                              "increments")
        if manager.active:
            violations.append(f"{len(manager.active)} transactions "
                              f"still active at quiescence")
    return {"violations": violations, "fingerprint": fingerprint}


def scenario_point(workload: str, seed: int, jobs: int) -> Dict[str, Any]:
    """The engine grid point that builds the same system as ``workload``."""
    params = WORKLOADS[workload]
    point = {"offered_load": params["load"], "n_instances": jobs,
             "pool_size": params["pool"], "width": params["width"],
             "raise_probability": params["raise_probability"],
             "seed": seed, "t_msg": T_MSG, "t_resolution": T_RESOLUTION,
             "queue_capacity": params["queue"], "policy": "drop"}
    if workload == "txn":
        point["abort_probability"] = params["abort_probability"]
        point["n_accounts"] = params["accounts"]
    return point
