"""Benchmark of the simulated CA-action stack, one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

The workloads are described in ``perfbench/workloads.py`` and the choice
of workloads, metrics and exclusions in ``perfbench/NOTES.md``.

``--seed`` fixes the inputs: a run uses the derived input seeds
``seed * 100 + k`` for ``k < INPUTS[workload]``.  Each repetition builds a
fresh system and drives one input's arrivals through ``driver.run``.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
in fresh interpreters, the peak traced memory of one repetition, then
timed repetitions cycling over the inputs for ``--seconds`` (at least one
full cycle).  Both timed metrics are scaled to a nominal host by a
reference loop timed alongside the work (``perfbench/reference.py``).  With ``--trace 1`` it alternates untraced and traced
repetitions of the first input and reports the per-layer ledger.

Every repetition is checked: the invariant oracles must pass, the
fingerprint of each input must repeat exactly across repetitions, traced
or not, and ``steady``/``txn`` must reproduce the registered engine
scenario's row for the same point.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` (counted in
action instances) and ``metrics``.  Run metadata (host calibration,
fingerprints, per-repetition values, the ledger) goes to
``.perfbench/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Distinct inputs per run.  Deterministic metrics are pooled over them,
#: which narrows their spread from one seed to the next.
INPUTS = {"steady": 8, "storm": 16, "txn": 12}
#: Fresh interpreters started per run to time set-up (median reported).
SETUP_PROBES = 9
#: Reference chunks timed before and after each set-up probe.
SETUP_CHUNKS = 20
#: Reserved for confirming a gain claim; do not use it while writing one.
HELD_OUT_SEED = 7919

E2E_UNITS = {
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "completed_frac": "frac",
    "virt_latency_p50": "vt",
    "virt_latency_p99": "vt",
    "msgs_per_instance": "msgs/inst",
}


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds of the fastest of 20 reference chunks (``reference.py``)."""
    from perfbench.reference import chunk

    return min(chunk() for _ in range(20))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def input_seeds(workload: str, seed: int) -> List[int]:
    return [seed * 100 + k for k in range(INPUTS[workload])]


def measure_setup(workload: str, seed: int) -> List[Dict[str, float]]:
    """Set-up seconds from ``SETUP_PROBES`` fresh interpreters.

    Each probe's wall time is scaled to the nominal host by reference
    chunks timed right before it starts and right after it ends.
    """
    from perfbench.reference import NOMINAL_CHUNK_S, chunks

    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        before = chunks(SETUP_CHUNKS)
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), repr(started),
             str(SETUP_CHUNKS)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        probed = json.loads(done.stdout.splitlines()[-1])
        chunk_s = (before + probed["chunk_s"]) / 2
        samples.append({"wall_s": probed["setup_s"], "chunk_s": chunk_s,
                        "nominal_s": probed["setup_s"] * NOMINAL_CHUNK_S
                        / chunk_s})
    return samples


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def repetition(workload: str, seed: int, tracer=None,
               memory: bool = False,
               sampling: bool = False) -> Dict[str, Any]:
    """Build and run one input; return its measurements and verdict.

    With ``sampling``, reference chunks are interleaved into the run (see
    ``reference.py``); ``wall_s`` excludes them and ``nominal_s`` is
    ``wall_s`` scaled to the nominal host.
    """
    from perfbench import workloads
    from perfbench.reference import Sampler

    gc.collect()
    if memory:
        tracemalloc.start()
    if tracer is not None:
        tracer.install()
    try:
        run = workloads.build(workload, seed)
        sampler = Sampler(sampling)
        run.system.kernel.add_tracer(sampler)
        started = time.perf_counter()
        report = run.driver.run(run.arrivals)
        wall = time.perf_counter() - started - sampler.chunk_s
    finally:
        if tracer is not None:
            tracer.uninstall()
        peak = tracemalloc.get_traced_memory()[1] if memory else 0
        if memory:
            tracemalloc.stop()
    verdict = workloads.check(run, report)
    verdict["fingerprint"]["kernel_events"] = sampler.events
    jobs_done = run.driver.jobs
    result = {
        "seed": seed,
        "wall_s": wall,
        "nominal_s": wall * sampler.scale(),
        "jobs": report.jobs,
        "completed": report.completed,
        "violations": verdict["violations"],
        "fingerprint": verdict["fingerprint"],
        "latencies": [job.latency for job in jobs_done
                      if job.outcome == "completed"],
        "waits": [job.wait for job in jobs_done if job.wait is not None],
        "messages": run.system.network.stats.protocol_messages(),
        "peak_mem_mb": peak / 2**20,
    }
    if tracer is not None:
        result["ledger"] = tracer.ledger()
        result["layers"] = layer_metrics(run, result, tracer)
    return result


def layer_metrics(run, rep: Dict[str, Any], tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, per completed instance."""
    ledger = rep["ledger"]
    completed = rep["completed"]

    def row(name: str) -> Dict[str, float]:
        return ledger.get(name, {"spans": 0, "inclusive_s": 0.0,
                                 "self_s": 0.0})

    def per_instance(value: float) -> float:
        return value / completed

    def self_us(name: str) -> float:
        return per_instance(row(name)["self_s"] * 1e6)

    def us_per_call(name: str) -> float:
        spans = row(name)["spans"]
        return row(name)["inclusive_s"] * 1e6 / spans if spans else 0.0

    manager = run.system.transactions
    touched = [t for t in manager.finished
               if t.transaction_id in tracer.lock_transactions]
    committed = sum(1 for t in touched if t.status.value == "committed")
    trace_entries = sum(len(p.coordinator.trace)
                        for p in run.system.partitions.values())
    attributed = sum(r["self_s"] for r in ledger.values())
    return {
        "simkernel.events_per_instance":
            per_instance(rep["fingerprint"]["kernel_events"]),
        "simkernel.self_us_per_instance": self_us("simkernel"),
        "net.envelopes_per_instance": per_instance(row("net.send")["spans"]),
        "net.send.us_per_call": us_per_call("net.send"),
        "net.send.self_us_per_instance": self_us("net.send"),
        "runtime.dispatch.calls_per_instance":
            per_instance(row("runtime.dispatch")["spans"]),
        "runtime.dispatch.self_us_per_instance": self_us("runtime.dispatch"),
        "runtime.effects.calls_per_instance":
            per_instance(tracer.calls["runtime.effects"]),
        "runtime.effects.self_us_per_instance": self_us("runtime.effects"),
        "runtime.lifecycle.resumes_per_instance":
            per_instance(row("runtime.lifecycle")["spans"]),
        "runtime.lifecycle.self_us_per_instance":
            self_us("runtime.lifecycle"),
        "core.receive.calls_per_instance":
            per_instance(row("core.receive")["spans"]),
        "core.receive.self_us_per_instance": self_us("core.receive"),
        "core.signal.calls_per_instance":
            per_instance(row("core.signal")["spans"]),
        "core.signal.self_us_per_instance": self_us("core.signal"),
        "core.resolve.us_per_call": us_per_call("core.resolve"),
        "core.trace_entries_per_instance":
            per_instance(trace_entries + tracer.signal_trace_entries),
        "objects.lock.acquire.calls_per_instance":
            per_instance(row("objects.lock.acquire")["spans"]),
        "objects.lock.acquire.self_us_per_instance":
            self_us("objects.lock.acquire"),
        "objects.deadlocks_per_instance": per_instance(tracer.deadlocks),
        "objects.commit_frac": committed / len(touched) if touched else 0.0,
        "workload.admission.self_us_per_instance":
            self_us("workload.admission"),
        "workload.submit.self_us_per_instance": self_us("workload.submit"),
        "workload.queue_wait_p99": percentile(rep["waits"], 0.99),
        "ledger.attributed_frac": attributed / rep["wall_s"],
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Collects every failed check of one run, counted in instances."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.violations = 0
        self.reference: Dict[int, Dict[str, Any]] = {}

    def admit(self, rep: Dict[str, Any]) -> None:
        """Count ``rep``; fail all of it on a violation or fingerprint drift.

        Without either, only the instances that did not complete (dropped
        by admission) count as failed.
        """
        self.attempted += rep["jobs"]
        self.violations += len(rep["violations"])
        problems = list(rep["violations"])
        reference = self.reference.setdefault(rep["seed"], rep)
        if reference["fingerprint"] != rep["fingerprint"]:
            problems.append(f"fingerprint of input {rep['seed']} differs "
                            f"between repetitions")
        if problems:
            self.failed += rep["jobs"]
            self.problems += problems
        else:
            self.failed += rep["jobs"] - rep["completed"]

    def fail(self, jobs: int, problem: str) -> None:
        self.attempted += jobs
        self.failed += jobs
        self.problems.append(problem)

    def digest(self) -> str:
        canonical = json.dumps(
            {str(seed): rep["fingerprint"]
             for seed, rep in sorted(self.reference.items())},
            sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def scenario_check(workload: str, rep: Dict[str, Any], gate: Gate) -> None:
    """Fail unless the registered scenario reproduces ``rep``'s row."""
    from perfbench import workloads
    from repro.bench.engine import run_scenario

    name = workloads.WORKLOADS[workload]["scenario"]
    if name is None:
        return
    point = workloads.scenario_point(workload, rep["seed"], rep["jobs"])
    row = run_scenario(name, points=[point])[0]
    fingerprint = rep["fingerprint"]
    mismatched = [
        key for key, ours in (
            ("jobs", fingerprint["jobs"]),
            ("completed", fingerprint["completed"]),
            ("dropped", fingerprint["dropped"]),
            ("outcomes", fingerprint["outcomes"]),
            ("admission", fingerprint["admission"]),
            ("protocol_messages", fingerprint["protocol_messages"]),
            ("total_time", fingerprint["total_time"]),
            *((f"latency_{k}", v) for k, v in fingerprint["latency"].items()),
            *((f"wait_{k}", v) for k, v in fingerprint["wait"].items()),
            ("account_total", fingerprint.get("account_total")),
            ("committed_increments",
             fingerprint.get("committed_increments")),
        )
        if row.get(key) != ours]
    if row.get("n_violations", 0):
        mismatched.append("n_violations")
    if mismatched:
        gate.fail(rep["jobs"], f"scenario {name!r} row differs from the "
                               f"benchmark's on {mismatched}")


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: float, gate: Gate,
               meta: Dict[str, Any]) -> Dict[str, float]:
    setup = measure_setup(workload, seed)
    seeds = input_seeds(workload, seed)
    memory_rep = repetition(workload, seeds[0], memory=True)
    gate.admit(memory_rep)
    scenario_check(workload, memory_rep, gate)

    reps: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < len(seeds) or time.perf_counter() < deadline:
        rep = repetition(workload, seeds[len(reps) % len(seeds)],
                         sampling=True)
        gate.admit(rep)
        reps.append({key: rep[key] for key in ("seed", "wall_s",
                                               "nominal_s", "jobs",
                                               "completed")})
    rates = [rep["completed"] / rep["nominal_s"] for rep in reps]
    raw_rates = [rep["completed"] / rep["wall_s"] for rep in reps]

    inputs = [gate.reference[s] for s in seeds]
    latencies = [v for rep in inputs for v in rep["latencies"]]
    completed = sum(rep["completed"] for rep in inputs)
    metrics = {
        "instances_per_s": statistics.median(rates),
        "setup_s": statistics.median(probe["nominal_s"] for probe in setup),
        "peak_mem_mb": memory_rep["peak_mem_mb"],
        "completed_frac": completed / sum(rep["jobs"] for rep in inputs),
        "virt_latency_p50": percentile(latencies, 0.50),
        "virt_latency_p99": percentile(latencies, 0.99),
        "msgs_per_instance":
            sum(rep["messages"] for rep in inputs) / completed,
    }
    meta["instances_per_s_quartiles"] = quartiles(rates)
    meta["raw_instances_per_s"] = statistics.median(raw_rates)
    meta["raw_instances_per_s_quartiles"] = quartiles(raw_rates)
    meta["raw_setup_s"] = statistics.median(probe["wall_s"]
                                            for probe in setup)
    meta["setup_probes"] = setup
    meta["repetitions"] = reps
    return metrics


def traced(workload: str, seed: int, seconds: float, gate: Gate,
           meta: Dict[str, Any]) -> Dict[str, float]:
    from perfbench.tracer import Tracer

    first = input_seeds(workload, seed)[0]
    untraced_walls: List[float] = []
    layer_reps: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    deadline = time.perf_counter() + seconds
    while not layer_reps or time.perf_counter() < deadline:
        plain = repetition(workload, first)
        gate.admit(plain)
        if not layer_reps:
            scenario_check(workload, plain, gate)
        untraced_walls.append(plain["wall_s"])
        rep = repetition(workload, first, tracer=Tracer())
        gate.admit(rep)
        traced_walls.append(rep["wall_s"])
        layer_reps.append(rep["layers"])
        if len(layer_reps) == 1:
            meta["ledger"] = rep["ledger"]
    metrics = {name: statistics.median(rep[name] for rep in layer_reps)
               for name in layer_reps[0]}
    metrics["trace.overhead_frac"] = \
        statistics.median(traced_walls) / statistics.median(untraced_walls) \
        - 1.0
    meta["untraced_wall_s"] = untraced_walls
    meta["traced_wall_s"] = traced_walls
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    meta: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host_calibration_s": calibrate(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "held_out_seed": HELD_OUT_SEED,
    }
    gate = Gate()
    if args.trace:
        metrics = traced(args.workload, args.seed, args.seconds, gate, meta)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, gate,
                             meta)
        units = E2E_UNITS
    meta["fingerprint_sha256"] = gate.digest()
    meta["problems"] = gate.problems
    meta["oracle_violations"] = gate.violations
    meta["metrics"] = metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}"
                                 f"-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host_calibration_s={meta['host_calibration_s']:.5f} "
          f"fingerprint={meta['fingerprint_sha256']}")
    print(f"  oracle_violations = {gate.violations} count")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name in ("raw_instances_per_s", "raw_setup_s"):
        if name in meta:
            print(f"  ({name} = {meta[name]:.6g}, not scaled to the "
                  f"nominal host)")
    for problem in gate.problems:
        print(f"  FAILED: {problem}")
    correct = not gate.problems
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("self_us_per_instance"):
        return "us/inst"
    if name.endswith("us_per_call"):
        return "us/call"
    if name.endswith("_per_instance"):
        return "count/inst"
    if name.endswith("_frac"):
        return "frac"
    return "vt"


if __name__ == "__main__":
    sys.exit(main())
