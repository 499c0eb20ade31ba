"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import copy
import json
import os

import pytest

from perfbench import reference
from perfbench import run as bench
from perfbench import workloads
from perfbench.tracer import TARGETS, Tracer

TINY_JOBS = {"steady": 60, "storm": 12, "txn": 40}
with open(os.path.join(bench.ROOT, "BENCHMARK.json"),
          encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send run files to a temporary directory."""
    shrunk = copy.deepcopy(workloads.WORKLOADS)
    for name, jobs in TINY_JOBS.items():
        shrunk[name]["jobs"] = jobs
    monkeypatch.setattr(workloads, "WORKLOADS", shrunk)
    monkeypatch.setattr(bench, "INPUTS", {name: 2 for name in TINY_JOBS})
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, trace,
                                                     section):
    assert bench.main(["--workload", "txn", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == expected


def test_deterministic_counts_repeat_and_tracing_keeps_the_fingerprint(
        tiny):
    first = bench.repetition("storm", 5)
    second = bench.repetition("storm", 5)
    traced = bench.repetition("storm", 5, tracer=Tracer())
    retraced = bench.repetition("storm", 5, tracer=Tracer())
    assert first["violations"] == [] and traced["violations"] == []
    assert first["fingerprint"] == second["fingerprint"]
    assert traced["fingerprint"] == first["fingerprint"]
    counts = [name for name in traced["layers"]
              if name.endswith(("calls_per_instance", "resumes_per_instance",
                                "envelopes_per_instance",
                                "events_per_instance",
                                "trace_entries_per_instance"))]
    assert counts
    for name in counts:
        assert traced["layers"][name] == retraced["layers"][name], name


def test_reference_sampling_keeps_the_fingerprint_and_scales_the_wall(
        tiny, monkeypatch):
    monkeypatch.setattr(reference, "INTERVAL_S", 0.0)
    plain = bench.repetition("txn", 7)
    sampled = bench.repetition("txn", 7, sampling=True)
    assert sampled["fingerprint"] == plain["fingerprint"]
    assert plain["nominal_s"] == plain["wall_s"]
    assert sampled["wall_s"] > 0 and sampled["nominal_s"] > 0
    sampler = reference.Sampler(sampling=False)
    sampler(0.0, 0, 0, None)
    assert sampler.events == 1 and sampler.chunks == 0
    assert sampler.scale() == 1.0


def test_ledger_attributes_the_traced_wall_time(tiny):
    rep = bench.repetition("steady", 2, tracer=Tracer())
    assert 0.85 <= rep["layers"]["ledger.attributed_frac"] <= 1.0


def test_uninstall_restores_every_wrapped_attribute(tiny):
    originals = [cls.__dict__[attribute] for cls, attribute, _, _ in TARGETS]
    bench.repetition("txn", 1, tracer=Tracer())
    assert [cls.__dict__[attribute]
            for cls, attribute, _, _ in TARGETS] == originals


def test_layer_counts_contrast_the_workloads(tiny):
    layers = {name: bench.repetition(name, 4, tracer=Tracer())["layers"]
              for name in TINY_JOBS}
    for metric in ("core.receive.calls_per_instance",
                   "net.envelopes_per_instance"):
        assert layers["steady"][metric] < layers["storm"][metric]
    assert layers["txn"]["objects.lock.acquire.calls_per_instance"] > 0
    assert 0 < layers["txn"]["objects.commit_frac"] < 1
    for name in ("steady", "storm"):
        assert not any(value for metric, value in layers[name].items()
                       if metric.startswith("objects."))


def test_scenario_check_accepts_the_matching_row_and_rejects_drift(tiny):
    rep = bench.repetition("steady", 6)
    gate = bench.Gate()
    bench.scenario_check("steady", rep, gate)
    assert gate.problems == []
    rep["fingerprint"]["protocol_messages"] += 1
    bench.scenario_check("steady", rep, gate)
    assert gate.failed == rep["jobs"] and len(gate.problems) == 1


def test_fingerprint_drift_fails_the_repetition():
    gate = bench.Gate()
    rep = {"seed": 1, "jobs": 10, "completed": 10, "violations": [],
           "fingerprint": {"completed": 10}}
    gate.admit(rep)
    gate.admit(dict(rep, fingerprint={"completed": 9}))
    assert gate.attempted == 20 and gate.failed == 10
    assert len(gate.problems) == 1


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path,
                                                       capsys):
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    assert bench.main(["--workload", "steady", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
