"""Tests for trace exporters, the schema checker, and the obs CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.explore.targets import build_concurrent_raises
from repro.net.faults import FaultPlan
from repro.obs import read_jsonl, validate_chrome, write_flight_dump, \
    write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.obs.export import (chrome_trace, diff_summaries, load_trace,
                              summarize_events, summarize_path)
from repro.simkernel.rng import SeededStreams

#: A small hand-written stream touching every exporter code path: a
#: completed span with a marker, an open span, a message send/deliver
#: flow, a drop, a lock event, a job event, and opt-in kernel steps.
EVENTS = [
    {"t": 0.0, "kind": "kernel.step", "priority": 0, "eid": 1,
     "event": "Timeout"},
    {"t": 0.5, "kind": "job.submitted", "action": "A", "instance": "i0"},
    {"t": 1.0, "kind": "action.entered", "action": "A", "instance": "i0",
     "thread": "T1"},
    {"t": 1.0, "kind": "action.entered", "action": "A", "instance": "i0",
     "thread": "T2"},
    {"t": 1.2, "kind": "message.sent", "src": "T1", "dst": "T2",
     "type": "ExceptionRaised", "seq": 1, "payload": "ExceptionRaised()",
     "deliver": 1.4, "corrupted": False},
    {"t": 1.4, "kind": "message.delivered", "src": "T1", "dst": "T2",
     "type": "ExceptionRaised", "seq": 1},
    {"t": 1.5, "kind": "message.dropped", "src": "T2", "dst": "T1",
     "type": "Ack", "seq": 2, "reason": "crash"},
    {"t": 1.6, "kind": "lock.granted", "object": "o1", "transaction": "tx1",
     "mode": "write"},
    {"t": 1.8, "kind": "action.raised", "action": "A", "instance": "i0",
     "thread": "T1", "exception": "e1"},
    {"t": 2.5, "kind": "action.concluded", "action": "A", "instance": "i0",
     "thread": "T1", "status": "recovered"},
]

TIMELINE = {"interval": 1.0, "samples": 3,
            "series": {"in_flight": [[0.0, 0.0], [1.0, 2.0], [2.0, 2.0]]}}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(EVENTS, path)
        assert read_jsonl(path) == EVENTS

    def test_flight_dump_gets_a_header_record(self, tmp_path):
        path = str(tmp_path / "run.flight.jsonl")
        dump = {"capacity": 4, "observed": 12, "truncated": True,
                "events": EVENTS[-2:]}
        write_flight_dump(dump, path)
        records = read_jsonl(path)
        assert records[0] == {"kind": "flight.header", "capacity": 4,
                              "observed": 12, "truncated": True}
        assert records[1:] == EVENTS[-2:]
        # Summaries skip the header rather than counting it as an event.
        assert summarize_events(records)["events"] == 2

    def test_load_trace_detects_both_formats(self, tmp_path):
        jsonl = str(tmp_path / "a.jsonl")
        write_jsonl(EVENTS, jsonl)
        form, payload = load_trace(jsonl)
        assert (form, payload) == ("jsonl", EVENTS)

        chrome = str(tmp_path / "a.trace.json")
        with open(chrome, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(EVENTS), handle)
        form, payload = load_trace(chrome)
        assert form == "chrome"
        assert "traceEvents" in payload

        single = str(tmp_path / "one.json")
        with open(single, "w", encoding="utf-8") as handle:
            json.dump(EVENTS[0], handle)
        assert load_trace(single)[0] == "jsonl"

        bogus = str(tmp_path / "bogus.json")
        with open(bogus, "w", encoding="utf-8") as handle:
            json.dump({"not": "a trace"}, handle)
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace(bogus)


class TestChromeTrace:
    def test_document_is_schema_valid(self):
        doc = chrome_trace(EVENTS, timeline=TIMELINE)
        assert validate_chrome(doc) == []

    def test_spans_flows_and_counters(self):
        doc = chrome_trace(EVENTS, timeline=TIMELINE)
        by_phase = {}
        for event in doc["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        # One complete slice per span (T1 closed, T2 still open).
        slices = by_phase["X"]
        assert len(slices) == 2
        closed = next(s for s in slices if not s["args"]["open"])
        assert closed["args"]["status"] == "recovered"
        assert closed["dur"] == pytest.approx(1.5e6)
        # The send/deliver pair became one flow with a shared id.
        assert by_phase["s"][0]["id"] == by_phase["f"][0]["id"] == 1
        # Timeline series render as counter samples.
        counters = by_phase["C"]
        assert [c["args"]["value"] for c in counters] == [0.0, 2.0, 2.0]
        # The marker and the drop/lock/job instants are all there.
        instant_names = {event["name"] for event in by_phase["i"]}
        assert {"action.raised", "message.dropped", "lock.granted",
                "job.submitted"} <= instant_names
        # Track names are declared as thread metadata.
        track_names = {event["args"]["name"] for event in by_phase["M"]
                       if event["name"] == "thread_name"}
        assert {"T1", "T2", "workload", "objects"} <= track_names

    def test_kernel_steps_are_counted_not_rendered(self):
        doc = chrome_trace(EVENTS)
        assert doc["otherData"]["kernel_steps"] == 1
        assert all(event.get("name") != "kernel.step"
                   for event in doc["traceEvents"])
        assert doc["otherData"]["spans_completed"] == 1
        assert doc["otherData"]["spans_open"] == 1


class TestValidateChrome:
    def test_rejects_malformed_documents(self):
        assert validate_chrome([]) == \
            ["top level must be an object, got list"]
        assert validate_chrome({"traceEvents": "nope"}) == \
            ["'traceEvents' must be a list"]

    @pytest.mark.parametrize("event,needle", [
        ("not-an-object", "not an object"),
        ({"ph": "Z", "name": "x", "pid": 1, "ts": 0}, "unknown phase"),
        ({"ph": "i", "name": 7, "pid": 1, "ts": 0}, "'name' must be"),
        ({"ph": "i", "name": "x", "pid": "1", "ts": 0}, "'pid' must be"),
        ({"ph": "i", "name": "x", "pid": 1}, "'ts' must be a number"),
        ({"ph": "i", "name": "x", "pid": 1, "ts": -1.0}, "non-negative"),
        ({"ph": "X", "name": "x", "pid": 1, "ts": 0}, "'dur'"),
        ({"ph": "s", "name": "x", "pid": 1, "ts": 0}, "needs 'id'"),
    ])
    def test_flags_each_structural_problem(self, event, needle):
        problems = validate_chrome({"traceEvents": [event]})
        assert len(problems) == 1
        assert needle in problems[0]

    def test_metadata_events_need_no_timestamp(self):
        doc = {"traceEvents": [{"ph": "M", "name": "process_name",
                                "pid": 1, "args": {"name": "repro"}}]}
        assert validate_chrome(doc) == []


class TestSummaries:
    def test_summarize_events_shape(self):
        summary = summarize_events(EVENTS)
        assert summary["format"] == "jsonl"
        assert summary["events"] == len(EVENTS)
        assert summary["kinds"]["action.entered"] == 2
        assert summary["categories"]["message"] == 3
        assert summary["messages"] == {"sent": 1, "delivered": 1,
                                       "dropped": {"crash": 1},
                                       "corrupted": 0}
        assert summary["spans"] == {
            "completed": 1, "open": 1,
            "outcomes": {"recovered": 1},
            "max_duration": pytest.approx(1.5)}
        assert summary["time"] == {"start": 0.0, "end": 2.5}

    def test_diff_summaries_flat_dotted_leaves(self):
        base = summarize_events(EVENTS)
        assert diff_summaries(base, summarize_events(EVENTS)) == {}
        delta = diff_summaries(base, summarize_events(EVENTS[:-1]))
        assert delta["events"] == [10, 9]
        assert delta["spans.completed"] == [1, 0]
        assert delta["spans.outcomes.recovered"] == [1, None]


class TestObsCli:
    def write_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(EVENTS, path)
        return path

    def test_summarize(self, tmp_path, capsys):
        assert obs_main(["summarize", self.write_events(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == len(EVENTS)

    def test_convert_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        out = str(tmp_path / "out.trace.json")
        assert obs_main(["convert", self.write_events(tmp_path),
                         "-o", out]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert validate_chrome(doc) == []
        # Converting the converted file is refused: already Chrome form.
        assert obs_main(["convert", out, "-o", out]) == 2

    def test_diff_exit_status_reflects_differences(self, tmp_path, capsys):
        a = self.write_events(tmp_path)
        b = str(tmp_path / "short.jsonl")
        write_jsonl(EVENTS[:-1], b)
        assert obs_main(["diff", a, a]) == 0
        assert json.loads(capsys.readouterr().out) == {}
        assert obs_main(["diff", a, b]) == 1
        delta = json.loads(capsys.readouterr().out)
        assert delta["events"] == [10, 9]

    def test_summarize_counts_the_fates_of_a_lossy_run(self, tmp_path,
                                                       capsys):
        faults = FaultPlan(streams=SeededStreams(5), drop_probability=0.2)
        faults.corrupt_nth_message("T1", "T2", 1)
        faults.crash_node("T3", at_time=0.5)
        system = build_concurrent_raises(faults)
        observation = obs.observe_system(system, obs.ObsConfig(metrics=False))
        system.run()
        path = str(tmp_path / "lossy.events.jsonl")
        write_jsonl(observation.events, path)

        assert obs_main(["summarize", path]) == 0
        messages = json.loads(capsys.readouterr().out)["messages"]
        stats = system.network.stats
        assert messages == {
            "sent": stats.sent, "delivered": stats.delivered,
            "dropped": {"fault": stats.dropped},
            "corrupted": faults.stats.corrupted}
        assert faults.stats.dropped and faults.stats.blocked_by_crash
        assert faults.stats.corrupted
        assert stats.dropped == (faults.stats.dropped
                                 + faults.stats.blocked_by_crash)

    def test_summarize_reads_flight_dumps(self, tmp_path, capsys):
        path = str(tmp_path / "run.flight.jsonl")
        write_flight_dump({"capacity": 8, "observed": 2, "truncated": False,
                           "events": EVENTS[-2:]}, path)
        assert obs_main(["summarize", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 2
        assert summarize_path(path) == summary
