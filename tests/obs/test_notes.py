"""Coordinator and partition diagnostics travel as obs note events."""

from __future__ import annotations

from repro import obs
from repro.explore import ExplorationPlan
from repro.explore.targets import get_target
from repro.obs import events as kinds
from repro.obs.export import chrome_trace, validate_chrome


def _notes(events, kind):
    return [event for event in events if event["kind"] == kind]


class TestNoteRouting:
    def test_ambient_capture_receives_coordinator_and_signal_notes(self):
        with obs.capture(obs.ObsConfig(metrics=False)) as cap:
            system = get_target("nested_abort").build(
                ExplorationPlan().make_fault_plan())
            system.run()
        events = cap.events()
        coord = _notes(events, kinds.COORD_NOTE)
        signal = _notes(events, kinds.SIGNAL_NOTE)
        assert {event["thread"] for event in coord} == set(system.partitions)
        assert any(event["text"].startswith("enter ") for event in coord)
        assert any(event["text"].startswith("decide ") for event in signal)
        assert all(kinds.category(event["kind"]) == "note"
                   for event in coord + signal)

    def test_observing_a_built_system_reaches_its_coordinators(self):
        system = get_target("nested_abort").build(
            ExplorationPlan().make_fault_plan())
        observation = obs.observe_system(system,
                                         obs.ObsConfig(metrics=False))
        for partition in system.partitions.values():
            assert partition.coordinator._obs is observation
        system.run()
        assert _notes(observation.events, kinds.COORD_NOTE)

    def test_unobserved_run_records_nothing(self):
        system = get_target("nested_abort").build(
            ExplorationPlan().make_fault_plan())
        system.run()
        for partition in system.partitions.values():
            assert partition.coordinator._obs is None
            assert partition.coordinator.trace == ()

    def test_chrome_export_puts_notes_on_the_thread_track(self):
        with obs.capture(obs.ObsConfig(metrics=False)) as cap:
            get_target("nested_abort").build(
                ExplorationPlan().make_fault_plan()).run()
        doc = chrome_trace(cap.events())
        assert validate_chrome(doc) == []
        names = {entry["tid"]: entry["args"]["name"]
                 for entry in doc["traceEvents"]
                 if entry.get("name") == "thread_name"}
        notes = [entry for entry in doc["traceEvents"]
                 if entry.get("cat") == "note"]
        assert notes
        for entry in notes:
            assert entry["ph"] == "i"
            assert names[entry["tid"]] == entry["args"]["thread"]
