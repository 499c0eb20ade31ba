"""Failing explorer cases auto-dump their flight-recorder timeline.

Reuses the lost-Commit regression vehicle from ``test_rediscovery.py``:
reverting the PR 2 fix makes the canonical one-directive plan deadlock,
which is the cheapest deterministic oracle violation available.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import effects as fx
from repro.core.resolution import ResolutionCoordinator
from repro.explore import ExplorationPlan, Explorer, run_case
from repro.explore.__main__ import _write_reproducers
from repro.net.faults import FaultDirective
from repro.obs import build_spans, read_jsonl

#: The canonical hand-shrunk reproducer: delays the Inner ``Commit``
#: into T3's abortion window (fails only under the reverted fix).
CANONICAL_PLAN = ExplorationPlan(directives=(
    FaultDirective("delay_type", source="T2", destination="T3",
                   type_name="CommitMessage", extra=3.0),))


def _legacy_receive_commit(self, message):
    """The pre-PR2 Commit handling (the lost-Commit race)."""
    context = self.active_context()
    if context is None or context.action != message.action:
        self._trace(f"ignore Commit for {message.action}")
        return []
    self.le.clear()
    self.handling[message.action] = message.exception
    self._trace(f"commit {message.exception.name} in {message.action}")
    return [fx.HandleResolved(message.action, message.exception,
                              resolver=message.resolver)]


@pytest.fixture
def lost_commit_bug(monkeypatch):
    monkeypatch.setattr(ResolutionCoordinator, "_receive_commit",
                        _legacy_receive_commit)


class TestFailingCasesDump:
    def test_oracle_violation_carries_the_timeline(self, lost_commit_bug):
        result = run_case("nested_abort", CANONICAL_PLAN)
        assert result.violations
        assert result.flight is not None
        events = result.flight["events"]
        assert events
        assert result.flight["observed"] >= len(events)
        kinds = {event["kind"] for event in events}
        assert "action.entered" in kinds
        # The deadlock reads off the dump: participations that entered
        # but never concluded are still open at the end of the window.
        _completed, still_open = build_spans(events)
        assert still_open

    def test_passing_case_has_no_flight_dump(self):
        # Same plan against the fixed coordinator: clean, and the
        # always-on ring is not dumped for passing cases.
        result = run_case("nested_abort", CANONICAL_PLAN)
        assert result.violations == []
        assert result.flight is None

    def test_explorer_failures_carry_flight_dumps(self, lost_commit_bug):
        explorer = Explorer(target="nested_abort", seed=2026, budget=20,
                            stop_on_first_failure=True)
        report = explorer.run()
        assert report.failures
        first = report.failures[0]
        assert first.flight is not None
        assert first.flight["events"]

    def test_ambient_capture_is_reused_not_displaced(self):
        # Under an ambient obs.capture() the explorer must adopt the
        # (richer) ambient observation instead of attaching a second
        # flight-only one.
        with obs.capture(obs.ObsConfig()) as cap:
            result = run_case("nested_abort", ExplorationPlan())
        assert result.violations == []
        (observation,) = cap.observations
        assert observation.events, "ambient capture saw the run's events"
        assert observation.metrics is not None


class TestReproducerBundling:
    def test_corpus_reproducers_carry_flight(self, lost_commit_bug):
        from repro.explore import CorpusSearch
        search = CorpusSearch(target="nested_abort", seed=2026,
                              generation_size=5, chunk_size=5, shrink=True)
        report = search.run(budget=60, stop_on_first_failure=True)
        assert report.reproducers
        record = report.reproducers[0]
        assert record["flight"], "shrunk reproducer lacks its flight dump"
        assert record["flight"]["events"]

    def test_write_reproducers_bundles_flight_jsonl(self, tmp_path):
        records = [
            {"source": "# reproducer 0\n",
             "flight": {"capacity": 8, "observed": 3, "truncated": False,
                        "events": [{"t": 0.0, "kind": "action.entered",
                                    "action": "A", "instance": "i0",
                                    "thread": "T1"}]}},
            {"source": "# reproducer 1 (no flight recorded)\n"},
        ]
        directory = tmp_path / "repros"
        paths = _write_reproducers(records, str(directory))
        names = sorted(path.rsplit("/", 1)[1] for path in paths)
        assert names == ["test_reproducer_0.flight.jsonl",
                         "test_reproducer_0.py", "test_reproducer_1.py"]
        dump = read_jsonl(str(directory / "test_reproducer_0.flight.jsonl"))
        assert dump[0]["kind"] == "flight.header"
        assert dump[0]["observed"] == 3
        assert dump[1]["kind"] == "action.entered"
