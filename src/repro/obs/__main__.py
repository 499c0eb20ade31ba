"""Trace tooling: ``python -m repro.obs``.

Three commands over exported trace files (JSONL event streams, flight
dumps, or Chrome ``trace_event`` JSON — the format is auto-detected):

* ``summarize FILE`` — event/kind/category counts, message fates (sent,
  delivered, dropped by reason, corrupted), span outcomes, and the
  covered virtual-time range;
* ``convert FILE -o OUT`` — JSONL events → Chrome ``trace_event`` JSON
  (open the result at https://ui.perfetto.dev);
* ``diff A B`` — summarize both files and print every differing leaf.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..cli import add_logging_arguments, configure_logging
from .export import (chrome_trace, diff_summaries, load_trace,
                     summarize_path, validate_chrome)


def cmd_summarize(arguments) -> int:
    print(json.dumps(summarize_path(arguments.file), indent=2,
                     sort_keys=True))
    return 0


def cmd_convert(arguments) -> int:
    form, payload = load_trace(arguments.file)
    if form == "chrome":
        print(f"{arguments.file} is already a Chrome trace", file=sys.stderr)
        return 2
    events = [record for record in payload
              if record.get("kind") != "flight.header"]
    doc = chrome_trace(events)
    problems = validate_chrome(doc)
    if problems:  # pragma: no cover - converter always emits valid docs
        for problem in problems:
            print(f"invalid output: {problem}", file=sys.stderr)
        return 1
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    print(f"wrote {arguments.output} "
          f"({len(doc['traceEvents'])} trace events)")
    return 0


def cmd_diff(arguments) -> int:
    delta = diff_summaries(summarize_path(arguments.a),
                           summarize_path(arguments.b))
    print(json.dumps(delta, indent=2, sort_keys=True))
    return 1 if delta else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, convert, and diff exported traces.")
    add_logging_arguments(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    summarize_cmd = commands.add_parser(
        "summarize",
        help="event counts, message fates, span outcomes, time range")
    summarize_cmd.add_argument("file", help="JSONL or Chrome trace file")
    summarize_cmd.set_defaults(func=cmd_summarize)

    convert_cmd = commands.add_parser(
        "convert", help="JSONL events → Chrome trace_event JSON")
    convert_cmd.add_argument("file", help="JSONL trace or flight dump")
    convert_cmd.add_argument("-o", "--output", required=True,
                             help="output trace_event JSON path")
    convert_cmd.set_defaults(func=cmd_convert)

    diff_cmd = commands.add_parser(
        "diff", help="differing summary leaves of two trace files")
    diff_cmd.add_argument("a", help="first trace file")
    diff_cmd.add_argument("b", help="second trace file")
    diff_cmd.set_defaults(func=cmd_diff)

    arguments = parser.parse_args(argv)
    configure_logging(arguments)
    return arguments.func(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
