"""Trace exporters.

Two output formats, both deterministic (sorted keys, fixed separators):

* **JSONL** (``hermes-trace/1``) — one JSON object per line: a header line
  carrying the format tag and the tracer's meta, then every record in
  emission order.  The canonical interchange format; versioned like the
  table snapshots (``hermes-table-snapshot/1``) so readers can refuse
  traces they do not understand.
* **Chrome trace-event JSON** — loadable in Perfetto / ``chrome://tracing``.
  Spans become complete (``ph: "X"``) events, events instants, samples
  counter tracks; each switch gets its own thread row.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, List, Tuple

from .tracer import TRACE_FORMAT, RecordingTracer

_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


# ---------------------------------------------------------------------------
# JSONL (hermes-trace/1)
# ---------------------------------------------------------------------------

def trace_lines(tracer: RecordingTracer) -> List[str]:
    """The trace as JSONL lines: header first, then records in order."""
    header = {
        "format": TRACE_FORMAT,
        "meta": tracer.meta,
        "records": len(tracer.records),
    }
    lines = [json.dumps(header, **_JSON_KWARGS)]
    lines.extend(json.dumps(record, **_JSON_KWARGS) for record in tracer.records)
    return lines


def write_trace(tracer: RecordingTracer, path: str) -> None:
    """Write the JSONL trace to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in trace_lines(tracer):
            handle.write(line + "\n")


def parse_trace_lines(lines: Iterable[str]) -> Tuple[dict, List[dict]]:
    """Parse JSONL lines into (header, records), validating the format tag.

    Raises:
        ValueError: on an empty stream, a missing/unknown format tag, or a
            malformed record line.
    """
    iterator = iter(lines)
    header_line = next(iterator, None)
    if header_line is None or not header_line.strip():
        raise ValueError("empty trace: no header line")
    header = json.loads(header_line)
    found = header.get("format") if isinstance(header, dict) else None
    if found != TRACE_FORMAT:
        raise ValueError(
            f"not a {TRACE_FORMAT} trace (format tag: {found!r})"
        )
    records: List[dict] = []
    for number, line in enumerate(iterator, start=2):
        if not line.strip():
            continue
        record = json.loads(line)
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(f"line {number}: not a trace record")
        records.append(record)
    return header, records


def read_trace(path: str) -> Tuple[dict, List[dict]]:
    """Load a JSONL trace file into (header, records)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace_lines(handle)


def read_trace_arg(path: str) -> Tuple[dict, List[dict]]:
    """:func:`read_trace` for a command-line argument: a file that is
    missing or is not a trace is a usage error (stderr, exit 2)."""
    try:
        return read_trace(path)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {path!r}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto)
# ---------------------------------------------------------------------------

def chrome_trace(records: Iterable[dict], meta: dict = None) -> dict:
    """Convert trace records to the Chrome trace-event JSON object.

    Sim-time seconds become microseconds (the trace-event unit).  Records
    carrying a ``switch`` attribute are grouped onto per-switch thread rows
    (tids assigned in first-appearance order, which is deterministic);
    everything else lands on tid 0 ("controller").
    """
    tids: Dict[str, int] = {}
    names: List[dict] = [
        {
            "ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
            "args": {"name": "controller"},
        }
    ]

    def tid_for(attrs: dict) -> int:
        switch = attrs.get("switch")
        if switch is None:
            return 0
        if switch not in tids:
            tids[switch] = len(tids) + 1
            names.append(
                {
                    "ph": "M", "name": "thread_name", "pid": 0,
                    "tid": tids[switch], "args": {"name": str(switch)},
                }
            )
        return tids[switch]

    events: List[dict] = []
    for record in records:
        rtype = record.get("type")
        attrs = record.get("attrs", {})
        if rtype == "span":
            start_us = record["start"] * 1e6
            events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": record.get("cat") or "span",
                    "ts": start_us,
                    "dur": max(0.0, record["end"] * 1e6 - start_us),
                    "pid": 0,
                    "tid": tid_for(attrs),
                    "args": {"id": record["id"], "parent": record["parent"], **attrs},
                }
            )
        elif rtype == "event":
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": record["name"],
                    "cat": record.get("cat") or "event",
                    "ts": record["time"] * 1e6,
                    "pid": 0,
                    "tid": tid_for(attrs),
                    "args": {"span": record.get("span", 0), **attrs},
                }
            )
        elif rtype == "sample":
            events.append(
                {
                    "ph": "C",
                    "name": record["name"],
                    "ts": record["time"] * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {"value": record["value"]},
                }
            )
    payload = {"traceEvents": names + events, "displayTimeUnit": "ms"}
    if meta:
        payload["otherData"] = dict(meta)
    return payload


def write_chrome_trace(tracer: RecordingTracer, path: str) -> None:
    """Write the Chrome trace-event JSON for a tracer's records."""
    payload = chrome_trace(tracer.records, meta=tracer.meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **_JSON_KWARGS)
        handle.write("\n")

