"""The span join: the stage breakdowns rebuilt from a trace's structure.

:func:`repro.obs.summary.flowmod_breakdowns` reads each stage from the
attributes that the component owning it records on its span.  This
module keeps the join those attributes replace: it walks each ``flowmod``
span's descendants, rebuilds the switch-side window from the
``agent.batch`` and ``agent.action`` spans, and joins each
``hermes.gatekeeper`` event to its action on (enclosing span, rule id).
It needs none of the new attributes, so it checks them: on real runs it
must give the same stages as both shipped producers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.summary import FlowModBreakdown


def _span_children(spans: Iterable[dict]) -> Dict[int, List[dict]]:
    children: Dict[int, List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def _descendants(children: Dict[int, List[dict]], root_id: int) -> List[dict]:
    found: List[dict] = []
    frontier = [root_id]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            found.append(child)
            frontier.append(child["id"])
    return found


def flowmod_breakdowns(records: Sequence[dict]) -> List[FlowModBreakdown]:
    """Join spans and events into one breakdown per installed FlowMod.

    ``agent.action`` spans reached through a ``flowmod`` channel span get
    the channel residual; actions submitted without a channel (direct
    ``SwitchAgent.submit`` calls, e.g. in replay harnesses) appear with a
    zero channel stage.  Undelivered sends carry no agent span and are
    excluded — they never installed anything.

    Each action sits under an ``agent.batch`` span.  A ``hermes.gatekeeper``
    event is emitted while that span is open, before its action spans
    exist, so an event joins its action on (enclosing agent span, rule id).
    """
    spans = [r for r in records if r["type"] == "span"]
    # (enclosing span id, rule id) -> gatekeeper latencies, in emission
    # order; a batch may install the same rule id twice (add, then a
    # repositioning modify), and each takes the next event.
    gatekeeper_by_key: Dict[Tuple[int, object], List[float]] = {}
    for record in records:
        if record["type"] == "event" and record["name"] == "hermes.gatekeeper":
            attrs = record["attrs"]
            key = (record.get("span", 0), attrs.get("rule"))
            gatekeeper_by_key.setdefault(key, []).append(attrs.get("latency", 0.0))
    children = _span_children(spans)
    by_id = {span["id"]: span for span in spans}
    # (action span, channel residual of its send)
    joined: List[Tuple[dict, float]] = []
    claimed: set = set()

    def action_breakdown(action: dict, channel_time: float) -> FlowModBreakdown:
        attrs = action["attrs"]
        parent = by_id.get(action["parent"])
        enclosing = action
        if parent is not None and parent["name"] == "agent.batch":
            enclosing = parent
        pending = gatekeeper_by_key.get((enclosing["id"], attrs.get("rule")))
        gatekeeper = max(0.0, pending.pop(0)) if pending else 0.0
        queue = max(0.0, attrs.get("queue_delay", 0.0))
        exec_latency = max(0.0, attrs.get("exec_latency", action["end"] - action["start"]))
        tcam = max(0.0, exec_latency - gatekeeper)
        return FlowModBreakdown(
            switch=str(attrs.get("switch", "?")),
            command=str(attrs.get("command", "?")),
            start=action["start"],
            end=action["end"],
            gatekeeper=gatekeeper,
            queue=queue,
            tcam=tcam,
            channel=max(0.0, channel_time),
        )

    for flowmod in spans:
        if flowmod["name"] != "flowmod":
            continue
        actions = [
            span
            for span in _descendants(children, flowmod["id"])
            if span["name"] == "agent.action"
        ]
        if not actions:
            continue  # undelivered: nothing was installed
        duration = flowmod["end"] - flowmod["start"]
        # The switch-side window: the batch span when the actions ran as a
        # batch, else the actions themselves.  What the channel "cost" is
        # the send duration minus the time the switch was doing the work.
        window_start = min(span["start"] for span in actions)
        window_end = max(span["end"] for span in actions)
        parent = by_id.get(actions[0]["parent"])
        if parent is not None and parent["name"] == "agent.batch":
            window_start = parent["start"]
            window_end = max(window_end, parent["end"])
        channel_time = max(0.0, duration - (window_end - window_start))
        for action in actions:
            claimed.add(action["id"])
            joined.append((action, channel_time))
    # Channel-less actions (direct submits).
    for span in spans:
        if span["name"] == "agent.action" and span["id"] not in claimed:
            joined.append((span, 0.0))
    # Gatekeeper events join in emission order, so actions are built in
    # span order: by start, then span id.
    joined.sort(key=lambda pair: (pair[0]["start"], pair[0]["id"]))
    return [action_breakdown(action, channel_time) for action, channel_time in joined]

