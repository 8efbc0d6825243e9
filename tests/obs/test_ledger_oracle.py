"""The stage breakdowns against the span join they replace.

Each stage is recorded where it happens: the Gate Keeper's on the
installer's result, the channel's on the send.  Both producers read those
fields, :func:`~repro.obs.summary.flowmod_breakdowns` from a trace and
:func:`~repro.obs.summary.run_breakdowns` from the run itself.  The span
join in :mod:`tests.obs.span_join` rebuilds every stage from the trace's
structure instead.  On real runs all three must agree exactly, action by
action and in the ledger they score.
"""

import pytest

from repro.experiments.common import CANNED_SCENARIOS, canned_scenario
from repro.obs import RecordingTracer, use_tracer
from repro.obs.perf.burn import guarantee_burn
from repro.obs.summary import flowmod_breakdowns, run_breakdowns

from .span_join import flowmod_breakdowns as joined_breakdowns

def _assert_agree(simulation, records):
    from_trace = flowmod_breakdowns(records)
    from_run = run_breakdowns(simulation.controller.channels.values())
    # The join orders by (start, span id); the producers by (start, end,
    # switch).
    joined = sorted(
        joined_breakdowns(records), key=lambda item: (item.start, item.end, item.switch)
    )
    assert from_trace, "the run installed nothing"
    assert from_trace == from_run == joined
    ledger = guarantee_burn(from_trace).to_dict()
    assert guarantee_burn(from_run).to_dict() == ledger
    assert guarantee_burn(joined).to_dict() == ledger
    return from_run


@pytest.mark.parametrize("name", CANNED_SCENARIOS)
def test_canned_scenarios_agree(name):
    tracer = RecordingTracer()
    with use_tracer(tracer):
        simulation, _meta = canned_scenario(name)
        simulation.run()
    breakdowns = _assert_agree(simulation, tracer.records)
    # Hermes admits most inserts: the Gate Keeper stage is exercised.
    assert sum(item.gatekeeper > 0 for item in breakdowns) > len(breakdowns) / 4
    if name == "chaos":
        # Drops, lost acks and duplicates: sends are retried, and the
        # channel stage shows it.
        assert sum(item.channel for item in breakdowns) > 0
