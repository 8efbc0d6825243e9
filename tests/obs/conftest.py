"""Shared fixture: one traced run of the canned chaos scenario."""

from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def faulted_run(tmp_path_factory):
    """``canned_scenario("chaos")``, traced.

    Drop 0.1, ack loss 0.3, duplicate 0.02, seed 11, over the resilient
    channel: every stage of the control path shows up, the channel most
    of all.  Gives the run's ``simulation``, its trace ``records``, and
    the ``path`` of the trace written as hermes-trace/1.
    """
    from repro.experiments.common import canned_scenario
    from repro.obs import RecordingTracer, use_tracer, write_trace

    simulation, meta = canned_scenario("chaos")
    tracer = RecordingTracer(meta=meta)
    with use_tracer(tracer):
        simulation.run()
    path = str(tmp_path_factory.mktemp("faulted") / "trace.jsonl")
    write_trace(tracer, path)
    return SimpleNamespace(
        simulation=simulation, records=tracer.records, path=path
    )
