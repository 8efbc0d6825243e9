"""Shared fixture: one traced run of ``python -m repro.obs scenario``."""

from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def faulted_run(tmp_path_factory):
    """The ``scenario`` command's faulted defaults, traced.

    Drop 0.1, ack loss 0.3, duplicate 0.02, seed 11: every stage of the
    control path shows up, the channel most of all.  Gives the run's
    ``simulation``, its trace ``records``, and the ``path`` of the trace
    written as hermes-trace/1.
    """
    from repro.obs import RecordingTracer, use_tracer, write_trace
    from repro.obs.__main__ import build_parser, build_scenario

    out_dir = tmp_path_factory.mktemp("faulted")
    args = build_parser().parse_args(["scenario", "--out-dir", str(out_dir)])
    tracer = RecordingTracer(meta={"scenario": "faulted"})
    with use_tracer(tracer):
        simulation = build_scenario(args)
        simulation.run()
    path = str(out_dir / "trace.jsonl")
    write_trace(tracer, path)
    return SimpleNamespace(
        simulation=simulation, records=tracer.records, path=path
    )
