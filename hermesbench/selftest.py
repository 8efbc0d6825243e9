"""Self-checks of the benchmark itself.

    python3 hermesbench/selftest.py

1. The span wrapper: nested self times sum to the wrapped total, a call
   that raises still closes its span, and ``restore`` undoes every wrap.
2. Hash-seed independence: two processes with different ``PYTHONHASHSEED``
   build the same bgp-fib FIB trace and produce identical simulated results
   on the first instance of every workload.
3. Transparency: a traced run of one instance gives the same simulated
   results as an untraced one, and its self times account for its wall time;
   a run under the pace sampler gives the same results too.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class FakeClock:
    """A clock that only moves when told to, so self times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def check_wrapper() -> list:
    from layertrace import LayerTracer

    clock = FakeClock()

    class Layer:
        def outer(self):
            clock.advance(2.0)
            self.inner()
            clock.advance(1.0)
            try:
                self.failing()
            except ValueError:
                pass
            return "done"

        def inner(self):
            clock.advance(5.0)

        def failing(self):
            clock.advance(0.5)
            raise ValueError("planted")

    original_inner = Layer.__dict__["inner"]
    tracer = LayerTracer(clock=clock)
    for name in ("outer", "inner", "failing"):
        tracer.wrap(Layer, name, name)
    result = tracer.call("root", Layer().outer)
    stats = tracer.take()
    tracer.restore()
    failures = []
    if result != "done":
        failures.append(f"wrapped call returned {result!r}")
    expected = {"root": 0.0, "outer": 3.0, "inner": 5.0, "failing": 0.5}
    if stats["self_s"] != expected:
        failures.append(f"self times {stats['self_s']} != {expected}")
    if sum(stats["self_s"].values()) != clock.now:
        failures.append("self times do not sum to the wrapped total")
    if stats["calls"] != {"root": 1, "outer": 1, "inner": 1, "failing": 1}:
        failures.append(f"call counts {stats['calls']}")
    if Layer.__dict__["inner"] is not original_inner:
        failures.append("restore left a wrapper in place")
    return failures


def first_instance(workload_name: str) -> dict:
    """Run the first instance of a workload (seed 1) and summarise it."""
    from workloads import WORKLOADS, compile_fib_trace

    workload = WORKLOADS[workload_name]
    inp = workload.inputs(1)[0]
    system = workload.setup(inp)
    outcome = workload.finish(system, workload.execute(system))
    summary = {"outcome": outcome.digest, "attempted": outcome.attempted}
    if workload_name == "bgp-fib":
        from workloads import trace_digest

        summary["trace"] = trace_digest(compile_fib_trace(inp[0]))
    return summary


def check_hash_seed() -> list:
    failures = []
    for name in ("bgp-fib", "fattree-mapreduce", "geant-te"):
        seen = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, str(Path(__file__)), "--first-instance", name],
                capture_output=True, text=True, env=env, timeout=170,
            )
            if done.returncode != 0:
                failures.append(f"{name}: child failed: {done.stderr.strip()[-300:]}")
                break
            seen.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if len(seen) == 2 and seen[0] != seen[1]:
            failures.append(f"{name}: PYTHONHASHSEED changes results: {seen}")
    return failures


def check_transparency() -> list:
    from layertrace import LayerTracer, install_layer_wraps
    from pace import PaceSampler
    from workloads import WORKLOADS

    workload = WORKLOADS["bgp-fib"]
    inp = workload.inputs(1)[0]
    plain = workload.setup(inp)
    baseline = workload.finish(plain, workload.execute(plain)).digest
    tracer = LayerTracer()
    install_layer_wraps(tracer)
    try:
        system = workload.setup(inp)
        tracer.take()
        start = time.perf_counter()
        raised = tracer.call("loop", workload.execute, system)
        wall = time.perf_counter() - start
        stats = tracer.take()
    finally:
        tracer.restore()
    failures = []
    if workload.finish(system, raised).digest != baseline:
        failures.append("traced run changed the simulated results")
    accounted = sum(stats["self_s"].values()) / wall
    if not 0.99 <= accounted <= 1.0:
        failures.append(f"self times account for {accounted:.4f} of the traced wall time")
    with PaceSampler() as sampler:
        sampled = workload.setup(inp)
        raised, seconds, pace = sampler.measure(workload.execute, sampled)
    if workload.finish(sampled, raised).digest != baseline:
        failures.append("the pace sampler changed the simulated results")
    if pace is None or seconds <= 0 or sum(sampler.bursts) > 0.1 * seconds:
        failures.append(f"pace sampler: {seconds} s at pace {pace}, bursts {sum(sampler.bursts)} s")
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    if sys.argv[1:2] == ["--first-instance"]:
        print(json.dumps(first_instance(sys.argv[2])))
        return 0
    failed = False
    for name, check in (
        ("wrapper", check_wrapper),
        ("hash-seed", check_hash_seed),
        ("transparency", check_transparency),
    ):
        failures = check()
        print(f"{'FAIL' if failures else 'ok  '} {name}")
        for failure in failures:
            print(f"     {failure}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
