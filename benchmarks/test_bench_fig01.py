"""Benchmark regenerating Figure 1 (increased ratio of JCT)."""

from repro.experiments import fig01_jct

from .conftest import run_and_render


def test_bench_fig01(benchmark):
    result = run_and_render(benchmark, fig01_jct.run)
    p95 = {(row[0], row[1]): row[-1] for row in result.rows}
    p50 = {(row[0], row[1]): row[3] for row in result.rows}
    # Short jobs suffer more than long jobs on the raw switch.
    assert p95[("Pica8 P-3290", "short")] >= p95[("Pica8 P-3290", "long")]
    # Hermes sits closest to the zero-latency baseline (ratio ~1).
    assert abs(p50[("Hermes", "short")] - 1.0) <= abs(
        p50[("Pica8 P-3290", "short")] - 1.0
    ) + 1e-9
    assert p95[("Hermes", "short")] <= p95[("Pica8 P-3290", "short")] + 1e-9
