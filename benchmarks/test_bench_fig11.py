"""Benchmark regenerating Figure 11 (installation-time series)."""

from repro.experiments import fig11_timeseries

from .conftest import run_and_render


def test_bench_fig11(benchmark):
    result = run_and_render(benchmark, fig11_timeseries.run)
    facebook = [row for row in result.rows if row[0] == "facebook"]
    geant = [row for row in result.rows if row[0] == "geant"]
    # Baselines grow with occupancy: the last sample far exceeds the first.
    assert facebook[-1][3] > facebook[0][3]  # ESPRES grows
    assert geant[-1][2] > geant[0][2]  # Tango grows on geant too
    # Hermes stays flat: its worst sample is a small multiple of its best.
    hermes_series = [row[4] for row in result.rows]
    assert max(hermes_series) < 12 * max(min(hermes_series), 0.1)
    # Tango beats ESPRES on the structured stream by the end.
    assert facebook[-1][2] < facebook[-1][3]
