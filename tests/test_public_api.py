"""Public-API hygiene: everything exported exists and is documented."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.analysis
import repro.baselines
import repro.bgp
import repro.core
import repro.engine
import repro.experiments
import repro.obs
import repro.obs.perf
import repro.simulator
import repro.switchsim
import repro.tcam
import repro.topology
import repro.traffic

PACKAGES = [
    repro,
    repro.analysis,
    repro.baselines,
    repro.bgp,
    repro.core,
    repro.engine,
    repro.obs,
    repro.obs.perf,
    repro.simulator,
    repro.switchsim,
    repro.tcam,
    repro.topology,
    repro.traffic,
]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_all_exports_resolve(package):
    exported = getattr(package, "__all__", None)
    assert exported, f"{package.__name__} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package.__name__}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_exports_are_documented(package):
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{package.__name__}.{name} lacks a docstring"


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_package_has_docstring(package):
    assert package.__doc__ and package.__doc__.strip()


def test_public_class_methods_are_documented():
    """Every public method of the flagship classes carries a docstring."""
    from repro import HermesInstaller, Simulation, SwitchAgent
    from repro.tcam import TcamTable

    for cls in (HermesInstaller, Simulation, SwitchAgent, TcamTable):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} lacks a docstring"


def test_version_string():
    assert repro.__version__.count(".") == 2


def _loaded_after_import(modules, watched):
    """Which of ``watched`` a fresh interpreter has loaded after importing
    ``modules``.  A fresh interpreter, because the test process imports
    everything."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        f"import {', '.join(modules)}\n"
        f"print(sorted(name for name in {tuple(watched)!r}"
        " if name in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_experiment_imports_leave_scipy_stats_unloaded():
    """Every benchmark and experiment process imports the result tables
    (``repro.experiments.common``) and so ``repro.analysis``; neither may
    pull in ``scipy.stats``, which alone adds ~20 MiB of resident memory."""
    loaded = _loaded_after_import(
        ["repro.experiments.common", "repro.analysis"], ["scipy.stats"]
    )
    assert loaded == "[]"


def test_kernel_and_experiment_imports_leave_process_pools_unloaded():
    """The kernel and every experiment run in one process; importing them
    must not load ``multiprocessing`` or ``concurrent.futures.process``."""
    loaded = _loaded_after_import(
        ["repro.engine", "repro.experiments"],
        ["multiprocessing", "concurrent.futures.process"],
    )
    assert loaded == "[]"


def test_simulator_and_obs_imports_leave_analysis_unloaded():
    """Every simulation loads ``repro.obs`` (the tracer lives there), so
    the online verifier imports ``repro.analysis`` only when it checks;
    importing the simulator and ``repro.obs`` must not load it."""
    loaded = _loaded_after_import(
        ["repro.simulator", "repro.obs"], ["repro.analysis"]
    )
    assert loaded == "[]"
