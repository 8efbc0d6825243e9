"""Process-parallel experiment sweeps with deterministic merging.

A sweep is a list of independent (experiment-function, args) tasks — one
per predictor/corrector pair, chaos cell, or ablation variant.
:class:`SweepRunner` fans them over worker processes and merges the
results back **in task order**, so the merged output of a parallel run is
indistinguishable from the serial loop it replaces (``workers=1`` *is*
that loop: no pool, no pickling, byte-identical to the legacy code).

Tasks must be module-level callables with picklable arguments — the same
constraint ``concurrent.futures`` imposes; the experiment modules expose
their per-cell functions (``run_pair``, ``run_cell``, ``run_variant``) at
module scope for exactly this reason.  Per-task child seeds come from
:func:`repro.engine.rng.child_seed` when a sweep wants decorrelated
randomness per cell; the stock experiment sweeps seed each cell explicitly
from their config, so placement never affects results.

Parallel runs ship tasks to workers in contiguous *chunks* (several cells
per submitted future) to amortize process startup and pickling overhead —
on short cells, one-task-per-future can make a "parallel" sweep slower
than the serial loop on few-core machines.  The chunk size defaults to an
auto heuristic (about four chunks per worker, for load balance) and is
tunable per runner; chunking never changes results or their order, only
how tasks are batched onto processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple


def _run_chunk(func: Callable, chunk: Sequence[Tuple]) -> List[object]:
    """Worker-side helper: run one contiguous chunk of homogeneous tasks.

    Module-level so it pickles; results stay in chunk order.
    """
    return [func(*args) for args in chunk]


def _run_task(task: "SweepTask") -> object:
    """Run one :class:`SweepTask` (module-level so it pickles)."""
    return task.func(*task.args)


def _chunked(items: Sequence, size: int) -> List[Sequence]:
    return [items[start : start + size] for start in range(0, len(items), size)]


@dataclass(frozen=True)
class SweepTask:
    """One unit of a sweep: ``func(*args)`` run in some worker.

    ``func`` must be picklable (module-level); ``label`` names the task in
    reports.
    """

    func: Callable
    args: Tuple = ()
    label: str = ""


@dataclass
class SweepOutcome:
    """A completed sweep: per-task results in task order, plus timing."""

    results: List[object] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    workers: int = 1
    elapsed_seconds: float = 0.0


class SweepRunner:
    """Runs independent experiment tasks, serially or across processes.

    ``workers=1`` (the default) runs the tasks inline in submission order —
    the exact legacy behaviour of every experiment's ``for`` loop.
    ``workers>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
    and ships tasks in contiguous chunks (``chunksize`` per future;
    ``None`` = auto, about four chunks per worker) to amortize process
    startup; results are gathered by task index, so the merged list is
    identical to the serial one whenever the tasks themselves are
    process-independent (each stock experiment cell seeds its own RNGs and
    builds its own topology, so they are).
    """

    def __init__(self, workers: int = 1, chunksize: Optional[int] = None) -> None:
        """Create a runner that uses ``workers`` processes (1 = inline).

        ``chunksize`` fixes how many tasks each submitted future carries;
        None picks ``ceil(tasks / (workers * 4))`` at call time.
        """
        if workers < 1:
            raise ValueError(f"workers must be at least 1: {workers}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be at least 1: {chunksize}")
        self.workers = workers
        self.chunksize = chunksize

    def _chunk_size_for(self, task_count: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, -(-task_count // (self.workers * 4)))

    def map(self, func: Callable, task_args: Sequence[Tuple]) -> List[object]:
        """Run ``func(*args)`` for each args tuple; results in task order."""
        if self.workers == 1:
            return [func(*args) for args in task_args]
        task_args = list(task_args)
        chunks = _chunked(task_args, self._chunk_size_for(len(task_args)))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(_run_chunk, func, chunk) for chunk in chunks]
            return [
                result for future in futures for result in future.result()
            ]

    def run(self, tasks: Sequence[SweepTask]) -> SweepOutcome:
        """Run heterogeneous tasks; returns results plus wall-clock timing.

        Timing uses the process monotonic clock — it measures the *host*
        cost of the sweep (the number benchmarks record), never simulated
        time.
        """
        # Lazy import: the engine package must not import repro.obs at
        # module load (obs imports nothing from engine, but keeping the
        # kernel's import graph leaf-free is a deliberate invariant).
        from ..obs.perf.wallclock import wallclock

        started = wallclock()
        results = self.map(_run_task, [(task,) for task in tasks])
        elapsed = wallclock() - started
        return SweepOutcome(
            results=results,
            labels=[task.label for task in tasks],
            workers=self.workers,
            elapsed_seconds=elapsed,
        )
