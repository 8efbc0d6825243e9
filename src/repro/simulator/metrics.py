"""Metrics collection: RIT, FCT, and JCT (Section 8.1.2 of the paper).

* **Rule installation time (RIT)** — time for a switch to install one rule,
  including queueing at the switch CPU.
* **Flow completion time (FCT)** — first packet sent to last packet
  received.
* **Job completion time (JCT)** — start of a job's first flow to end of its
  last flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..traffic.flows import FlowSpec


@dataclass
class FlowRecord:
    """Lifecycle of one simulated flow."""

    spec: FlowSpec
    start_time: float
    finish_time: Optional[float] = None
    reroutes: int = 0

    @property
    def completed(self) -> bool:
        """True once the flow's last byte has been delivered."""
        return self.finish_time is not None

    @property
    def fct(self) -> float:
        """Flow completion time in seconds.

        Raises:
            ValueError: when the flow has not completed.
        """
        if self.finish_time is None:
            raise ValueError(f"flow {self.spec.flow_id} has not completed")
        return self.finish_time - self.start_time


class MetricsCollector:
    """Accumulates flow, job, and rule-installation metrics for one run."""

    def __init__(self) -> None:
        self._flows: Dict[int, FlowRecord] = {}
        self._rits: List[float] = []
        self._undelivered = 0
        self._peak_active = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def flow_started(self, spec: FlowSpec, at_time: float) -> None:
        """Register a flow's first byte."""
        self._flows[spec.flow_id] = FlowRecord(spec=spec, start_time=at_time)

    def flow_finished(self, flow_id: int, at_time: float) -> None:
        """Register a flow's last byte.

        Raises:
            KeyError: for unknown flows.
        """
        self._flows[flow_id].finish_time = at_time

    def flow_rerouted(self, flow_id: int) -> None:
        """Count one TE-driven path change for the flow."""
        self._flows[flow_id].reroutes += 1

    def record_rit(self, latency: float) -> None:
        """Record one rule installation time."""
        self._rits.append(latency)

    def record_undelivered(self, count: int) -> None:
        """Count FlowMods that never took effect on their switch."""
        if count < 0:
            raise ValueError(f"undelivered count cannot be negative: {count}")
        self._undelivered += count

    def record_active_peak(self, count: int) -> None:
        """Track the high-water mark of concurrently active flows.

        The simulator reports the live count (``len`` of its
        :class:`~repro.simulator.flowstate.FlowStore`) after each
        admission; the collector keeps the max — the concurrency the
        scaling curve reports against.
        """
        if count > self._peak_active:
            self._peak_active = count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def flow_records(self) -> List[FlowRecord]:
        """All flow records, completed or not."""
        return list(self._flows.values())

    def fcts(self) -> List[float]:
        """FCTs of completed flows."""
        return [record.fct for record in self._flows.values() if record.completed]

    def rits(self) -> List[float]:
        """All recorded rule installation times."""
        return list(self._rits)

    def jcts(self) -> Dict[int, float]:
        """Per-job completion times (only jobs whose flows all completed)."""
        starts: Dict[int, float] = {}
        ends: Dict[int, float] = {}
        incomplete: set = set()
        for record in self._flows.values():
            job_id = record.spec.job_id
            if job_id is None:
                continue
            starts[job_id] = min(starts.get(job_id, record.start_time), record.start_time)
            if record.completed:
                ends[job_id] = max(ends.get(job_id, record.finish_time), record.finish_time)
            else:
                incomplete.add(job_id)
        return {
            job_id: ends[job_id] - starts[job_id]
            for job_id in ends
            if job_id not in incomplete
        }

    def total_reroutes(self) -> int:
        """TE path changes across all flows."""
        return sum(record.reroutes for record in self._flows.values())

    def undelivered_total(self) -> int:
        """FlowMods that never took effect across the run."""
        return self._undelivered

    @property
    def peak_active(self) -> int:
        """Most flows simultaneously active across the run."""
        return self._peak_active
