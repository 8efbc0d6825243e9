"""Online verification: run the ruleset verifier *during* a traced run.

The post-hoc verifier (``repro.analysis.verifier``) can tell you that a run
ended with a priority inversion, but not when it appeared.  This hook rides
the tracer's listener stream instead: every Nth completed switch action it
re-verifies the switch's installer and records the first sim-instant at
which a violation exists.  The chaos harness attaches one per cell and
reports the result through ``ExperimentResult.extras``.

Every sampled check is a full
:func:`repro.analysis.verifier.verify_installer` over the installer's
current tables, so the online and post-hoc verdicts come from one code
path.  Sampling every ``every`` actions is what bounds the cost.
"""

from __future__ import annotations

from typing import Dict, Optional

from .tracer import RecordingTracer


class OnlineVerifier:
    """A tracer listener that periodically verifies installer state.

    Args:
        installers: mapping of switch name to the installer to verify.
        every: verify a switch after this many of its completed actions
            (1 = after every action; higher values sample).
    """

    def __init__(self, installers: Dict[str, object], every: int = 25) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1: {every}")
        self.installers = dict(installers)
        self.every = every
        self.checks_run = 0
        self.violations_found = 0
        self.first_violation: Optional[dict] = None
        self._action_counts: Dict[str, int] = {}

    def attach(self, tracer: RecordingTracer) -> "OnlineVerifier":
        """Subscribe to ``tracer``; returns self for chaining."""
        tracer.add_listener(self)
        return self

    def __call__(self, record: dict) -> None:
        if record.get("type") != "span" or record.get("name") != "agent.action":
            return
        switch = record["attrs"].get("switch")
        if switch not in self.installers:
            return
        count = self._action_counts.get(switch, 0) + 1
        self._action_counts[switch] = count
        if count % self.every == 0:
            self._check(switch, record["end"])

    def _check(self, switch: str, now: float) -> None:
        # Imported lazily: every simulation loads repro.obs (the tracer
        # lives here), and a module-level import would load all of
        # repro.analysis (lint, races, snapshots) into processes that never
        # verify.  Only a process that runs a check pays.
        from ..analysis.verifier import verify_installer

        violations = verify_installer(self.installers[switch])
        self.checks_run += 1
        if violations:
            self.violations_found += len(violations)
            if self.first_violation is None:
                self.first_violation = {
                    "time": now,
                    "switch": switch,
                    "kinds": sorted({violation.kind for violation in violations}),
                }

    def report(self) -> dict:
        """Summary for ``ExperimentResult.extras``."""
        return {
            "checks_run": self.checks_run,
            "violations_found": self.violations_found,
            "first_violation": self.first_violation,
        }
