"""Known-bad fixture for the ``adhoc-event-loop`` lint rule.

The class below keeps a private simulated clock — the exact pattern
:mod:`repro.engine` exists to delete.  The module is valid Python that
passes the style checks (ruff); only ``python -m repro.analysis lint``
complains, so CI can assert the lint fails on it for the right reason.  It
is never imported by tests; it is linted as text.
"""


class PrivateClock:
    """An ad-hoc timeline: its own mutable ``now`` and busy horizon."""

    def __init__(self):
        self.now = 0.0
        self._busy_until = 0.0

    def step(self, time):
        """adhoc-event-loop: mutates ``now`` outside the kernel clock."""
        self.now = time

    def occupy(self, duration):
        """adhoc-event-loop: augmented assignment to a busy horizon."""
        self._busy_until += duration
