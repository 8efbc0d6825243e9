"""The discrete-event kernel: one clock, one queue, named RNG streams.

``repro.engine`` owns the three things every simulated layer used to
re-implement privately:

* **time** — :class:`Clock` (monotonic simulated seconds) and
  :class:`SerialResource` (a busy-horizon for one-at-a-time hardware like
  the switch CPU);
* **scheduling** — :class:`EventScheduler`, a single priority queue with
  deterministic ``(time, tier, seq)`` ordering (``seq`` breaks
  same-instant ties in scheduling order; :data:`TIER_COMPLETION` and
  :data:`TIER_ARRIVAL` slot flow completions, then flow arrivals, ahead
  of same-time events);
* **randomness** — :class:`RngStreams`, named seeded streams replacing
  the experiment layer's closure-counter seed derivation.

The clock/scheduler core is pure stdlib and single-process.  On top of
it rides :mod:`repro.engine.replay` (re-execute a recorded
``hermes-trace/1`` workload against a different scheme/switch model).
The simulator, the switch agents, and the experiment drivers are all
clients of this package; the determinism lint's ``adhoc-event-loop``
rule flags a private simulated clock (an assigned ``now`` /
``busy_until`` attribute) anywhere outside it.
"""

from .clock import Clock, SerialResource
from .rng import RngStreams
from .scheduler import TIER_ARRIVAL, TIER_COMPLETION, TIER_DEFAULT, Event, EventScheduler
from . import replay

__all__ = [
    "Clock",
    "Event",
    "EventScheduler",
    "RngStreams",
    "SerialResource",
    "TIER_ARRIVAL",
    "TIER_COMPLETION",
    "TIER_DEFAULT",
    "replay",
]
