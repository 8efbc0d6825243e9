"""BGP RIB and best-path selection.

The paper's preprocessing "converts the BGP updates into Forwarding
Information Base (FIB) rules ... because many RIB updates do not percolate
down to the FIB" (Section 8.1.3).  This module is the RIB half of that
pipeline: per-peer Adj-RIB-In tables and the standard best-path decision
process (local-pref, AS-path length, MED, tie-break on peer id).  An update
whose processing leaves the best path unchanged produces *no* FIB change —
the percolation filter the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tcam.prefix import Prefix
from .messages import BgpRoute, BgpUpdate, BgpUpdateKind


@dataclass(frozen=True)
class BestPathChange:
    """The RIB-level outcome of one update.

    Attributes:
        prefix: the affected prefix.
        previous: the best route before the update (None if none).
        current: the best route after the update (None if none remains).
    """

    prefix: Prefix
    previous: Optional[BgpRoute]
    current: Optional[BgpRoute]

    @property
    def changed(self) -> bool:
        """True when the best path actually moved (a FIB-relevant event)."""
        return self.previous != self.current


def preference_key(route: BgpRoute):
    """Sort key implementing the decision process: larger is better."""
    return (
        route.local_pref,
        -len(route.as_path),
        -route.med,
        route.peer,  # deterministic tie-break (stands in for router-id)
    )


class Rib:
    """Adj-RIB-In per peer plus the computed best path per prefix."""

    def __init__(self) -> None:
        self._routes: Dict[Prefix, Dict[str, BgpRoute]] = {}
        self._best: Dict[Prefix, BgpRoute] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def process(self, update: BgpUpdate) -> BestPathChange:
        """Apply one update and report whether the best path changed."""
        previous = self._best.get(update.prefix)
        table = self._routes.setdefault(update.prefix, {})
        if update.kind is BgpUpdateKind.ANNOUNCE:
            table[update.peer] = update.route
        else:
            table.pop(update.peer, None)
            if not table:
                del self._routes[update.prefix]
        current = self._select_best(update.prefix)
        if current is None:
            self._best.pop(update.prefix, None)
        else:
            self._best[update.prefix] = current
        return BestPathChange(prefix=update.prefix, previous=previous, current=current)

    def _select_best(self, prefix: Prefix) -> Optional[BgpRoute]:
        candidates = list(self._routes.get(prefix, {}).values())
        if not candidates:
            return None
        return max(candidates, key=preference_key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def best_routes(self) -> List[BgpRoute]:
        """All current best routes (one per reachable prefix)."""
        return list(self._best.values())

    def route_count(self) -> int:
        """Total Adj-RIB-In entries across peers."""
        return sum(len(table) for table in self._routes.values())

    def prefix_count(self) -> int:
        """Distinct reachable prefixes."""
        return len(self._best)
