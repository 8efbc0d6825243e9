"""RIB -> FIB conversion: turning best-path changes into TCAM actions.

The FIB holds one rule per reachable prefix, pointing at the port of the
best route's next hop.  A best-path change becomes:

* an ADD when the prefix becomes reachable,
* a DELETE when it loses its last route,
* a MODIFY (action-only — the cheap TCAM operation) when only the next hop
  changes,
* nothing when the best path is unchanged — the RIB absorbed the update.

Rule priorities encode longest-prefix-match: priority equals prefix length,
so a /24 beats the /16 that covers it, exactly as LPM requires.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..switchsim.messages import FlowMod
from ..tcam.prefix import Prefix
from ..tcam.rule import Action, Rule
from .messages import BgpRoute
from .rib import BestPathChange, Rib


@dataclass
class FibStats:
    """How RIB churn translated into FIB churn."""

    updates_processed: int = 0
    adds: int = 0
    deletes: int = 0
    modifies: int = 0
    suppressed: int = 0  # RIB updates that never reached the FIB

    @property
    def fib_actions(self) -> int:
        """Total TCAM-bound actions emitted."""
        return self.adds + self.deletes + self.modifies


class Fib:
    """The FIB compiler: best-path changes in, FlowMods out."""

    def __init__(self, port_of_peer: Optional[Dict[str, int]] = None) -> None:
        """``port_of_peer`` maps a peer to its egress port (default: a
        CRC-32 of the peer name, stable across processes and hash seeds)."""
        self._port_of_peer = port_of_peer
        self._installed: Dict[Prefix, Rule] = {}
        self.stats = FibStats()

    def port_for(self, route: BgpRoute) -> int:
        """Egress port for a route's peer."""
        if self._port_of_peer is not None:
            return self._port_of_peer[route.peer]
        return zlib.crc32(route.peer.encode()) % 64 + 1

    def compile_change(self, change: BestPathChange) -> List[FlowMod]:
        """Translate one best-path change into zero or more FlowMods."""
        self.stats.updates_processed += 1
        if not change.changed:
            self.stats.suppressed += 1
            return []
        previous_rule = self._installed.get(change.prefix)
        if change.current is None:
            # Prefix lost its last route: delete the FIB entry.
            if previous_rule is None:
                self.stats.suppressed += 1
                return []
            del self._installed[change.prefix]
            self.stats.deletes += 1
            return [FlowMod.delete(previous_rule.rule_id)]
        new_port = self.port_for(change.current)
        if previous_rule is None:
            rule = Rule.from_prefix(
                change.prefix, change.prefix.length, Action.output(new_port)
            )
            self._installed[change.prefix] = rule
            self.stats.adds += 1
            return [FlowMod.add(rule)]
        if previous_rule.action.port == new_port:
            # Same egress port: the data plane is already correct.
            self.stats.suppressed += 1
            return []
        updated = Rule(
            match=previous_rule.match,
            priority=previous_rule.priority,
            action=Action.output(new_port),
            rule_id=previous_rule.rule_id,
            origin_id=previous_rule.origin_id,
        )
        self._installed[change.prefix] = updated
        self.stats.modifies += 1
        return [FlowMod.modify(previous_rule.rule_id, action=Action.output(new_port))]

    def entry_count(self) -> int:
        """Installed FIB entries."""
        return len(self._installed)


class BgpRouter:
    """RIB + FIB glued together: updates in, timed FlowMods out."""

    def __init__(self, port_of_peer: Optional[Dict[str, int]] = None) -> None:
        self.rib = Rib()
        self.fib = Fib(port_of_peer)

    def process(self, update) -> List[FlowMod]:
        """Run one BGP update through the decision process and the FIB."""
        change = self.rib.process(update)
        return self.fib.compile_change(change)
