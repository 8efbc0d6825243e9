"""Control-plane messages.

The paper defines *control plane actions* as the SDN messages a controller
uses to configure a switch's TCAM — OpenFlow's FlowMod with ADD / MODIFY /
DELETE commands.  This module provides a minimal, typed model of those
messages sufficient to drive the TCAM substrate and Hermes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..tcam.rule import Action, Rule
from ..tcam.ternary import TernaryMatch


class FlowModCommand(enum.Enum):
    """The FlowMod sub-commands the paper's analysis covers (§2.1.1)."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class FlowMod:
    """One flow-table modification request.

    ADD carries a full :class:`Rule`.  MODIFY and DELETE address an installed
    rule by ``rule_id``; MODIFY may change the action, match, or priority —
    priority changes are the expensive case the paper calls out (they become
    a delete + insert).
    """

    command: FlowModCommand
    rule: Optional[Rule] = None
    rule_id: Optional[int] = None
    new_action: Optional[Action] = None
    new_match: Optional[TernaryMatch] = None
    new_priority: Optional[int] = None
    # OpenFlow transaction id, stamped by the control channel.  Agents use
    # it to deduplicate redeliveries (a retransmitted FlowMod whose first
    # copy was applied but whose ack was lost must not install twice).
    xid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.command is FlowModCommand.ADD:
            if self.rule is None:
                raise ValueError("ADD FlowMods require a rule")
        else:
            if self.rule_id is None:
                raise ValueError(f"{self.command.value} FlowMods require a rule_id")
        if self.command is FlowModCommand.MODIFY:
            if (
                self.new_action is None
                and self.new_match is None
                and self.new_priority is None
            ):
                raise ValueError("MODIFY FlowMods must change something")

    @classmethod
    def add(cls, rule: Rule) -> "FlowMod":
        """Insert ``rule`` into the flow table."""
        return cls(FlowModCommand.ADD, rule=rule)

    @classmethod
    def delete(cls, rule_id: int) -> "FlowMod":
        """Remove the rule with the given id."""
        return cls(FlowModCommand.DELETE, rule_id=rule_id)

    @classmethod
    def modify(
        cls,
        rule_id: int,
        action: Optional[Action] = None,
        match: Optional[TernaryMatch] = None,
        priority: Optional[int] = None,
    ) -> "FlowMod":
        """Rewrite fields of an installed rule."""
        return cls(
            FlowModCommand.MODIFY,
            rule_id=rule_id,
            new_action=action,
            new_match=match,
            new_priority=priority,
        )

    @property
    def changes_priority(self) -> bool:
        """True for the MODIFY variant the TCAM cannot do in place."""
        return self.command is FlowModCommand.MODIFY and self.new_priority is not None


@dataclass(frozen=True)
class FlowModResult:
    """Outcome of applying one FlowMod.

    Attributes:
        latency: seconds of switch control-plane time the action consumed —
            the paper's *rule installation time* (RIT) for ADDs.
        installed_rule_ids: ids physically present for this logical rule
            after the action (more than one when Hermes partitioned it).
        used_guaranteed_path: True when Hermes serviced the action through
            the shadow table (i.e. under its performance guarantee).
        gatekeeper: the part of ``latency`` Hermes charged for the Gate
            Keeper plus Algorithm 1 (0 for diverted inserts, other schemes).
    """

    latency: float
    installed_rule_ids: tuple = field(default_factory=tuple)
    used_guaranteed_path: bool = False
    gatekeeper: float = 0.0
