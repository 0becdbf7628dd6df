"""Configurable flow classification — Figure 2's "look-up rules".

The processing logic "classif[ies packets] into flows based on
configurable look-up rules and places them into their respective Virtual
Output Queue".  We model a priority-ordered rule table in the style of a
TCAM: each rule matches on any subset of packet fields and yields an
action.  First match wins; a default rule maps a packet to the VOQ of
its (ingress, destination) pair.

Actions
-------

``voq``
    Normal path: enqueue in the VOQ for (ingress, dst).  ``dst`` may be
    overridden to steer traffic (e.g. service chaining experiments).
``eps``
    Pin the flow to the electrical packet switch regardless of grants —
    the paper's "residual traffic can be sent through the EPS".
``drop``
    Access control; dropped packets are counted, not errored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import Packet


@dataclass(frozen=True)
class ClassifierRule:
    """One TCAM-style rule.

    ``None`` in a match field is a wildcard.  ``min_size`` lets rules
    distinguish bulk from small packets (a cheap hardware-realistic
    proxy for elephant detection at the classifier).
    """

    action: str
    src: Optional[int] = None
    dst: Optional[int] = None
    flow_id: Optional[int] = None
    priority_class: Optional[int] = None
    min_size: Optional[int] = None
    redirect_dst: Optional[int] = None

    _ACTIONS = ("voq", "eps", "drop")

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ValueError(
                f"unknown classifier action {self.action!r}; "
                f"expected one of {self._ACTIONS}")

    def matches(self, packet: Packet) -> bool:
        """True when every non-wildcard field matches ``packet``."""
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return False
        if (self.priority_class is not None
                and packet.priority != self.priority_class):
            return False
        if self.min_size is not None and packet.size < self.min_size:
            return False
        return True


@dataclass(frozen=True)
class Classification:
    """Result of classifying one packet."""

    action: str
    dst: int


class FlowClassifier:
    """Priority-ordered first-match rule table with a ``voq`` default."""

    def __init__(self, rules: Optional[List[ClassifierRule]] = None) -> None:
        self._rules: List[ClassifierRule] = list(rules or [])
        #: True while the table holds no rules.  The hot ingress path
        #: reads this plain attribute (kept in step by every mutator) to
        #: skip rule matching, and the per-packet ``Classification``
        #: allocation, entirely — default classification is the
        #: identity: ``voq`` toward ``packet.dst``.
        self.is_default = not self._rules

    def add_rule(self, rule: ClassifierRule) -> None:
        """Append a rule at the lowest priority (end of table)."""
        self._rules.append(rule)
        self.is_default = False

    def insert_rule(self, index: int, rule: ClassifierRule) -> None:
        """Insert a rule at ``index`` (0 = highest priority)."""
        self._rules.insert(index, rule)
        self.is_default = False

    def clear(self) -> None:
        """Remove all rules, restoring default-only behaviour."""
        self._rules.clear()
        self.is_default = True

    def __len__(self) -> int:
        return len(self._rules)

    def classify(self, packet: Packet) -> Classification:
        """Return the action for ``packet`` (default: voq to packet.dst)."""
        for rule in self._rules:
            if rule.matches(packet):
                dst = packet.dst
                if rule.redirect_dst is not None:
                    dst = rule.redirect_dst
                return Classification(rule.action, dst)
        return Classification("voq", packet.dst)


__all__ = ["ClassifierRule", "Classification", "FlowClassifier"]
