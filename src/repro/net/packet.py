"""Packet model with Ethernet framing accounting.

A :class:`Packet` carries only what the switch models need: identity,
size, endpoints, and the timestamps from which every latency metric is
derived.  Payload bytes are never materialised — the simulator moves
sizes, not data.

Size conventions
----------------

``size`` is the L2 frame size (Ethernet header + payload + FCS), the
number a ToR buffer stores.  :func:`wire_size` adds preamble + inter
frame gap, the number that occupies link time.  The distinction matters:
buffering requirements (Figure 1) count stored bytes, while link
utilisation counts wire bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

#: Preamble (7) + SFD (1) + inter-frame gap (12) in bytes.
ETHERNET_OVERHEAD_BYTES = 20
#: Minimum Ethernet frame (64 bytes including FCS).
MIN_FRAME_BYTES = 64
#: Maximum standard Ethernet frame (non-jumbo).
MAX_FRAME_BYTES = 1518

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Reset the global packet id counter (test isolation helper)."""
    global _packet_ids
    _packet_ids = itertools.count()


def wire_size(frame_bytes: int) -> int:
    """Bytes of link time a frame occupies (frame + preamble + IFG)."""
    return frame_bytes + ETHERNET_OVERHEAD_BYTES


@dataclass(slots=True)
class Packet:
    """One simulated frame.

    Attributes
    ----------
    src, dst:
        Source and destination *port* indices on the hybrid switch.
    size:
        L2 frame bytes (64..1518 for standard Ethernet; jumbo allowed
        by models that opt in).
    created_ps:
        Timestamp when the application emitted the packet (flow-control
        delay at the host counts toward latency, as the paper's host
        buffering argument requires).
    flow_id:
        Opaque flow identifier assigned by the traffic generator.
    priority:
        0 = best effort; higher values are latency-sensitive (VOIP).
    packet_id:
        Unique id; left ``None``, the next one from the global counter
        is assigned at construction.
    enqueued_ps / dequeued_ps / delivered_ps:
        Filled in as the packet crosses the switch; ``None`` until then.
    via:
        Which fabric delivered it: ``"ocs"``, ``"eps"`` or ``None`` when
        still in flight/dropped.
    """

    src: int
    dst: int
    size: int
    created_ps: int
    flow_id: int = 0
    priority: int = 0
    packet_id: Optional[int] = None
    enqueued_ps: Optional[int] = None
    dequeued_ps: Optional[int] = None
    delivered_ps: Optional[int] = None
    via: Optional[str] = None

    def __post_init__(self) -> None:
        # The id is drawn here, not by a default factory: a factory is
        # one more Python call per packet.
        if self.packet_id is None:
            self.packet_id = next(_packet_ids)
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ValueError(
                f"packet src == dst == {self.src}; rack traffic never "
                "hairpins through the hybrid switch")

    @property
    def latency_ps(self) -> Optional[int]:
        """End-to-end latency (delivery − creation), or None if undelivered."""
        if self.delivered_ps is None:
            return None
        return self.delivered_ps - self.created_ps

    @property
    def queueing_ps(self) -> Optional[int]:
        """Time spent waiting in a VOQ, or ``None`` if not yet dequeued."""
        if self.dequeued_ps is None or self.enqueued_ps is None:
            return None
        return self.dequeued_ps - self.enqueued_ps


__all__ = [
    "Packet",
    "wire_size",
    "reset_packet_ids",
    "ETHERNET_OVERHEAD_BYTES",
    "MIN_FRAME_BYTES",
    "MAX_FRAME_BYTES",
]
