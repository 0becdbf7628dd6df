"""Per-connection accounting and backpressure for the sweep hub.

Each connection gets one :class:`Session`, owned by the hub core
(:mod:`repro.service.hub`).  The session tracks what a client has
submitted and what has been streamed back, and holds the hub's
backpressure policy: a client may have at most ``high_watermark`` jobs
outstanding (accepted but not yet streamed back).  Above the high
watermark the session is ``throttled`` and the daemon's shell simply
*stops reading* that client's socket — kernel buffers fill, the
client's writes block, and the pressure propagates to the submitter
without any protocol chatter — until results drain the session below
the low watermark.  Well-behaved clients never notice; firehose
clients are throttled instead of ballooning daemon memory.

A hard per-submit cap (``max_submit``) complements the watermarks: a
single SUBMIT frame bigger than the cap is refused outright with an
``error`` frame, because accepting half a submission has no sane
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Submission:
    """One SUBMIT frame's lifecycle on the daemon side."""

    session: "Session"
    submit_id: str
    total: int
    #: results not yet streamed back (drops to 0 => DONE frame).
    pending: int
    executed: int = 0
    cached: int = 0
    failed: int = 0
    cancelled: bool = False


@dataclass
class Session:
    """One connection's state (see module docstring)."""

    id: int
    peer: str
    high_watermark: int
    low_watermark: int
    #: The accepted handshake frame's type: ``hello`` (a client),
    #: ``register`` (a worker) or ``peer`` (a standby hub).
    role: Optional[str] = None
    #: jobs accepted from this client and not yet answered.
    outstanding: int = 0
    #: live SUBMITs by submit_id.
    submissions: Dict[str, Submission] = field(default_factory=dict)
    closed: bool = False
    #: Reading is paused: the session went over the high watermark and
    #: has not yet drained to the low one.
    throttled: bool = False

    def accept(self, submit_id: str, total: int) -> Submission:
        """Account for a new SUBMIT; returns its tracking record."""
        submission = Submission(session=self, submit_id=submit_id,
                                total=total, pending=total)
        self.submissions[submit_id] = submission
        self.outstanding += total
        if self.outstanding > self.high_watermark:
            self.throttled = True
        return submission

    def settle_one(self, submission: Submission, *, executed: bool,
                   cached: bool, failed: bool) -> None:
        """One result streamed back to this client."""
        submission.executed += int(executed)
        submission.cached += int(cached)
        submission.failed += int(failed)
        self.detach(submission, 1)

    def detach(self, submission: Submission, count: int) -> None:
        """Drop ``count`` of a submission's jobs: answered, or
        cancelled so that the client stops waiting for them."""
        submission.pending -= count
        self.outstanding -= count
        if self.outstanding <= self.low_watermark:
            self.throttled = False
        if submission.pending <= 0:
            self.submissions.pop(submission.submit_id, None)


__all__ = ["Session", "Submission"]
