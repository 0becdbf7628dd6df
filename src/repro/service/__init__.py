"""The always-on sweep service: ``repro serve`` and its clients.

Layering::

    protocol.py   length-prefixed JSON framing + addresses (shared)
    session.py    per-connection accounting and backpressure
    journal.py    write-ahead journal under the cache dir — crash
                  recovery for the daemon (``--resume`` replay)
    hub.py        HubCore — the hub's policy with no I/O, one
                  ``handle(event, now) -> effects`` call: in-flight
                  cross-client dedup, a lease scheduler over the
                  local pool + registered remote workers, persistent
                  worker identity (reconnect reclaims parked leases),
                  fleet cache transport (cache-lookup / cache-push),
                  quarantine, admission control and graceful drain
    daemon.py     ReproDaemon — the asyncio shell around HubCore,
                  owning the sockets, the shared ResultCache, the
                  journal file and the warm JobRunner/worker pool
    client.py     ServiceClient + execute_via_server (the CLI's
                  ``--server`` routing) with RetryPolicy backoff
    worker.py     ReproWorker — a remote node (``repro worker``)
                  that registers into the daemon's pool, executes
                  leased spec batches and uploads canonical reports;
                  survives flaps by buffering and reconnecting
    chaos.py      ChaosProxy — seeded fault injection between any
                  peer and the daemon (``repro chaos``), proving the
                  durability claims end to end
    standby.py    StandbyHub — a warm spare (``repro serve --standby
                  --follow ADDR``) mirroring the primary's journal
                  over the peer conversation and promoting itself on
                  primary loss
    supervisor.py Supervisor — the ``repro supervise`` control loop:
                  restart-with-budget, hung-hub detection and
                  queue-depth autoscaling over a hub + worker fleet

The daemon's contract mirrors the local runner's: a spec fully
determines its report, so routing a sweep through the service is
byte-identical to running it in process — the service only changes
*who pays* startup cost and *how often* a spec executes (at most once
fleet-wide, thanks to the shared cache plus in-flight coalescing).
The durability layer extends that contract across failures: daemon
death (journal replay), worker flaps (lease reclaim + cache-push) and
client drops (backoff + idempotent resubmit) all preserve it.  The
failover layer removes the last single point of failure: a standby
hub mirrors the journal live and takes over the fleet, multi-address
clients and workers rotate onto it, and the supervisor resurrects
whatever dies.
"""

from repro.service.chaos import ChaosConfig, ChaosProxy
from repro.service.client import (
    RetryPolicy,
    ServiceBusy,
    ServiceClient,
    ServiceError,
    execute_via_server,
)
from repro.service.daemon import ReproDaemon
from repro.service.hub import DaemonStats, WorkerState
from repro.service.journal import ServiceJournal, journal_path
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
    parse_address_list,
)
from repro.service.standby import StandbyError, StandbyHub
from repro.service.supervisor import Supervisor, SupervisorError
from repro.service.worker import ReproWorker, WorkerError

__all__ = [
    "ReproDaemon",
    "DaemonStats",
    "WorkerState",
    "ReproWorker",
    "WorkerError",
    "ServiceClient",
    "ServiceError",
    "ServiceBusy",
    "RetryPolicy",
    "execute_via_server",
    "ServiceJournal",
    "journal_path",
    "ChaosProxy",
    "ChaosConfig",
    "StandbyHub",
    "StandbyError",
    "Supervisor",
    "SupervisorError",
    "ProtocolError",
    "parse_address",
    "parse_address_list",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
]
