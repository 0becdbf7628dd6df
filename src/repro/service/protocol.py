"""Wire protocol of the sweep service: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding a single object with a ``type``
field.  The framing is deliberately primitive — no compression, no
out-of-band channels — because the payloads (specs and report
payloads) already have canonical JSON forms in :mod:`repro.runner`,
and byte-identity of reports across the wire falls out of reusing
them verbatim.

Conversation shape (client first)::

    -> {"type": "hello", "version": 1}
    <- {"type": "welcome", "version": 1, "jobs": N, ...}
    -> {"type": "submit", "submit_id": "s1", "specs": [<canonical>...]}
    <- {"type": "accepted", "submit_id": "s1", "total": n, "keys": [...]}
       # — or, when admission control sheds the submission —
    <- {"type": "busy", "submit_id": "s1", "retry_after_s": r,
        "queued": q, "inflight": i, "max_queue": m}
    <- {"type": "result", "submit_id": "s1", "index": i, "key": ...,
        "cached": bool, "coalesced": bool, "elapsed_s": t,
        "error": null | str, "kind": null | "CRASH" | "TIMEOUT" |
        "OOM" | "QUARANTINED" | "ERROR",
        "report": {<report payload>}}   # n times
    <- {"type": "done", "submit_id": "s1", "executed": e, "cached": c,
        "failed": f}
    -> {"type": "cancel", "submit_id": "s1"}     # any time
    <- {"type": "cancelled", "submit_id": "s1", "detached": k}
    -> {"type": "stats"}
    <- {"type": "stats", ...counters..., "workers": [...]}
    -> {"type": "shutdown"}
    <- {"type": "bye"}                           # after the drain

Conversation shape (worker first) — a remote worker node dials the
same listener but opens with ``register`` instead of ``hello``, then
*receives* work instead of submitting it::

    -> {"type": "register", "version": 1, "uid": "<stable id>",
        "jobs": N, "replica_batch": bool, "repro": "<version>",
        "name": ...}
    <- {"type": "registered", "worker_id": W, "reclaimed": r,
        "heartbeat_interval_s": h, "lease_timeout_s": t,
        "credit_window": c}
    <- {"type": "lease", "lease_id": "L7", "specs": [<canonical>...]}
    -> {"type": "cache-lookup", "lookup_id": "c1", "keys": [...]}
    <- {"type": "cache-result", "lookup_id": "c1", "hits": [...keys]}
    -> {"type": "upload", "lease_id": "L7", "key": ..., "elapsed_s": t,
        "cached": bool, "error": null | str, "kind": null | str,
        "report": {<report payload>}}            # per cold spec
    -> {"type": "cache-push", "key": ..., "spec": <canonical>,
        "elapsed_s": t, "error": null | str,
        "report": {<report payload>}}            # out-of-lease result
    -> {"type": "heartbeat"}                     # every h seconds
    <- {"type": "bye"}                           # on daemon drain

Conversation shape (standby hub first) — a standby daemon
(``repro serve --standby --follow ADDR``) dials the primary and opens
with ``peer``; the primary answers with a snapshot of its journal
state and then relays every subsequent journal append live::

    -> {"type": "peer", "version": 1, "name": "<standby name>"}
    <- {"type": "peer-welcome", "snapshot": {"live": {key: spec...},
        "quarantined": {key: {"kind", "error"}}},
        "digest": sha256(<canonical snapshot JSON>),
        "lease_timeout_s": t}
    <- {"type": "journal-sync", "seq": n, "records": [<record>...],
        "digest": sha256(<canonical records JSON>)}   # per append
    <- {"type": "sync-ping"}                     # reaper-paced liveness
    <- {"type": "bye"}                           # clean primary drain

Every ``peer-welcome``/``journal-sync`` frame carries a sha256 digest
over the canonical JSON of its state payload (:func:`sync_digest`);
the standby recomputes and, on mismatch, drops the connection and
re-dials — a fresh snapshot heals any divergence.  A primary without a
journal (no cache dir) refuses peers with error code ``no-journal``.
A standby that loses the primary mid-stream re-dials under its
``RetryPolicy``; only when every attempt fails does it *promote*:
replay its mirrored journal exactly as ``--resume`` does and start
serving on its own address.  A clean ``bye`` instead means the
primary drained on purpose, and the standby exits 0 without promoting.

The daemon leases at most ``credit_window`` specs to a worker at a
time (``CREDIT_FACTOR`` × its parallel width — one batch running, one
queued behind it); every ``upload`` frees a credit.  A worker whose
connection drops, or whose heartbeats stop for longer than the lease
timeout, is expelled and its leased specs are silently reassigned to
another executor — the submitting client never sees the gap.

Durability semantics layered on top of the framing:

* ``uid`` is a stable worker identity that survives reconnects.  When
  a connection drops but the *process* is alive (a network flap), the
  daemon parks the worker's leases instead of requeueing them; a
  re-``register`` with the same uid inside the lease timeout reclaims
  them (``reclaimed`` in the reply), so a flap costs zero
  re-executions.  Only a worker that stays gone past the lease
  timeout — or one that violates the protocol — is expelled.
* ``cache-lookup`` lets a worker ask the hub which of its leased keys
  are already warm in the hub's content-addressed cache; the daemon
  settles the hits from cache itself and the worker executes only the
  remainder.  ``cache-push`` travels the other way: a result computed
  while disconnected (or found in the worker's own local cache) is
  shipped hub-ward as a canonical payload, keyed — like everything
  else — by the spec's content hash, so double-delivery is idempotent.
* Specs are content-addressed, which makes every retry in the system
  (client resubmit, worker reconnect flush, daemon journal replay)
  an idempotent merge rather than duplicate work.

Overload and resource-exhaustion semantics (resource governance):

* ``busy`` is admission control's answer to a submit that would push
  the daemon past its queue watermark (``--max-queue``): the specs
  are **not** accepted or journaled, and the client's
  ``RetryPolicy`` honours ``retry_after_s`` before resubmitting —
  overload sheds load instead of ballooning daemon memory.  A submit
  may also be refused with ``error`` code ``cache-full`` when the
  cache volume is nearly out of disk: refusing to journal beats
  corrupting the journal.
* ``kind`` on ``result``/``upload``/``cache-push`` frames carries the
  failure taxonomy of :mod:`repro.runner.governance` so clients can
  distinguish a crash from a governor kill (TIMEOUT/OOM) from a
  quarantine verdict.  Absent/null on success; unknown values must be
  tolerated (additive field).

Any protocol violation is answered with
``{"type": "error", "code": ..., "message": ...}`` and — for framing
violations, where the byte stream can no longer be trusted — a closed
connection.  The daemon itself always survives a bad client.

Both an asyncio flavour (daemon side) and a blocking-socket flavour
(client side) of read/write are provided over the same framing, so
tests can drive either end against the other.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

#: Bump on incompatible message-shape changes; the HELLO/WELCOME
#: handshake rejects mismatches before any job state exists.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload.  Large enough for a full-size
#: merged report, small enough that a corrupt length prefix (or a
#: client speaking a different protocol entirely) cannot make the
#: daemon try to buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The byte stream violated the framing or message contract.

    ``code`` is a stable machine-readable slug mirrored into the
    ``error`` frame the daemon sends back before closing.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode_frame(message: Dict[str, Any]) -> bytes:
    """``message`` as one wire frame (header + JSON payload)."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"outgoing frame of {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """The message inside one frame's payload bytes, validated."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("bad-json",
                            f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad-message",
            f"frame payload must be an object, got "
            f"{type(message).__name__}")
    kind = message.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("bad-message",
                            "frame object is missing a string 'type'")
    return message


def _check_length(length: int) -> None:
    if length == 0:
        raise ProtocolError("bad-frame", "zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")


# -- asyncio flavour (daemon side) ------------------------------------------


async def read_frame_async(
        reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """The next message, or ``None`` on a clean end-of-stream.

    A stream truncated *inside* a frame (header or payload) raises
    :class:`ProtocolError` — the peer vanished mid-message, which
    callers treat as a dropped connection rather than a quiet goodbye.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            "truncated-frame",
            f"stream ended inside a frame header "
            f"({len(exc.partial)}/{_HEADER.size} bytes)") from exc
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "truncated-frame",
            f"stream ended inside a frame payload "
            f"({len(exc.partial)}/{length} bytes)") from exc
    return decode_payload(payload)


# -- blocking flavour (client side) -----------------------------------------


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            raise ProtocolError(
                "truncated-frame",
                f"connection closed inside a frame ({got}/{count} "
                "bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking read of the next message; ``None`` on clean EOF."""
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exactly(sock, _HEADER.size - 1)
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    return decode_payload(_recv_exactly(sock, length))


def write_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


# -- addresses ---------------------------------------------------------------


def parse_address(text: str) -> Tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from user text.

    Anything with a path separator (or a ``.sock`` suffix, or an
    explicit ``unix:`` prefix) is a filesystem socket; ``host:port``
    is TCP.  A bare name that is neither is rejected up front so a
    typo'd ``--server`` fails with one clear line instead of a
    connect timeout.
    """
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):])
    if "/" in text or text.endswith(".sock"):
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if sep and host:
        try:
            return ("tcp", (host, int(port)))
        except ValueError:
            pass
    raise ValueError(
        f"bad service address {text!r}: expected a socket path "
        "(contains '/' or ends in .sock), unix:<path>, or host:port")


def parse_address_list(text: str) -> List[str]:
    """Validated addresses from a comma-separated candidate list.

    ``--server`` and ``worker --connect`` accept ``primary,standby``
    style lists; each entry must individually satisfy
    :func:`parse_address`.  A single address is a list of one, so
    every caller can treat the result uniformly.
    """
    addresses = [piece.strip() for piece in text.split(",")
                 if piece.strip()]
    if not addresses:
        raise ValueError(
            f"bad service address list {text!r}: no addresses")
    for address in addresses:
        parse_address(address)
    return addresses


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """A connected blocking socket for ``address`` (see parse_address)."""
    kind, target = parse_address(address)
    if kind == "unix":
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover — win32
            raise OSError("unix sockets are unavailable on this "
                          "platform; use host:port")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(target)
        except BaseException:
            sock.close()  # as create_connection does for TCP
            raise
        return sock
    return socket.create_connection(target, timeout=timeout)


def hello_frame() -> Dict[str, Any]:
    return {"type": "hello", "version": PROTOCOL_VERSION}


def register_frame(*, jobs: int, replica_batch: bool, name: str,
                   uid: Optional[str] = None,
                   heartbeat_s: Optional[float] = None) -> Dict[str, Any]:
    """A worker's opening frame: identity + protocol version + capabilities.

    ``uid`` is the worker's stable identity; re-registering with the
    same uid within the lease timeout reclaims parked leases instead
    of triggering reassignment.  ``None`` (legacy callers) degrades to
    per-connection identity with no reclaim.  ``heartbeat_s`` asks the
    daemon to accept a specific heartbeat interval instead of deriving
    one from its lease timeout; the daemon validates it against that
    timeout and refuses registrations it could never keep alive.
    """
    from repro import __version__

    frame = {
        "type": "register",
        "version": PROTOCOL_VERSION,
        "jobs": jobs,
        "replica_batch": replica_batch,
        "repro": __version__,
        "name": name,
    }
    if uid is not None:
        frame["uid"] = uid
    if heartbeat_s is not None:
        frame["heartbeat_s"] = heartbeat_s
    return frame


def peer_frame(name: str) -> Dict[str, Any]:
    """A standby hub's opening frame on the journal-sync conversation."""
    return {"type": "peer", "version": PROTOCOL_VERSION, "name": name}


def sync_digest(state: Any) -> str:
    """sha256 over the canonical JSON of a sync payload.

    Used by ``peer-welcome`` (over the snapshot object) and
    ``journal-sync`` (over the records list) so a standby can verify
    that what it mirrors is what the primary journaled — the same
    digest-before-trust posture the result cache takes with payloads.
    """
    blob = json.dumps(state, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def error_frame(code: str, message: str) -> Dict[str, Any]:
    return {"type": "error", "code": code, "message": message}


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_payload",
    "read_frame_async",
    "read_frame",
    "write_frame",
    "parse_address",
    "parse_address_list",
    "connect",
    "hello_frame",
    "register_frame",
    "peer_frame",
    "sync_digest",
    "error_frame",
]
