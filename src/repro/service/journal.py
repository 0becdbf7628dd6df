"""Write-ahead journal that makes a sweep campaign survive daemon death.

The hub's queue and lease table live in memory; a SIGKILL would
silently drop every spec a client had submitted but not yet received.
The journal closes that hole with the cheapest durable structure that
works: an append-only JSONL file under the cache directory, one record
per state transition::

    {"op": "queued",      "key": K, "spec": {<canonical spec>}}
    {"op": "settled",     "key": K, "error": null | str}
    {"op": "quarantined", "key": K, "kind": "...", "error": "..."}
    {"op": "drained"}

Recovery is a linear replay: every ``queued`` key without a matching
``settled`` is still owed to somebody, so a restarting daemon
(``repro serve --resume``, the default) re-enqueues those specs before
accepting connections.  Which executor held a spec at crash time is
not recorded: a lease in flight is simply re-run, which is safe
because specs are content-addressed and entry points are pure — the
re-execution produces byte-identical payloads, and warm specs
short-circuit through the result cache anyway.  (Journals written
before this rule may hold ``leased`` lines; replay skips them.)
``quarantined`` records poison specs (failed the same way twice) so a
restart cannot resurrect a retry storm; ``drained`` marks a clean
shutdown, after which replay is a no-op — the quarantine is
campaign-scoped, so a drain wipes it too.

Two failure modes the format is built around:

* **Torn tail.**  A crash mid-append leaves a truncated final line.
  Replay stops at the first undecodable line instead of refusing the
  whole file — everything before the tear is trustworthy because each
  record is flushed (and fsynced, for the ops whose loss would break
  recovery) before the state transition it describes is acted on.
* **Unbounded growth.**  Long-lived daemons compact: the file is
  rewritten to contain only live (unsettled) entries whenever the
  dead-record count crosses a threshold, via tmp + ``os.replace`` so
  a crash mid-compaction loses nothing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, TextIO, Tuple

#: Journal file name, placed inside the daemon's cache directory (the
#: cache globs ``*/*.json`` for its own entries, so a top-level
#: ``.jsonl`` file never collides with result payloads).
JOURNAL_NAME = "service-journal.jsonl"

#: Compact once this many dead (settled/superseded) records accumulate.
#: A settled job leaves two (its ``queued`` and ``settled`` lines), so
#: the file is rewritten about every 1365 settled jobs.
COMPACT_THRESHOLD = 2730

#: Every op a journal holds, and whether its append is fsynced: losing
#: ``queued`` breaks the durability contract (a spec accepted from a
#: client must survive us), losing ``quarantined`` lets a restart re-run
#: a known poison spec, and losing ``drained`` replays a campaign the
#: operator ended.
FSYNC_OPS = {"queued": True, "settled": False, "quarantined": True,
             "drained": True}


def journal_path(cache_dir) -> Path:
    return Path(cache_dir) / JOURNAL_NAME


def _iter_records(path: Path) -> Iterator[Dict[str, Any]]:
    """Decoded records up to the first torn/corrupt line."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return  # torn tail — trust nothing at or past the tear
        if not isinstance(record, dict) or "op" not in record:
            return
        yield record


def replay(path: Path) -> Dict[str, dict]:
    """``{key: canonical spec}`` for every queued-but-unsettled record.

    This is the daemon's debt at the moment of the crash: specs a
    client submitted that never produced a settlement.  A ``drained``
    record wipes the slate (clean shutdown).
    """
    return replay_full(path)[0]


def apply_record(live: Dict[str, dict],
                 quarantined: Dict[str, Dict[str, str]],
                 record: Dict[str, Any]) -> None:
    """Fold one journal record into ``(live, quarantined)`` in place.

    The single replay semantic, shared by :func:`replay_full` (disk)
    and the standby hub's live mirror (wire): whichever path the
    records travel, the reconstructed state is identical.
    """
    op = record.get("op")
    if op == "queued":
        key, spec = record.get("key"), record.get("spec")
        if isinstance(key, str) and isinstance(spec, dict):
            live[key] = spec
    elif op == "settled":
        live.pop(record.get("key"), None)
    elif op == "quarantined":
        key = record.get("key")
        if isinstance(key, str):
            quarantined[key] = {
                "kind": str(record.get("kind") or "ERROR"),
                "error": str(record.get("error") or ""),
            }
            live.pop(key, None)
    elif op == "drained":
        live.clear()
        quarantined.clear()


def replay_full(
        path: Path) -> Tuple[Dict[str, dict], Dict[str, Dict[str, str]]]:
    """Replay both the debt and the quarantine roster.

    Returns ``(live, quarantined)`` where ``quarantined`` maps spec
    key to ``{"kind", "error"}``.  A quarantined key is removed from
    the live set — recovery must report it once, not re-run it; that
    is the whole point of the quarantine surviving restarts.
    """
    live: Dict[str, dict] = {}
    quarantined: Dict[str, Dict[str, str]] = {}
    for record in _iter_records(path):
        apply_record(live, quarantined, record)
    return live, quarantined


class ServiceJournal:
    """Append-side handle used by a running daemon (or a standby).

    Not thread-safe by itself — the daemon serializes all appends on
    its event loop, which is the only writer.  Every append goes
    through :meth:`record_entry`.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[TextIO] = open(
            self.path, "a", encoding="utf-8")
        self._dead = 0
        #: The quarantine roster the file holds, ``{key: {"kind",
        #: "error"}}``: set by :meth:`compact` (and so by
        #: :meth:`recover`), extended by each ``quarantined`` append.
        self.quarantined: Dict[str, Dict[str, str]] = {}
        #: Called with each record *after* it is durably appended
        #: (a standby's mirror can hang here).  Compaction does not
        #: fire it: the logical state is unchanged by a rewrite.
        self.on_append: Optional[Callable[[Dict[str, Any]], None]] = None

    # -- appends ------------------------------------------------------------

    def record_entry(self, record: Dict[str, Any]) -> None:
        """Append one record; the single write path, keyed by its op.

        Ops outside :data:`FSYNC_OPS` are not journal records (a
        ``leased`` line relayed by an older primary, say) and are
        dropped.  A dying disk must not take the daemon down with it:
        a failed write degrades the journal to best-effort, and the
        bookkeeping still follows the record.
        """
        op = record.get("op")
        if op not in FSYNC_OPS or self._file is None:
            return
        if op == "quarantined":
            apply_record({}, self.quarantined, record)
        elif op == "settled":
            self._dead += 2  # the settled record + the queued it retires
        try:
            self._file.write(json.dumps(
                record, sort_keys=True, separators=(",", ":")) + "\n")
            self._file.flush()
            if FSYNC_OPS[op]:
                os.fsync(self._file.fileno())
        except (OSError, ValueError):
            return
        if self.on_append is not None:
            self.on_append(record)

    #: The standby's path: a relayed record, appended verbatim.
    mirror = record_entry

    def record_queued(self, key: str, spec_canonical: dict) -> None:
        self.record_entry({"op": "queued", "key": key,
                           "spec": spec_canonical})

    def record_settled(self, key: str, error: Optional[str]) -> None:
        self.record_entry({"op": "settled", "key": key, "error": error})

    def record_quarantined(self, key: str, kind: str,
                           error: str) -> None:
        self.record_entry({"op": "quarantined", "key": key,
                           "kind": kind, "error": error})

    def record_drained(self) -> None:
        self.record_entry({"op": "drained"})

    # -- maintenance --------------------------------------------------------

    @property
    def wants_compaction(self) -> bool:
        return self._dead >= COMPACT_THRESHOLD

    def compact(self, live: Dict[str, dict],
                quarantined: Optional[Dict[str, Dict[str, str]]] = None,
                ) -> None:
        """Rewrite the file to exactly the given state, atomically.

        ``quarantined`` (by default the journal's own roster) is
        written ahead of the live set — compaction must never launder
        a poison spec back to runnable — and becomes the roster.
        """
        if self._file is None:
            return
        if quarantined is None:
            quarantined = self.quarantined
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as out:
                for key, record in quarantined.items():
                    out.write(json.dumps(
                        {"op": "quarantined", "key": key,
                         "kind": record.get("kind", "ERROR"),
                         "error": record.get("error", "")},
                        sort_keys=True, separators=(",", ":")) + "\n")
                for key, spec in live.items():
                    out.write(json.dumps(
                        {"op": "queued", "key": key, "spec": spec},
                        sort_keys=True, separators=(",", ":")) + "\n")
                out.flush()
                os.fsync(out.fileno())
            self._file.close()
            os.replace(tmp, self.path)
        except OSError:
            return
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        self._file = open(self.path, "a", encoding="utf-8")
        self.quarantined, self._dead = dict(quarantined), 0

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    # -- recovery -----------------------------------------------------------

    @classmethod
    def recover(cls, cache_dir) -> Tuple["ServiceJournal", Dict[str, dict]]:
        """Open the journal under ``cache_dir`` and return its debt.

        The file is compacted down to the recovered live set before
        appending resumes, so a crash loop cannot grow it without bound.
        """
        path = journal_path(cache_dir)
        live, quarantined = replay_full(path)
        journal = cls(path)
        journal.compact(live, quarantined)
        return journal, live


__all__ = ["ServiceJournal", "JOURNAL_NAME", "COMPACT_THRESHOLD",
           "journal_path", "replay", "replay_full", "apply_record"]
