"""The sweep hub's policy, driven without sockets: ``HubCore``.

A hypothesis ``RuleBasedStateMachine`` plays clients, workers, the
local pool and the clock against one :class:`repro.service.hub.HubCore`
(with an in-memory cache and a fake clock) and checks, after every
event, the hub's guarantees over the generated interleavings:

* every accepted spec settles exactly once;
* every subscriber on a live session gets at most one ``result`` per
  index and one ``done`` — and, once the machine drives all work to
  completion at the end of each run, exactly one of each;
* no worker holds more leases than its credit window;
* a quarantined key is never leased;
* a key is quarantined only after two failed settlements of that key
  with the same kind (since its last success);
* replaying the journal records emitted so far gives the unsettled
  set (and the quarantine roster) the core holds.

A restart rule replays the emitted journal into a fresh core, the
way ``repro serve --resume`` and standby promotion do.  Each defect
the machine found has its own regression test below it.
"""

import ast
import collections
import pathlib
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.experiments.base import ExperimentReport
from repro.runner.cache import report_to_payload
from repro.runner.executor import RunOutcome
from repro.runner.spec import RunSpec
from repro.service.hub import (
    DROPPED,
    Append,
    Close,
    Closed,
    HubCore,
    LocalDone,
    LocalOutcome,
    Opened,
    Received,
    Replayed,
    Send,
    Shutdown,
    StartLocal,
    Tick,
)
from repro.service import ReproDaemon, ServiceClient
from repro.service.journal import apply_record, journal_path, replay
from repro.service.protocol import PROTOCOL_VERSION

LEASE_TIMEOUT_S = 10.0
SPECS = [RunSpec("e4", quick=True, seed=seed).validate()
         for seed in range(3)]
KEYS = [spec.key() for spec in SPECS]
BY_KEY = dict(zip(KEYS, SPECS))
#: Outcome kinds a job may settle with: None is a success.
KINDS = [None, "ERROR", "ERROR", "TIMEOUT"]


def report_for(spec):
    return ExperimentReport(experiment_id=spec.experiment_id,
                            title="hub core", data={"seed": spec.seed})


class MemoryCache:
    """The two calls the core makes on a ``ResultCache``."""

    def __init__(self):
        self.reports = {}

    def load(self, spec):
        return self.reports.get(spec.key())

    def store(self, spec, report):
        self.reports[spec.key()] = report


class Submission:
    def __init__(self, total):
        self.total = total
        self.results = collections.Counter()
        self.done = 0
        self.cancelled = False


def hub(cache, local):
    return HubCore(cache=cache, jobs=1, local_execution=local,
                   lease_timeout_s=LEASE_TIMEOUT_S, min_free_mb=0,
                   max_queue=16, high_watermark=64, low_watermark=32)


class HubMachine(RuleBasedStateMachine):

    @initialize(local=st.booleans())
    def start(self, local):
        self.local = local
        self.cache = MemoryCache()
        self.core = hub(self.cache, local)
        self.now = 0.0
        self.sids = iter(range(1, 10**6))
        self.uids = iter(range(1, 10**6))
        self.submit_ids = iter(range(1, 10**6))
        self.clients = {}      # sid -> {submit_id: Submission}
        self.workers = {}      # sid -> (uid, jobs, held keys)
        self.parked = {}       # uid -> jobs: dropped while leased
        self.local_batch = None
        self.replayed = ({}, {})  # the emitted journal, replayed
        self.strikes = {}      # key -> {kind: failures since success}
        self.settled = set()   # keys the journal has settled
        self.quarantining = None
        self.breaking = None   # the keys a breaking local batch held

    # -- plumbing --------------------------------------------------------------

    def feed(self, event, fed=None):
        """Hand one event to the core and check what comes back.

        ``fed`` is ``(key, kind)`` when the event carries an outcome.
        """
        for effect in self.core.handle(event, self.now):
            if isinstance(effect, Send):
                self.on_frame(effect.sid, effect.frame)
            elif isinstance(effect, Append):
                self.on_record(effect.record, fed)
            elif isinstance(effect, StartLocal):
                assert self.local_batch is None
                assert not {spec.key() for spec in effect.specs} \
                    & set(self.core.quarantined)
                self.local_batch = list(effect.specs)
            elif isinstance(effect, Close):
                self.clients.pop(effect.sid, None)
                worker = self.workers.pop(effect.sid, None)
                if worker is not None and worker[2]:
                    self.parked[worker[0]] = worker[1]

    def on_frame(self, sid, frame):
        kind = frame["type"]
        assert sid in self.clients or sid in self.workers, frame
        if sid in self.workers:
            if kind == "lease":
                keys = [RunSpec.from_canonical(payload).key()
                        for payload in frame["specs"]]
                assert not set(keys) & set(self.core.quarantined)
                self.workers[sid][2].update(keys)
            elif kind == "cache-result":
                self.workers[sid][2].difference_update(frame["hits"])
            return
        submissions = self.clients[sid]
        if kind == "accepted":
            submissions[frame["submit_id"]] = Submission(frame["total"])
        elif kind == "result":
            submission = submissions[frame["submit_id"]]
            assert not submission.cancelled
            submission.results[frame["index"]] += 1
            assert submission.results[frame["index"]] == 1
        elif kind == "done":
            submission = submissions[frame["submit_id"]]
            submission.done += 1
            assert submission.done == 1
            assert len(submission.results) == submission.total

    def on_record(self, record, fed):
        key, error = record.get("key"), record.get("error")
        if record["op"] == "quarantined" or (
                record["op"] == "settled" and self.quarantining is None):
            # Exactly once: a settlement (or the quarantine journaled
            # just ahead of it) retires a queued, unsettled key.
            assert key in self.replayed[0]
        apply_record(*self.replayed, record)
        if record["op"] == "quarantined":
            self.quarantining = (key, record["kind"])
            return
        if record["op"] != "settled":
            return
        self.settled.add(key)
        if error is None:
            self.strikes.pop(key, None)
        elif not error.startswith(DROPPED):
            # An outcome this machine fed, or the core's own ERROR for
            # work that cannot run any more; a cancelled job retired
            # is not a new failure.
            kind = fed[1] if fed and fed[0] == key else "ERROR"
            assert self.breaking is None or key in self.breaking
            counts = self.strikes.setdefault(key, {})
            counts[kind] = counts.get(kind, 0) + 1
        if self.quarantining is not None:
            assert self.quarantining[0] == key
            assert self.strikes[key][self.quarantining[1]] >= 2
            self.quarantining = None

    def open_session(self, frame):
        sid = next(self.sids)
        if frame["type"] == "hello":
            self.clients[sid] = {}
        else:
            self.workers[sid] = (frame["uid"], frame["jobs"], set())
        self.feed(Opened(sid, "test"))
        self.feed(Received(sid, frame))

    def register(self, uid, jobs):
        self.open_session({"type": "register", "version": PROTOCOL_VERSION,
                           "jobs": jobs, "uid": uid, "name": uid})

    def outcome(self, key, kind, cached=False):
        spec = BY_KEY[key]
        error = None if kind is None else f"{key}: failed ({kind})"
        return RunOutcome(spec, report_for(spec), cached=cached,
                          elapsed_s=0.0, error=error, kind=kind)

    def result_frame(self, frame_type, key, kind, cached=False):
        outcome = self.outcome(key, kind, cached)
        return {"type": frame_type, "key": key,
                "spec": BY_KEY[key].canonical(), "cached": cached,
                "elapsed_s": 0.0, "error": outcome.error, "kind": kind,
                "report": report_to_payload(outcome.report)}

    # -- clients ---------------------------------------------------------------

    @rule()
    def open_client(self):
        self.open_session({"type": "hello", "version": PROTOCOL_VERSION})

    @precondition(lambda self: self.clients)
    @rule(data=st.data(),
          picks=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    def submit(self, data, picks):
        sid = data.draw(st.sampled_from(sorted(self.clients)))
        self.feed(Received(sid, {
            "type": "submit", "submit_id": f"s{next(self.submit_ids)}",
            "specs": [BY_KEY[key].canonical() for key in picks]}))

    @precondition(lambda self: self.clients and self.settled)
    @rule(data=st.data())
    def resubmit_settled(self, data):
        # A settled key comes back: a quarantined spec retried, or a
        # twin of a job a still-running batch already reported.
        sid = data.draw(st.sampled_from(sorted(self.clients)))
        key = data.draw(st.sampled_from(sorted(self.settled)))
        self.feed(Received(sid, {
            "type": "submit", "submit_id": f"s{next(self.submit_ids)}",
            "specs": [BY_KEY[key].canonical()]}))

    @precondition(lambda self: any(self.clients.values()))
    @rule(data=st.data())
    def cancel(self, data):
        sid = data.draw(st.sampled_from(
            sorted(sid for sid, subs in self.clients.items() if subs)))
        submit_id = data.draw(st.sampled_from(sorted(self.clients[sid])))
        submission = self.clients[sid][submit_id]
        if submission.done == 0:
            submission.cancelled = True
        self.feed(Received(sid, {"type": "cancel",
                                 "submit_id": submit_id}))

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def close_client(self, data):
        self.feed(Closed(data.draw(st.sampled_from(sorted(self.clients)))))

    # -- workers ---------------------------------------------------------------

    @rule(jobs=st.integers(1, 2))
    def register_worker(self, jobs):
        self.register(f"w{next(self.uids)}", jobs)

    @precondition(lambda self: self.parked)
    @rule(data=st.data())
    def reconnect_worker(self, data):
        uid = data.draw(st.sampled_from(sorted(self.parked)))
        self.register(uid, self.parked.pop(uid))

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def reregister_over_live_connection(self, data):
        uid, jobs, _ = self.workers[data.draw(st.sampled_from(
            sorted(self.workers)))]
        self.register(uid, jobs)

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), violate=st.booleans())
    def disconnect_worker(self, data, violate):
        sid = data.draw(st.sampled_from(sorted(self.workers)))
        if violate:  # an upload for a key it does not hold
            self.feed(Received(sid, {"type": "upload", "key": "nope"}))
        else:
            self.feed(Closed(sid))

    @precondition(lambda self: any(w[2] for w in self.workers.values()))
    @rule(data=st.data(), kind=st.sampled_from(KINDS),
          cached=st.booleans())
    def upload(self, data, kind, cached):
        sid = data.draw(st.sampled_from(
            sorted(sid for sid, w in self.workers.items() if w[2])))
        key = data.draw(st.sampled_from(sorted(self.workers[sid][2])))
        self.workers[sid][2].discard(key)
        self.feed(Received(sid, self.result_frame(
            "upload", key, kind, cached=cached and kind is None)),
            fed=(key, kind))

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), extra=st.sampled_from(KEYS))
    def cache_lookup(self, data, extra):
        sid = data.draw(st.sampled_from(sorted(self.workers)))
        keys = sorted(self.workers[sid][2] | {extra})
        self.feed(Received(sid, {"type": "cache-lookup", "lookup_id": "c",
                                 "keys": keys}))

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), key=st.sampled_from(KEYS),
          kind=st.sampled_from(KINDS))
    def cache_push(self, data, key, kind):
        sid = data.draw(st.sampled_from(sorted(self.workers)))
        for worker in self.workers.values():
            worker[2].discard(key)  # whoever holds it is off the hook
        self.feed(Received(sid, self.result_frame("cache-push", key, kind)),
                  fed=(key, kind))

    @precondition(lambda self: self.workers)
    @rule()
    def heartbeat(self):
        for sid in sorted(self.workers):
            self.feed(Received(sid, {"type": "heartbeat"}))

    # -- the local pool, the clock, the process --------------------------------

    @precondition(lambda self: self.local_batch)
    @rule(kind=st.sampled_from(KINDS))
    def local_outcome(self, kind):
        spec = self.local_batch.pop(0)
        self.feed(LocalOutcome(self.outcome(spec.key(), kind)),
                  fed=(spec.key(), kind))

    @precondition(lambda self: self.local_batch == [])
    @rule()
    def local_done(self):
        # JobRunner.run returns after it reported every spec.
        self.local_batch = None
        self.feed(LocalDone())

    @precondition(lambda self: self.local_batch)
    @rule()
    def local_batch_breaks(self):
        # A failure outside any job (a cache.store OSError, say) fails
        # the jobs the batch still held, and no other.
        self.breaking = {spec.key() for spec in self.local_batch}
        self.local_batch = None
        self.feed(LocalDone("OSError: disk full"))
        self.breaking = None

    @rule(seconds=st.sampled_from([1.0, LEASE_TIMEOUT_S / 2,
                                   LEASE_TIMEOUT_S + 1]))
    def tick(self, seconds):
        self.now += seconds
        self.feed(Tick())

    @precondition(lambda self: self.core.live and not self.core.draining)
    @rule()
    def shutdown(self):
        self.feed(Shutdown())

    @precondition(lambda self: self.core.live)
    @rule()
    def restart(self):
        """SIGKILL and ``--resume``: a fresh core gets what the journal
        emitted so far replays to (the file ``recover`` compacts to)."""
        live, quarantined = self.replayed
        self.core = hub(self.cache, self.local)
        self.replayed = (dict(live), dict(quarantined))
        self.clients, self.workers, self.parked = {}, {}, {}
        self.local_batch = None
        self.strikes = {}  # failure strikes live in memory only
        self.feed(Replayed(dict(live), dict(quarantined)))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def credit_windows_hold(self):
        for worker in list(self.core.workers.values()) \
                + list(self.core.flapping.values()):
            assert len(worker.leased) <= worker.credit_window

    @invariant()
    def journal_replays_to_the_core(self):
        live, quarantined = self.replayed
        assert set(live) == set(self.core.live)
        assert set(quarantined) == set(self.core.quarantined)

    def teardown(self):
        """Drive every job to completion, then hold every live
        subscriber to exactly one result per index and one done."""
        for _ in range(20):
            if not self.core.live:
                break
            while self.local_batch:
                self.local_outcome(None)
            if self.local_batch is not None:
                self.local_done()
            for sid in sorted(self.workers):
                for key in sorted(self.workers.get(sid, (0, 0, ()))[2]):
                    if sid in self.workers:
                        self.workers[sid][2].discard(key)
                        self.feed(Received(sid, self.result_frame(
                            "upload", key, None)), fed=(key, None))
            if not self.workers and not self.core.draining:
                self.register(f"w{next(self.uids)}", 2)
            for _ in range(2):  # past every flap window, live ones kept
                self.heartbeat()
                self.tick(LEASE_TIMEOUT_S / 2)
        assert not self.core.live
        for submissions in self.clients.values():
            for submission in submissions.values():
                if not submission.cancelled:
                    assert len(submission.results) == submission.total
                    assert submission.done == 1


TestHubMachine = HubMachine.TestCase
TestHubMachine.settings = settings(
    max_examples=500, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestFoundByTheMachine:
    def test_cancelled_queued_job_leaves_the_journal(self, tmp_path):
        # A queued job whose every subscriber cancelled was dropped
        # from memory but stayed "queued" in the journal, so a restart
        # re-ran work nobody was owed any more.
        daemon = ReproDaemon("127.0.0.1:0", local_execution=False,
                             cache_dir=str(tmp_path), quiet=True)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.wait_ready(10)
        try:
            with ServiceClient(daemon.bound_address, timeout=10) as client:
                submit_id = client.submit([SPECS[0]])
                assert client.cancel(submit_id) == 1
                assert client.stats()["dropped"] == 1
            assert replay(journal_path(tmp_path)) == {}
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)

    def test_broken_batch_spares_a_resubmitted_twin(self):
        # A local batch that broke outside any job failed its jobs by
        # key, so a twin resubmitted after the batch's own copy
        # settled was failed without ever running (a quarantine
        # strike it never earned).
        core = hub(MemoryCache(), local=True)
        frames, started = [], []

        def feed(event):
            for effect in core.handle(event, 0.0):
                if isinstance(effect, Send):
                    frames.append(effect.frame)
                elif isinstance(effect, StartLocal):
                    started.append([spec.key() for spec in effect.specs])

        first, twin = SPECS[0], SPECS[1]
        feed(Opened(1, "client"))
        feed(Received(1, {"type": "hello", "version": PROTOCOL_VERSION}))
        feed(Received(1, {"type": "submit", "submit_id": "a",
                          "specs": [first.canonical(), twin.canonical()]}))
        feed(LocalOutcome(RunOutcome(twin, report_for(twin), cached=False,
                                     elapsed_s=0.0)))
        feed(Received(1, {"type": "submit", "submit_id": "b",
                          "specs": [twin.canonical()]}))
        feed(LocalDone("OSError: disk full"))
        results = {(frame["submit_id"], frame["index"]): frame
                   for frame in frames if frame["type"] == "result"}
        assert results[("a", 0)]["kind"] == "ERROR"
        assert results[("a", 1)]["error"] is None
        assert ("b", 0) not in results
        assert started == [[first.key(), twin.key()], [twin.key()]]
        assert twin.key() not in core.failures


class TestQuarantineVerdict:
    def test_quarantined_resubmit_appends_no_journal_record(self):
        # A verdict answers a key that is never queued, so it must not
        # journal a settlement (nor relay one to standbys).
        core = hub(MemoryCache(), local=True)
        spec = SPECS[0]

        def feed(event):
            return list(core.handle(event, 0.0))

        feed(Opened(1, "client"))
        feed(Received(1, {"type": "hello", "version": PROTOCOL_VERSION}))
        for attempt in range(2):
            feed(Received(1, {"type": "submit", "submit_id": f"s{attempt}",
                              "specs": [spec.canonical()]}))
            feed(LocalOutcome(RunOutcome(
                spec, report_for(spec), cached=False, elapsed_s=0.0,
                error=f"{spec.key()}: boom", kind="ERROR")))
            feed(LocalDone(None))
        assert spec.key() in core.quarantined
        effects = feed(Received(1, {"type": "submit", "submit_id": "again",
                                    "specs": [spec.canonical()]}))
        assert not [e for e in effects if isinstance(e, Append)]
        results = [e.frame for e in effects if isinstance(e, Send)
                   and e.frame["type"] == "result"]
        assert [r["kind"] for r in results] == ["QUARANTINED"]
        assert core.stats.quarantine_hits == 1
        assert core.stats.failed == 3


class TestCoreImports:
    def test_core_imports_no_io(self):
        # The sans-IO contract, held the way test_import_cost.py holds
        # scipy: time arrives as an argument, bytes through the shell.
        path = (pathlib.Path(__file__).parents[1]
                / "src" / "repro" / "service" / "hub.py")
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"asyncio", "socket", "selectors",
                               "threading", "time"}
