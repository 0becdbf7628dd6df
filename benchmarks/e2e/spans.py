"""Layer tracer for the end-to-end benchmark, applied from outside.

The tracer replaces a fixed set of public functions and methods — one
or more per layer of the simulator, runner and service — with wrappers
that time each call with ``perf_counter_ns`` on a thread-local span
stack.  Nothing under ``src/`` knows about it: :meth:`Tracer.install`
wraps each boundary once and then points every reference a ``repro``
module holds at the wrapper (the definition site, names bound by
``from x import f``, and entry-point tables such as ``ENTRY_POINTS``);
:meth:`Tracer.uninstall` puts every original back.

A span's **self time** is its duration minus the time covered by its
child spans, so the self times under one root span sum to that root's
wall exactly.  The benchmark opens one root per job (:meth:`Tracer.item`);
time in no wrapped layer lands in ``other``.  A call counts once per
entry into a layer from a different layer, so ``compute_trusted``
falling back to ``compute`` is one scheduler call, not two.

Per-packet callbacks (``ProcessingLogic.ingress``, ``Link.send``, the
traffic sources' fire methods) are deliberately not wrapped: at millions
of calls per run a wrapper would inflate the run the way ``cProfile``
does and shift time between layers.  Their time is the self time of
``Simulator.run`` (the ``sim`` layer), which dispatches them.

Install the tracer in a fresh process before anything else imports
``repro``, so no object captures an original bound method first.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns

#: Attribute set on every wrapper; its absence proves a run untraced.
MARK = "__e2e_trace_layer__"

#: (layer, module, qualified name) of every single boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("net", "repro.net.link", "Link.send_presend"),
    ("net", "repro.net.host", "Host.emit_presend"),
    ("core.processing", "repro.core.processing",
     "ProcessingLogic.apply_grant"),
    ("core.processing", "repro.core.processing",
     "ProcessingLogic.demand_bytes"),
    ("core.processing", "repro.core.processing",
     "ProcessingLogic.divert_to_eps"),
    ("switches", "repro.switches.voq", "VoqBank.dequeue_run"),
    ("switches", "repro.switches.ocs", "OpticalCircuitSwitch.configure"),
    ("switches", "repro.switches.ocs",
     "OpticalCircuitSwitch.receive_batch"),
    ("fabric", "repro.fabric.cellsim", "CellFabricSim.run"),
    ("fabric", "repro.fabric.replicas", "run_replicas"),
    ("analysis", "repro.analysis.stats", "truncate_warmup"),
    ("analysis", "repro.analysis.stats", "batch_means_ci"),
    ("analysis", "repro.analysis.record", "PacketLog.concatenate"),
    ("analysis", "repro.analysis.tables", "render_table"),
    ("analysis", "repro.analysis.charts", "line_chart"),
    ("core.framework", "repro.core.framework",
     "HybridSwitchFramework.__init__"),
    ("core.framework", "repro.core.framework", "HybridSwitchFramework.run"),
    ("scenario", "repro.scenario.build", "build"),
    ("experiments.scenario", "repro.scenario.report", "run_scenario"),
    ("runner", "repro.runner.executor", "execute"),
    ("runner.cache", "repro.runner.cache", "ResultCache.load"),
    ("runner.cache", "repro.runner.cache", "ResultCache.store"),
    ("runner.cache", "repro.runner.cache", "report_to_payload"),
    ("runner.cache", "repro.runner.cache", "report_from_payload"),
    ("service.protocol", "repro.service.protocol", "encode_frame"),
    ("service.protocol", "repro.service.protocol", "decode_payload"),
    ("service.client", "repro.service.client",
     "ServiceClient.submit_stream"),
)

#: (layer, module, base class, method names): wrapped on the base and
#: on every subclass defining its own.
SUBCLASS_BOUNDARIES = (
    ("schedulers", "repro.schedulers.base", "Scheduler",
     ("compute", "compute_trusted")),
    ("schedulers.batch", "repro.schedulers.batch", "ReplicaMatcher",
     ("compute", "compute_from_words")),
)

#: (layer, module): every public function of the module.
MODULE_BOUNDARIES = (("analysis", "repro.analysis.metrics"),)

#: Imported before patching, so every subclass and every ``from x
#: import f`` binding exists when the reference scan runs.
PRELOAD = ("repro.experiments", "repro.scenario", "repro.runner",
           "repro.schedulers", "repro.schedulers.reference",
           "repro.schedulers.batch", "repro.service")


#: Boundaries that count work: events dispatched (the return value),
#: or slot-steps simulated (slots + warmup, times the replicas).
WORK = {
    "repro.sim.engine:Simulator.run": "events",
    "repro.fabric.cellsim:CellFabricSim.run": "slots",
    "repro.fabric.replicas:run_replicas": "replica-slots",
}


def _work_counter(fn: Callable, kind: str) -> Callable:
    """``(args, kwargs, result) -> work`` for a :data:`WORK` boundary."""
    if kind == "events":
        return lambda args, kwargs, result: int(result)
    signature = inspect.signature(fn)

    def work(args, kwargs, result) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = bound.arguments["slots"] + bound.arguments["warmup"]
        if kind == "replica-slots":
            steps *= len(bound.arguments["seeds"])
        return steps
    return work


class _ThreadState:
    """One thread's span stack and totals (no locks needed)."""

    __slots__ = ("stack", "totals", "current")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: item -> layer -> [self_ns, incl_ns, calls, work]
        self.totals: Dict[str, Dict[str, List[int]]] = {}
        self.current = self.totals.setdefault("-", {})


def _settle(state: _ThreadState, frame: list, duration: int,
            work: int) -> None:
    """Charge a finished span to its layer and to its parent."""
    stack = state.stack
    layer = frame[0]
    acc = state.current.get(layer)
    if acc is None:
        acc = state.current[layer] = [0, 0, 0, 0]
    acc[0] += duration - frame[1]
    acc[3] += work
    if stack:
        parent = stack[-1]
        parent[1] += duration
        if parent[0] == layer:
            return
    acc[1] += duration
    acc[2] += 1


class Tracer:
    """Span totals per (item, layer), plus the patches that feed them."""

    def __init__(self) -> None:
        self.started_ns = _now()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._items: Dict[str, int] = {}
        self._patches: List[Tuple[Any, Any, Any]] = []
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def item(self, name: str) -> Iterator[None]:
        """A root span: every span opened inside is charged to ``name``."""
        state = self._state()
        previous = state.current
        state.current = state.totals.setdefault(name, {})
        frame = ["other", 0]
        state.stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            duration = _now() - start
            state.stack.pop()
            _settle(state, frame, duration, 0)
            self._items[name] = self._items.get(name, 0) + duration
            state.current = previous

    def reset(self) -> None:
        """Forget every total (after a warm-up)."""
        for state in self._states:
            state.totals.clear()
            state.current = state.totals.setdefault("-", {})
        self._items.clear()
        self.started_ns = _now()

    def _wrap(self, fn: Callable, layer: str,
              work: Optional[Callable] = None) -> Callable:
        known = self._wrappers.get(id(fn))
        if known is not None and known[0] is fn:
            return known[1]
        state_of = self._state
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # A generator works while it is iterated, so each
                # resumption is a span.
                inner = fn(*args, **kwargs)
                while True:
                    state = state_of()
                    frame = [layer, 0]
                    state.stack.append(frame)
                    start = _now()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        duration = _now() - start
                        state.stack.pop()
                        _settle(state, frame, duration, 0)
                    yield value
        else:
            local = self._local

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = state_of()
                frame = [layer, 0]
                state.stack.append(frame)
                start = _now()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    duration = _now() - start
                    state.stack.pop()
                    _settle(state, frame, duration,
                            work(args, kwargs, result)
                            if work is not None and result is not None
                            else 0)
        setattr(wrapper, MARK, layer)
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, name: Any, value: Any) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _patch_method(self, cls: type, name: str, layer: str,
                      work: Optional[Callable] = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, name,
                      type(raw)(self._wrap(raw.__func__, layer, work)))
        elif not getattr(raw, "__isabstractmethod__", False):
            self._set(cls, name, self._wrap(raw, layer, work))

    def install(self) -> "Tracer":
        """Wrap every boundary and rebind every reference to it.

        Installing an installed tracer does nothing.
        """
        if self._patches:
            return self
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for layer, module_name, qualname in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, name = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[name]
            fn = getattr(raw, "__func__", raw)
            kind = WORK.get(f"{module_name}:{qualname}")
            work = _work_counter(fn, kind) if kind else None
            if owner_name:
                self._patch_method(owner, name, layer, work)
            else:
                self._wrap(fn, layer, work)  # bound by _rebind below
        for layer, module_name, base_name, names in SUBCLASS_BOUNDARIES:
            pending = [getattr(importlib.import_module(module_name),
                               base_name)]
            seen = set()
            while pending:
                cls = pending.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                pending.extend(cls.__subclasses__())
                for name in names:
                    if name in cls.__dict__:
                        self._patch_method(cls, name, layer)
        for layer, module_name in MODULE_BOUNDARIES:
            module = importlib.import_module(module_name)
            for name in module.__all__:
                value = module.__dict__.get(name)
                if inspect.isfunction(value) \
                        and value.__module__ == module_name:
                    self._wrap(value, layer)
        from repro.experiments import BATCH_ENTRY_POINTS, ENTRY_POINTS
        from repro.service.journal import ServiceJournal

        for table in (ENTRY_POINTS, BATCH_ENTRY_POINTS):
            for exp_id, fn in table.items():
                self._wrap(fn, f"experiments.{exp_id}")
        for name in list(vars(ServiceJournal)):
            if name.startswith("record_"):
                self._patch_method(ServiceJournal, name, "service.journal")
        self._rebind()
        return self

    def _rebind(self) -> None:
        """Point every ``repro`` module global and table at the wrappers."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                self._rebind_one(module, name, value)
                if isinstance(value, dict):
                    for key, entry in list(value.items()):
                        self._rebind_one(value, key, entry)

    def _rebind_one(self, owner: Any, name: Any, value: Any) -> None:
        known = self._wrappers.get(id(value))
        if known is not None and known[0] is value:
            self._set(owner, name, known[1])

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._wrappers.clear()

    # -- output --------------------------------------------------------------

    def table(self) -> Dict[str, Any]:
        """Totals as plain JSON: lifetime, root items and span rows.

        A span row is ``[item, layer, self_ns, incl_ns, calls, work]``;
        ``incl_ns`` and ``calls`` count outermost entries only.
        """
        merged: Dict[Tuple[str, str], List[int]] = {}
        for state in list(self._states):
            for item, layers in list(state.totals.items()):
                for layer, acc in list(layers.items()):
                    cell = merged.setdefault((item, layer), [0, 0, 0, 0])
                    for index, value in enumerate(acc):
                        cell[index] += value
        return {
            "lifetime_ns": _now() - self.started_ns,
            "items": dict(self._items),
            "spans": [[item, layer, *cell]
                      for (item, layer), cell in sorted(merged.items())],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.table(), handle)


def is_wrapped(fn: Any) -> bool:
    """True when ``fn`` (or the function under a method) is a wrapper."""
    return hasattr(getattr(fn, "__func__", fn), MARK)


def count_wrapped() -> int:
    """How many boundaries currently resolve to a tracer wrapper.

    Looks only at modules already imported, so checking an untraced
    run loads nothing it would not have loaded anyway.
    """
    found = 0
    experiments = sys.modules.get("repro.experiments")
    if experiments is not None:
        for table in (experiments.ENTRY_POINTS,
                      experiments.BATCH_ENTRY_POINTS):
            found += sum(map(is_wrapped, table.values()))
    for __, module_name, qualname in BOUNDARIES:
        owner = sys.modules.get(module_name)
        if owner is None:
            continue
        for part in qualname.split("."):
            owner = getattr(owner, part)
        found += is_wrapped(owner)
    return found


__all__ = ["Tracer", "BOUNDARIES", "SUBCLASS_BOUNDARIES",
           "MODULE_BOUNDARIES", "is_wrapped", "count_wrapped", "MARK"]
