"""The discrete-event simulation engine.

:class:`Simulator` is an :class:`~repro.sim.events.EventQueue` — the
clock, the heap and the dispatch loop — plus the run guard and the
per-component random streams.  Model components hold a reference to the
simulator, read its clock as the plain attribute ``sim.now``, and
schedule callbacks on it.  The engine is deliberately minimal — the
sophistication lives in the models.

Typical use::

    sim = Simulator(seed=7)
    sim.schedule(100 * NANOSECONDS, lambda: print("fired"))
    sim.run(until=1 * MICROSECONDS)
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.sim.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.random import RandomStreams


class Simulator(EventQueue):
    """Single-threaded deterministic discrete-event simulator.

    ``now`` (picoseconds), :meth:`schedule`, :meth:`at`, :meth:`cancel`
    and :meth:`stop` come from :class:`~repro.sim.events.EventQueue`.

    Parameters
    ----------
    seed:
        Master seed for the per-component random streams available via
        :attr:`streams`.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._running = False
        self.streams = RandomStreams(seed)
        #: The ``until`` bound of the in-progress :meth:`run`, or ``None``
        #: outside a bounded run.  Fast-lane components (chunked traffic
        #: sources, eager link delivery) consult this horizon to decide
        #: how much future work may be committed without changing what a
        #: purely event-driven execution would have observed.
        self.run_until: Optional[int] = None
        self._flow_ids = itertools.count(1)

    # -- identifiers ----------------------------------------------------------

    def next_flow_id(self) -> int:
        """Next flow id, unique within *this* simulator instance.

        Flow ids used to come from a process-global counter, which made
        back-to-back in-process runs of the same scenario disagree on
        ids.  Scoping the counter to the simulator keeps equal-seed runs
        id-identical no matter how many ran before them.
        """
        return next(self._flow_ids)

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains or a limit is reached.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this
            time; the clock is then advanced *to* ``until`` so that a
            subsequent ``run`` continues from a well-defined instant.
            An ``until`` earlier than ``now`` fires nothing and leaves
            the clock where it is.
        max_events:
            Safety valve for runaway models; raises
            :class:`SimulationError` when exceeded.

        Events left behind by a :meth:`stop`, the event budget or a
        raising callback stay queued in order; the next ``run`` resumes
        with them.  Returns the number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        self.run_until = until
        try:
            return self._dispatch(until, max_events)
        finally:
            self._running = False
            self.run_until = None

    def pending_events(self) -> int:
        """Number of live events currently queued."""
        return len(self)

    def __bool__(self) -> bool:
        # The inherited ``len()`` counts queued events; a simulator is
        # truthy whatever its queue holds, so ``sim or Simulator()``
        # never swaps an idle one.
        return True


__all__ = ["Simulator"]
