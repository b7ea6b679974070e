"""One session scheduler under every fleet that hosts pairwise syncs.

The paper's protocols all run as pairwise sync sessions, and both fleets
host them on one discrete-event clock: :class:`~repro.net.cluster.
ClusterRunner` (one rotating vector per site and object) and
:class:`~repro.store.cluster.StoreCluster` (a replicated key-value table
per site).  :class:`SessionScheduler` is the machinery they share:

* **Occupancy.**  A site takes part in at most ``fanout`` sessions at a
  time.  A request that finds an endpoint at capacity waits in one
  arrival-ordered queue, indexed per site, and starts — oldest first —
  once both endpoints have room.
* **Deferred local work.**  Work that would mutate a site mid-session (a
  fleet update, a store client op) waits in a per-site FIFO and runs the
  instant the site frees, before any queued session can start there.
  Each item re-checks the site first: an item that starts a session (a
  read repair) keeps the items behind it waiting.
* **Transactional attempts.**  On a faulted channel the receiver is
  snapshotted at the first build; every resume restores it before
  rebuilding, and so does a permanent abandon when the client asks for
  one.
* **The run shell.**  The simulated tracer clock, the run span, the
  monitor's attach/finalize and the drained-queue check.

A client supplies only what differs: ``_start`` (its session record,
launched through its own :func:`~repro.net.runner.launch` with
:meth:`_session_options`), ``_build_pairs``/``_snapshot``/``_restore``
over its own state, and ``_finish`` (what a completed session does to
that state).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.net.channel import ChannelSpec
from repro.net.faults import derive_seed
from repro.net.runner import SessionOptions, TimedSessionResult
from repro.net.simulator import Simulator
from repro.net.stats import TransferStats
from repro.obs import trace as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _Attempts:
    """The ``rebuild`` factory of one resumable session: transactional
    attempts.

    The protocols stream Δ newest-first, so a torn attempt's acked prefix
    is never ancestor-closed, and committing it would corrupt the
    receiver's knowledge state (a vector claiming an element without its
    causal past halts every later sync prematurely).  So the receiver is
    snapshotted when the session is launched, right after its first
    pairs were built; every resume restores the snapshot, in place,
    before building afresh, and so does a permanent abandon.  Sound only
    while nothing else writes the receiver: local work defers while its
    site is busy, and faulted fleets run at fanout 1.
    """

    __slots__ = ("_client", "_record", "_pairs", "_saved")

    def __init__(self, client: SessionScheduler, record: Any,
                 pairs: Tuple[Any, ...]) -> None:
        self._client = client
        self._record = record
        self._pairs: Optional[Tuple[Any, ...]] = pairs
        self._saved = client._snapshot(record)

    def __call__(self) -> Tuple[Any, ...]:
        pairs, self._pairs = self._pairs, None
        if pairs is None:
            self._client._restore(self._record, self._saved)
            pairs = self._client._build_pairs(self._record)
        return pairs

    def abandon(self, error: Exception) -> None:
        client, record = self._client, self._record
        client._restore(record, self._saved)
        client._abandon(record, error)
        client._release(record.src, record.dst)


class SessionScheduler:
    """Occupancy, queueing, deferral and launch for one fleet's sessions.

    One-shot: construct, schedule work on :attr:`sim`, ``run()`` once.
    ``config`` supplies the session knobs every fleet config shares
    (``protocol``, ``channel``, ``topology``, ``encoding``,
    ``batch_size``, ``proc_time``, ``max_steps``, ``retry``).  A
    session record is anything with ``src``, ``dst``, ``index`` and a
    writable ``result``.
    """

    def __init__(self, sites: List[str], config: Any, *, fanout: int,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Optional[Any] = None) -> None:
        self.sites = sites
        self.config = config
        if monitor is not None and tracer is None:
            # The monitor feeds on the trace stream; a fleet built
            # without a tracer adopts the monitor's private one so there
            # are events to observe.
            tracer = monitor.tracer
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        self.sim = Simulator()
        self._fanout = fanout
        self._occupancy: Dict[str, int] = dict.fromkeys(sites, 0)
        # Queued requests keyed by arrival sequence, with a per-site
        # index of waiting sequence numbers and the sites freed since
        # the last scan, so a scan covers only what can have moved.
        self._pending: Dict[int, Tuple[Any, float]] = {}
        self._waiting: Dict[str, List[int]] = {site: [] for site in sites}
        self._freed: Set[str] = set()
        self._next_seq = 0
        # Created on a site's first deferral: most sites never defer.
        self._deferred: Dict[str, Deque[Callable[[], None]]] = {}
        self._records: List[Any] = []
        self._totals = TransferStats()
        self._finished = False

    # -- client hooks ----------------------------------------------------------

    def _start(self, request: Any, requested_at: float) -> None:
        """Start ``request``'s session now (its endpoints have room)."""
        raise NotImplementedError

    def _build_pairs(self, record: Any) -> Tuple[Any, ...]:
        """Fresh coroutine pairs over the endpoints' current state."""
        raise NotImplementedError

    def _snapshot(self, record: Any) -> Any:
        """A restorable copy of what the session may write at its
        receiver (taken only on faulted channels)."""
        raise NotImplementedError

    def _restore(self, record: Any, saved: Any) -> None:
        """Roll the receiver back to ``saved``, in place."""
        raise NotImplementedError

    def _finish(self, record: Any, result: TimedSessionResult) -> None:
        """Apply a completed session; the endpoints are released after."""
        raise NotImplementedError

    def _abandon(self, record: Any, error: Exception) -> None:
        """A session aborted permanently and its receiver is rolled
        back; the endpoints are released after.  Only called for
        sessions launched with ``abandon=True``."""
        raise NotImplementedError

    # -- occupancy and local work ----------------------------------------------

    def _busy(self, site: str) -> bool:
        return self._occupancy[site] > 0

    def _occupy(self, src: str, dst: str) -> None:
        self._occupancy[src] += 1
        self._occupancy[dst] += 1

    def _defer(self, site: str, work: Callable[[], None]) -> None:
        """Run ``work`` once ``site`` frees (FIFO per site)."""
        queue = self._deferred.get(site)
        if queue is None:
            queue = self._deferred[site] = deque()
        queue.append(work)

    def _release(self, src: str, dst: str) -> None:
        """Free the endpoints, flush their deferred work, start queued
        sessions."""
        occupancy = self._occupancy
        occupancy[src] -= 1
        occupancy[dst] -= 1
        self._freed.update((src, dst))
        for site in (src, dst):
            # FIFO, re-checking before every item: a flushed read can
            # start a repair session that re-occupies the site, and the
            # items behind it must keep waiting — running them would
            # mutate state that session's coroutines (and its snapshot)
            # already captured.
            queue = self._deferred.get(site)
            while queue and not occupancy[site]:
                queue.popleft()()
        self._dispatch()

    # -- the session queue -----------------------------------------------------

    def _request(self, request: Any) -> None:
        """Queue a session for ``request`` (anything with ``src``/``dst``).

        It starts at once when both endpoints have room and nothing has
        freed since the last scan; otherwise it joins the queue and the
        scan decides, in arrival order.
        """
        now = self.sim.now
        if self.tracer is not None:
            # The session index is unknown until the session starts; the
            # analyzer matches requests to starts FIFO per (src, dst)
            # pair — exactly the order the scan starts them.
            self.tracer.event(obs.SESSION_REQUEST, party=request.dst,
                              peer=request.src)
        occupancy, fanout = self._occupancy, self._fanout
        if (not self._freed and occupancy[request.src] < fanout
                and occupancy[request.dst] < fanout):
            # Every queued request has an endpoint at capacity and
            # nothing has freed since, so only this one can start.
            self._start(request, now)
            return
        seq = self._next_seq
        self._next_seq += 1
        self._pending[seq] = (request, now)
        self._waiting[request.src].append(seq)
        self._waiting[request.dst].append(seq)
        if self._freed:
            self._dispatch(seq)

    def _dispatch(self, new: Optional[int] = None) -> None:
        """Start every queued session that has room now.

        Only the request just queued (``new``) and requests touching a
        site freed since the last scan can have become startable — every
        other one still has an endpoint at capacity — so the scan covers
        just those, in global arrival order, consuming capacity exactly
        as a full oldest-first pass over the whole queue would.  Entries
        an earlier scan started are pruned lazily here.
        """
        pending, waiting = self._pending, self._waiting
        occupancy, fanout = self._occupancy, self._fanout
        candidates = {new} if new is not None else set()
        for site in self._freed:
            live = [seq for seq in waiting[site] if seq in pending]
            waiting[site] = live
            candidates.update(live)
        self._freed.clear()
        for seq in sorted(candidates):
            request, requested_at = pending[seq]
            if (occupancy[request.src] < fanout
                    and occupancy[request.dst] < fanout):
                del pending[seq]
                self._start(request, requested_at)

    # -- launching -------------------------------------------------------------

    def _channel_for(self, src: str, dst: str) -> ChannelSpec:
        """The channel one session uses — region-pair aware when the
        config carries a topology, the single shared channel otherwise."""
        topology = self.config.topology
        if topology is None:
            return self.config.channel
        return topology.channel_for(src, dst)

    def _session_options(self, record: Any, pairs: Tuple[Any, ...], *,
                         abandon: bool = False,
                         **knobs: Any) -> SessionOptions:
        """Launch options for ``record``'s session, first run over ``pairs``.

        The session is traced under its endpoints' names and its record
        index, and completes into :meth:`_finish`.  On a faulted channel
        its attempts are transactional (:class:`_Attempts`), and it draws
        its own replayable fault schedule from its index.  With
        ``abandon``, a permanent abort rolls the receiver back and calls
        :meth:`_abandon`; without it the abort raises out of the
        simulator.  ``knobs`` are further :class:`SessionOptions` fields.
        """
        config = self.config
        src, dst = record.src, record.dst
        channel = self._channel_for(src, dst)
        common = dict(
            # A one-item session takes the plain per-object path whatever
            # batch_size says, so it costs the bits of an unbatched session.
            batch_size=config.batch_size if len(pairs) > 1 else 1,
            channel=channel, encoding=config.encoding,
            proc_time=config.proc_time, max_steps=config.max_steps,
            tracer=self.tracer, party_names=(src, dst), retry=config.retry,
            session_id=record.index,
            on_complete=lambda result: self._complete(record, result),
            **knobs)
        if not channel.faults.enabled:
            return SessionOptions(pairs=pairs, **common)
        attempts = _Attempts(self, record, pairs)
        return SessionOptions(
            rebuild=attempts,
            on_abandon=attempts.abandon if abandon else None,
            fault_seed=derive_seed(channel.faults.seed, record.index),
            **common)

    def _complete(self, record: Any, result: TimedSessionResult) -> None:
        record.result = result
        self._totals.merge(result.stats)
        self._finish(record, result)
        self._release(record.src, record.dst)

    # -- the run ---------------------------------------------------------------

    def _run(self, body: Callable[[], None], label: str,
             **span_attrs: Any) -> None:
        """Run ``body`` (which drives :attr:`sim`) inside the run shell."""
        if self._finished:
            raise SimulationError(
                f"{type(self).__name__} instances are one-shot")
        self._finished = True
        config, sim, tracer = self.config, self.sim, self.tracer
        previous_clock = tracer.clock if tracer is not None else None
        span = None
        if tracer is not None:
            tracer.clock = lambda: sim.now
            # The channel parameters on the span let the causal analyzer
            # decompose every send→deliver hop exactly (latency +
            # bits/bandwidth + fault-injected delay, zero residual).
            span = tracer.span(f"{label}:{config.protocol}",
                               sites=len(self.sites), **span_attrs,
                               protocol=config.protocol,
                               latency=config.channel.latency,
                               bandwidth=config.channel.bandwidth)
        if self.monitor is not None:
            self.monitor.attach(self)
        try:
            body()
            if self.monitor is not None:
                self.monitor.finalize()
        finally:
            if span is not None:
                span.end()
            if tracer is not None:
                tracer.flush_sampling()
                tracer.clock = previous_clock
        if self._pending or any(self._occupancy.values()):
            raise SimulationError(  # pragma: no cover - defensive
                f"{type(self).__name__} drained with sessions still "
                f"queued or active")
