"""Cluster-scale timed execution: many pairwise sessions on one clock.

The timed runner (:mod:`repro.net.runner`) measures a *single* session;
the paper's metadata-cost claims, however, are about fleets — n sites
gossiping concurrently, sessions queueing behind busy peers, updates
landing mid-schedule.  :class:`ClusterRunner` executes a precomputed
workload (:mod:`repro.workload.cluster`) by interleaving every session's
sender/receiver processes on a single :class:`~repro.net.simulator.Simulator`:

* **Per-site session queues and deferred updates** come from the shared
  :class:`~repro.net.scheduler.SessionScheduler`, as the store's do.  A
  site participates in at most ``fanout`` sessions at a time (default 1
  — strictly serialized per site).  Requests that find an endpoint busy
  queue up and start, oldest first, as capacity frees; queue waits are
  observable (``cluster.queue_wait_seconds``).  A local update arriving
  while its site is mid-session applies the instant the site frees —
  mutating a vector that a live coroutine is iterating would corrupt the
  session.  This module supplies only what is the fleet's own: building
  the per-object coroutine pairs, copying vectors for the transactional
  snapshot, and §2.2's self-increment after a reconciling session.
* **Scheduling-independent accounting.**  With ``fanout=1`` each vector is
  touched by one session at a time, so every session's traffic depends
  only on the two endpoint states at its start — never on what else is in
  flight.  :func:`replay_sequential` re-executes a run's realized
  execution log one session at a time and must reproduce the concurrent
  run's bit counts exactly; the paired benchmark asserts it.  (With
  ``fanout > 1`` a vector may be shared between overlapping sessions and
  the guarantee is forfeit — useful for throughput realism, not for
  regression accounting.)

Tracing and metrics reuse the PR 1 instruments: pass a
:class:`~repro.obs.trace.Tracer` for clock-stamped per-site events and a
:class:`~repro.obs.metrics.MetricsRegistry` for the standard
``observe_session`` instruments plus cluster-level counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy
from repro.net.runner import TimedSessionResult, launch, run_timed
from repro.net.scheduler import SessionScheduler
from repro.net.sharding import ShardMap, build_shard_map
from repro.net.stats import TransferStats
from repro.net.topology import TopologySpec
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.workload.cluster import SessionRequest, UpdateRequest


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one cluster run.

    Attributes:
        protocol: metadata scheme and sync protocol — ``brv`` (SYNCB),
            ``crv`` (SYNCC), or ``srv`` (SYNCS).
        channel: link model applied to every session.
        encoding: wire pricing for every message.
        fanout: concurrent sessions a site may participate in (≥ 1).
        stop_and_wait: per-item ack baseline instead of pipelining.
        proc_time: per-received-message processing cost.
        increment_on_merge: apply §2.2's post-reconciliation self-increment
            on the pulling site, keeping COMPARE's freshness precondition.
        max_steps: per-session effect budget (livelock guard).
        n_objects: replicated objects per site; a session synchronizes
            *all* of them between its pair.
        batch_size: objects coalesced into one framed wire session
            (:mod:`repro.protocols.batch`).  1 — the default — runs each
            object through the plain per-object machinery, bit-for-bit
            the historical single-object path.
        retry: ARQ knobs (timeouts, backoff, retry and resume budgets)
            applied to every session when the channel's fault spec is
            enabled; inert on a perfect link.
        backend: vector storage backend — ``array`` (flat parallel-array
            representation, the default fast path) or ``linked`` (the
            pointer-chasing oracle).  Both produce byte-identical wire
            traffic and identical fingerprints; the choice is purely an
            in-memory speed/verification trade-off.
        topology: optional :class:`~repro.net.topology.TopologySpec`.
            When set, every session prices its wire hop over the channel
            of its endpoints' region pair (``topology.channel_for``)
            instead of the single shared ``channel``; ``None`` — the
            default — keeps the historical one-channel fleet
            byte-identical.
    """

    protocol: str = "srv"
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    encoding: Encoding = DEFAULT_ENCODING
    fanout: int = 1
    stop_and_wait: bool = False
    proc_time: float = 0.0
    increment_on_merge: bool = True
    max_steps: int = 10_000_000
    n_objects: int = 1
    batch_size: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    backend: str = "array"
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.protocol not in registry.names():
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"expected one of {registry.names()}")
        # Resolve eagerly so a typo'd backend fails at config time.
        registry.get(self.protocol).vector_class(self.backend)
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        faulted = self.channel.faults.enabled if self.topology is None \
            else self.topology.has_faults
        if faulted and self.fanout > 1:
            raise ValueError(
                "faulted channels require fanout=1: session resume "
                "restores the receiver's pre-session snapshot, which is "
                "only sound when no other session writes the same site "
                "concurrently")


@dataclass
class ClusterSessionRecord:
    """One executed session, in cluster start order.

    ``verdict``/``reconciled`` describe object 0 (the full history for
    single-object clusters); ``verdicts``/``reconciled_objects`` carry
    the per-object detail when ``n_objects > 1``.
    """

    index: int
    src: str
    dst: str
    requested_at: float
    started_at: float
    verdict: Ordering
    reconciled: bool
    result: Optional[TimedSessionResult] = None
    verdicts: Tuple[Ordering, ...] = ()
    reconciled_objects: Tuple[bool, ...] = ()
    #: Object ids this session synchronized, aligned with ``verdicts``/
    #: ``reconciled_objects``.  ``(0, …, n_objects-1)`` on the historical
    #: unsharded path; the pair's shared-shard subset otherwise.
    objects: Tuple[int, ...] = ()

    @property
    def queue_wait(self) -> float:
        """Seconds the request sat behind busy endpoints."""
        return self.started_at - self.requested_at


#: Execution-log entries: ``("update", site)`` (object 0),
#: ``("update", site, obj)`` for a non-zero object index,
#: ``("session", src, dst)``, or — on sharded fleets only —
#: ``("session", src, dst, objs)`` carrying the synchronized object ids,
#: in realized execution order.  Reconciliation self-increments are *not*
#: logged — they are derived deterministically from each session's
#: verdicts, by the runner and by :func:`replay_sequential` alike.
LogEntry = Tuple[Any, ...]


@dataclass
class ClusterResult:
    """What one cluster run measured.

    ``vectors`` is every site's object-0 vector (the whole state for
    single-object clusters); ``objects`` holds the full per-site object
    lists (``objects[site][0] is vectors[site]``).
    """

    records: List[ClusterSessionRecord]
    log: List[LogEntry]
    totals: TransferStats
    completion_time: float
    updates_applied: int
    updates_deferred: int
    reconciliations: int
    vectors: Dict[str, BasicRotatingVector]
    objects: Dict[str, Any] = field(default_factory=dict)
    #: Set on sharded runs: the object→replica-group assignment, which
    #: scopes :meth:`consistent` to each object's own replica group
    #: (``objects[site]`` is then a dict keyed by hosted object id).
    shards: Optional[ShardMap] = None
    #: Sessions dropped before start because the pair shared no objects.
    skipped_sessions: int = 0

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def total_bits(self) -> int:
        return self.totals.total_bits

    @property
    def max_queue_wait(self) -> float:
        return max((r.queue_wait for r in self.records), default=0.0)

    def consistent(self) -> bool:
        """True iff every replica agrees on the values of every object.

        Unsharded fleets compare all sites; sharded fleets compare each
        object across its own replica group — the only sites that hold
        it.
        """
        if self.shards is not None:
            for obj, group in enumerate(self.shards.replicas):
                reference = self.objects[group[0]][obj]
                if not all(self.objects[site][obj].same_values(reference)
                           for site in group[1:]):
                    return False
            return True
        if self.objects:
            site_lists = list(self.objects.values())
            first = site_lists[0]
            return all(site_list[k].same_values(first[k])
                       for site_list in site_lists[1:]
                       for k in range(len(first)))
        vectors = list(self.vectors.values())
        return all(v.same_values(vectors[0]) for v in vectors[1:])

    def per_session_bits(self) -> List[int]:
        """Total bits of each session, in start order."""
        return [r.result.stats.total_bits for r in self.records]


class ClusterRunner(SessionScheduler):
    """Schedules many concurrent pairwise sessions on one simulator.

    One-shot: construct, :meth:`run` once, read the result.  The runner
    owns one rotating vector per site (``config.protocol`` picks the
    class); sessions mutate them in place exactly as a real fleet would.
    """

    def __init__(self, sites: Iterable[str], config: ClusterConfig, *,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Optional[Any] = None,
                 shards: Optional[ShardMap] = None) -> None:
        sites = list(sites)
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site names in cluster")
        super().__init__(sites, config, fanout=config.fanout, tracer=tracer,
                         metrics=metrics, monitor=monitor)
        self.shards = shards
        self.topology = config.topology
        self._spec = registry.get(config.protocol)
        vector_cls = self._spec.vector_class(config.backend)
        self._site_set = set(self.sites)
        if shards is not None:
            if shards.n_objects != config.n_objects:
                raise ValueError(
                    f"shard map covers {shards.n_objects} objects but the "
                    f"config declares {config.n_objects}")
            unknown = set(shards.hosted) - self._site_set
            if unknown:
                raise ValueError(
                    f"shard map names sites outside the cluster: "
                    f"{sorted(unknown)}")
            # Sharded fleets host only their assigned objects, keyed by
            # object id (site→dict); the unsharded list layout below
            # stays untouched — position is the id there.
            self.objects = {
                site: {obj: vector_cls()
                       for obj in shards.hosted.get(site, ())}
                for site in self.sites}
            self.vectors = {}
        else:
            self.objects = {
                site: [vector_cls() for _ in range(config.n_objects)]
                for site in self.sites}
            #: Object-0 view, the whole state for single-object clusters.
            self.vectors = {
                site: self.objects[site][0] for site in self.sites}
        self._log: List[LogEntry] = []
        self._updates_applied = 0
        self._updates_deferred = 0
        self._reconciliations = 0
        self._skipped_sessions = 0

    def hosted_objects(self, site: str) -> Tuple[int, ...]:
        """Object ids ``site`` replicates (all of them when unsharded)."""
        if self.shards is None:
            return tuple(range(self.config.n_objects))
        return self.shards.hosted.get(site, ())

    # -- scheduling ------------------------------------------------------------

    def run(self, sessions: Iterable[SessionRequest],
            updates: Iterable[UpdateRequest] = ()) -> ClusterResult:
        """Execute the schedule to completion; returns the measurements."""
        self._run(lambda: self._drive(sessions, updates), "cluster",
                  fanout=self.config.fanout)
        return ClusterResult(
            records=self._records,
            log=self._log,
            totals=self._totals,
            completion_time=self.sim.now,
            updates_applied=self._updates_applied,
            updates_deferred=self._updates_deferred,
            reconciliations=self._reconciliations,
            vectors=self.vectors,
            objects=self.objects,
            shards=self.shards,
            skipped_sessions=self._skipped_sessions,
        )

    def _drive(self, sessions: Iterable[SessionRequest],
               updates: Iterable[UpdateRequest]) -> None:
        sim = self.sim
        for request in sessions:
            self._check_sites(request.src, request.dst)
            if request.src == request.dst:
                raise ValueError(
                    f"session {request} pairs a site with itself")
            sim.call_at(request.at,
                        lambda r=request: self._on_session_request(r))
        for update in updates:
            self._check_sites(update.site)
            obj = getattr(update, "obj", 0)
            if not 0 <= obj < self.config.n_objects:
                raise ValueError(
                    f"update {update} names object {obj}, but the "
                    f"cluster has {self.config.n_objects}")
            if self.shards is not None \
                    and not self.shards.hosts(update.site, obj):
                raise ValueError(
                    f"update {update} lands on {update.site}, which "
                    f"does not replicate object {obj}")
            sim.call_at(update.at,
                        lambda u=update: self._on_update_request(u))
        sim.run()

    def _check_sites(self, *names: str) -> None:
        for name in names:
            if name not in self._site_set:
                raise ValueError(f"unknown site {name!r} in schedule")

    # -- updates ---------------------------------------------------------------

    def _on_update_request(self, update: UpdateRequest) -> None:
        site, obj = update.site, getattr(update, "obj", 0)
        if self._busy(site):
            # Mid-session: mutating a vector a live coroutine iterates
            # would corrupt the session; hold the update until it frees.
            self._defer(site, lambda: self._apply_update(site, obj))
            self._updates_deferred += 1
            if self.metrics is not None:
                self.metrics.counter("cluster.updates_deferred").inc()
            return
        self._apply_update(site, obj)

    def _apply_update(self, site: str, obj: int = 0) -> None:
        self.objects[site][obj].record_update(site)
        # Object-0 updates keep the historical two-tuple entry so
        # single-object logs (and their replays) are unchanged.
        self._log.append(("update", site) if obj == 0
                         else ("update", site, obj))
        self._updates_applied += 1
        if self.tracer is not None:
            self.tracer.event("update", party=site)
        if self.metrics is not None:
            self.metrics.counter("cluster.updates").inc()
        if self.monitor is not None:
            self.monitor.on_update(site, obj)

    # -- sessions --------------------------------------------------------------

    def _on_session_request(self, request: SessionRequest) -> None:
        if self.shards is not None \
                and not self._session_objects(request):
            # The pair replicates no common object: nothing to sync.
            # Epidemic schedules draw peers from shard-peer sets and
            # never produce these; hand-written schedules may.
            self._skipped_sessions += 1
            return
        self._request(request)

    def _session_objects(self, request: SessionRequest
                         ) -> Tuple[int, ...]:
        """The object ids a session between the request's pair syncs."""
        if self.shards is None:
            return tuple(range(self.config.n_objects))
        objs = getattr(request, "objs", None)
        shared = self.shards.shared_objects(request.src, request.dst)
        if objs is None:
            return shared
        extra = set(objs) - set(shared)
        if extra:
            raise ValueError(
                f"session {request.src}->{request.dst} names objects "
                f"{sorted(extra)} the pair does not share")
        return tuple(objs)

    def _build_pairs(self, record: ClusterSessionRecord
                     ) -> Tuple[Tuple[Any, Any], ...]:
        """Fresh coroutine pairs over the endpoints' *current* state.

        Updates the record's verdicts; an object counts as reconciled
        once any attempt reconciled it.
        """
        src_objects = self.objects[record.src]
        dst_objects = self.objects[record.dst]
        verdicts: List[Ordering] = []
        flags: List[bool] = []
        pairs: List[Tuple[Any, Any]] = []
        for obj in record.objects:
            verdict = dst_objects[obj].compare(src_objects[obj])
            sender, receiver, reconciled = self._spec.build(
                src_objects[obj], dst_objects[obj], verdict,
                tracer=self.tracer)
            verdicts.append(verdict)
            flags.append(reconciled)
            pairs.append((sender, receiver))
        before = record.reconciled_objects
        if before:
            flags = [old or new for old, new in zip(before, flags)]
        self._reconciliations += sum(flags) - sum(before)
        record.verdicts = tuple(verdicts)
        record.reconciled_objects = tuple(flags)
        record.verdict = verdicts[0]
        record.reconciled = flags[0]
        return tuple(pairs)

    def _start(self, request: SessionRequest, requested_at: float) -> None:
        src, dst = request.src, request.dst
        objs = self._session_objects(request)
        record = ClusterSessionRecord(
            index=len(self._records), src=src, dst=dst,
            requested_at=requested_at, started_at=self.sim.now,
            verdict=Ordering.EQUAL, reconciled=False, objects=objs)
        pairs = self._build_pairs(record)
        self._records.append(record)
        # Sharded logs carry the synchronized object subset so replay
        # rebuilds the identical per-session pairing; unsharded entries
        # keep the historical three-tuple shape.
        self._log.append(("session", src, dst) if self.shards is None
                         else ("session", src, dst, objs))
        self._occupy(src, dst)
        if self.tracer is not None:
            self.tracer.event("session_start", party=dst, peer=src,
                              verdict=record.verdict.name.lower(),
                              session=record.index)
        if self.monitor is not None:
            # Before launch: the monitor snapshots the endpoints here so
            # its post-session ancestor-closure oracle has the pre-state.
            self.monitor.on_session_start(record)
        launch(self.sim, self._session_options(
            record, pairs, stop_and_wait=self.config.stop_and_wait))

    def _snapshot(self, record: ClusterSessionRecord
                  ) -> Tuple[BasicRotatingVector, ...]:
        dst_objects = self.objects[record.dst]
        return tuple(dst_objects[obj].copy() for obj in record.objects)

    def _restore(self, record: ClusterSessionRecord,
                 saved: Tuple[BasicRotatingVector, ...]) -> None:
        dst_objects = self.objects[record.dst]
        for obj, snapshot in zip(record.objects, saved):
            # In place: result views and the site table alias these
            # objects, so identity must survive the rollback.
            dst_objects[obj].restore(snapshot)

    def _finish(self, record: ClusterSessionRecord,
                result: TimedSessionResult) -> None:
        if self.monitor is not None:
            # Before the §2.2 self-increment below: the closure oracle
            # expects the receiver to hold exactly max(pre-state, sender).
            self.monitor.on_session_end(record, result)
        src, dst = record.src, record.dst
        if self.config.increment_on_merge:
            # §2.2: the pulling site increments its own element after an
            # automatic merge, per reconciled object.  Not logged —
            # replay_sequential re-derives it here from the replayed
            # session's verdicts.
            for obj, reconciled in zip(record.objects,
                                       record.reconciled_objects):
                if reconciled:
                    self.objects[dst][obj].record_update(dst)
                    if self.tracer is not None:
                        # New knowledge originating at dst: the causal
                        # analyzer's convergence frontier must include it.
                        self.tracer.event("reconcile", party=dst, obj=obj,
                                          session=record.index)
        if self.tracer is not None:
            self.tracer.event("session_end", party=dst, peer=src,
                              bits=result.stats.total_bits,
                              session=record.index)
        if self.metrics is not None:
            observe_session(self.metrics, result.stats,
                            protocol=f"cluster.{self.config.protocol}",
                            completion_time=result.duration)
            self.metrics.histogram("cluster.queue_wait_seconds").observe(
                record.queue_wait)


def replay_sequential(sites: Iterable[str], config: ClusterConfig,
                      log: Iterable[LogEntry], *,
                      shards: Optional[ShardMap] = None
                      ) -> Tuple[List[TimedSessionResult],
                                 Dict[str, BasicRotatingVector]]:
    """Re-execute a cluster run's log one session at a time.

    Each session runs alone on a fresh private simulator (via the unified
    :func:`~repro.net.runner.launch` machinery) against vectors evolved
    through the same realized order.  Under ``fanout=1`` the returned
    per-session stats must equal the concurrent run's — the scheduling-
    independence property the regression benchmark asserts.  On a faulted
    channel every session re-derives the concurrent run's per-session
    injector seed from its log position, so drop/duplicate/reorder
    schedules (and the retransmissions, aborts, and resumes they induce)
    replay bit for bit; absolute-time *partition windows* are the one
    exclusion — a replayed session starts its private clock at 0, so the
    replay guarantee covers probabilistic faults only.  Returns the
    per-session results and every site's object-0 vector.
    """
    # The runner's own pair building, transactional attempts and §2.2
    # self-increment, each session alone on its private simulator.
    runner = ClusterRunner(sites, config, shards=shards)
    results: List[TimedSessionResult] = []
    for entry in log:
        if entry[0] == "update":
            runner._apply_update(entry[1], entry[2] if len(entry) > 2 else 0)
            continue
        if entry[0] != "session":  # pragma: no cover - defensive
            raise ValueError(f"unknown log entry {entry!r}")
        src, dst = entry[1], entry[2]
        # Sharded logs carry each session's object subset; unsharded
        # three-tuples cover the whole object range, as always.
        objs = tuple(entry[3]) if len(entry) > 3 \
            else tuple(range(config.n_objects))
        record = ClusterSessionRecord(
            index=len(results), src=src, dst=dst, requested_at=0.0,
            started_at=0.0, verdict=Ordering.EQUAL, reconciled=False,
            objects=objs)
        runner._occupy(src, dst)
        results.append(run_timed(runner._session_options(
            record, runner._build_pairs(record),
            stop_and_wait=config.stop_and_wait)))
    objects = runner.objects
    if shards is not None:
        return results, {site: objs[0] for site, objs in objects.items()
                         if 0 in objs}
    return results, {site: objs[0] for site, objs in objects.items()}


def launch_cluster(spec: TopologySpec, *, protocol: str = "srv",
                   n_objects: int = 1, batch_size: int = 1,
                   encoding: Encoding = DEFAULT_ENCODING,
                   stop_and_wait: bool = False, proc_time: float = 0.0,
                   increment_on_merge: bool = True,
                   max_steps: int = 10_000_000,
                   retry: Optional[RetryPolicy] = None,
                   backend: str = "array",
                   shard: Optional[bool] = None,
                   tracer: Optional[Tracer] = None,
                   metrics: Optional[MetricsRegistry] = None,
                   monitor: Optional[Any] = None) -> ClusterRunner:
    """The unified cluster entry point: one ``TopologySpec``, one runner.

    Follows the ``launch(sim, SessionOptions)`` precedent: every fleet-
    shape knob — regions, links, loss, gossip fanout, replication —
    lives on the spec; everything else is keyword-only here.  Returns a
    ready-to-:meth:`~ClusterRunner.run` runner whose sites are
    ``spec.site_names()``, sharded via the consistent-hash ring whenever
    the spec carries a replication factor (``shard=`` forces it either
    way).
    """
    config = ClusterConfig(
        protocol=protocol, encoding=encoding,
        fanout=spec.gossip.fanout if spec.replication is None else 1,
        stop_and_wait=stop_and_wait, proc_time=proc_time,
        increment_on_merge=increment_on_merge, max_steps=max_steps,
        n_objects=n_objects, batch_size=batch_size,
        retry=retry if retry is not None else RetryPolicy(),
        backend=backend, topology=spec)
    do_shard = shard if shard is not None else spec.replication is not None
    shards = build_shard_map(spec, n_objects) if do_shard else None
    return ClusterRunner(spec.site_names(), config, tracer=tracer,
                         metrics=metrics, monitor=monitor, shards=shards)
