"""The cluster-scale benchmark-regression driver.

Runs the paper's workload scenarios on the
:class:`~repro.net.cluster.ClusterRunner` at several fleet sizes and
records, per (protocol, n): total wire traffic, simulated completion
time, and measured wall-clock time.  The result is a
``BENCH_cluster.json`` document (schema :mod:`repro.perf.schema`) meant
to be committed/archived per PR so the performance trajectory is
machine-diffable.

Scenarios mirror the fleet regimes the paper distinguishes:

* **single-writer-gossip** (BRV/SYNCB) — all updates land on one site, so
  no two vectors are ever concurrent: Algorithm 2's precondition holds
  and traffic isolates the pure O(|Δ|) incremental cost.
* **multi-writer-gossip** (CRV/SYNCC, SRV/SYNCS) — updates land
  everywhere; gossip reconciles concurrent vectors, exercising conflict
  bits, segments, and SKIPs under realistic scheduling.
* **store-workload** — zipfian client traffic against the replicated
  key-value store (:mod:`repro.store`): per-key vectors, read-repair,
  background anti-entropy, with client-felt latency and staleness
  percentiles in the record's ``client`` object.

Each grid cell is one row of :func:`_scenario_table`.  The shared path
:func:`_run_cell` times it, writes the standard record fields, and with
``paired=True`` asserts the harness's accounting invariant — concurrent
scheduling must not change traffic — via
:func:`~repro.net.cluster.replay_sequential`.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import multiprocessing
import pstats
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cliargs import checked, csv_list, parse_args, protocol_list
from repro.errors import ReproError
from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterResult, ClusterRunner,
                               launch_cluster, replay_sequential)
from repro.net.stats import TransferStats
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.causal import analyze_tracer
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry, wall_timer
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.trace import Tracer
from repro.perf.schema import SCHEMA_ID, validate_bench
from repro.workload.clients import (StoreWorkloadConfig, StoreWorkloadResult,
                                    run_store_workload)
from repro.workload.cluster import (chaos_faults, gossip_schedule,
                                    site_names, update_schedule)
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)

#: Fleet sizes of the standing regression trajectory.
DEFAULT_SITE_COUNTS = (8, 32, 128)
DEFAULT_OUTPUT = "BENCH_cluster.json"

#: The standing multi-region fleet of the E13 bench cell: three regions
#: of 16 sites on fast clean LANs, joined by a slow WAN carrying the
#: standard chaos mix at 1% nominal loss, objects sharded 3-way on the
#: consistent-hash ring.
DEFAULT_BENCH_TOPOLOGY = TopologySpec.grid(
    3, 16,
    intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
    inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01),
    replication=3, chaos_seed=11)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one benchmark sweep (all deterministic given ``seed``)."""

    site_counts: Tuple[int, ...] = DEFAULT_SITE_COUNTS
    protocols: Tuple[str, ...] = ("brv", "crv", "srv")
    #: Vector storage backend for every cell — ``array`` (flat fast
    #: path) or ``linked`` (pointer-chasing oracle).  Wire traffic is
    #: byte-identical either way, so the two backends' fingerprints must
    #: agree cell for cell (``perf.compare --require-same-bits``); only
    #: ``wall_seconds`` — masked from the fingerprint — may differ.
    backend: str = "array"
    rounds: int = 3
    updates_per_site: float = 2.0
    gossip_period: float = 1.0
    gossip_jitter: float = 0.2
    update_interval: float = 0.25
    latency: float = 0.005
    bandwidth: float = 1_000_000.0
    fanout: int = 1
    seed: int = 0
    #: Re-run every schedule sequentially and require identical traffic.
    paired: bool = True
    #: The batched many-objects scenario (§1's motivation, E10-style):
    #: one fleet of ``batched_site_count`` sites replicating
    #: ``batched_objects`` objects, swept over ``batched_sizes`` batch
    #: sizes so the document records how framing amortizes the
    #: ``batched_header_bits`` per-session overhead.  Empty
    #: ``batched_sizes`` skips the scenario.
    batched_site_count: int = 8
    batched_objects: int = 32
    batched_sizes: Tuple[int, ...] = (1, 64)
    batched_header_bits: int = 64
    #: The chaos scenario (E11): the batched fleet re-run per protocol
    #: over a faulted channel (:func:`repro.workload.cluster.chaos_faults`
    #: expands each nominal loss rate into the standard drop/duplicate/
    #: reorder mix) with the reliable ARQ transport engaged.  The record
    #: reports goodput vs retransmitted bits, retry/timeout/resume
    #: counters, and convergence.  Empty ``chaos_loss_rates`` skips the
    #: scenario.
    chaos_loss_rates: Tuple[float, ...] = (0.01, 0.1)
    chaos_seed: int = 11
    chaos_batch_size: int = 8
    #: The store-workload scenario (E12): zipfian client traffic against
    #: the replicated key-value store (:mod:`repro.store`) — per-key
    #: rotating vectors, causal-context writes, read-repair, background
    #: anti-entropy — reporting client-felt latency and staleness
    #: percentiles alongside the wire totals.  ``store_ops=0`` skips the
    #: scenario.
    store_site_count: int = 8
    store_keys: int = 32
    store_clients: int = 64
    store_ops: int = 2000
    store_read_ratio: float = 0.9
    store_zipf: float = 1.1
    #: The multi-region sharded scenario (E13): the ``topology`` fleet —
    #: regions, link profiles, loss, replication factor, gossip shape —
    #: replicating ``mr_objects`` objects over the consistent-hash ring,
    #: disseminated by ``mr_rounds`` epidemic push/pull rounds and closed
    #: by the deterministic two-phase sweep.  The record always embeds
    #: the ClusterMonitor health digest (per-region scores, shard load)
    #: — that visibility is the scenario's point.  ``topology=None``
    #: skips the scenario (the pre-E13 document shape).
    topology: Optional[TopologySpec] = DEFAULT_BENCH_TOPOLOGY
    mr_objects: int = 512
    mr_rounds: int = 4
    mr_batch_size: int = 8

    def channel(self) -> ChannelSpec:
        """The link model every session runs over."""
        return ChannelSpec(latency=self.latency, bandwidth=self.bandwidth)

    def chaos_channel(self, loss: float) -> ChannelSpec:
        """The same link carrying the standard fault mix for ``loss``."""
        return ChannelSpec(
            latency=self.latency, bandwidth=self.bandwidth,
            faults=chaos_faults(loss, latency=self.latency,
                                seed=self.chaos_seed))


def _make_observer(kind: str, enabled: bool) -> Any:
    """The cell's observer under ``--monitor``, else ``None``.

    Health monitors count rather than abort: a violation must land in
    the document, where the comparator gate fails on it.  The
    multi-region cell is monitored ``always``: its per-region scores and
    shard-load spread are the scenario's deliverable, and attaching the
    monitor is deterministic.  The store cell takes the ``consistency``
    observatory instead: the health monitor's ancestor-closure oracle
    assumes whole-state sessions, which per-key store sessions are not.
    """
    if kind == "consistency":
        return ConsistencyMonitor(ConsistencyConfig()) if enabled else None
    if enabled or kind == "always":
        return ClusterMonitor(MonitorConfig(strict=False))
    return None


def _monitor_fields(monitor: Any) -> Dict[str, Any]:
    """The extra record fields a health-monitored cell carries."""
    if not isinstance(monitor, ClusterMonitor):
        return {}
    return {"invariant_violations": monitor.violation_count,
            "health": monitor.health_summary()}


def _analyze_fields(tracer: Optional[Tracer]) -> Dict[str, Any]:
    """The causal-analysis record fields an analyzed cell carries.

    The cell's full trace is reduced post-run to three picklable
    scalars/dicts: the convergence critical-path length in simulated
    seconds, its hop count, and its category attribution — exactly the
    trajectory :mod:`repro.perf.history` watches across documents.
    """
    if tracer is None:
        return {}
    analysis = analyze_tracer(tracer)
    path = analysis.critical_path
    if path is None:
        return {"critical_path_seconds": 0.0, "critical_path_hops": 0,
                "critical_path_attribution": {}}
    return {"critical_path_seconds": path["elapsed"],
            "critical_path_hops": len(path["hops"]),
            "critical_path_attribution": path["attribution"]}


class _Measured(NamedTuple):
    """The quantities the shared path reads off any finished cell."""

    sessions: int
    updates: int
    updates_deferred: int
    reconciliations: int
    totals: TransferStats
    per_session: List[int]
    completion_time: float
    max_queue_wait: float
    consistent: bool
    #: Scenario-specific record fields only known after the run.
    extra: Dict[str, Any]


class _Launched(NamedTuple):
    """A built cell, ready to time."""

    #: The timed part: runs the workload and returns its result.
    run: Callable[[], Any]
    measure: Callable[[Any], _Measured]
    #: Replayed sequentially against the result when ``config.paired``.
    runner: Optional[ClusterRunner] = None


@dataclass(frozen=True)
class _Cell:
    """One row of the scenario table: what sets one grid cell apart.

    Everything else — the standard record fields, the bits-per-session
    percentiles, the wall timer and the paired sequential replay — is
    the shared path of :func:`_run_cell`.  Rows hold only module-level
    callables, so a cell pickles into a pool worker unchanged.
    """

    scenario: str
    protocol: str
    n_sites: int
    #: The cell's wall time lands in ``bench.cluster.<timer>.wall_seconds``.
    timer: str
    #: ``launch(cell, config, metrics=, monitor=, tracer=)`` builds the fleet.
    launch: Callable[..., _Launched]
    #: ``health``, ``always`` or ``consistency``: see :func:`_make_observer`.
    observer: str = "health"
    channel: ChannelSpec = ChannelSpec()
    #: Objects per site and per frame; ``None`` (recorded as absent) runs
    #: the plain single-object gossip path.
    n_objects: Optional[int] = None
    batch_size: Optional[int] = None
    stop_and_wait: bool = False
    #: Overrides the encoding's per-session header bits when set.
    header_bits: Optional[int] = None
    #: The scenario's own workload description, when it has one.
    spec: Any = None
    #: Record fields known before the run.
    fields: Dict[str, Any] = field(default_factory=dict)
    #: Record ``wire_bits_per_object``: total bits over synced objects.
    per_object: bool = False
    #: Record the ARQ accounting: goodput vs retransmitted bits, counters.
    reliability: bool = False


def _measure_cluster(result: ClusterResult, **extra: Any) -> _Measured:
    return _Measured(result.sessions, result.updates_applied,
                     result.updates_deferred, result.reconciliations,
                     result.totals, result.per_session_bits(),
                     result.completion_time, result.max_queue_wait,
                     result.consistent(), extra)


def _launch_gossip(cell: _Cell, config: BenchConfig, *,
                   metrics: MetricsRegistry, monitor: Any,
                   tracer: Optional[Tracer]) -> _Launched:
    """A gossip fleet on one shared channel (gossip, batched, chaos)."""
    sites = site_names(cell.n_sites)
    n_updates = max(1, round(cell.n_sites * config.updates_per_site))
    encoding = Encoding.for_system(cell.n_sites, max(16, n_updates))
    if cell.header_bits is not None:
        encoding = replace(encoding, session_header_bits=cell.header_bits)
    runner = ClusterRunner(sites, ClusterConfig(
        protocol=cell.protocol, channel=cell.channel, encoding=encoding,
        fanout=config.fanout, stop_and_wait=cell.stop_and_wait,
        n_objects=cell.n_objects or 1, batch_size=cell.batch_size or 1,
        backend=config.backend), metrics=metrics, monitor=monitor,
        tracer=tracer)
    sessions = gossip_schedule(
        sites, rounds=config.rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    # BRV cannot reconcile concurrent vectors (Algorithm 2's
    # precondition), so its cells take single-writer updates.
    updates = update_schedule(
        sites, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1,
        writers=[sites[0]] if cell.protocol == "brv" else None,
        n_objects=cell.n_objects or 1)
    return _Launched(partial(runner.run, sessions, updates),
                     _measure_cluster, runner)


def _launch_multiregion(cell: _Cell, config: BenchConfig, *,
                        metrics: MetricsRegistry, monitor: Any,
                        tracer: Optional[Tracer]) -> _Launched:
    """The sharded multi-region fleet of ``cell.spec`` (a TopologySpec).

    :func:`~repro.net.cluster.launch_cluster` shards objects on the
    consistent-hash ring, epidemic push/pull rounds disseminate among
    shard peers over chaos-faulted WAN links, and the deterministic
    two-phase closing sweep follows — so ``consistent`` asserts that
    every replica group converged under loss, not that it probably did.
    """
    spec = cell.spec
    n_updates = max(1, round(cell.n_sites * config.updates_per_site))
    runner = launch_cluster(
        spec, protocol=cell.protocol, n_objects=cell.n_objects,
        batch_size=cell.batch_size,
        encoding=Encoding.for_system(cell.n_sites, max(16, n_updates)),
        backend=config.backend, metrics=metrics, monitor=monitor,
        tracer=tracer)
    shards = runner.shards
    sessions = epidemic_schedule(
        spec, shards, rounds=config.mr_rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    updates = sharded_update_schedule(
        spec, shards, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1)
    last = max([request.at for request in sessions]
               + [update.at for update in updates], default=0.0)
    sessions = list(sessions) + closing_sweep(shards, start=last + 500.0)

    def measure(result: ClusterResult) -> _Measured:
        return _measure_cluster(
            result, shard_groups=len(shards.groups()),
            shard_load=shards.load_summary(),
            skipped_sessions=result.skipped_sessions)

    return _Launched(partial(runner.run, sessions, updates), measure,
                     runner)


def _launch_store(cell: _Cell, config: BenchConfig, *,
                  metrics: MetricsRegistry, monitor: Any,
                  tracer: Optional[Tracer]) -> _Launched:
    """Client traffic against the key-value store of ``cell.spec``."""
    return _Launched(partial(run_store_workload, cell.spec, tracer=tracer,
                             metrics=metrics, monitor=monitor),
                     _measure_store)


def _measure_store(result: StoreWorkloadResult) -> _Measured:
    """``updates`` counts client writes and deletes, ``updates_deferred``
    the ops parked behind a busy site, ``consistent`` the per-key
    sibling-set convergence check; ``client`` adds the op mix, read
    repairs, and exact latency/staleness percentiles."""
    store = result.store

    def percentiles(summary: Dict[str, float]) -> Dict[str, float]:
        return {name: summary[name] for name in ("p50", "p90", "p99")}

    extra: Dict[str, Any] = {"client": {
        "ops": result.ops,
        "reads": result.reads,
        "writes": result.writes,
        "deletes": result.deletes,
        "read_repairs": store.read_repairs,
        "sessions_abandoned": store.sessions_abandoned,
        "get_latency_seconds": percentiles(result.latency_summary("get")),
        "put_latency_seconds": percentiles(result.latency_summary("put")),
        "staleness_seconds": percentiles(result.staleness_summary()),
    }}
    if result.consistency is not None:
        extra["consistency"] = result.consistency
    return _Measured(
        store.sessions, result.writes + result.deletes, store.ops_deferred,
        store.reconciliations, store.totals,
        [record.result.stats.total_bits
         for record in store.records if record.result is not None],
        store.completion_time, store.max_queue_wait, result.converged,
        extra)


def _scenario_table(config: BenchConfig) -> List[_Cell]:
    """The grid, one row per cell, derived from ``config`` alone.

    The table order *is* the document's run order, whether cells run
    serially or fan out across workers.
    """
    cells = [_Cell("single-writer-gossip" if protocol == "brv"
                   else "multi-writer-gossip", protocol, n_sites,
                   timer=protocol, launch=_launch_gossip,
                   channel=config.channel())
             for n_sites in config.site_counts
             for protocol in config.protocols]
    # Stop-and-wait plus a per-session header is the regime where
    # framing pays: batch 1 ships one header and one ack stream per
    # object, larger batches one per frame.
    cells += [_Cell("batched-many-objects", "srv", config.batched_site_count,
                    timer="batched", launch=_launch_gossip,
                    channel=config.channel(),
                    n_objects=config.batched_objects, batch_size=batch_size,
                    stop_and_wait=True,
                    header_bits=config.batched_header_bits, per_object=True)
              for batch_size in config.batched_sizes]
    # The batched fleet per protocol over a faulted channel; the paired
    # replay applies too, since per-session injector seeds make even
    # chaotic runs scheduling-independent.
    cells += [_Cell("chaos-loss", protocol, config.batched_site_count,
                    timer=f"chaos.{protocol}", launch=_launch_gossip,
                    channel=config.chaos_channel(loss),
                    n_objects=config.batched_objects,
                    batch_size=config.chaos_batch_size,
                    fields={"loss_rate": loss,
                            "chaos_seed": config.chaos_seed},
                    reliability=True)
              for loss in config.chaos_loss_rates
              for protocol in config.protocols]
    if config.store_ops > 0:
        workload = StoreWorkloadConfig(
            n_sites=config.store_site_count, n_keys=config.store_keys,
            n_clients=config.store_clients, ops=config.store_ops,
            read_ratio=config.store_read_ratio, zipf=config.store_zipf,
            net_latency=config.latency, bandwidth=config.bandwidth,
            seed=config.seed, backend=config.backend)
        cells.append(_Cell(
            "store-workload", workload.protocol, workload.n_sites,
            timer="store", launch=_launch_store,
            observer="consistency", spec=workload,
            n_objects=workload.n_keys, batch_size=workload.batch_size))
    spec = config.topology
    if spec is not None and config.mr_objects > 0:
        cells.append(_Cell(
            "multi-region-sharded", "srv", spec.n_sites,
            timer="multiregion", launch=_launch_multiregion,
            observer="always", spec=spec,
            n_objects=config.mr_objects, batch_size=config.mr_batch_size,
            fields={"regions": len(spec.regions),
                    "replication": spec.replication,
                    "loss_rate": spec.inter.loss,
                    "chaos_seed": spec.chaos_seed},
            reliability=True))
    return cells


def _bits_per_session(per_session: List[int]) -> Dict[str, Any]:
    ranked = sorted(per_session)
    if not ranked:
        return {"mean": 0, "p50": 0, "p90": 0, "max": 0}
    return {"mean": sum(ranked) / len(ranked),
            "p50": ranked[len(ranked) // 2],
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)],
            "max": ranked[-1]}


def _run_cell(task: Tuple[_Cell, BenchConfig, bool, bool]
              ) -> Tuple[Dict[str, Any], MetricsRegistry]:
    """Execute one grid cell with a private registry (pool-picklable).

    Every cell derives its schedules from ``config.seed`` alone — no
    state is shared between cells — so the record is identical whether
    the cell runs in the parent or in a pool worker.  ``monitor`` and
    ``analyze`` are call flags, not ``BenchConfig`` fields, for the
    fingerprint reason :func:`run_cluster_bench` gives.
    """
    cell, config, monitor, analyze = task
    metrics = MetricsRegistry()
    cell_monitor = _make_observer(cell.observer, monitor)
    cell_tracer = Tracer() if analyze else None
    launched = cell.launch(cell, config, metrics=metrics,
                           monitor=cell_monitor, tracer=cell_tracer)
    start = time.perf_counter()
    with wall_timer(metrics, f"bench.cluster.{cell.timer}.wall_seconds"):
        result = launched.run()
    wall_seconds = time.perf_counter() - start
    if config.paired and launched.runner is not None:
        _assert_scheduling_independent(launched.runner, result)
    measured = launched.measure(result)
    totals = measured.totals
    record: Dict[str, Any] = {
        **_monitor_fields(cell_monitor),
        **_analyze_fields(cell_tracer),
        "scenario": cell.scenario,
        "protocol": cell.protocol,
        "n_sites": cell.n_sites,
        **({"n_objects": cell.n_objects, "batch_size": cell.batch_size}
           if cell.n_objects is not None else {}),
        **cell.fields,
        "sessions": measured.sessions,
        "updates": measured.updates,
        "updates_deferred": measured.updates_deferred,
        "reconciliations": measured.reconciliations,
        "total_bits": totals.total_bits,
        "traffic": totals.summary(),
        "bits_per_session": _bits_per_session(measured.per_session),
        "sim_completion_seconds": measured.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": measured.max_queue_wait,
        "consistent": measured.consistent,
        **measured.extra,
    }
    if cell.per_object:
        synced_objects = measured.sessions * cell.n_objects
        record["wire_bits_per_object"] = (totals.total_bits / synced_objects
                                          if synced_objects else 0.0)
    if cell.reliability:
        goodput = totals.total_goodput_bits
        record.update(
            goodput_bits=goodput,
            retransmitted_bits=totals.total_retransmitted_bits,
            retries=totals.retries, timeouts=totals.timeouts,
            resumes=totals.resumes,
            goodput_overhead_pct=((totals.total_bits - goodput) / goodput
                                  * 100 if goodput else 0.0))
    return record, metrics


def _assert_scheduling_independent(runner: ClusterRunner,
                                   result: ClusterResult) -> None:
    """Concurrent and sequential execution must move identical bits."""
    sequential, _ = replay_sequential(runner.sites, runner.config,
                                      result.log, shards=runner.shards)
    concurrent_bits = result.per_session_bits()
    sequential_bits = [r.stats.total_bits for r in sequential]
    if concurrent_bits != sequential_bits:
        mismatches = [i for i, (c, s) in
                      enumerate(zip(concurrent_bits, sequential_bits))
                      if c != s]
        raise ReproError(
            f"cluster scheduling changed traffic accounting: "
            f"{len(mismatches)} of {len(concurrent_bits)} sessions differ "
            f"(first at index {mismatches[0] if mismatches else '?'}) — "
            f"this falsifies the harness, not the workload")


def _echo_record(echo: Any, record: Dict[str, Any]) -> None:
    regions = (f" regions={record['regions']} repl={record['replication']}"
               if "regions" in record else "")
    batch = (f" batch={record['batch_size']}×{record['n_objects']}obj"
             if "batch_size" in record else "")
    chaos = (f" loss={record['loss_rate']:g} "
             f"retrans={record['retransmitted_bits']}b"
             if "loss_rate" in record else "")
    client = (f" client-ops={record['client']['ops']} "
              f"repairs={record['client']['read_repairs']}"
              if "client" in record else "")
    echo(f"  {record['protocol']} n={record['n_sites']}{regions}"
         f"{batch}{chaos}{client}: "
         f"{record['sessions']} sessions, "
         f"{record['total_bits']} bits, "
         f"sim {record['sim_completion_seconds']:.2f}s, "
         f"wall {record['wall_seconds'] * 1000:.0f}ms")


def run_cluster_bench(config: BenchConfig = BenchConfig(), *,
                      metrics: Optional[MetricsRegistry] = None,
                      echo: Optional[Any] = None,
                      workers: int = 1,
                      monitor: bool = False,
                      analyze: bool = False,
                      created_unix: Optional[float] = None) -> Dict[str, Any]:
    """Run the full sweep; returns the (already validated) document.

    With ``workers > 1`` the grid cells fan out across a process pool;
    results are folded back in grid order and ``created_unix`` is stamped
    in the parent, so apart from the measured ``wall_seconds`` the
    document is identical to a serial run —
    :func:`bench_fingerprint` (which masks exactly those fields) must
    agree between the two, and the benchmark suite asserts it.  Each
    worker fills a private :class:`MetricsRegistry`, merged into
    ``metrics`` in the same order a serial run would have written it.

    ``monitor=True`` attaches a :class:`~repro.obs.monitor.ClusterMonitor`
    to every cell and embeds its digest (``invariant_violations`` count
    plus the ``health`` summary) in each record; the default ``False``
    leaves the document — and its fingerprint — exactly as before.  It is
    deliberately a call parameter, not a ``BenchConfig`` field: the
    config is serialized into the document, so a config knob would move
    the default fingerprint.

    ``analyze=True`` traces every cell and embeds the causal digest
    (``critical_path_seconds`` / ``critical_path_hops`` /
    ``critical_path_attribution`` from :mod:`repro.obs.causal`) in each
    record — the trajectory :mod:`repro.perf.history` tracks.  Like
    ``monitor`` it is a call parameter for the same fingerprint reason.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(cell, config, monitor, analyze)
             for cell in _scenario_table(config)]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            outcomes = pool.map(_run_cell, tasks)
    else:
        outcomes = [_run_cell(task) for task in tasks]
    runs: List[Dict[str, Any]] = []
    for record, task_metrics in outcomes:
        runs.append(record)
        if metrics is not None:
            metrics.merge(task_metrics)
        if echo is not None:
            _echo_record(echo, record)
    document = {
        "schema": SCHEMA_ID,
        "created_unix": time.time() if created_unix is None else created_unix,
        "config": asdict(config),
        "runs": runs,
    }
    errors = validate_bench(document)
    if errors:  # pragma: no cover - would be a driver bug
        raise ReproError(f"emitted an invalid bench document: {errors}")
    return document


def bench_fingerprint(document: Dict[str, Any]) -> str:
    """SHA-256 over the document minus its measurement-irrelevant fields.

    ``created_unix`` and each run's ``wall_seconds`` are host-time
    measurements, and ``config.backend`` is an in-memory representation
    choice that is *required* not to affect any measured quantity;
    everything else is a pure function of the config.  Two documents
    from the same workload — serial or parallel, array or linked, today
    or next year — must fingerprint identically, and the comparator uses
    this to separate "the numbers moved" from "you re-ran it".  (Masking
    the backend is what makes the cross-backend CI check a fingerprint
    equality, not just a bits equality.)
    """
    masked = dict(document)
    masked.pop("created_unix", None)
    if isinstance(masked.get("config"), dict):
        masked["config"] = {key: value
                            for key, value in masked["config"].items()
                            if key != "backend"}
    masked["runs"] = [{key: value for key, value in run.items()
                       if key != "wall_seconds"}
                      for run in document.get("runs", ())]
    canonical = json.dumps(masked, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_bench(document: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    """Write the document as stable, diff-friendly JSON; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_bench_table(document: Dict[str, Any]) -> str:
    """A human-readable summary of one document."""
    header = (f"{'protocol':10} {'n':>5} {'sessions':>8} {'bits':>12} "
              f"{'sim s':>9} {'wall ms':>9} {'recons':>7}")
    lines = [header, "-" * len(header)]
    for run in document["runs"]:
        lines.append(
            f"{run['protocol']:10} {run['n_sites']:>5} "
            f"{run['sessions']:>8} {run['total_bits']:>12} "
            f"{run['sim_completion_seconds']:>9.2f} "
            f"{run['wall_seconds'] * 1000:>9.1f} "
            f"{run['reconciliations']:>7}")
    return "\n".join(lines)


def _at_least(minimum: int) -> Callable[[str], int]:
    return checked(int, lambda n: n >= minimum, f">= {minimum}")


def _bench_parser() -> argparse.ArgumentParser:
    defaults = BenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the cluster benchmark sweep and write the "
                    "schema-validated BENCH_cluster.json document.")
    add = parser.add_argument
    add("--sites", dest="site_counts", metavar="N,...",
        type=csv_list(_at_least(2)), default=defaults.site_counts,
        help="gossip fleet sizes (default: 8,32,128)")
    add("--protocols", metavar="P,...", type=protocol_list,
        default=defaults.protocols,
        help="gossip and chaos schemes (default: brv,crv,srv)")
    add("--backend", choices=("array", "linked"), default=defaults.backend,
        help="vector storage backend (default: array)")
    add("--rounds", metavar="N", type=_at_least(1), default=defaults.rounds,
        help="gossip rounds per cell (default: 3)")
    add("--seed", metavar="N", type=int, default=defaults.seed,
        help="workload seed (default: 0)")
    add("--workers", metavar="N", type=_at_least(1), default=1,
        help="processes the cells fan out over (default: 1)")
    add("--profile", action="store_true",
        help="run serially under cProfile; print the top 20 functions")
    add("--profile-out", metavar="PATH", default="bench.pstats",
        help="profile dump (default: bench.pstats)")
    add("--chaos-loss", dest="chaos_loss_rates", metavar="F,...",
        type=csv_list(checked(float, lambda rate: 0 <= rate <= 1,
                              "in [0, 1]")),
        default=defaults.chaos_loss_rates,
        help="loss rates of the chaos cells (default: 0.01,0.1)")
    add("--no-chaos", dest="chaos_loss_rates", action="store_const",
        const=(), help="skip the chaos cells")
    add("--chaos-seed", metavar="N", type=int, default=defaults.chaos_seed,
        help="fault-injection seed (default: 11)")
    add("--store-ops", metavar="N", type=_at_least(0),
        default=defaults.store_ops,
        help="client ops of the store cell; 0 skips it (default: 2000)")
    add("--no-store", dest="store_ops", action="store_const", const=0,
        help="skip the store cell")
    add("--no-multiregion", dest="topology", action="store_const",
        const=None, default=defaults.topology,
        help="skip the multi-region sharded cell")
    add("--monitor", action="store_true",
        help="embed a health-monitor digest in every cell")
    add("--analyze", action="store_true",
        help="embed every cell's causal critical path")
    add("--out", metavar="PATH", default=DEFAULT_OUTPUT,
        help="output document (default: BENCH_cluster.json)")
    return parser


def bench_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro bench [--sites CSV] [--workers N] ...``.

    Exit codes: 0 — document written; 2 — bad argument.
    """
    args = parse_args(_bench_parser(), argv)
    if isinstance(args, int):
        return args
    config = BenchConfig(site_counts=args.site_counts,
                         protocols=args.protocols, backend=args.backend,
                         rounds=args.rounds, seed=args.seed,
                         chaos_loss_rates=args.chaos_loss_rates,
                         chaos_seed=args.chaos_seed,
                         store_ops=args.store_ops, topology=args.topology)
    topology = config.topology
    multiregion = ("off" if topology is None
                   else f"{len(topology.regions)}×"
                        f"{topology.regions[0].sites} sites")
    print(f"cluster bench: n ∈ {list(config.site_counts)}, "
          f"protocols {list(config.protocols)}, backend {config.backend}, "
          f"{config.rounds} rounds, seed {config.seed}, "
          f"chaos loss {list(config.chaos_loss_rates)}, "
          f"store ops {config.store_ops}, multi-region {multiregion}")
    workers, profiler = args.workers, contextlib.nullcontext()
    if args.profile:
        # Profiling a process pool attributes everything to pickling and
        # waiting; force the serial path so the numbers mean something.
        if args.workers > 1:
            print("profiling forces --workers 1")
        workers, profiler = 1, cProfile.Profile()
    with profiler:
        document = run_cluster_bench(config, echo=print, workers=workers,
                                     monitor=args.monitor,
                                     analyze=args.analyze)
    if args.profile:
        profiler.dump_stats(args.profile_out)
    path = write_bench(document, args.out)
    print()
    print(format_bench_table(document))
    print(f"\nwrote {path} ({SCHEMA_ID})")
    print(f"fingerprint {bench_fingerprint(document)}")
    if args.profile:
        print(f"\nprofile written to {args.profile_out}; top 20 by "
              f"cumulative time:")
        stats = pstats.Stats(args.profile_out)
        stats.sort_stats("cumulative").print_stats(20)
    return 0
