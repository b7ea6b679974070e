"""The three perfbench workloads: the store demo and two fleet smokes.

Each workload turns a seed into fixed inputs, runs them through the repro
entry points a user would call, checks the result, and reports what one
repetition measured as an :class:`Outcome`.  A repetition's wall time is
split at the first ``Simulator.run`` entry (see ``tracing.RunMark``):
before it is set-up, after it is the run up to a verified result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core.order import Ordering
from repro.net import cluster as net_cluster
from repro.net.stats import TransferStats
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.store.cli import DEMO_CONFIG
from repro.workload import clients, epidemic
from repro.workload.cluster import SessionRequest, UpdateRequest, site_names

from tracing import RunMark

_clock = time.perf_counter

@dataclass
class Outcome:
    """What one repetition of a workload measured."""

    setup_s: float
    run_s: float
    #: Client ops (store) or replica updates applied (fleets).
    ops: int
    sessions: int
    attempted: int
    failed: int
    gate_failures: List[str]
    #: Simulated outputs; every repetition of one seed must repeat them.
    fingerprint: Dict[str, Any]
    sim_s: float = 0.0
    bits: int = 0
    #: Deterministic per-layer figures read from the result.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Store-only client-felt figures, with their sample counts.
    client: Dict[str, float] = field(default_factory=dict)
    #: Traced repetitions only: the profiler's per-layer figures.
    traced: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s

    @property
    def ok(self) -> bool:
        return not self.gate_failures


def accounting_failures(label: str, stats: TransferStats) -> List[str]:
    """The chaos identity: retransmitted == total − goodput."""
    if stats.total_retransmitted_bits \
            != stats.total_bits - stats.total_goodput_bits:
        return [f"{label}: retransmitted {stats.total_retransmitted_bits} "
                f"!= total {stats.total_bits} - goodput "
                f"{stats.total_goodput_bits}"]
    return []


def transport_figures(totals: TransferStats,
                      sessions: int) -> Dict[str, float]:
    """``net.transport.*`` read from a run's summed ``TransferStats``."""
    return {
        "net.transport.retransmit_ratio":
            totals.total_retransmitted_bits / max(totals.total_bits, 1),
        "net.transport.retries": totals.retries,
        "net.transport.timeouts": totals.timeouts,
        "net.transport.resumes": totals.resumes,
        "net.transport.messages_per_session":
            totals.total_messages / max(sessions, 1),
    }


def state_sha256(items: Any) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


class Workload:
    """One seeded workload; subclasses fill in the hooks.

    A subclass is built as ``cls(seed, size)``.  ``size`` is ``bench``
    (what the benchmark measures), ``small`` (the smoke tests) or
    ``full`` (the size of the repo's CI smokes, which only the tests that
    pin those smokes' outputs build).
    """

    name = ""

    def _run(self) -> Any:
        """Set up and run the workload; returns the raw result."""
        raise NotImplementedError

    def _gates(self, result: Any) -> List[str]:
        """Correctness gates; an empty list means the result is right."""
        raise NotImplementedError

    def _outcome(self, result: Any, failures: List[str], setup_s: float,
                 run_s: float) -> Outcome:
        raise NotImplementedError

    def attempts(self) -> int:
        """Ops and sessions a failed repetition counts as failed."""
        raise NotImplementedError

    def schedule_builders(self) -> Tuple[Tuple[Any, str], ...]:
        """Benchmark-side schedule builders the profiler should time."""
        return ()

    def execute(self, mark: RunMark,
                around: Callable[[Callable[[], Any]], Any] = lambda f: f()
                ) -> Outcome:
        """One repetition; ``around`` wraps the timed part (for tracing)."""
        mark.first = None

        def timed() -> Tuple[Any, List[str], float, float]:
            start = _clock()
            result = self._run()
            failures = self._gates(result)
            return result, failures, start, _clock()

        try:
            result, failures, start, end = around(timed)
        except Exception:  # a crashed run is a failed run, not a crash
            attempts = self.attempts()
            return Outcome(setup_s=0.0, run_s=0.0, ops=0, sessions=0,
                           attempted=attempts, failed=attempts,
                           gate_failures=[traceback.format_exc()],
                           fingerprint={})
        if mark.first is None:
            failures = failures + ["the simulator never ran"]
            mark.first = start
        outcome = self._outcome(result, failures, mark.first - start,
                                end - mark.first)
        if failures:
            outcome.failed = outcome.attempted
        return outcome


class StoreDemo(Workload):
    """``repro store --demo`` with a non-strict consistency monitor."""

    name = "store-demo"
    SIZE_OVERRIDES = {"bench": {}, "full": {},
                      "small": {"ops": 2_000, "n_clients": 16}}

    def __init__(self, seed: int, size: str = "bench") -> None:
        self.config = dataclasses.replace(
            DEMO_CONFIG, seed=seed, **self.SIZE_OVERRIDES[size])

    def attempts(self) -> int:
        return self.config.ops

    def _run(self) -> Any:
        monitor = ConsistencyMonitor(ConsistencyConfig(strict=False))
        return clients.run_store_workload(self.config, monitor=monitor)

    def _gates(self, result: Any) -> List[str]:
        store = result.store
        failures = accounting_failures("store totals", store.totals)
        if not result.converged:
            failures.append("store did not converge")
        if store.sessions_abandoned:
            failures.append(f"{store.sessions_abandoned} sessions abandoned")
        if result.ops != self.config.ops:
            failures.append(f"{result.ops} ops completed of "
                            f"{self.config.ops}")
        return failures

    def _outcome(self, result: Any, failures: List[str], setup_s: float,
                 run_s: float) -> Outcome:
        store = result.store
        digest = result.digest()
        audit = result.consistency["audit"]
        sessions = store.sessions
        siblings = [len(values) for values in store.sibling_sets().values()]
        useful = sum(1 for record in store.records
                     if any(verdict is not Ordering.EQUAL
                            for verdict in record.verdicts.values()))
        layer = transport_figures(store.totals, sessions)
        layer.update({
            "net.runner.useful_session_ratio": useful / max(sessions, 1),
            "store.ops_deferred_ratio": store.ops_deferred / max(result.ops,
                                                                 1),
            "store.read_repair_ratio": store.read_repairs / max(result.reads,
                                                                1),
            "store.mean_siblings": sum(siblings) / max(len(siblings), 1),
            "store.max_siblings": max(siblings, default=0),
        })
        client = {
            "store.get_p50_ms": digest["get_latency_p50"] * 1e3,
            "store.get_p99_ms": digest["get_latency_p99"] * 1e3,
            "store.put_p99_ms": digest["put_latency_p99"] * 1e3,
            "store.staleness_p99_ms": digest["staleness_p99"] * 1e3,
            "store.get_samples": result.reads,
            "store.put_samples": result.writes + result.deletes,
            "store.audit_violation_rate":
                audit["violations"] / max(audit["ops_audited"], 1),
        }
        return Outcome(
            setup_s=setup_s, run_s=run_s, ops=result.ops, sessions=sessions,
            attempted=result.ops + sessions,
            failed=store.sessions_abandoned, gate_failures=failures,
            fingerprint={**digest, "audit": audit},
            sim_s=store.completion_time, bits=store.total_bits,
            layer=layer, client=client)


def ring_sweep(sites: List[str]) -> List[SessionRequest]:
    """Out-and-back ring: 2(n−1) pulls 1 simulated second apart.

    The same schedule as ``benchmarks/test_bench_n1000_converge.py``: the
    spacing outlasts any session, so knowledge chains down the ring.
    """
    sessions = []
    at = 1.0
    for i in range(1, len(sites)):
        sessions.append(SessionRequest(at=at, src=sites[i - 1],
                                       dst=sites[i]))
        at += 1.0
    for i in range(len(sites) - 2, -1, -1):
        sessions.append(SessionRequest(at=at, src=sites[i + 1],
                                       dst=sites[i]))
        at += 1.0
    return sessions


#: Store figures a fleet has none of; fleets report them as 0.
STORE_ONLY_FIGURES = ("store.ops_deferred_ratio", "store.read_repair_ratio",
                      "store.mean_siblings", "store.max_siblings")


def cluster_layer_figures(result: Any) -> Dict[str, float]:
    sessions = result.sessions
    useful = sum(1 for record in result.records
                 if any(verdict is not Ordering.EQUAL
                        for verdict in record.verdicts))
    layer = transport_figures(result.totals, sessions)
    layer["net.runner.useful_session_ratio"] = useful / max(sessions, 1)
    layer.update(dict.fromkeys(STORE_ONLY_FIGURES, 0.0))
    return layer


def cluster_gates(result: Any) -> List[str]:
    failures = accounting_failures("cluster totals", result.totals)
    for record in result.records:
        failures += accounting_failures(f"session {record.index}",
                                        record.result.stats)
    if result.skipped_sessions:
        failures.append(f"{result.skipped_sessions} sessions skipped")
    return failures


class FleetRing(Workload):
    """The n=1000 single-shot out-and-back SRV ring, fault-free."""

    name = "fleet-ring"
    SIZE_SITES = {"bench": (1000, 32), "full": (1000, 32), "small": (100, 8)}

    def __init__(self, seed: int, size: str = "bench") -> None:
        self.n_sites, self.n_writers = self.SIZE_SITES[size]
        self.stride = self.n_sites // self.n_writers
        # Seed 0 is the CI smoke's writer set; other seeds shift it.
        self.offset = seed % self.stride

    def attempts(self) -> int:
        return 2 * (self.n_sites - 1) + self.n_writers

    def schedule_builders(self) -> Tuple[Tuple[Any, str], ...]:
        return ((sys.modules[__name__], "ring_sweep"),)

    def _run(self) -> Any:
        sites = site_names(self.n_sites)
        writers = sites[self.offset::self.stride][:self.n_writers]
        updates = [UpdateRequest(at=0.0, site=site) for site in writers]
        sessions = ring_sweep(sites)
        config = net_cluster.ClusterConfig(
            protocol="srv", encoding=Encoding(site_bits=10, value_bits=8))
        return net_cluster.ClusterRunner(sites, config).run(sessions,
                                                             updates)

    def _gates(self, result: Any) -> List[str]:
        failures = cluster_gates(result)
        if result.sessions != 2 * (self.n_sites - 1):
            failures.append(f"{result.sessions} sessions, expected "
                            f"{2 * (self.n_sites - 1)}")
        vectors = list(result.vectors.values())
        reference = vectors[0]
        if len(reference) != self.n_writers:
            failures.append(f"reference holds {len(reference)} writers")
        if not all(vector.same_values(reference) for vector in vectors):
            failures.append("ring did not converge")
        return failures

    def _outcome(self, result: Any, failures: List[str], setup_s: float,
                 run_s: float) -> Outcome:
        reference = next(iter(result.vectors.values()))
        return Outcome(
            setup_s=setup_s, run_s=run_s, ops=result.updates_applied,
            sessions=result.sessions,
            attempted=result.sessions + result.updates_applied,
            failed=0, gate_failures=failures,
            fingerprint={"sessions": result.sessions,
                         "total_bits": result.total_bits,
                         "sim_completion_seconds": result.completion_time,
                         "state_sha256": state_sha256(reference.elements())},
            sim_s=result.completion_time, bits=result.total_bits,
            layer=cluster_layer_figures(result))


class FleetMultiRegion(Workload):
    """The multi-region sharded fleet under 1% inter-region loss."""

    name = "fleet-multiregion"
    #: (sites per region, objects, updates).  ``bench`` is one sixth of
    #: ``benchmarks/test_bench_multiregion.py`` in sites, objects and
    #: updates alike, so a run repeats it about a dozen times; GC is
    #: still close to half of it.  ``full`` is that smoke's size.
    SIZE_FLEET = {"bench": (56, 1_667, 333), "full": (334, 10_000, 2_000),
                  "small": (16, 160, 32)}
    #: The smoke's chaos seed; the workload seed offsets it.
    CHAOS_SEED = 11

    def __init__(self, seed: int, size: str = "bench") -> None:
        per_region, self.n_objects, self.n_updates = self.SIZE_FLEET[size]
        self.spec = TopologySpec.grid(
            3, per_region,
            intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
            inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01),
            replication=3, seed=seed, chaos_seed=self.CHAOS_SEED + seed)

    def attempts(self) -> int:
        return self.n_updates

    def _run(self) -> Any:
        spec = self.spec
        runner = net_cluster.launch_cluster(
            spec, protocol="srv", n_objects=self.n_objects, batch_size=16,
            encoding=Encoding.for_system(spec.n_sites, 64))
        shards = runner.shards
        sessions = epidemic.epidemic_schedule(spec, shards, rounds=2)
        updates = epidemic.sharded_update_schedule(
            spec, shards, n_updates=self.n_updates)
        last = max([r.at for r in sessions] + [u.at for u in updates])
        sessions = sessions + epidemic.closing_sweep(shards,
                                                     start=last + 500.0)
        return runner.run(sessions, updates)

    def _gates(self, result: Any) -> List[str]:
        failures = cluster_gates(result)
        if result.updates_applied != self.n_updates:
            failures.append(f"{result.updates_applied} updates applied of "
                            f"{self.n_updates}")
        if not result.consistent():
            failures.append("a replica group did not converge")
        return failures

    def _outcome(self, result: Any, failures: List[str], setup_s: float,
                 run_s: float) -> Outcome:
        state = [(obj, result.objects[group[0]][obj].elements())
                 for obj, group in enumerate(result.shards.replicas)]
        return Outcome(
            setup_s=setup_s, run_s=run_s, ops=result.updates_applied,
            sessions=result.sessions,
            attempted=result.sessions + result.updates_applied,
            failed=0, gate_failures=failures,
            fingerprint={
                "sessions": result.sessions,
                "total_bits": result.total_bits,
                "retransmitted_bits":
                    result.totals.total_retransmitted_bits,
                "sim_completion_seconds": result.completion_time,
                "state_sha256": state_sha256(state)},
            sim_s=result.completion_time, bits=result.total_bits,
            layer=cluster_layer_figures(result))


WORKLOADS = {cls.name: cls for cls in (StoreDemo, FleetRing,
                                       FleetMultiRegion)}
