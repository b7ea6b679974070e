"""Finished sessions are freed by refcount, never by the cycle collector.

Every session's driver state (the simulator's process objects, the
per-session and per-attempt wire objects, their generators, mailboxes
and fault snapshots) must form no reference cycle, so the moment a
session completes, resumes past an attempt, or is abandoned, refcounting
frees it.  Each test keeps its fleet (or options) and result referenced,
runs with the collector disabled, and then asserts that a full
collection finds nothing: any cycle a session leaves behind shows up as
a non-zero count, with the garbage's types in the failure message.
"""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.skip import SkipRotatingVector
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.store.cluster import ClientOp, StoreCluster, StoreConfig
from repro.workload.cluster import (SessionRequest, chaos_faults,
                                    gossip_schedule, site_names,
                                    update_schedule)

ENC = Encoding(site_bits=8, value_bits=16)
CHANNEL = ChannelSpec(latency=0.01, bandwidth=1e6)


@contextmanager
def no_cyclic_garbage():
    """Run the block with the collector off; then require that a full
    collection frees nothing while the block's objects are still held."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            freed = gc.collect()
            kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert freed == 0, (f"{freed} objects of cyclic garbage: "
                            f"{kinds.most_common(8)}")
    finally:
        if enabled:
            gc.enable()


def ring(sites):
    return [SessionRequest(at=float(i), src=src, dst=dst)
            for i, (src, dst) in enumerate(zip(sites, sites[1:] + sites[:1]))]


def run_fleet(config, *, n_sites=5, n_updates=10, rounds=6, seed=50):
    sites = site_names(n_sites)
    updates = update_schedule(sites, n_updates=n_updates, interval=0.05,
                              seed=seed, n_objects=config.n_objects)
    sessions = gossip_schedule(sites, rounds=rounds, seed=seed + 1)
    runner = ClusterRunner(sites, config)
    return runner, runner.run(sessions, updates)


def divergent_pair():
    a = SkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    a.record_update("A")
    for site in ("B", "C", "B", "D"):
        b.record_update(site)
    return a, b


def test_fault_free_ring():
    sites = site_names(6)
    updates = update_schedule(sites, n_updates=12, interval=0.05, seed=1)
    with no_cyclic_garbage():
        runner = ClusterRunner(sites, ClusterConfig(protocol="srv",
                                                    channel=CHANNEL,
                                                    encoding=ENC))
        result = runner.run(ring(sites) * 2, updates)
    assert result.sessions == 12
    assert result.total_bits > 0


def test_batched_sessions():
    config = ClusterConfig(protocol="srv", channel=CHANNEL, encoding=ENC,
                           n_objects=8, batch_size=3)
    with no_cyclic_garbage():
        runner, result = run_fleet(config)
    assert result.totals.frames > 0
    assert result.totals.framed_objects > result.totals.frames


def test_chaos_fleet_with_resumes():
    config = ClusterConfig(
        protocol="srv", encoding=ENC,
        channel=ChannelSpec(latency=0.01, bandwidth=1e6,
                            faults=chaos_faults(0.3, latency=0.01, seed=3)),
        retry=RetryPolicy(max_retries=1, initial_rto=0.05,
                          max_session_attempts=40))
    with no_cyclic_garbage():
        runner, result = run_fleet(config, n_sites=4, n_updates=8)
    assert result.totals.resumes > 0


@pytest.mark.parametrize("faults", [FaultSpec(), FaultSpec(drop=0.2, seed=4)],
                         ids=["perfect", "lossy"])
def test_run_timed(faults):
    a, b = divergent_pair()
    with no_cyclic_garbage():
        options = SessionOptions.for_pair(
            syncs_sender(b), syncs_receiver(a, reconcile=True),
            channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults),
            encoding=ENC)
        result = run_timed(options)
    assert result.stats.total_bits > 0


def test_store_session_abandon():
    channel = ChannelSpec(latency=0.01, bandwidth=1e6,
                          faults=FaultSpec(drop=1.0, seed=5))
    retry = RetryPolicy(max_retries=1, initial_rto=0.05,
                        max_session_attempts=2)
    with no_cyclic_garbage():
        cluster = StoreCluster(["A", "B"], StoreConfig(channel=channel,
                                                       retry=retry))
        cluster.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        cluster.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        cluster.request_sync("A", "B")
        result = cluster.run()
    assert result.sessions_abandoned >= 1
