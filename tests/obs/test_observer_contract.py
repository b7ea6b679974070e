"""The observer contract every monitor inherits from the gauge sampler.

Each test runs once per monitor: the cluster's
:class:`~repro.obs.monitor.ClusterMonitor` and the store's
:class:`~repro.obs.consistency.ConsistencyMonitor`.  Both must be
one-shot, unsubscribe when finalized, reject a non-positive cadence or
an empty ring, sample lazily with the cadence-skip rule, and never
schedule a simulator event of their own.
"""

import pytest

from repro.errors import InvariantViolationError
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.simulator import Simulator
from repro.net.wire import Encoding
from repro.obs import trace as obs
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.workload.clients import (StoreWorkloadConfig, build_store_cluster,
                                    run_store_workload)
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)

CLUSTER = ClusterConfig(protocol="srv",
                        encoding=Encoding(site_bits=8, value_bits=16),
                        channel=ChannelSpec(latency=0.05, bandwidth=1e5))
SITES = site_names(3)
STORE = StoreWorkloadConfig(n_sites=3, n_keys=4, n_clients=4, ops=100,
                            op_interval=0.002, sync_period=0.2, seed=7)


class ClusterKind:
    monitor = ClusterMonitor
    config = MonitorConfig

    @staticmethod
    def build(monitor):
        return ClusterRunner(SITES, CLUSTER, monitor=monitor)

    @staticmethod
    def run(monitor):
        ClusterRunner(SITES, CLUSTER, monitor=monitor).run(
            gossip_schedule(SITES, rounds=2, seed=1),
            update_schedule(SITES, n_updates=4, interval=0.1, seed=2))

    @staticmethod
    def observed(monitor):
        """What a trace event can change: samples and pressure."""
        return monitor.samples, monitor.pressure(SITES[0])


class StoreKind:
    monitor = ConsistencyMonitor
    config = ConsistencyConfig

    @staticmethod
    def build(monitor):
        return build_store_cluster(STORE, monitor=monitor)

    @staticmethod
    def run(monitor):
        run_store_workload(STORE, monitor=monitor)

    @staticmethod
    def observed(monitor):
        """What a trace event can change: samples."""
        return monitor.samples


@pytest.fixture(params=[ClusterKind, StoreKind],
                ids=["ClusterMonitor", "ConsistencyMonitor"])
def kind(request):
    return request.param


class TestLifecycle:
    def test_attach_is_one_shot(self, kind):
        monitor = kind.monitor()
        kind.run(monitor)
        with pytest.raises(InvariantViolationError, match="one-shot"):
            monitor.attach(kind.build(kind.monitor()))

    def test_finalize_unsubscribes(self, kind):
        monitor = kind.monitor()
        kind.run(monitor)
        before = kind.observed(monitor)
        # Events after the run must no longer reach the monitor (the run
        # adopted its private tracer), and a second finalize takes no
        # further sample.
        monitor.tracer.event(obs.RETRY, time=999.0, party=SITES[0])
        monitor.finalize()
        assert kind.observed(monitor) == before


class TestConfig:
    @pytest.mark.parametrize("cadence", [0.0, -1.0])
    def test_rejects_non_positive_cadence(self, kind, cadence):
        with pytest.raises(ValueError, match="cadence"):
            kind.config(cadence=cadence)

    def test_rejects_empty_ring(self, kind):
        with pytest.raises(ValueError, match="ring_capacity"):
            kind.config(ring_capacity=0)


class TestCadence:
    def test_a_jump_over_boundaries_takes_one_sample(self, kind):
        monitor = kind.monitor(kind.config(cadence=0.25))
        target = kind.build(monitor)
        monitor.attach(target)
        assert monitor.samples == 1  # the t=0 sample
        # The clock jumps from 0 to 0.75, over the boundaries at 0.25,
        # 0.5 and 0.75: one sample, and the next is due at 0.75 + 0.25.
        target.tracer.event(obs.CONTROL, time=0.75, signal="probe")
        assert monitor.samples == 2
        target.tracer.event(obs.CONTROL, time=0.99, signal="probe")
        assert monitor.samples == 2
        target.tracer.event(obs.CONTROL, time=1.0, signal="probe")
        assert monitor.samples == 3
        for site in monitor.sites:
            times = [time for time, _ in monitor.series(
                site, "frontier_distance")]
            assert times == [0.0, 0.75, 1.0]


class TestObserverOnly:
    def test_monitoring_schedules_no_simulator_events(self, kind,
                                                      monkeypatch):
        counts = []
        for monitor in (None, kind.monitor()):
            scheduled = [0]
            for name in ("call_at", "_schedule"):
                original = getattr(Simulator, name)

                def counting(sim, *args, _original=original, **kwargs):
                    scheduled[0] += 1
                    return _original(sim, *args, **kwargs)

                monkeypatch.setattr(Simulator, name, counting)
            kind.run(monitor)
            monkeypatch.undo()
            counts.append(scheduled[0])
        assert counts[0] > 0
        assert counts[0] == counts[1]
