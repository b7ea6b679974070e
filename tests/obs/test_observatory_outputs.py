"""Byte-identity fingerprints of every observatory output.

The dashboard, HTML, Prometheus and OTLP renderers and the consistency
digest are pure functions of a seeded run, so each output of a fixed
run has one sha256.  The other observatory tests grep for substrings;
these pin every byte, so a refactor of the shared renderers that moves
a single character fails here.  A deliberate output change re-derives
the pins below and says why.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.stats import TransferStats
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.cli import run_monitored_fleet, run_monitored_region_fleet
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.obs.dashboard import (render_consistency_dashboard,
                                 render_consistency_html_report,
                                 render_dashboard, render_html_report)
from repro.obs.exporters import to_otlp, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.store.cluster import ClientOp, StoreCluster, StoreConfig
from repro.workload.clients import StoreWorkloadConfig, run_store_workload


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cluster_outputs(monitor, runner, metrics):
    return {
        "dashboard": render_dashboard(monitor),
        "html": render_html_report({"srv": monitor}),
        "prometheus": to_prometheus(metrics, monitor),
        "otlp": json.dumps(to_otlp(runner.tracer, metrics, monitor),
                           sort_keys=True),
    }


def chaos_fleet_outputs():
    """A 4-site chaos fleet at 10% loss under a ClusterMonitor."""
    metrics = MetricsRegistry()
    monitor, runner, _ = run_monitored_fleet(
        "srv", n_sites=4, n_objects=8, batch_size=4, loss=0.1, rounds=2,
        seed=0, chaos_seed=11, metrics=metrics)
    return _cluster_outputs(monitor, runner, metrics)


def region_fleet_outputs():
    """A sharded 2-region fleet: the per-region and shard panels."""
    metrics = MetricsRegistry()
    monitor, runner, _ = run_monitored_region_fleet(
        "srv", regions=2, sites_per_region=3, n_objects=8, replication=2,
        batch_size=4, loss=0.05, rounds=2, seed=0, chaos_seed=11,
        metrics=metrics)
    return _cluster_outputs(monitor, runner, metrics)


def violated_cluster_outputs():
    """A ClusterMonitor fed one tampered session: the violation panels."""
    metrics = MetricsRegistry()
    monitor = ClusterMonitor(MonitorConfig(spot_check_period=0),
                             metrics=metrics)
    config = ClusterConfig(protocol="srv",
                           encoding=Encoding(site_bits=8, value_bits=16),
                           channel=ChannelSpec(latency=0.05, bandwidth=1e5))
    runner = ClusterRunner(["A", "B"], config, monitor=monitor,
                           metrics=metrics)
    monitor.attach(runner)
    record = SimpleNamespace(index=0, src="A", dst="B")
    monitor.on_session_start(record)
    runner.objects["B"][0].record_update("B")
    stats = TransferStats()
    stats.forward.record("ElementSMsg", 32)
    stats.forward.retransmitted_bits = stats.forward.bits + 5
    monitor.on_session_end(record, SimpleNamespace(stats=stats))
    monitor.finalize()
    return _cluster_outputs(monitor, runner, metrics)


def _store_outputs(workload):
    monitor = ConsistencyMonitor(ConsistencyConfig())
    result = run_store_workload(workload, monitor=monitor)
    return {
        "dashboard": render_consistency_dashboard(monitor),
        "html": render_consistency_html_report({"store:srv": monitor}),
        "prometheus": to_prometheus(result.metrics, consistency=monitor),
        "otlp": json.dumps(to_otlp(monitor.tracer, result.metrics,
                                   consistency=monitor,
                                   service_name="repro-store"),
                           sort_keys=True),
        "summary": json.dumps(monitor.summary(), sort_keys=True),
    }


def regional_store_outputs():
    """A 2-region store: the per-region replication-lag table."""
    spec = TopologySpec.grid(
        2, 2, intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
        inter=LinkProfile(latency=0.04, bandwidth=250_000.0))
    monitor = ConsistencyMonitor(ConsistencyConfig(cadence=0.01))
    cluster = StoreCluster(None, StoreConfig(topology=spec),
                           monitor=monitor)
    sites = cluster.sites
    for index, site in enumerate(sites):
        op = ClientOp(kind="put", site=site, key=f"k{index % 2}",
                      value=f"v{index}")
        cluster.sim.call_at(0.01 * index, lambda op=op: cluster.submit(op))
    cluster.sim.call_at(
        0.05, lambda: cluster.request_sync(sites[0], sites[-1]))
    cluster.run()
    return {
        "dashboard": render_consistency_dashboard(monitor),
        "summary": json.dumps(monitor.summary(), sort_keys=True),
    }


def store_outputs():
    """A small seeded store workload under a ConsistencyMonitor."""
    return _store_outputs(StoreWorkloadConfig(
        n_sites=4, n_keys=8, n_clients=8, ops=400, op_interval=0.002,
        sync_period=0.2, seed=7))


def contended_store_outputs():
    """A hot 4-key store whose auditor reports violations."""
    return _store_outputs(StoreWorkloadConfig(
        n_sites=4, n_keys=4, n_clients=16, ops=800, op_interval=0.0005,
        sync_period=0.2, seed=7))


FINGERPRINTS = {
    "chaos_fleet": (chaos_fleet_outputs, {
        "dashboard":
            "dae7fae5b51348ad78a947c58d7d32bee0021051f228e8113901c87dfc710bea",
        "html":
            "e0c9f8a2da6e0c8e69d7262c949bf2c6dc2aa5d6ee179583f05961d00ca49dfe",
        "prometheus":
            "104330544e3e8c93ea522ecd54cbc4385bbef884c4f2affda6a48a1123978fcf",
        "otlp":
            "d033084b64cb52a2033903ced3fd9f398c4f414df6e64dd60c69040699094a6e",
    }),
    "region_fleet": (region_fleet_outputs, {
        "dashboard":
            "2b24cd9ea5659478a0b17a429745c4f39df1058d85a07a6ad147bc3bc7247bd4",
        "html":
            "e5cba0578a7b8460b64636c5e95d70bae2a6fc72b080bd46ab081fbe1b962e54",
        "prometheus":
            "73d611f76bcc6aec1cdbbed27b823458ead6983c1a1aa3cd1c21a842a579ecd3",
        "otlp":
            "7f8d44420c8eb82871e5b777b3e0a09a53c90e4df6aa112128d677727779a36f",
    }),
    "violated_cluster": (violated_cluster_outputs, {
        "dashboard":
            "25d92b4e6222ce9409604bbc7bd6adb59daeac230d51f5a73f044196e9aa4536",
        "html":
            "a29f5dd3c8ce304af5b1e730164d676a2db4face33dcb89adbb71f82f6bbe401",
        "prometheus":
            "20a3a604c4050f498c1ae75d33a3df826694a768f2482e309b60d79c0b70d342",
        "otlp":
            "34f0fe6db86745f7e4254a25494bdbc67ceaaa5c7465fc3d8cac1b91514ad10a",
    }),
    "regional_store": (regional_store_outputs, {
        "dashboard":
            "4383b105bde931a6b9d6c11b58d118279fb303bdd924a7fddde0b1cbc6f69b0b",
        "summary":
            "354e0dec34f20874db46a553cf5e11ff6988ef18d6038f54965eff8a041869a1",
    }),
    "store": (store_outputs, {
        "dashboard":
            "f1825200a83505c222c51044358f5847d604342ae822a4bdf6cbd88aa88bf44b",
        "html":
            "2811a57d61f6f30b98bac731d8ec63bccd44aff229f17f8bdc0aada7d2df7ea4",
        "prometheus":
            "907915af2ede481d9ffec96f131c7ba0356b765323cebd253efe44747687f96b",
        "otlp":
            "9160978d83802185f362e3ab90cd8363abdbe7747f6f2ebc10af4ca90da9485b",
        "summary":
            "a03d16502a0916b94c62dbe3512d6622f6fcbc7d014117a5871b50822da81e9c",
    }),
    "contended_store": (contended_store_outputs, {
        "dashboard":
            "b35b5ccd68edbf8a98001e0c0fe91079e849a8dc0420fc2eb15cb0da1c66d86e",
        "html":
            "6ecee224b56a2f32cb209fb2a51962c38cfd00533658fe2c31a6f22dbdd20c15",
        "prometheus":
            "40de4978f024d7764f75a3e30e564dacfa2563ef807f5c92b0052e97e460035d",
        "otlp":
            "4398f793f590ffaf454c7a7299b12e65c481cb9873fa85f38574e6a7e30a7618",
        "summary":
            "33262a05122e20468b9a870f87f6858b57d722b9119b3cf615cca86788622074",
    }),
}


@pytest.mark.parametrize("run", sorted(FINGERPRINTS))
def test_outputs_are_byte_identical(run):
    build, expected = FINGERPRINTS[run]
    actual = {name: _sha(text) for name, text in build().items()}
    assert actual == expected


if __name__ == "__main__":
    for run, (build, _) in sorted(FINGERPRINTS.items()):
        for name, text in build().items():
            print(run, name, _sha(text))
