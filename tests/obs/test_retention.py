"""A monitor's private tracer keeps only what its exports read.

Watching a run must not hoard it: when a run adopts a monitor's private
tracer, every event still reaches the monitor's subscription (so gauges
and sample times are unchanged), but the tracer retains only
:data:`~repro.obs.trace.EXPORTED_KINDS` — the span boundaries and the
reliability/correctness signals the OTLP span export nests.  A run
handed an explicit full :class:`~repro.obs.trace.Tracer` still records
everything.
"""

import dataclasses
import json

from repro.obs import trace as obs
from repro.obs.cli import run_monitored_fleet
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.obs.exporters import to_otlp, to_prometheus
from repro.obs.trace import EXPORTED_KINDS, Tracer
from repro.store.cli import DEMO_CONFIG
from repro.workload.clients import run_store_workload

#: A fault-free demo-shaped store run small enough to stay fast, busy
#: enough that the session-guarantee audit counts violations.
STORE = dataclasses.replace(DEMO_CONFIG, ops=2_000, n_clients=16)
#: A lossy chaos fleet: faults, retries and timeouts all occur.
FLEET = dict(n_sites=6, n_objects=8, loss=0.2, rounds=2)


def _store_run(tracer=None):
    monitor = ConsistencyMonitor(ConsistencyConfig())
    result = run_store_workload(STORE, monitor=monitor, tracer=tracer)
    return monitor, result


def _store_exports(monitor, result, tracer):
    return (json.dumps(to_otlp(tracer, result.metrics, consistency=monitor,
                               service_name="repro-store"), sort_keys=True),
            to_prometheus(result.metrics, consistency=monitor),
            json.dumps(monitor.summary(), sort_keys=True))


class TestTracerKeep:
    def test_keep_limits_retention_not_delivery(self):
        tracer = Tracer(keep=frozenset({"kept"}))
        seen = []
        tracer.subscribe(seen.append)
        tracer.event("dropped")
        tracer.event("kept")
        tracer.event("dropped")
        assert [event.kind for event in seen] == ["dropped", "kept",
                                                  "dropped"]
        assert [(event.seq, event.kind) for event in tracer.events] == [
            (1, "kept")]


class TestStoreRetention:
    def test_private_tracer_keeps_one_span_and_the_violations(self):
        monitor, _ = _store_run()
        assert monitor.violation_count > 0
        assert len(monitor.tracer.events) == 2 + monitor.violation_count

    def test_exports_match_a_full_tracer_run(self):
        private_monitor, private_result = _store_run()
        full = Tracer()
        full_monitor, full_result = _store_run(full)
        assert full.count(obs.MESSAGE) > 0
        assert len(full) > len(private_monitor.tracer)
        assert (_store_exports(private_monitor, private_result,
                               private_monitor.tracer)
                == _store_exports(full_monitor, full_result, full))


class TestFleetRetention:
    def test_chaos_fleet_retains_only_exported_kinds(self):
        monitor, runner, _ = run_monitored_fleet("srv", **FLEET)
        assert runner.tracer is monitor.tracer
        kinds = {event.kind for event in monitor.tracer.events}
        assert kinds <= EXPORTED_KINDS
        assert obs.FAULT in kinds

    def test_exports_and_gauges_match_a_full_tracer_run(self):
        private, private_runner, _ = run_monitored_fleet("srv", **FLEET)
        full = Tracer()
        monitor, _, _ = run_monitored_fleet("srv", tracer=full, **FLEET)
        assert full.count(obs.MESSAGE) > 0
        assert (json.dumps(to_otlp(private_runner.tracer, monitor=private),
                           sort_keys=True)
                == json.dumps(to_otlp(full, monitor=monitor),
                              sort_keys=True))
        assert private.samples == monitor.samples
        for site in monitor.sites:
            for gauge in monitor.GAUGES:
                assert (private.series(site, gauge)
                        == monitor.series(site, gauge))
