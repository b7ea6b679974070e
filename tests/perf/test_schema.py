"""Tests for the BENCH_cluster.json schema validator."""

import copy
import json
import pathlib

import pytest

from repro.obs.otlp_schema import load_schema, validate
from repro.perf.schema import (SCHEMA_ID, InvalidBenchDocument, load_bench,
                               main, validate_bench, validate_file)

COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "BENCH_cluster.json"

VALID_RUN = {
    "scenario": "multi-writer-gossip",
    "protocol": "srv",
    "n_sites": 8,
    "sessions": 24,
    "updates": 16,
    "updates_deferred": 0,
    "reconciliations": 3,
    "total_bits": 4242,
    "traffic": {
        "forward_bits": 4000, "backward_bits": 242, "total_bits": 4242,
        "forward_messages": 30, "backward_messages": 12,
        "by_type": {"forward": {"Element": 30}, "backward": {"Halt": 12}},
    },
    "bits_per_session": {"mean": 176.75, "p50": 170, "p90": 220, "max": 260},
    "sim_completion_seconds": 4.25,
    "wall_seconds": 0.08,
    "max_queue_wait_seconds": 0.01,
    "consistent": True,
}

VALID_DOC = {
    "schema": SCHEMA_ID,
    "created_unix": 1754500000.0,
    "config": {"rounds": 3},
    "runs": [VALID_RUN],
}


def doc_with(**run_overrides):
    doc = copy.deepcopy(VALID_DOC)
    doc["runs"][0].update(run_overrides)
    return doc


class TestValidateBench:
    def test_valid_document_passes(self):
        assert validate_bench(VALID_DOC) == []

    def test_non_object_document(self):
        assert validate_bench([1, 2]) == ["$: expected object, got list"]

    def test_wrong_schema_id(self):
        doc = dict(VALID_DOC, schema="repro.bench.cluster/0")
        assert any("$.schema" in e for e in validate_bench(doc))

    def test_missing_runs(self):
        doc = dict(VALID_DOC, runs=[])
        assert any("$.runs" in e and "minItems" in e
                   for e in validate_bench(doc))

    def test_unknown_protocol(self):
        errors = validate_bench(doc_with(protocol="vv"))
        assert any(".protocol" in e for e in errors)

    def test_missing_count_field(self):
        doc = doc_with()
        del doc["runs"][0]["total_bits"]
        assert any("total_bits" in e for e in validate_bench(doc))

    def test_float_where_integer_required(self):
        errors = validate_bench(doc_with(sessions=24.5))
        assert any("sessions" in e and "expected integer" in e
                   for e in errors)

    def test_negative_seconds(self):
        errors = validate_bench(doc_with(wall_seconds=-0.1))
        assert any("wall_seconds" in e and "minimum 0" in e for e in errors)

    def test_bool_is_not_a_number(self):
        errors = validate_bench(doc_with(total_bits=True))
        assert any("total_bits" in e for e in errors)

    def test_total_bits_cross_check(self):
        errors = validate_bench(doc_with(total_bits=1))
        assert any("must equal traffic.total_bits" in e for e in errors)

    def test_missing_consistent_flag(self):
        doc = doc_with()
        del doc["runs"][0]["consistent"]
        assert any("consistent" in e for e in validate_bench(doc))

    def test_missing_traffic_by_type(self):
        doc = doc_with()
        del doc["runs"][0]["traffic"]["by_type"]
        assert any("by_type" in e for e in validate_bench(doc))

    def test_all_errors_reported_at_once(self):
        doc = doc_with(protocol="vv", total_bits=-1, consistent="yes")
        assert len(validate_bench(doc)) >= 3


class TestValidateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(VALID_DOC))
        assert validate_file(str(path)) == []

    def test_unreadable_file(self, tmp_path):
        errors = validate_file(str(tmp_path / "missing.json"))
        assert errors and "cannot read" in errors[0]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        errors = validate_file(str(path))
        assert errors and "cannot read" in errors[0]


class TestCli:
    def test_ok_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(VALID_DOC))
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(dict(VALID_DOC, runs=[])))
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err


HEALTH = {
    "samples": 18, "sites": 8, "invariant_violations": 0,
    "sessions_checked": 24,
    "final_scores": {"S000": 1.0, "S001": 0.9},
    "min_final_score": 0.9, "mean_final_score": 0.95,
}


CLIENT = {
    "ops": 400, "reads": 360, "writes": 31, "deletes": 9,
    "read_repairs": 12, "sessions_abandoned": 0,
    "get_latency_seconds": {"p50": 0.01, "p90": 0.02, "p99": 0.05},
    "put_latency_seconds": {"p50": 0.01, "p90": 0.03, "p99": 0.06},
    "staleness_seconds": {"p50": 0.08, "p90": 0.2, "p99": 0.4},
}


class TestClientRunFields:
    def test_valid_client_block(self):
        doc = doc_with(scenario="store-workload",
                       client=copy.deepcopy(CLIENT))
        assert validate_bench(doc) == []

    def test_client_must_be_an_object(self):
        errors = validate_bench(doc_with(client=7))
        assert any("client: expected object" in e for e in errors)

    def test_non_integer_count_rejected(self):
        client = dict(copy.deepcopy(CLIENT), read_repairs=1.5)
        errors = validate_bench(doc_with(client=client))
        assert any("read_repairs" in e and "expected integer" in e
                   for e in errors)

    def test_op_mix_must_add_up(self):
        client = dict(copy.deepcopy(CLIENT), reads=359)
        errors = validate_bench(doc_with(client=client))
        assert any("must equal client.ops" in e for e in errors)

    def test_missing_percentile_map_rejected(self):
        client = {k: v for k, v in copy.deepcopy(CLIENT).items()
                  if k != "staleness_seconds"}
        errors = validate_bench(doc_with(client=client))
        assert any("staleness_seconds" in e for e in errors)

    def test_percentiles_must_be_numbers(self):
        client = copy.deepcopy(CLIENT)
        client["get_latency_seconds"]["p99"] = "slow"
        errors = validate_bench(doc_with(client=client))
        assert any("get_latency_seconds" in e and "p99" in e
                   for e in errors)


class TestMonitoredRunFields:
    def test_valid_monitored_run(self):
        doc = doc_with(invariant_violations=0,
                       health=copy.deepcopy(HEALTH))
        assert validate_bench(doc) == []

    def test_negative_violation_count_rejected(self):
        errors = validate_bench(doc_with(invariant_violations=-1))
        assert any("invariant_violations" in e for e in errors)

    def test_health_must_be_an_object(self):
        errors = validate_bench(doc_with(health=7))
        assert any("health: expected object" in e for e in errors)

    def test_health_missing_scores_rejected(self):
        health = {k: v for k, v in HEALTH.items() if k != "final_scores"}
        errors = validate_bench(doc_with(health=health))
        assert any("final_scores" in e for e in errors)

    def test_run_and_health_counts_must_agree(self):
        health = dict(copy.deepcopy(HEALTH), invariant_violations=3)
        errors = validate_bench(doc_with(invariant_violations=0,
                                         health=health))
        assert any("must equal health.invariant_violations" in e
                   for e in errors)


def _consistency_block():
    """A minimal valid consistency digest, matching the live shape."""
    from repro.obs.consistency import ConsistencyMonitor
    from repro.workload.clients import (StoreWorkloadConfig,
                                        run_store_workload)
    monitor = ConsistencyMonitor()
    result = run_store_workload(
        StoreWorkloadConfig(n_sites=3, n_keys=4, n_clients=4, ops=120,
                            seed=5),
        monitor=monitor)
    return result.consistency


class TestConsistencyRunFields:
    def test_p999_validated_when_present(self):
        client = copy.deepcopy(CLIENT)
        client["get_latency_seconds"]["p999"] = 0.09
        assert validate_bench(doc_with(client=client)) == []
        client["get_latency_seconds"]["p999"] = "slow"
        errors = validate_bench(doc_with(client=client))
        assert any("p999" in e for e in errors)

    def test_p999_not_required(self):
        # Committed baselines predate p999; they must stay valid.
        assert validate_bench(doc_with(client=copy.deepcopy(CLIENT))) == []

    def test_live_consistency_block_passes(self):
        doc = doc_with(scenario="store-workload",
                       client=copy.deepcopy(CLIENT),
                       consistency=_consistency_block())
        assert validate_bench(doc) == []

    def test_consistency_must_be_an_object(self):
        errors = validate_bench(doc_with(consistency=7))
        assert any("consistency: expected object" in e for e in errors)

    def test_broken_consistency_block_is_rerooted(self):
        block = _consistency_block()
        block.pop("w_all_seconds")
        errors = validate_bench(doc_with(consistency=block))
        assert any(e.startswith("$.runs[0].consistency:")
                   and "w_all_seconds" in e for e in errors)


class TestSchemaFileAlone:
    """The checked-in JSON schema accepts real documents by itself."""

    SCHEMA = "repro.bench.cluster.schema.json"

    def test_accepts_the_committed_document(self):
        with open(COMMITTED, encoding="utf-8") as handle:
            document = json.load(handle)
        assert validate(document, load_schema(self.SCHEMA)) == []

    def test_accepts_a_monitored_analyzed_document(self):
        from repro.net.topology import LinkProfile, TopologySpec
        from repro.perf.bench import BenchConfig, run_cluster_bench
        tiny = BenchConfig(
            site_counts=(3,), protocols=("brv", "srv"), rounds=1,
            updates_per_site=1.0, batched_site_count=3, batched_objects=2,
            batched_sizes=(2,), chaos_loss_rates=(0.1,), chaos_batch_size=2,
            store_site_count=3, store_keys=3, store_clients=3,
            store_ops=60,
            topology=TopologySpec.grid(
                2, 3, intra=LinkProfile(latency=0.002),
                inter=LinkProfile(latency=0.02, loss=0.02), replication=2),
            mr_objects=6, mr_rounds=1, mr_batch_size=2)
        document = run_cluster_bench(tiny, monitor=True, analyze=True)
        scenarios = {run["scenario"] for run in document["runs"]}
        assert len(scenarios) == 6
        assert any("consistency" in run for run in document["runs"])
        assert validate(document, load_schema(self.SCHEMA)) == []


class TestLoadBench:
    def test_returns_a_valid_document(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(VALID_DOC))
        assert load_bench(str(path)) == VALID_DOC

    def test_invalid_document_carries_its_errors(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(dict(VALID_DOC, runs=[])))
        with pytest.raises(InvalidBenchDocument) as caught:
            load_bench(str(path))
        assert "not a valid bench document" in str(caught.value)
        assert caught.value.errors == validate_file(str(path))
