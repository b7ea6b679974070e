"""Schema of the ``BENCH_cluster.json`` regression document.

The benchmark trajectory only works if every PR emits the *same shape*:
a diff between two runs must be a field-by-field comparison, never a
parser archaeology session.  This module pins that shape with a
dependency-free validator (the container has no ``jsonschema``), used by
the benchmark tests, the CI smoke job, and anyone diffing two documents.

Document layout (version ``repro.bench.cluster/1``)::

    {
      "schema": "repro.bench.cluster/1",
      "created_unix": 1754500000.0,        # wall clock at emission
      "config": { ... BenchConfig fields ... },
      "runs": [
        {
          "scenario": "multi-writer-gossip",
          "protocol": "srv",               # brv | crv | srv
          "n_sites": 8,
          "sessions": 24,
          "updates": 16,
          "updates_deferred": 0,
          "reconciliations": 3,
          "total_bits": 4242,              # == traffic.total_bits
          "traffic": {                     # TransferStats.summary()
            "forward_bits": ..., "backward_bits": ..., "total_bits": ...,
            "forward_messages": ..., "backward_messages": ...,
            "by_type": {"forward": {...}, "backward": {...}}
          },
          "bits_per_session": {"mean": ..., "p50": ..., "p90": ..., "max": ...},
          "sim_completion_seconds": 4.25,  # simulated clock at drain
          "wall_seconds": 0.08,            # measured host time
          "max_queue_wait_seconds": 0.01,
          "consistent": true,
          # Batched many-objects runs additionally carry (all optional,
          # validated when present):
          "n_objects": 32,                 # replicated objects per site
          "batch_size": 64,                # objects per framed session
          "wire_bits_per_object": 103.4,   # total_bits / synced objects
          # Chaos (faulted-channel) runs additionally carry:
          "loss_rate": 0.1,                # nominal fault rate in [0, 1]
          "chaos_seed": 11,                # fault-schedule seed
          "goodput_bits": 4000,            # first-transmission bits
          "retransmitted_bits": 242,       # == total_bits - goodput_bits
          "retries": 6,                    # data retransmissions
          "timeouts": 6,                   # expired ARQ timers
          "resumes": 0,                    # session re-handshakes
          "goodput_overhead_pct": 6.05,    # retransmitted/goodput * 100
          # Store-workload runs (the repro.store client scenario)
          # additionally carry the client-felt digest:
          "client": {
            "ops": 2000, "reads": 1802, "writes": 157, "deletes": 41,
            "read_repairs": 310, "sessions_abandoned": 0,
            # p999 is validated when present (newer cells carry it):
            "get_latency_seconds": {"p50": 0.01, "p90": ..., "p99": ...},
            "put_latency_seconds": {"p50": 0.01, "p90": ..., "p99": ...},
            "staleness_seconds":   {"p50": 0.08, "p90": ..., "p99": ...}
          },
          # Monitored store runs additionally embed the consistency
          # observatory digest, validated against its own schema
          # (repro.obs.consistency/1, src/repro/schemas/):
          "consistency": {
            "schema": "repro.obs.consistency/1",
            "w_k_seconds": {...}, "w_all_seconds": {...},
            "audit": {...}, "worst_keys": [...], ...
          },
          # Multi-region sharded runs (the E13 scenario) additionally
          # carry the fleet shape and shard accounting:
          "regions": 3,                    # regions in the TopologySpec
          "replication": 3,                # replicas per object
          "shard_groups": 61,              # distinct replica groups
          "shard_load": {"min": 24.0, "mean": 32.0, "max": 41.0},
          "skipped_sessions": 0,           # gossip pairs sharing no object
          # Analyzed runs (``--analyze``) additionally carry the causal
          # digest from ``repro.obs.causal``:
          "critical_path_seconds": 4.21,   # convergence critical path
          "critical_path_hops": 12,        # hops on that path
          "critical_path_attribution": {   # category → simulated seconds
            "latency": 0.04, "serialization": 0.002, ...
          },
          # Monitored runs (``--monitor``) additionally carry:
          "invariant_violations": 0,       # inline-checker failures
          "health": {                      # ClusterMonitor.health_summary()
            "samples": 18, "sites": 8, "invariant_violations": 0,
            "sessions_checked": 24, "final_scores": {"S000": 1.0, ...},
            "min_final_score": 1.0, "mean_final_score": 1.0
          }
        }, ...
      ]
    }

Validate from the command line::

    PYTHONPATH=src python -m repro.perf.schema BENCH_cluster.json
"""

from __future__ import annotations

import json
import numbers
import sys
from typing import Any, Dict, List

SCHEMA_ID = "repro.bench.cluster/1"

PROTOCOLS = ("brv", "crv", "srv")

#: Required numeric count fields of one run record (all ≥ 0).
_RUN_COUNTS = ("n_sites", "sessions", "updates", "updates_deferred",
               "reconciliations", "total_bits")
#: Required numeric duration fields of one run record (all ≥ 0).
_RUN_SECONDS = ("sim_completion_seconds", "wall_seconds",
                "max_queue_wait_seconds")
_TRAFFIC_FIELDS = ("forward_bits", "backward_bits", "total_bits",
                   "forward_messages", "backward_messages")
_BPS_FIELDS = ("mean", "p50", "p90", "max")


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_number(errors: List[str], where: str, record: Dict[str, Any],
                  name: str, *, integer: bool = False) -> None:
    value = record.get(name)
    if value is None:
        errors.append(f"{where}: missing field {name!r}")
    elif not _is_number(value) or (integer and not isinstance(value, int)):
        kind = "an integer" if integer else "a number"
        errors.append(f"{where}: field {name!r} must be {kind}, "
                      f"got {value!r}")
    elif value < 0:
        errors.append(f"{where}: field {name!r} must be >= 0, got {value!r}")


def _validate_consistency_block(errors: List[str], where: str,
                                digest: Any) -> None:
    """Validate an embedded consistency-observatory digest.

    Delegates to the digest's own schema
    (:func:`repro.obs.consistency.validate_consistency`) so the bench
    document and the standalone ``--consistency`` export can never
    drift apart; the returned paths are re-rooted under ``where``.
    """
    from repro.obs.consistency import validate_consistency
    if not isinstance(digest, dict):
        errors.append(f"{where}: 'consistency' must be an object, "
                      f"got {type(digest).__name__}")
        return
    for error in validate_consistency(digest):
        errors.append(f"{where}.consistency: {error}")


def _validate_run(errors: List[str], index: int,
                  run: Dict[str, Any]) -> None:
    where = f"runs[{index}]"
    if not isinstance(run, dict):
        errors.append(f"{where}: must be an object, got {type(run).__name__}")
        return
    if not isinstance(run.get("scenario"), str) or not run.get("scenario"):
        errors.append(f"{where}: missing or empty 'scenario'")
    if run.get("protocol") not in PROTOCOLS:
        errors.append(f"{where}: 'protocol' must be one of {PROTOCOLS}, "
                      f"got {run.get('protocol')!r}")
    for name in _RUN_COUNTS:
        _check_number(errors, where, run, name, integer=True)
    for name in _RUN_SECONDS:
        _check_number(errors, where, run, name)
    if isinstance(run.get("n_sites"), int) and run["n_sites"] < 1:
        errors.append(f"{where}: 'n_sites' must be >= 1")
    if not isinstance(run.get("consistent"), bool):
        errors.append(f"{where}: 'consistent' must be a boolean")
    traffic = run.get("traffic")
    if not isinstance(traffic, dict):
        errors.append(f"{where}: missing 'traffic' object")
    else:
        for name in _TRAFFIC_FIELDS:
            _check_number(errors, f"{where}.traffic", traffic, name,
                          integer=True)
        if isinstance(traffic.get("total_bits"), int) \
                and isinstance(run.get("total_bits"), int) \
                and traffic["total_bits"] != run["total_bits"]:
            errors.append(f"{where}: total_bits ({run['total_bits']}) "
                          f"disagrees with traffic.total_bits "
                          f"({traffic['total_bits']})")
        if not isinstance(traffic.get("by_type"), dict):
            errors.append(f"{where}.traffic: missing 'by_type' object")
    bits_per_session = run.get("bits_per_session")
    if not isinstance(bits_per_session, dict):
        errors.append(f"{where}: missing 'bits_per_session' object")
    else:
        for name in _BPS_FIELDS:
            _check_number(errors, f"{where}.bits_per_session",
                          bits_per_session, name)
    # Batched many-objects runs carry extra fields; optional, but when
    # present they must be well-formed.
    for name in ("n_objects", "batch_size"):
        if name in run:
            _check_number(errors, where, run, name, integer=True)
            if isinstance(run[name], int) and run[name] < 1:
                errors.append(f"{where}: {name!r} must be >= 1")
    if "wire_bits_per_object" in run:
        _check_number(errors, where, run, "wire_bits_per_object")
    # Chaos (faulted-channel) runs carry the reliability accounting;
    # optional, but when present they must be well-formed and the
    # goodput identity must hold exactly.
    for name in ("chaos_seed", "goodput_bits", "retransmitted_bits",
                 "retries", "timeouts", "resumes"):
        if name in run:
            _check_number(errors, where, run, name, integer=True)
    if "loss_rate" in run:
        _check_number(errors, where, run, "loss_rate")
        if _is_number(run["loss_rate"]) and run["loss_rate"] > 1:
            errors.append(f"{where}: 'loss_rate' must be <= 1, "
                          f"got {run['loss_rate']!r}")
    if "goodput_overhead_pct" in run:
        _check_number(errors, where, run, "goodput_overhead_pct")
    # Multi-region sharded runs carry the fleet shape and shard
    # accounting; optional, but when present they must be well-formed.
    for name in ("regions", "replication", "shard_groups",
                 "skipped_sessions"):
        if name in run:
            _check_number(errors, where, run, name, integer=True)
    if "shard_load" in run:
        load = run["shard_load"]
        if not isinstance(load, dict):
            errors.append(f"{where}: 'shard_load' must be an object, "
                          f"got {type(load).__name__}")
        else:
            for name in ("min", "mean", "max"):
                _check_number(errors, f"{where}.shard_load", load, name)
    # Store-workload runs carry the client-felt digest; optional, but
    # when present the counts and percentile maps must be well-formed
    # and the op mix must add up.
    if "client" in run:
        client = run["client"]
        if not isinstance(client, dict):
            errors.append(f"{where}: 'client' must be an object, "
                          f"got {type(client).__name__}")
        else:
            for name in ("ops", "reads", "writes", "deletes",
                         "read_repairs", "sessions_abandoned"):
                _check_number(errors, f"{where}.client", client, name,
                              integer=True)
            if all(isinstance(client.get(name), int)
                   for name in ("ops", "reads", "writes", "deletes")) \
                    and client["reads"] + client["writes"] \
                    + client["deletes"] != client["ops"]:
                errors.append(
                    f"{where}.client: reads ({client['reads']}) + writes "
                    f"({client['writes']}) + deletes ({client['deletes']}) "
                    f"must equal ops ({client['ops']})")
            for name in ("get_latency_seconds", "put_latency_seconds",
                         "staleness_seconds"):
                summary = client.get(name)
                if not isinstance(summary, dict):
                    errors.append(f"{where}.client: missing {name!r} object")
                    continue
                for percentile in ("p50", "p90", "p99"):
                    _check_number(errors, f"{where}.client.{name}",
                                  summary, percentile)
                # The tail percentile is newer than the committed
                # baselines: validated when present, never required.
                if "p999" in summary:
                    _check_number(errors, f"{where}.client.{name}",
                                  summary, "p999")
    # Monitored store runs carry the consistency-observatory digest
    # (``repro.obs.consistency``); optional, but when present the
    # visibility summaries and audit counts must be well-formed.
    if "consistency" in run:
        _validate_consistency_block(errors, where, run["consistency"])
    # Analyzed runs (``--analyze``) carry the causal digest; optional,
    # but when present the attribution must be a category→seconds map.
    if "critical_path_seconds" in run:
        _check_number(errors, where, run, "critical_path_seconds")
    if "critical_path_hops" in run:
        _check_number(errors, where, run, "critical_path_hops",
                      integer=True)
    if "critical_path_attribution" in run:
        attribution = run["critical_path_attribution"]
        if not isinstance(attribution, dict):
            errors.append(f"{where}: 'critical_path_attribution' must be "
                          f"an object, got {type(attribution).__name__}")
        else:
            for name, value in attribution.items():
                if not _is_number(value) or value < 0:
                    errors.append(
                        f"{where}.critical_path_attribution: field "
                        f"{name!r} must be a number >= 0, got {value!r}")
    # Monitored runs carry the live-health digest; optional, but when
    # present the count must be sane and the summary well-formed.
    if "invariant_violations" in run:
        _check_number(errors, where, run, "invariant_violations",
                      integer=True)
    if "health" in run:
        health = run["health"]
        if not isinstance(health, dict):
            errors.append(f"{where}: 'health' must be an object, "
                          f"got {type(health).__name__}")
        else:
            for name in ("samples", "sites", "invariant_violations",
                         "sessions_checked"):
                _check_number(errors, f"{where}.health", health, name,
                              integer=True)
            for name in ("min_final_score", "mean_final_score"):
                _check_number(errors, f"{where}.health", health, name)
            if not isinstance(health.get("final_scores"), dict):
                errors.append(f"{where}.health: missing 'final_scores' "
                              f"object")
            # Multi-region monitors roll scores up per region and, when
            # sharded, report the shard-load spread; optional, but when
            # present each rollup must be well-formed.
            if "per_region" in health:
                per_region = health["per_region"]
                if not isinstance(per_region, dict):
                    errors.append(f"{where}.health: 'per_region' must be "
                                  f"an object, "
                                  f"got {type(per_region).__name__}")
                else:
                    for region, stats in per_region.items():
                        region_where = f"{where}.health.per_region" \
                                       f"[{region!r}]"
                        if not isinstance(stats, dict):
                            errors.append(f"{region_where}: must be an "
                                          f"object, "
                                          f"got {type(stats).__name__}")
                            continue
                        _check_number(errors, region_where, stats, "sites",
                                      integer=True)
                        for name in ("min_final_score",
                                     "mean_final_score"):
                            _check_number(errors, region_where, stats,
                                          name)
            if "shards" in health:
                shard_info = health["shards"]
                if not isinstance(shard_info, dict):
                    errors.append(f"{where}.health: 'shards' must be an "
                                  f"object, "
                                  f"got {type(shard_info).__name__}")
                else:
                    for name in ("groups", "objects"):
                        _check_number(errors, f"{where}.health.shards",
                                      shard_info, name, integer=True)
                    if not isinstance(shard_info.get("load"), dict):
                        errors.append(f"{where}.health.shards: missing "
                                      f"'load' object")
            if ("invariant_violations" in run
                    and isinstance(run["invariant_violations"], int)
                    and isinstance(health.get("invariant_violations"), int)
                    and run["invariant_violations"]
                    != health["invariant_violations"]):
                errors.append(
                    f"{where}: invariant_violations "
                    f"({run['invariant_violations']}) disagrees with "
                    f"health.invariant_violations "
                    f"({health['invariant_violations']})")
    if (isinstance(run.get("goodput_bits"), int)
            and isinstance(run.get("retransmitted_bits"), int)
            and isinstance(run.get("total_bits"), int)
            and run["goodput_bits"] + run["retransmitted_bits"]
            != run["total_bits"]):
        errors.append(
            f"{where}: goodput_bits ({run['goodput_bits']}) + "
            f"retransmitted_bits ({run['retransmitted_bits']}) must equal "
            f"total_bits ({run['total_bits']})")


def validate_bench(doc: Any) -> List[str]:
    """All schema violations in ``doc`` (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_ID:
        errors.append(f"'schema' must be {SCHEMA_ID!r}, "
                      f"got {doc.get('schema')!r}")
    if not _is_number(doc.get("created_unix")) or doc.get("created_unix") < 0:
        errors.append("'created_unix' must be a non-negative number")
    if not isinstance(doc.get("config"), dict):
        errors.append("'config' must be an object")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("'runs' must be a non-empty array")
    else:
        for index, run in enumerate(runs):
            _validate_run(errors, index, run)
    return errors


def validate_file(path: str) -> List[str]:
    """Validate a JSON document on disk; parse errors are violations too."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"cannot read {path}: {error}"]
    return validate_bench(doc)


def main(argv: List[str] | None = None) -> int:
    """``python -m repro.perf.schema FILE [FILE...]`` — exit 1 on errors."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.perf.schema BENCH_cluster.json [...]")
        return 2
    status = 0
    for path in paths:
        errors = validate_file(path)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: ok ({SCHEMA_ID})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
