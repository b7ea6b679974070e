"""``python -m repro store`` — the replicated-store workload CLI.

Runs one seeded client workload (:mod:`repro.workload.clients`) against
a store fleet and prints a deterministic report: op mix, session and
read-repair counts, wire totals, client-felt latency and staleness
percentiles, and the converged per-key state digest.  Every printed
quantity is a pure function of the flags — no wall-clock numbers — so
two runs of the same seed are byte-identical, which the CI smoke job
checks by diffing them.

``--monitor`` attaches the consistency observatory
(:mod:`repro.obs.consistency`): the report gains w_k/w_all visibility
percentiles, per-site replication-lag gauges, and the session-guarantee
audit summary, and the export flags write the gauge families out through
the standard exporters (``--prom``/``--otlp``/``--html``) plus the
schema-validated digest itself (``--consistency``).  ``--trace`` runs
the fleet with a full tracer and writes every event as JSONL; without
it the monitor's private tracer keeps only what the exports read.

Usage::

    python -m repro store --demo
    python -m repro store --demo --monitor --prom store.prom
    python -m repro store --sites 16 --ops 100000 --seed 7
    python -m repro store --loss 0.1 --seed 3      # chaos faults on

Exits 0 iff the fleet converged (identical per-key sibling sets and
vectors on every site after the final sweep), 1 otherwise — or on a
``--strict-consistency`` abort.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import List, Optional

from repro.cliargs import checked, parse_args
from repro.errors import InvariantViolationError, ReproError
from repro.workload.clients import StoreWorkloadConfig, run_store_workload


def _format_summary(summary: dict) -> str:
    return (f"p50 {summary['p50'] * 1000:.3f} ms / "
            f"p90 {summary['p90'] * 1000:.3f} ms / "
            f"p99 {summary['p99'] * 1000:.3f} ms / "
            f"p999 {summary['p999'] * 1000:.3f} ms")


def format_consistency_report(digest: dict) -> str:
    """The observatory section of the store report (digest-driven)."""
    audit = digest["audit"]
    lag = digest["replication_lag_seconds"]
    laggards = [site for site, value in lag.items() if value > 0]
    lines = [
        f"  consistency observatory "
        f"(k={digest['visibility_k']}, {digest['samples']} samples):",
        f"    w_k visibility:   "
        f"{_format_summary(digest['w_k_seconds'])}",
        f"    w_all visibility: "
        f"{_format_summary(digest['w_all_seconds'])}",
        f"    writes: {digest['writes_tracked']} tracked / "
        f"{digest['writes_visible_all']} fully visible / "
        f"{digest['writes_pending']} pending",
        f"    replication lag: max "
        f"{digest['max_replication_lag_seconds'] * 1000:.3f} ms"
        + (f" ({len(laggards)} sites behind)" if laggards
           else " (all sites current)"),
        f"    session audit: {audit['ops_audited']} ops, "
        f"{audit['violations']} violations "
        f"(ryw {audit['read_your_writes']} / "
        f"monotonic {audit['monotonic_reads']} / "
        f"resurrection {audit['resurrections']}), "
        f"{audit['clients_affected']} clients affected",
    ]
    worst = [entry for entry in digest["worst_keys"]
             if entry["violations"] or entry["max_siblings"] > 1]
    if worst:
        ranked = ", ".join(
            f"{entry['key']} ({entry['violations']} violations, "
            f"{entry['max_siblings']} siblings)" for entry in worst)
        lines.append(f"    worst keys: {ranked}")
    return "\n".join(lines)


def format_store_report(result) -> str:
    """The deterministic report for one finished workload run."""
    config = result.config
    store = result.store
    digest = result.digest()
    sets = store.sibling_sets()
    sizes = sorted(len(value) for value in sets.values()) or [0]
    lines = [
        f"store workload: {config.n_sites} sites × {config.n_keys} keys, "
        f"{config.n_clients} clients, {result.ops} ops, "
        f"protocol {config.protocol}, seed {config.seed}"
        + (f", loss {config.loss_rate:g}" if config.loss_rate else ""),
        f"  ops: {result.reads} reads / {result.writes} writes / "
        f"{result.deletes} deletes ({store.ops_deferred} deferred behind "
        f"busy sites)",
        f"  sessions: {store.sessions} "
        f"({store.sessions_abandoned} abandoned), "
        f"{store.read_repairs} read repairs, "
        f"{store.reconciliations} reconciliations",
        f"  wire: {store.total_bits} bits; "
        f"sim completion {store.completion_time:.3f} s",
        f"  get latency: {_format_summary(result.latency_summary('get'))}",
        f"  put latency: {_format_summary(result.latency_summary('put'))}",
        f"  staleness:   {_format_summary(result.staleness_summary())}",
        f"  siblings per key: min {sizes[0]} / "
        f"mean {sum(sizes) / len(sizes):.2f} / max {sizes[-1]}",
        f"  state sha256: {digest['state_sha256']}",
        f"  converged: {result.converged}",
    ]
    if result.consistency is not None:
        lines.append(format_consistency_report(result.consistency))
    return "\n".join(lines)


#: ``--demo`` preset: an 8-site fleet sized to finish in a few seconds.
DEMO_CONFIG = StoreWorkloadConfig(n_sites=8, n_keys=32, n_clients=64,
                                  ops=20_000, op_interval=0.0005, seed=0)


#: ``(flag, StoreWorkloadConfig field, type, help)``: each flag overrides
#: one field of the base config (the library defaults, or ``--demo``).
_WORKLOAD_FLAGS = (("--sites", "n_sites", int, "store sites"),
                   ("--keys", "n_keys", int, "keys"),
                   ("--clients", "n_clients", int, "clients"),
                   ("--ops", "ops", int, "client operations"),
                   ("--read-ratio", "read_ratio", float, "read fraction"),
                   ("--zipf", "zipf", float, "key-popularity skew"),
                   ("--loss", "loss_rate", float, "nominal chaos loss rate"),
                   ("--protocol", "protocol", str, "brv, crv or srv"),
                   ("--seed", "seed", int, "workload seed"))

#: ``(flag, help)``: each writes one file.
_EXPORT_FLAGS = (("--prom", "Prometheus text-format dump"),
                 ("--otlp", "OTLP-style JSON export (schema-validated)"),
                 ("--html", "self-contained HTML report"),
                 ("--consistency", "consistency digest as JSON"),
                 ("--trace", "full trace as JSONL"))


def _store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Run one seeded client workload against a replicated "
                    "store fleet and print a deterministic report.  Exits "
                    "0 iff the fleet converged.")
    parser.add_argument("--demo", action="store_true",
                        help="start from the 8-site, 20k-op demo preset")
    for flag, name, kind, text in _WORKLOAD_FLAGS:
        parser.add_argument(flag, dest=name, type=kind, help=text,
                            metavar={int: "N", float: "F"}.get(kind, "P"))
    observe = parser.add_argument_group(
        "observatory", "every flag below implies --monitor")
    observe.add_argument("--monitor", action="store_true",
                         help="attach the consistency observatory")
    observe.add_argument("--strict-consistency", action="store_true",
                         help="exit 1 on the first guarantee violation")
    observe.add_argument("--visibility-k", metavar="N",
                         type=checked(int, lambda k: k >= 1, ">= 1"),
                         help="replicas a write must reach for w_k")
    for flag, text in _EXPORT_FLAGS:
        observe.add_argument(flag, metavar="PATH", help=f"write the {text}")
    return parser


def store_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro store [--demo] [--monitor] [--sites N] ...``.

    Exit codes: 0 — converged; 1 — diverged, a ``--strict-consistency``
    abort, or an export failing validation; 2 — bad argument.
    """
    args = parse_args(_store_parser(), argv)
    if isinstance(args, int):
        return args
    monitor = None
    if (args.monitor or args.strict_consistency
            or args.visibility_k is not None
            or any(getattr(args, flag[2:]) is not None
                   for flag, _ in _EXPORT_FLAGS)):
        from repro.obs.consistency import (ConsistencyConfig,
                                           ConsistencyMonitor)
        observatory = ConsistencyConfig(strict=args.strict_consistency)
        if args.visibility_k is not None:
            observatory = replace(observatory, visibility_k=args.visibility_k)
        monitor = ConsistencyMonitor(observatory)
    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer
        tracer = Tracer()

    base = DEMO_CONFIG if args.demo else StoreWorkloadConfig()
    overrides = {name: getattr(args, name)
                 for _, name, _, _ in _WORKLOAD_FLAGS
                 if getattr(args, name) is not None}
    try:
        config = replace(base, **overrides)
        result = run_store_workload(config, monitor=monitor, tracer=tracer)
    except InvariantViolationError as error:
        print(f"ABORTED: {error}")
        return 1
    except ReproError as error:
        print(f"store workload failed: {error}")
        return 2
    print(format_store_report(result))
    if monitor is not None and not _write_exports(
            result, monitor, args,
            tracer if tracer is not None else monitor.tracer):
        return 1
    return 0 if result.converged else 1


def _write_exports(result, monitor, args: argparse.Namespace,
                   tracer) -> bool:
    """Write the requested export files from the run's ``tracer``;
    False on a validation failure."""
    from repro.obs.dashboard import render_consistency_html_report
    from repro.obs.exporters import report_invalid, write_exports
    label = f"store:{result.config.protocol}"
    if not write_exports(
            tracer=tracer, metrics=result.metrics,
            consistency=monitor, prom=args.prom, otlp=args.otlp,
            html=args.html,
            render_html=lambda: render_consistency_html_report(
                {label: monitor}),
            service_name="repro-store"):
        return False
    if args.consistency is not None:
        from repro.obs.consistency import validate_consistency
        digest = result.consistency
        if report_invalid("consistency digest",
                          validate_consistency(digest)):
            return False
        with open(args.consistency, "w", encoding="utf-8") as handle:
            json.dump(digest, handle, indent=2, sort_keys=True)
        print(f"wrote consistency digest to {args.consistency}")
    if args.trace is not None:
        from repro.obs.export import write_jsonl
        count = write_jsonl(tracer.events, args.trace)
        print(f"wrote {count} trace events to {args.trace} "
              f"(render with: python -m repro trace {args.trace} "
              f"--filter put,get,delete,read_repair,consistency_violation)")
    return True


if __name__ == "__main__":
    raise SystemExit(store_main())
