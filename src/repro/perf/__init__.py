"""Performance harness: cluster-scale benchmark regression.

* :mod:`repro.perf.bench` — runs the paper's workload scenarios on the
  :class:`~repro.net.cluster.ClusterRunner` at several fleet sizes and
  emits a machine-readable ``BENCH_cluster.json`` document.
* :mod:`repro.perf.schema` — validates the document against its
  checked-in JSON schema plus the cross-field identities (also runnable:
  ``python -m repro.perf.schema FILE``).

The CLI entry point is ``python -m repro bench`` (or ``repro bench`` for
an installed distribution).
"""

from repro.perf.bench import (BenchConfig, bench_main, format_bench_table,
                              run_cluster_bench, write_bench)
from repro.perf.schema import SCHEMA_ID, validate_bench, validate_file

__all__ = [
    "BenchConfig",
    "SCHEMA_ID",
    "bench_main",
    "format_bench_table",
    "run_cluster_bench",
    "validate_bench",
    "validate_file",
    "write_bench",
]
