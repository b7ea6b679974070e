"""Run one perfbench workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload store-demo --seed 0 --seconds 20 \\
        --trace 0

The workload repeats with the same seeded inputs until ``--seconds`` have
passed, checking every repetition's result and that every repetition
repeats the same simulated outputs.  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the run first repeats untraced for
a third of the time, then traced through the outside-in layer profiler
(``tracing.py``), and the JSON carries the per-layer metrics.  Earlier
lines print every metric by name with its unit, the store's client-felt
figures, the host and the simulated-output fingerprint.

The program is imported from ``src/`` of the checkout this file sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Share of ``--seconds`` a traced run spends on its untraced baseline.
UNTRACED_SHARE = 1 / 3


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import repro."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, Any]:
    """Python version, usable CPUs, machine and CPU model."""
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "cpu_model": cpu_model()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(workload: Any, mark: Any, seconds: float,
           profiler: Any = None) -> List[Any]:
    """Repeat ``workload`` until ``seconds`` pass (at least once)."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        # Every repetition starts from a collected heap, so one
        # repetition's garbage is not collected on the next one's clock.
        gc.collect()
        if profiler is None:
            outcomes.append(workload.execute(mark))
        else:
            outcomes.append(traced_execute(workload, mark, profiler))
    return outcomes


def traced_execute(workload: Any, mark: Any, profiler: Any) -> Any:
    """One repetition under the layer profiler; figures land on it."""
    profiler.reset()
    profiler.install(workload.schedule_builders())
    try:
        outcome = workload.execute(mark, around=profiler.root)
    finally:
        profiler.uninstall()
    sessions = max(outcome.sessions, 1)
    self_s = profiler.self_s
    calls = profiler.calls
    outcome.traced = {
        "wall_s": outcome.wall_s,
        "workload.self_s": self_s["workload"],
        "net.topology.self_s": self_s["net.topology"],
        "net.runner.launch_self_s": self_s["net.runner"],
        "net.runner.launch_us_per_session":
            self_s["net.runner"] / sessions * 1e6,
        "protocols.build_self_s": self_s["protocols.build"],
        "protocols.step_self_s": self_s["protocols.step"],
        "protocols.steps_per_session": calls["protocols.step"] / sessions,
        "core.self_s": self_s["core"],
        "core.copies_per_session": calls["core.copy"] / sessions,
        "core.compares_per_session": calls["core.compare"] / sessions,
        "net.simulator.self_s": self_s["net.simulator"],
        "net.simulator.events_per_session":
            sum(profiler.sim_events.values()) / sessions,
        "net.stats.objects_built": calls["net.stats.objects_built"],
        "net.stats.merges": calls["net.stats.merges"],
        "store.self_s": self_s["store"],
        "store.merge_siblings_calls": calls["store.merge_siblings"],
        "obs.self_s": self_s["obs"],
        "obs.calls": sum(count for key, count in calls.items()
                         if key.startswith("obs.")),
        "obs.trace_events": calls["obs.trace_event"],
        "runtime.gc_pause_s": profiler.gc_pause_s,
        "runtime.gc_gen2_collections": profiler.gc_collections[2],
        "unattributed_s": self_s["unattributed"],
    }
    return outcome


def median_of(outcomes: List[Any], value) -> float:
    return statistics.median(value(outcome) for outcome in outcomes)


def end_to_end(outcomes: List[Any]) -> Dict[str, float]:
    """Every end-to-end figure, from the untraced repetitions."""
    first = outcomes[0]
    return {
        "setup_s": median_of(outcomes, lambda o: o.setup_s),
        "run_wall_s": median_of(outcomes, lambda o: o.run_s),
        "ops_per_s": median_of(outcomes, lambda o: o.ops / o.run_s),
        "sessions_per_s": median_of(outcomes,
                                    lambda o: o.sessions / o.run_s),
        "peak_rss_mb": peak_rss_mb(),
        "bits_per_session": first.bits / max(first.sessions, 1),
    }


def per_layer(untraced: List[Any], traced: List[Any]) -> Dict[str, float]:
    """Every per-layer figure: profiler medians plus result figures."""
    names = traced[0].traced.keys() - {"wall_s"}
    figures = {name: median_of(traced, lambda o, n=name: o.traced[n])
               for name in names}
    figures["tracing_overhead_s"] = (
        median_of(traced, lambda o: o.traced["wall_s"])
        - median_of(untraced, lambda o: o.wall_s))
    figures.update(traced[0].layer)
    found = simulated(traced[0])
    for name in SIMULATED_FIGURES:
        figures[name] = found.get(name, 0.0)
    return figures


def simulated(outcome: Any) -> Dict[str, float]:
    """The simulated figures one repetition has (store ones only there)."""
    return {"sim_converge_s": outcome.sim_s, **outcome.client}


#: Simulated figures, identical on every repetition of one seed, which
#: the traced run reports with the per-layer split, each with the name of
#: its sample count where it has one.
SIMULATED_FIGURES = {
    "sim_converge_s": None,
    "store.get_p50_ms": "store.get_samples",
    "store.get_p99_ms": "store.get_samples",
    "store.put_p99_ms": "store.put_samples",
    "store.staleness_p99_ms": "store.get_samples",
    "store.get_samples": None,
    "store.put_samples": None,
    "store.audit_violation_rate": None,
}


def fingerprint(outcomes: List[Any]) -> Tuple[str, List[str]]:
    """The sha256 of the simulated outputs, and any mismatch found."""
    digests = [hashlib.sha256(json.dumps(o.fingerprint, sort_keys=True,
                                         default=str).encode()).hexdigest()
               for o in outcomes if o.ok]
    mismatches = []
    if len(set(digests)) > 1:
        mismatches.append(f"simulated outputs differ across repetitions: "
                          f"{sorted(set(digests))}")
    return (digests[0] if digests else ""), mismatches


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report(values: Dict[str, float], declared: List[Dict[str, Any]]
           ) -> Dict[str, Dict[str, Any]]:
    """The declared metrics with their units; every one must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench",
                        choices=("bench", "small"),
                        help="input size: bench (measured) or small "
                             "(smoke tests)")
    args = parser.parse_args(argv)

    try:
        import_program()
        spec = load_spec()
    except (ImportError, OSError, ValueError) as error:
        print(f"perfbench: cannot start: {error}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    mark = tracing.RunMark()
    mark.install()
    try:
        if args.trace:
            untraced = repeat(workload, mark,
                              args.seconds * UNTRACED_SHARE)
            traced = repeat(workload, mark,
                            args.seconds * (1 - UNTRACED_SHARE),
                            profiler=tracing.LayerProfiler())
        else:
            untraced, traced = repeat(workload, mark, args.seconds), []
    finally:
        mark.uninstall()

    outcomes = untraced + traced
    failures = [f for o in outcomes for f in o.gate_failures]
    digest, mismatches = fingerprint(outcomes)
    failures += mismatches
    correct = not failures
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    good = [o for o in untraced if o.ok]
    lines = [f"perfbench {workload.name} seed={args.seed} size={args.size} "
             f"trace={args.trace}: {len(untraced)} untraced + "
             f"{len(traced)} traced repetitions",
             f"host: {json.dumps(host_fingerprint(), sort_keys=True)}",
             f"fingerprint: {digest}",
             "run_s per untraced repetition: "
             + " ".join(f"{o.run_s:.4f}" for o in untraced)]
    lines += [f"gate failed: {failure}" for failure in failures]
    metrics: Dict[str, Dict[str, Any]] = {}
    if good and (not args.trace or all(o.ok for o in traced)):
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        e2e = end_to_end(good)
        lines += [f"{name} = {value!r} {units[name]}"
                  for name, value in e2e.items()]
        found = simulated(good[0])
        for name, samples in SIMULATED_FIGURES.items():
            if name in found:
                suffix = f" (n={found[samples]})" if samples else ""
                lines.append(f"{name} = {found[name]!r} {units[name]}"
                             f"{suffix}")
        lines.append(f"error_rate = {failed / max(attempted, 1)!r} ratio "
                     f"({failed} failed of {attempted} attempted)")
        if args.trace:
            figures = per_layer(good, traced)
            lines += [f"{name} = {figures[name]!r} {units[name]}"
                      for name in sorted(figures)]
            metrics = report(figures, spec["per_layer"])
        else:
            metrics = report(e2e, spec["end_to_end"])
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
