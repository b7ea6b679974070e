"""Run every perfbench workload, untraced and traced, and gate the set.

Usage, from the root of a checkout::

    python3 perfbench/run_all.py [--seconds 30] [--size bench]

For each workload this runs ``perfbench/run.py`` twice with seed 0, in
its own process and one at a time: ``--trace 0`` for the end-to-end
metrics, then ``--trace 1`` for the per-layer split.  Each run's lines,
every metric by name with its unit, pass through to standard output.
The result set, with a host fingerprint (Python version, ``nproc``, CPU
model), is written to ``perfbench/out/results.json``.

Exits 1 if any run fails a correctness gate, if any run's repetitions
disagree on their simulated outputs, or if the traced run's simulated
outputs differ from the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from run import host_fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("store-demo", "fleet-ring", "fleet-multiregion")
#: Every run of the set uses this seed.
SEED = 0
#: A run gets this long beyond its measured seconds before it is killed.
RUN_TIMEOUT_S = 300


def run_one(workload: str, seconds: float, trace: int,
            size: str) -> Dict[str, Any]:
    """One ``run.py`` process; returns its result and fingerprint line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds),
               "--trace", str(trace), "--size", size]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=seconds + RUN_TIMEOUT_S)
    lines = completed.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stderr)
        return {"correct": False, "error": f"exit {completed.returncode}"}
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split(":", 1)[1].strip() for line in lines
         if line.startswith("fingerprint:")), "")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--size", default="bench",
                        choices=("bench", "small"))
    parser.add_argument("--out", default=str(HERE / "out" / "results.json"))
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            seconds = json.load(handle)["run_seconds"]

    results: Dict[str, Any] = {}
    problems: List[str] = []
    for workload in WORKLOADS:
        untraced = run_one(workload, seconds, 0, args.size)
        traced = run_one(workload, seconds, 1, args.size)
        for label, result in (("untraced", untraced), ("traced", traced)):
            if not result.get("correct"):
                problems.append(f"{workload} {label}: a gate failed "
                                f"({result.get('error', 'see above')})")
        if untraced.get("fingerprint") != traced.get("fingerprint"):
            problems.append(f"{workload}: traced simulated outputs differ "
                            f"from untraced")
        results[workload] = {"untraced": untraced, "traced": traced}

    document = {"host": host_fingerprint(), "seed": SEED,
                "seconds": seconds, "size": args.size, "workloads": results}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    print(f"\nhost: {json.dumps(document['host'], sort_keys=True)}")
    for workload, pair in results.items():
        print(f"{workload}:")
        for mode in ("untraced", "traced"):
            for name, metric in pair[mode].get("metrics", {}).items():
                print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(f"wrote {out}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
