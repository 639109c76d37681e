"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark produces, then runs every named workload (default: all) traced
twice and requires both runs to pass the output check and to give
identical computed counts (layers.EXACT_COUNTS and the report size).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import layers
import run


def check_spec(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] \
            != [(n, u) for n, u, _ in layers.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from "
                        "layers.PER_LAYER")
    if [m["name"] for m in spec["end_to_end"]] \
            != ["cpu_norm_s", "setup_s", "peak_rss_mb"]:
        problems.append("BENCHMARK.json end_to_end differs from the "
                        "untraced metrics")
    return problems


def check_counts(root: Path, name: str) -> list:
    wl = run.WORKLOADS[name]
    work = root / ".perfbench" / "selftest" / name
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 600.0
    reps = [run.run_rep(wl, "current", root / "src", work,
                        wl.config_seed(0, False), "trace", deadline,
                        tag=f"-{i}") for i in range(2)]
    problems = [f"{name}: {p}" for r in reps for p in r.problems]
    if problems or any(r.trace is None for r in reps):
        return problems or [f"{name}: no spans recorded"]
    first, second = (layers.layer_metrics(r.trace["spans"]) for r in reps)
    for key in layers.EXACT_COUNTS:
        if first.get(key) != second.get(key):
            problems.append(f"{name}: {key} {first.get(key)} != "
                            f"{second.get(key)}")
    if reps[0].report_bytes != reps[1].report_bytes:
        problems.append(f"{name}: report size differs between runs")
    counted = sum(1 for key in layers.EXACT_COUNTS if first.get(key))
    print(f"{name}: {counted} nonzero counts repeat exactly")
    return problems


def main(argv) -> int:
    root = Path.cwd()
    problems = check_spec(root)
    for name in argv or sorted(run.WORKLOADS):
        problems += check_counts(root, name)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
