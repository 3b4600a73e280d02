#!/usr/bin/env python3
"""Check that the newest ledger file's two runs agree on their counts.

Usage: python3 scripts/ledger_check.py [REPO_ROOT]

A ledger file, BENCH_<n>.json at the repository root, holds one dsmbench
table for a commit's parent and one for the commit itself. The machine
model, the compiler and the daemon's program cache are deterministic, so
on every workload both tables must carry the same:

  * every `machine.*` metric BENCHMARK.json declares with unit `count`,
    and `machine.sim_cycles`;
  * `dsmd.cache.hits` and `dsmd.cache.misses`;
  * `compile.clones` and `compile.ir_lines`.

`dsmd.pool.*` and `dsmd.queue.peak` are left out: they depend on thread
timing. Prints every disagreement and exits 1 if there is any, else 0.
Standard library only.
"""

import json
import re
import sys
from pathlib import Path

FIXED = [
    "machine.sim_cycles",
    "dsmd.cache.hits",
    "dsmd.cache.misses",
    "compile.clones",
    "compile.ir_lines",
]


def newest_ledger(root):
    numbered = []
    for path in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            numbered.append((int(m.group(1)), path))
    if not numbered:
        sys.exit(f"ledger_check: no BENCH_<n>.json in {root}")
    return max(numbered)[1]


def checked_metrics(root):
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    counts = [
        m["name"]
        for m in declared
        if m["name"].startswith("machine.") and m["unit"] == "count"
    ]
    return counts + [name for name in FIXED if name not in counts]


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    ledger_path = newest_ledger(root)
    ledger = json.loads(ledger_path.read_text())
    metrics = checked_metrics(root)
    parent = ledger["parent"]["table"]["workloads"]
    change = ledger["change"]["table"]["workloads"]
    problems = []
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            problems.append(f"{workload}: present on one side only")
            continue
        before = parent[workload]["per_layer"]
        after = change[workload]["per_layer"]
        for name in metrics:
            if before.get(name) != after.get(name):
                problems.append(
                    f"{workload} {name}: parent {before.get(name)} change {after.get(name)}"
                )
    for line in problems:
        print(f"ledger_check: {ledger_path.name}: {line}")
    if problems:
        return 1
    print(
        f"ledger_check: {ledger_path.name}: {len(metrics)} counts agree "
        f"on {len(parent)} workloads"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
