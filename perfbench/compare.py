#!/usr/bin/env python3
"""Compare two sets of benchmark result files: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each side is a directory (or a list of files, comma-separated) of result
files written by ``run.py``.  Runs are paired by workload and seed; make
the pairs by alternating which commit runs first.  One row is printed
per workload and metric, with each side's median and quartiles, the
pairs the change won out of the pairs run, and a verdict:

* ``improved``: the change wins at least 9/10 of the pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
* ``regressed``: the parent's own spread is within the metric's bound in
  ``BENCHMARK.json`` and the change's median is worse than the parent's
  by more than that bound, however many pairs it lost; or, where the
  spread is wider (or the metric has no bound), the change loses at
  least 9/10 of the pairs, its median is worse by more than the parent's
  interquartile range and by more than the bound;
* ``within bound``: the parent's spread is within the bound and the
  change's median is no worse than the parent's by more than it;
* ``unresolved``: anything else (the spread is too wide to tell).

Per-layer counts are deterministic, so they are compared exactly, seed
by seed, and reported as counts.  Per-layer times have no bound and get
only the improved/regressed/unresolved rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import common

WIN_SHARE = 0.9


def load_results(spec: str) -> List[dict]:
    paths: List[Path] = []
    for part in spec.split(","):
        path = Path(part)
        paths.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    records = []
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if "workload" in record and "metrics" in record:
            record["_file"] = str(path)
            records.append(record)
    return records


def by_workload(records: List[dict], traced: bool) -> Dict[str, Dict[int, list]]:
    """workload -> seed -> records, for the traced or untraced files."""
    grouped: Dict[str, Dict[int, list]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        if record["traced"] == traced and record["metrics"]:
            grouped[record["workload"]][record["seed"]].append(record)
    return grouped


def values_of(runs: Dict[int, list], name: str) -> Dict[int, List[float]]:
    return {
        seed: [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        for seed, records in runs.items()
    }


def verdict(parent: List[float], change: List[float], pairs: List[tuple],
            lower_is_better: bool, bound: Optional[float]) -> tuple:
    """(wins, verdict) for one workload and metric."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = common.quartiles(parent)
    _, c_med, _ = common.quartiles(change)
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return wins, "improved"
    limit = None if bound is None else bound * abs(p_med)
    if limit is not None and spread <= limit:
        return wins, "regressed" if -gain > limit else "within bound"
    if (pairs and losses >= WIN_SHARE * len(pairs) and -gain > spread
            and (limit is None or -gain > limit)):
        return wins, "regressed"
    return wins, "unresolved"


def _fmt(values: List[float]) -> str:
    q1, med, q3 = common.quartiles(values)
    return f"{med:10.5g} [{q1:.5g}, {q3:.5g}]"


def paired(parent: Dict[int, List[float]], change: Dict[int, List[float]]) -> List[tuple]:
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        pairs.extend(zip(parent[seed], change[seed]))
    return pairs


def flat(values: Dict[int, List[float]]) -> List[float]:
    return [value for seed in sorted(values) for value in values[seed]]


def compare_timings(parent_runs, change_runs, metrics: List[dict], out) -> None:
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for metric in metrics:
            name = metric["name"]
            p_values = values_of(parent_runs[workload], name)
            c_values = values_of(change_runs[workload], name)
            parent, change = flat(p_values), flat(c_values)
            if not parent or not change:
                continue
            pairs = paired(p_values, c_values)
            wins, result = verdict(parent, change, pairs,
                                   metric.get("better", "lower") == "lower",
                                   metric.get("bound"))
            print(f"{workload:22s} {name:30s} {_fmt(parent)}  {_fmt(change)}  "
                  f"{wins:3d}/{len(pairs):<3d} {result}", file=out)


def compare_counts(parent_runs, change_runs, names: List[str], out) -> None:
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name in names:
            p_values = values_of(parent_runs[workload], name)
            c_values = values_of(change_runs[workload], name)
            seeds = sorted(set(p_values) & set(c_values))
            if not seeds:
                continue
            diffs = [
                (seed, p_values[seed][0], c_values[seed][0]) for seed in seeds
                if p_values[seed] and c_values[seed] and p_values[seed][0] != c_values[seed][0]
            ]
            if diffs:
                seed, before, after = diffs[0]
                detail = (f"differs on {len(diffs)}/{len(seeds)} seeds "
                          f"(seed {seed}: {before:g} -> {after:g}, "
                          f"delta {after - before:+g})")
            else:
                detail = f"equal on {len(seeds)} seeds ({p_values[seeds[0]][0]:g})"
            print(f"{workload:22s} {name:36s} {detail}", file=out)


def describe(side: str, records: List[dict], out) -> None:
    commits = sorted({r["provenance"]["commit"] for r in records})
    sources = sorted({r["provenance"]["src_sha256"][:12] for r in records})
    print(f"{side}: {len(records)} result files, commit {', '.join(commits)}, "
          f"src {', '.join(sources)}", file=out)


def check_configs(parent: List[dict], change: List[dict], out) -> None:
    configs = {(r["workload"], r["seed"]): r["config"] for r in parent}
    for record in change:
        other = configs.get((record["workload"], record["seed"]))
        if other is not None and other != record["config"]:
            print(f"warning: {record['workload']} seed {record['seed']} ran a different "
                  f"config on each side; its rows do not compare like with like", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent result directory or files")
    parser.add_argument("change", help="change result directory or files")
    args = parser.parse_args(argv)
    parent, change = load_results(args.parent), load_results(args.change)
    if not parent or not change:
        print("compare: each side needs at least one result file", file=sys.stderr)
        return 2
    spec = common.load_spec()
    out = sys.stdout
    describe("parent", parent, out)
    describe("change", change, out)
    check_configs(parent, change, out)

    print("\nend-to-end (untraced): median [q1, q3] parent, change; pairs won; verdict",
          file=out)
    compare_timings(by_workload(parent, False), by_workload(change, False),
                    spec["end_to_end"], out)

    per_layer = spec["per_layer"]
    counts = [m["name"] for m in per_layer if common.is_deterministic(m)]
    times = [m for m in per_layer if not common.is_deterministic(m)]
    print("\nper-layer counts (traced, exact per seed)", file=out)
    compare_counts(by_workload(parent, True), by_workload(change, True), counts, out)
    print("\nper-layer times (traced, no bound)", file=out)
    compare_timings(by_workload(parent, True), by_workload(change, True),
                    [dict(m, bound=None) for m in times], out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
