#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale (well under a minute).

    python3 perfbench/smoke.py

For each workload it checks that every metric named in BENCHMARK.json
prints with its unit, that deterministic counts repeat exactly across
two invocations and between traced and untraced runs, that every traced
entry point was found and not overridden past its wrapper, and that the
per-layer self times plus the simulator remainder add up to the traced
``run_s``.  It also checks that the benchmark refuses to run, printing
no result, where the program's source is missing.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def bench(workload: str, trace: int, out: Path, seed: int = 1):
    """One tiny invocation; returns (stdout lines, summary, result record)."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    check(completed.returncode == 0,
          f"{workload} trace={trace} exited {completed.returncode}: {completed.stderr[-500:]}")
    lines = completed.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    check(set(summary) == {"correct", "attempted", "failed", "metrics"},
          f"summary keys {sorted(summary)}")
    check(summary["correct"] and summary["failed"] == 0,
          f"{workload} trace={trace} not correct: {lines[:-1]}")
    return lines[:-1], summary, json.loads(out.read_text())


def check_names_and_units(workload: str, lines, summary, specs) -> None:
    metrics = summary["metrics"]
    check(set(metrics) == {spec["name"] for spec in specs},
          f"{workload}: metrics {sorted(metrics)} != BENCHMARK.json")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        check(metrics[name]["unit"] == unit, f"{workload}: {name} unit {metrics[name]['unit']}")
        value = metrics[name]["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{workload}: {name} value {value!r}")
        check(any(line.split()[:1] == [name] and unit in line.split() for line in lines),
              f"{workload}: no printed line for {name} [{unit}]")
    check(any(line.split()[:1] == ["error_rate"] for line in lines),
          f"{workload}: error_rate not printed")


def check_layer_sums(workload: str, record: dict) -> None:
    for run in record["runs"]:
        if "layers" not in run:
            continue
        total = sum(layer["self_s"] for layer in run["layers"].values())
        check(abs(total - run["run_s"]) <= 1e-9 * max(1.0, run["run_s"]) + 1e-9,
              f"{workload}: layer self times sum to {total}, traced run_s {run['run_s']}")
        for name, layer in run["layers"].items():
            check(layer["self_s"] >= -1e-6, f"{workload}: {name} self_s {layer['self_s']}")
            check(layer["inclusive_s"] >= layer["self_s"] - 1e-9,
                  f"{workload}: {name} inclusive < self")
        check(run["layers"]["netsim.simulator"]["self_s"] > 0,
              f"{workload}: no simulator remainder")


def deterministic(summary: dict) -> dict:
    return {
        name: metric["value"] for name, metric in summary["metrics"].items()
        if common.is_deterministic(dict(metric, name=name))
    }


def check_flags_untraced_overrides() -> None:
    """A subclass that overrides a wrapped entry point fails the traced run."""
    sys.path.insert(0, str(common.SRC))
    from layers import LayerTracer
    from repro.netsim.ip import IpStack

    tracer = LayerTracer()
    tracer.install()
    check(tracer.untraced() == [], f"untraced entry points: {tracer.untraced()}")

    class ShortcutIpStack(IpStack):
        def receive(self, *args, **kwargs):
            return None

    check(any("ShortcutIpStack.receive" in name for name in tracer.untraced()),
          "an override of IpStack.receive was not flagged")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        shutil.copy(common.SPEC_FILE, root / "BENCHMARK.json")
        shutil.copytree(RUN.parent, root / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{RUN.parent.name}/run.py", "--workload", "flood-packet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=170, check=False,
        )
    check(completed.returncode != 0, "benchmark ran without the program's source")
    check(completed.stdout.strip() == "", f"printed output without source: {completed.stdout!r}")


def main() -> int:
    spec = common.load_spec()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        for workload in (w["name"] for w in spec["workloads"]):
            lines, summary, plain = bench(workload, 0, out / f"{workload}-t0.json")
            check_names_and_units(workload, lines, summary, spec["end_to_end"])
            first_lines, first, traced = bench(workload, 1, out / f"{workload}-t1a.json")
            _, second, traced_again = bench(workload, 1, out / f"{workload}-t1b.json")
            check_names_and_units(workload, first_lines, first, spec["per_layer"])
            check(deterministic(first) == deterministic(second),
                  f"{workload}: per-layer counts differ between two invocations")
            digests = set(plain["digests"]) | set(traced["digests"]) | set(traced_again["digests"])
            check(len(digests) == 1, f"{workload}: {len(digests)} distinct result digests")
            check(plain["counts"] == traced["counts"] == traced_again["counts"],
                  f"{workload}: counts differ between traced and untraced runs")
            check_layer_sums(workload, traced)
            if traced["counts"]["duplicate_sessions"] >= 1:
                check(any(line.startswith("known defect:") for line in first_lines),
                      f"{workload}: duplicate sessions without a known-defect line")
            print(f"ok {workload}")
    check_flags_untraced_overrides()
    print("ok flags entry points the trace cannot see")
    check_refuses_without_source()
    print("ok refuses to run without the program's source")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        sys.exit(1)
