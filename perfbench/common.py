"""Shared pieces of the benchmark: the spec, statistics, provenance.

Metric names, units, bounds and workload descriptions live only in
``BENCHMARK.json``; the benchmark reads them from there.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench-out"

#: a run's phases are cut into stretches of about this many seconds
#: (of its fastest repetition) for :func:`phase_times`
STRETCH_S = 0.25
#: the calibration loop's time on the host the benchmark was tuned on,
#: at its fast speed; timings are reported as seconds on such a host
REFERENCE_CALIBRATION_S = 32e-6
#: how the simulator's time follows the calibration loop's: across the
#: tuning host's slow and very fast states it moved as the loop's time to
#: the power ~0.75 on the packet-flood phases and ~1.0 on set-up and
#: recruitment; 0.75 kept every phase within 18% across those states
SPEED_EXPONENT = 0.75


def is_deterministic(metric: Dict) -> bool:
    """Counts and ratios of counts repeat exactly; times do not."""
    return metric["unit"] != "s" and metric["name"] != "trace.overhead_ratio"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def load_spec() -> Dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


def _time_at(points: List[tuple], events: float) -> float:
    """When a run had executed ``events`` events, by linear
    interpolation over its ``(seconds, events)`` progress points."""
    counts = [count for _, count in points]
    i = bisect_left(counts, events)
    if i >= len(points):
        return points[-1][0]
    if i == 0 or counts[i] == events:
        return points[i][0]
    (t0, k0), (t1, k1) = points[i - 1], points[i]
    return t0 + (t1 - t0) * (events - k0) / (k1 - k0)


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the calibration loop took
    ``calibration_s``, scaled to a host on which it takes
    REFERENCE_CALIBRATION_S."""
    return seconds * (REFERENCE_CALIBRATION_S / calibration_s) ** SPEED_EXPONENT


class _Progress:
    """One repetition's progress samples and phase marks."""

    def __init__(self, run: Dict) -> None:
        progress = run["progress"]
        samples = progress["samples"]
        self.points = [(t, events) for t, events in samples]
        self.calibration = progress["calibration_s"]
        self.default_calibration = statistics.median(self.calibration)
        issued = run["recruit_s"]
        self.marks = ((0.0, progress["start_events"]),
                      (issued, progress["issued_events"]),
                      (issued + run.get("attack_s", 0.0), progress["sim_end_events"]))

    def stretches(self, first: int, last: int, grid: List[float]) -> List[float]:
        """Reference-speed time of each stretch between event counts
        ``grid`` inside the phase from mark ``first`` to mark ``last``."""
        (t_a, k_a), (t_b, k_b) = self.marks[first], self.marks[last]
        inside = [i for i, (t, _) in enumerate(self.points) if t_a < t < t_b]
        points = [(t_a, k_a)] + [self.points[i] for i in inside] + [(t_b, k_b)]
        times = [t_a] + [_time_at(points, k) for k in grid[1:-1]] + [t_b]
        out = []
        for start, end in zip(times, times[1:]):
            calibration = [self.calibration[i] for i in inside
                           if start <= self.points[i][0] < end]
            speed = statistics.median(calibration) if calibration else self.default_calibration
            out.append(at_reference_speed(end - start, speed))
        return out


def phase_times(runs: List[Dict], recruit_only: Sequence[Dict] = ()) -> Dict[str, float]:
    """Phase times of a deterministic run at the reference host speed.

    Every repetition of one config executes the same events, so an event
    count names the same point of the run in each.  Each phase (recruit:
    run start to the attack order; attack: to the simulator's return) is
    cut into stretches of equal event count, about STRETCH_S long.  Each
    stretch's wall time in each repetition is scaled by the calibration
    loop's time during it (:func:`at_reference_speed`), which takes out
    most of how fast the host happened to be, and the phase time is the
    sum over stretches of the median repetition.  Runs in
    ``recruit_only`` stopped at the attack order and add repetitions of
    the recruit phase.  ``collect`` (after the simulator returns) is the
    median over runs, each scaled by the run's median calibration.
    """
    full = [_Progress(run) for run in runs]
    recruit = full + [_Progress(run) for run in recruit_only]
    phases = {}
    for name, first, last, reps in (("recruit_s", 0, 1, recruit), ("attack_s", 1, 2, full)):
        begin_k, end_k = reps[0].marks[first][1], reps[0].marks[last][1]
        walls = [rep.marks[last][0] - rep.marks[first][0] for rep in reps]
        n = max(1, min(round(min(walls) / STRETCH_S), end_k - begin_k))
        grid = [begin_k + (end_k - begin_k) * j / n for j in range(n + 1)]
        per_rep = [rep.stretches(first, last, grid) for rep in reps]
        phases[name] = sum(statistics.median(stretch) for stretch in zip(*per_rep))
    phases["collect_s"] = statistics.median(
        at_reference_speed(run["collect_s"], rep.default_calibration)
        for run, rep in zip(runs, full)
    )
    phases["run_s"] = phases["recruit_s"] + phases["attack_s"] + phases["collect_s"]
    return phases


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), so a
    result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else "unknown"


def provenance() -> Dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
