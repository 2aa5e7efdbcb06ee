"""Double-run determinism harness: prove bit-identity, localize drift.

The repo's contract — the same (config, seed) is byte-identical,
run-to-run and across ``--jobs`` — is what the result cache and the
parallel sweeps stand on.  This harness *executes* the contract:

1. **double-run**: run one config twice under a full trace observatory
   and compare the canonical trace (every ``repro.obs`` event, wall
   clock stripped) plus the serialized :class:`RunResult`.  On a
   mismatch it reports the **first diverging trace event** — the
   closest observable to the root cause, since everything after it is
   cascade.
2. **jobs**: run a figure-2-style sweep at ``jobs=1`` and ``jobs=N``
   and compare rows byte-for-byte, proving dispatch order cannot leak
   into results.
3. **resume** (opt-in via ``--resume``): run one config straight, run
   it again with checkpoints armed (:mod:`repro.checkpoint`), resume a
   third run from the on-disk checkpoint, and require both the
   checkpointed and the resumed runs' serialized results and metrics
   snapshots to be byte-identical to the straight run's — the
   checkpoint layer must be result-neutral AND recovery-exact.

``repro verify-determinism`` is a thin CLI over
:func:`verify_determinism`; CI runs it on a small grid as a gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Divergence:
    """First position where two runs disagree."""

    index: int
    left: Optional[str]    # None when one side is shorter
    right: Optional[str]

    def to_dict(self) -> dict:
        return {"index": self.index, "left": self.left, "right": self.right}


@dataclass
class CheckResult:
    """Outcome of one determinism check."""

    name: str
    identical: bool
    compared: int                      # events or rows compared
    divergence: Optional[Divergence] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "identical": self.identical,
            "compared": self.compared,
            "divergence": self.divergence.to_dict() if self.divergence else None,
            "detail": self.detail,
        }


@dataclass
class DeterminismReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return all(check.identical for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "identical": self.identical,
            "checks": [check.to_dict() for check in self.checks],
        }

    def format_text(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.identical else "DIVERGED"
            lines.append(f"{check.name:<24} {status:<9} "
                         f"({check.compared} compared) {check.detail}".rstrip())
            if check.divergence is not None:
                div = check.divergence
                lines.append(f"  first divergence at #{div.index}:")
                lines.append(f"    run A: {div.left}")
                lines.append(f"    run B: {div.right}")
        verdict = ("determinism contract holds: runs are bit-identical"
                   if self.identical else
                   "DETERMINISM VIOLATION: see first diverging event above")
        lines.append(verdict)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def canonical_trace_lines(tracer) -> List[str]:
    """Every buffered trace event as one canonical JSON line.

    The wall-clock stamp is stripped (it is *supposed* to differ between
    runs) and events merge across rings in (virtual time, name, fields)
    order — a total order built only from deterministic inputs, so two
    byte-identical runs produce byte-identical line sequences.
    """
    lines = []
    for name in tracer.event_types():
        for position, event in enumerate(tracer.events(name)):
            payload = {"event": event.name, "t": event.t, "n": position}
            payload.update({
                key: value for key, value in event.fields.items()
            })
            lines.append(json.dumps(payload, sort_keys=True, default=str))
    lines.sort()
    return lines


def first_divergence(left: Sequence[str], right: Sequence[str]) -> Optional[Divergence]:
    """First index where the sequences disagree, or None if identical."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        longer = left if len(left) > len(right) else right
        extra = longer[index]
        return Divergence(
            index=index,
            left=extra if len(left) > len(right) else None,
            right=extra if len(right) > len(left) else None,
        )
    return None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def traced_run(config) -> Tuple[str, List[str]]:
    """(serialized RunResult, canonical trace lines) for one run."""
    from repro.core.framework import DDoSim
    from repro.obs import Observatory
    from repro.serialization import result_to_json

    ddosim = DDoSim(config, observatory=Observatory.full())
    result = ddosim.run()
    return result_to_json(result), canonical_trace_lines(ddosim.obs.tracer)


def verify_double_run(
    config,
    run_fn: Callable[[object], Tuple[str, List[str]]] = traced_run,
) -> CheckResult:
    """Execute ``config`` twice; compare result bytes and full traces.

    ``run_fn`` is injectable so the harness itself is testable: the
    suite feeds it a deliberately nondeterministic runner and asserts
    the first diverging event is localized exactly.
    """
    result_a, trace_a = run_fn(config)
    result_b, trace_b = run_fn(config)
    divergence = first_divergence(trace_a, trace_b)
    if divergence is not None:
        return CheckResult(
            name="double-run", identical=False,
            compared=min(len(trace_a), len(trace_b)),
            divergence=divergence,
            detail="same config, two runs: traces diverge",
        )
    if result_a != result_b:
        return CheckResult(
            name="double-run", identical=False, compared=len(trace_a),
            divergence=first_divergence(
                result_a.splitlines(), result_b.splitlines()
            ),
            detail="traces identical but serialized results differ",
        )
    return CheckResult(
        name="double-run", identical=True, compared=len(trace_a),
        detail=f"{len(trace_a)} trace events bit-identical",
    )


def verify_jobs(
    devs_grid: Sequence[int] = (2, 4),
    seed: int = 1,
    jobs: int = 4,
    base_config=None,
) -> CheckResult:
    """figure2 sweep rows at ``jobs=1`` vs ``jobs=N`` must match bytes."""
    from repro.core.experiment import FIGURE2_CHURN, run_figure2

    serial = run_figure2(devs_grid=tuple(devs_grid),
                         churn_modes=FIGURE2_CHURN, seed=seed, jobs=1,
                         base_config=base_config)
    parallel = run_figure2(devs_grid=tuple(devs_grid),
                           churn_modes=FIGURE2_CHURN, seed=seed, jobs=jobs,
                           base_config=base_config)
    serial_rows = [json.dumps(row, sort_keys=True) for row in serial]
    parallel_rows = [json.dumps(row, sort_keys=True) for row in parallel]
    divergence = first_divergence(serial_rows, parallel_rows)
    return CheckResult(
        name=f"jobs 1-vs-{jobs}",
        identical=divergence is None,
        compared=len(serial_rows),
        divergence=divergence,
        detail=(f"{len(serial_rows)} sweep rows bit-identical"
                if divergence is None else
                "parallel dispatch changed sweep rows"),
    )


def verify_resume(
    config=None,
    seed: int = 1,
    flow: str = "off",
    every: Optional[float] = None,
) -> CheckResult:
    """Checkpoint/resume equivalence as a determinism check.

    Three runs of one config: straight, checkpointed (ticks every
    ``every`` sim-seconds), and resumed from the last on-disk
    checkpoint.  All three must serialize to identical result bytes and
    identical metrics snapshots; a replay drift raises
    :class:`repro.checkpoint.CheckpointDivergence` naming the subsystem.
    """
    import shutil
    import tempfile

    from repro.checkpoint import CheckpointWriter, resume_run
    from repro.core.framework import DDoSim
    from repro.obs import Observatory
    from repro.serialization import result_to_json

    if config is None:
        from repro.core.config import SimulationConfig

        config = SimulationConfig(n_devs=3, seed=seed, flood_flow=flow,
                                  attack_duration=30.0, sim_duration=200.0)

    def run_serialized(ddosim) -> Tuple[str, str]:
        result = ddosim.run()
        metrics = json.dumps(ddosim.obs.metrics.snapshot(), sort_keys=True)
        return result_to_json(result), metrics

    straight = DDoSim(config, observatory=Observatory())
    straight_bytes = run_serialized(straight)
    if every is None:
        # Aim for ~3 ticks inside the run that just finished.
        every = max(1.0, straight.sim.now / 4.0)
    directory = tempfile.mkdtemp(prefix="repro-verify-resume-")
    try:
        checkpointed = DDoSim(config, observatory=Observatory())
        CheckpointWriter(directory, every).arm(checkpointed)
        checkpointed_bytes = run_serialized(checkpointed)
        resumed = resume_run(directory, observatory=Observatory())
        resumed_bytes = (
            result_to_json(resumed.result),
            json.dumps(resumed.ddosim.obs.metrics.snapshot(), sort_keys=True),
        )
        ticks = len(resumed.writer.verified)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for name, other in (("checkpointed", checkpointed_bytes),
                        ("resumed", resumed_bytes)):
        if other != straight_bytes:
            which = "result" if other[0] != straight_bytes[0] else "metrics"
            return CheckResult(
                name="resume", identical=False, compared=ticks,
                divergence=first_divergence(
                    straight_bytes[0 if which == "result" else 1].splitlines(),
                    other[0 if which == "result" else 1].splitlines(),
                ),
                detail=f"{name} run's {which} bytes differ from straight run",
            )
    return CheckResult(
        name="resume", identical=True, compared=ticks,
        detail=f"straight == checkpointed == resumed "
               f"({ticks} barrier(s) verified on replay)",
    )


def verify_determinism(
    config=None,
    devs_grid: Sequence[int] = (2, 4),
    seed: int = 1,
    jobs: int = 4,
    flow: str = "off",
    resume: bool = False,
) -> DeterminismReport:
    """The full gate: double-run trace identity + jobs row identity.

    ``flow`` puts the fluid-flow datapath under the same contract: the
    checked config (and the sweep's base config) run with that crossover
    mode, so ``verify-determinism --flow all`` proves the analytic
    solver is as bit-stable as the packet path.
    """
    base_config = None
    if config is None:
        from repro.core.config import SimulationConfig

        config = SimulationConfig(n_devs=max(devs_grid), seed=seed,
                                  flood_flow=flow)
    if flow != "off":
        from repro.core.config import SimulationConfig

        base_config = SimulationConfig(flood_flow=flow)
    report = DeterminismReport()
    report.checks.append(verify_double_run(config))
    report.checks.append(verify_jobs(devs_grid=devs_grid, seed=seed, jobs=jobs,
                                     base_config=base_config))
    if resume:
        report.checks.append(verify_resume(seed=seed, flow=flow))
    return report
