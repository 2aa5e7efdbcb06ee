"""Deterministic checkpoint/restore for whole simulation runs.

Generator-based :class:`~repro.netsim.process.SimProcess` coroutines —
C&C sessions, bots, PID-1 init programs — make raw state *serialization*
impossible in pure Python (generators cannot be pickled), so DDoSim
checkpoints the way record-and-replay debuggers do instead:

* A **checkpoint** is a versioned, content-hashed *fingerprint tree* of
  the complete simulator state at a deterministic virtual-time barrier:
  the scheduler event queue (packet trains and tombstones included), all
  named RNG streams, per-link device/queue/channel state, FlowEngine
  epochs and fractional-packet remainders, botnet and fleet state,
  FaultInjector progress, sink histograms and the obs metrics/spans.
  Files are written atomically (mkstemp + rename, like the cache blob
  store) as ``checkpoint-<tick>.json``.
* A **restore** (:func:`resume_run`) replays deterministically from
  t=0 under the checkpointed config and *verifies* the stored
  fingerprint at every barrier it passes — any divergence raises
  :class:`CheckpointDivergence` naming the exact subsystems that
  differ.  Replay under the determinism contract (see DESIGN.md) is
  what makes the resumed run's result JSON and metrics snapshot
  byte-identical to an uninterrupted run.

Barrier events are engineered to be invisible in results: they are all
scheduled up-front (one uniform seq shift that cannot reorder ties),
they draw no randomness, mutate no simulation state, and hand back the
``events_executed`` slot they consume.  ``--checkpoint-every`` is
therefore a harness knob, not part of :class:`SimulationConfig` — cache
keys and result bytes are unaffected.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache import code_salt

CHECKPOINT_VERSION = 1
CHECKPOINT_PREFIX = "checkpoint-"
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d+)\.json$")

#: recursion guard for argument description
_MAX_DESCRIBE_DEPTH = 4


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or resumed from."""


class CheckpointDivergence(CheckpointError):
    """Replay state stopped matching a stored checkpoint fingerprint."""

    def __init__(self, tick: int, subsystems: List[str]):
        self.tick = tick
        self.subsystems = list(subsystems)
        super().__init__(
            f"replay diverged from checkpoint tick {tick} in subsystem(s): "
            + ", ".join(self.subsystems)
        )


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def state_digest(payload) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``.

    ``repr`` floats round-trip exactly under :func:`json.dumps`, so two
    states digest equal iff every float/int/str in them is identical.
    """
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _rng_token(rng) -> Optional[str]:
    """Compact digest of one random.Random's full Mersenne state."""
    if rng is None:
        return None
    return hashlib.sha256(repr(rng.getstate()).encode("utf-8")).hexdigest()


def _describe(value, depth: int = 0):
    """A JSON-able, *deterministic* description of one scheduled-event
    argument.

    ``Packet.uid`` comes from a process-global counter, so packets are
    described by their deterministic shape (size, count, spacing) and
    never by identity.  Unknown objects degrade to ``[type, name]`` —
    enough to catch a different object showing up at the same slot.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth >= _MAX_DESCRIBE_DEPTH:
        return type(value).__name__
    if isinstance(value, (list, tuple)):
        return [_describe(item, depth + 1) for item in value]
    from repro.netsim.packet import Packet

    if isinstance(value, Packet):
        return [
            "pkt",
            value.size,
            getattr(value, "count", 1),
            getattr(value, "spacing", 0.0),
        ]
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return [type(value).__name__, name]
    return [type(value).__name__, str(value) if isinstance(value, type) else ""]


def _scheduler_entries(sim) -> List[list]:
    """The pending event queue as ``[time, seq, cancelled, site, args]``
    rows in total (time, seq) order — tombstones included, because a
    cancelled-but-not-compacted entry still shifts heap internals."""
    from repro.obs.profiler import site_of

    entries = []
    for event in sim.checkpoint_events():
        args = [_describe(arg) for arg in event.args] if event.args else []
        entries.append(
            [
                event.time,
                event.seq,
                1 if event.cancelled else 0,
                site_of(event.callback) if event.callback is not None else "",
                args,
            ]
        )
    entries.sort(key=lambda row: (row[0], row[1]))
    return entries


def capture_fingerprint(ddosim) -> Dict[str, str]:
    """Per-subsystem content hashes of one DDoSim's complete live state.

    Keys are stable subsystem names; a resumed run compares each key
    independently so a divergence report names the layer that drifted.
    """
    sim = ddosim.sim
    fingerprint: Dict[str, str] = {}

    fingerprint["clock"] = state_digest(
        [sim.now, sim.events_executed, sim._seq, sim.pending_events]
    )
    fingerprint["scheduler"] = state_digest(_scheduler_entries(sim))
    fingerprint["rng"] = state_digest(
        [[name, _rng_token(rng)] for name, rng in ddosim.named_rngs()]
    )

    star = ddosim.star
    fingerprint["network"] = state_digest(
        star.checkpoint_state() if hasattr(star, "checkpoint_state") else []
    )

    engine = ddosim.flow_engine
    fingerprint["flows"] = state_digest(
        engine.checkpoint_state() if engine is not None else []
    )

    attacker = ddosim.attacker
    fingerprint["botnet"] = state_digest(
        {
            "cnc": attacker.cnc.checkpoint_state(),
            "exploits_delivered": attacker.exploits_delivered,
            "leaks_harvested": attacker.leaks_harvested,
        }
    )
    fingerprint["devs"] = state_digest(ddosim.devs.checkpoint_state())

    injector = ddosim.fault_injector
    fingerprint["faults"] = state_digest(
        injector.checkpoint_state() if injector is not None else []
    )

    fingerprint["sink"] = state_digest(ddosim.tserver.sink.checkpoint_state())
    fingerprint["containers"] = state_digest(
        [
            [name, container.state, container.memory_bytes()]
            for name, container in ddosim.runtime.containers.items()
        ]
    )
    fingerprint["metrics"] = state_digest(ddosim.obs.metrics.snapshot())
    spans = ddosim.obs.spans
    if getattr(spans, "enabled", False):
        fingerprint["spans"] = state_digest(spans.canonical_json())
    return fingerprint


def diff_fingerprints(expected: Dict[str, str],
                      actual: Dict[str, str]) -> List[str]:
    """Subsystem names whose hashes differ (or exist on one side only)."""
    names = set(expected) | set(actual)
    return sorted(
        name for name in names if expected.get(name) != actual.get(name)
    )


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
def checkpoint_path(directory: str, tick: int) -> str:
    return os.path.join(directory, f"{CHECKPOINT_PREFIX}{tick}.json")


def write_checkpoint(directory: str, payload: dict) -> str:
    """Atomically persist one checkpoint payload (mkstemp + rename, the
    cache blob-store discipline: readers only ever see complete files)."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, payload["tick"])
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".checkpoint-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str) -> dict:
    """Read and integrity-check one checkpoint file."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} != {CHECKPOINT_VERSION}"
        )
    fingerprint = payload.get("fingerprint")
    if not isinstance(fingerprint, dict) or payload.get("root") != state_digest(
        fingerprint
    ):
        raise CheckpointError(f"{path}: fingerprint root hash mismatch")
    return payload


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """All ``checkpoint-<tick>.json`` files in ``directory``, by tick."""
    found = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        match = _CHECKPOINT_NAME.match(name)
        if match is not None:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def latest_checkpoint(source: str) -> str:
    """Resolve ``source`` (a checkpoint file or a directory of them) to
    the newest checkpoint file path."""
    if os.path.isdir(source):
        checkpoints = list_checkpoints(source)
        if not checkpoints:
            raise CheckpointError(f"no checkpoint-*.json files in {source}")
        return checkpoints[-1][1]
    if os.path.isfile(source):
        return source
    raise CheckpointError(f"no such checkpoint file or directory: {source}")


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class CheckpointWriter:
    """Schedules result-neutral checkpoint barriers into one run.

    All barrier events are armed *before* ``run()`` so the only effect on
    the event stream is one uniform seq shift — same-timestamp ties keep
    their relative order, and :meth:`_tick` compensates the one
    ``events_executed`` slot each barrier consumes.  ``expected`` maps
    tick → stored fingerprint for replay verification; ``kill_after``
    makes the process SIGKILL itself right after writing that tick (the
    chaos harness's deterministic mid-flight kill).
    """

    def __init__(self, directory: str, every: float, *,
                 expected: Optional[Dict[int, Dict[str, str]]] = None,
                 kill_after: Optional[int] = None):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be > 0, got {every!r}")
        self.directory = directory
        self.every = float(every)
        self.expected = dict(expected or {})
        self.kill_after = kill_after
        #: ticks written this run, in order
        self.written: List[int] = []
        #: ticks whose fingerprints matched a stored checkpoint
        self.verified: List[int] = []
        self._ddosim = None

    def arm(self, ddosim) -> "CheckpointWriter":
        """Schedule every barrier below ``sim_duration`` (ticks past the
        orchestrator's early stop simply never fire)."""
        self._ddosim = ddosim
        os.makedirs(self.directory, exist_ok=True)
        tick = 1
        while tick * self.every < ddosim.config.sim_duration:
            ddosim.sim.schedule_at(tick * self.every, self._tick, tick)
            tick += 1
        return self

    def _tick(self, tick: int) -> None:
        ddosim = self._ddosim
        sim = ddosim.sim
        # Result-neutrality: give back the events_executed slot this
        # barrier consumed before any state is read.
        sim.events_executed -= 1
        fingerprint = capture_fingerprint(ddosim)
        expected = self.expected.get(tick)
        if expected is not None:
            mismatched = diff_fingerprints(expected, fingerprint)
            if mismatched:
                raise CheckpointDivergence(tick, mismatched)
            self.verified.append(tick)
        payload = {
            "version": CHECKPOINT_VERSION,
            "code_salt": code_salt(),
            "config": _config_dict(ddosim.config),
            "every": self.every,
            "tick": tick,
            "t": sim.now,
            "events_executed": sim.events_executed,
            "fingerprint": fingerprint,
            "root": state_digest(fingerprint),
        }
        write_checkpoint(self.directory, payload)
        self.written.append(tick)
        recorder = getattr(sim.obs, "recorder", None)
        if recorder is not None and recorder.enabled:
            recorder.note("checkpoint.write", sim.now, tick=tick)
        if self.kill_after is not None and tick == self.kill_after:
            # Chaos harness hook: die the hardest possible way, exactly
            # one event after the checkpoint hit disk.
            os.kill(os.getpid(), signal.SIGKILL)


def _config_dict(config) -> dict:
    from repro.serialization import config_to_dict

    return config_to_dict(config)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
@dataclass
class ResumedRun:
    """A completed :func:`resume_run`: the rebuilt DDoSim, its result,
    the (re-armed) writer and the checkpoint that anchored the resume."""

    ddosim: object
    result: object
    writer: CheckpointWriter
    checkpoint: dict = field(repr=False)


def resume_run(source: str, *, observatory=None,
               kill_after: Optional[int] = None) -> ResumedRun:
    """Resume a run from its newest checkpoint via verified replay.

    Rebuilds the exact :class:`SimulationConfig` stored in the
    checkpoint, replays deterministically from t=0, and checks the live
    fingerprint against *every* stored checkpoint up to the resume
    anchor — so a replay that drifts fails loudly (and names the
    subsystem) instead of silently producing different bytes.  Later
    barriers keep writing fresh checkpoints, making resume restartable.
    """
    path = latest_checkpoint(source)
    anchor = load_checkpoint(path)
    salt = code_salt()
    if anchor.get("code_salt") != salt:
        raise CheckpointError(
            f"{path}: written by different repro code "
            f"(salt {anchor.get('code_salt', '?')[:12]} != {salt[:12]}); "
            "replay-based resume is only valid against identical code"
        )
    from repro.core.framework import DDoSim
    from repro.serialization import config_from_dict

    config = config_from_dict(anchor["config"])
    directory = os.path.dirname(os.path.abspath(path))
    expected: Dict[int, Dict[str, str]] = {}
    for tick, checkpoint_file in list_checkpoints(directory):
        if tick > anchor["tick"]:
            continue
        stored = load_checkpoint(checkpoint_file)
        expected[tick] = stored["fingerprint"]
    ddosim = DDoSim(config, observatory=observatory)
    writer = CheckpointWriter(
        directory, anchor["every"], expected=expected, kill_after=kill_after
    )
    writer.arm(ddosim)
    result = ddosim.run()
    return ResumedRun(
        ddosim=ddosim, result=result, writer=writer, checkpoint=anchor
    )
