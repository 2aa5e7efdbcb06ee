"""One DDoSim run in a fresh interpreter, measured from outside.

Usage: ``python3 perfbench/child.py MODE SPAWN_TIME CONFIG_JSON`` where
MODE is ``setup`` (build only), ``recruit`` (build, then run until the
attack order), ``run`` (untraced) or ``traced``, and
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this interpreter (CLOCK_MONOTONIC is shared by every process on the
host, so ``setup_s`` includes interpreter start and ``import repro``).
The last line of standard output is one JSON object with the run's
timings, output checks, result digest and deterministic counts, and the
time of a fixed calibration loop right after ``build()``.  An untraced
or recruitment-only run also reports its progress: seconds since run
start, events executed and the calibration loop's time, sampled every
SAMPLE_INTERVAL_S from a timer signal whose handler only reads the
simulator.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: avg_received_kbps may exceed the TServer link rate by at most this
#: factor (per-second binning of packets serialized at line rate)
RATE_SLACK = 1.01
#: period of the progress samples of an untraced run
SAMPLE_INTERVAL_S = 0.01


def calibration_loop() -> float:
    """Seconds one fixed piece of pure-Python dict work takes right now
    (about 30-50 us).  The program never runs it, so its time moves only
    with the host's speed."""
    clock = time.perf_counter
    start = clock()
    table = {}
    for i in range(200):
        table[i & 31] = table.get(i & 31, 0) + i
    return clock() - start


class PhaseProbe:
    """Times the run's phases by wrapping two public methods.

    ``CncServer.issue_attack`` marks the end of recruitment and
    ``Simulator.run`` returning marks the end of the attack.  The probe
    also records which bot sessions the order reached, to count Devs that
    hold more than one C&C session.  Once ``sim`` is set, each mark also
    notes the simulator's executed-event count.  ``on_attack``, when set,
    is called once the order is out (a recruitment-only run stops the
    simulator).
    """

    def __init__(self) -> None:
        self.sim = None
        self.issued_at = None
        self.issued_events = None
        self.sim_returned_at = None
        self.sim_returned_events = None
        self.commanded_addresses = []
        self.on_attack = None

    def install(self) -> None:
        from repro.botnet.cnc import CncServer
        from repro.netsim.simulator import Simulator

        probe = self
        issue_attack = CncServer.issue_attack
        sim_run = Simulator.run

        def timed_issue_attack(cnc, *args, **kwargs):
            if probe.issued_at is None:
                probe.issued_at = time.perf_counter()
                probe.issued_events = probe.events()
            before = {id(r): (r, r.commands_sent) for r in cnc.connected_bots()}
            order = issue_attack(cnc, *args, **kwargs)
            probe.commanded_addresses = [
                str(record.address) for record, sent in before.values()
                if record.commands_sent > sent
            ]
            if probe.on_attack is not None:
                probe.on_attack()
            return order

        def timed_run(sim, *args, **kwargs):
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                probe.sim_returned_at = time.perf_counter()
                probe.sim_returned_events = probe.events()

        CncServer.issue_attack = timed_issue_attack
        Simulator.run = timed_run

    def events(self):
        return None if self.sim is None else self.sim.events_executed


class ProgressSampler:
    """Samples ``(perf_counter, events executed, calibration_loop())``
    from SIGALRM.

    Runs are deterministic, so an event count names the same point of
    the run in every repetition; the benchmark uses these samples to
    line repetitions up stretch by stretch, and the calibration times to
    tell how fast the host was during each stretch.
    """

    def __init__(self, interval: float) -> None:
        #: the simulator once built; until then events read 0
        self.sim = None
        self.interval = interval
        self.points = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        now = time.perf_counter()
        events = 0 if self.sim is None else self.sim.events_executed
        self.points.append((now, events, calibration_loop()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of every labelled child of one counter family (0 if absent)."""
    return sum(snapshot["counters"].get(name, {}).values())


def output_checks(config, result) -> list:
    """Invariants every run must hold; returns the violations."""
    failures = []
    recruited = result.recruitment.bots_recruited
    if not 1 <= recruited <= config.n_devs:
        failures.append(f"bots_recruited={recruited} outside [1, {config.n_devs}]")
    attack = result.attack
    if attack.received_packets > attack.offered_packets:
        failures.append(
            f"received_packets={attack.received_packets} > "
            f"offered_packets={attack.offered_packets}"
        )
    limit = config.tserver_rate_bps / 1000.0 * RATE_SLACK
    if attack.avg_received_kbps > limit:
        failures.append(
            f"avg_received_kbps={attack.avg_received_kbps:.1f} > link rate x "
            f"{RATE_SLACK} = {limit:.1f}"
        )
    return failures


def deterministic_counts(ddosim, result, probe) -> dict:
    """Host-independent counts, equal on every run of one config."""
    snapshot = ddosim.obs.metrics.snapshot()
    queues = [
        device.queue
        for link in ddosim.star.links.values()
        for device in (link.host_device, link.router_device)
    ]
    enqueue_attempts = sum(q.enqueued + q.dropped for q in queues)
    commanded = result.attack.bots_commanded
    return {
        "events": ddosim.sim.events_executed,
        "queue_drops": result.attack.queue_drops,
        "queue_enqueue_attempts": enqueue_attempts,
        "channel_tx_packets": counter_total(snapshot, "link_tx_packets_total"),
        "flow_epochs": counter_total(snapshot, "flow_epochs_total"),
        "tcp_retransmissions": counter_total(snapshot, "tcp_retransmissions_total"),
        "exploit_attempts": counter_total(snapshot, "exploit_attempts_total"),
        "exploit_successes": counter_total(snapshot, "exploit_success_total"),
        "cnc_registrations": counter_total(snapshot, "cnc_registrations_total"),
        "container_spawns": counter_total(snapshot, "container_spawns_total"),
        "churn_transitions": (
            counter_total(snapshot, "churn_departures_total")
            + counter_total(snapshot, "churn_rejoins_total")
        ),
        "bots_commanded": commanded,
        "distinct_commanded": len(set(probe.commanded_addresses)),
        "duplicate_sessions": commanded - len(set(probe.commanded_addresses)),
    }


def main(argv) -> int:
    mode, spawned_at, config_json = argv[1], float(argv[2]), argv[3]
    if mode not in ("setup", "recruit", "run", "traced"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Sampled from here on, so set-up has calibration times of its own.
    sampler = None if mode == "traced" else ProgressSampler(SAMPLE_INTERVAL_S)
    if sampler is not None:
        sampler.start()

    from repro import DDoSim
    from repro.serialization import config_from_dict, result_to_json

    tracer = None
    if mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    probe = PhaseProbe()
    probe.install()

    config = config_from_dict(json.loads(config_json))
    ddosim = DDoSim(config)
    ddosim.build()
    setup_s = time.monotonic() - spawned_at
    out = {"setup_s": setup_s}
    if sampler is not None:
        setup_calibration = [calib for _, _, calib in sampler.points] or [calibration_loop()]
        out["setup_calibration_s"] = statistics.median(setup_calibration)
    if mode == "setup":
        sampler.stop()
        print(json.dumps(out))
        return 0

    if tracer is not None:
        # Layer spans of the build phase (container creation, mostly)
        # are kept apart: the per-layer self times account for run().
        out["build_layers"] = tracer.snapshot()
        tracer.reset()
    probe.sim = ddosim.sim
    if mode == "recruit":
        probe.on_attack = ddosim.sim.stop
    start_events = ddosim.sim.events_executed
    if sampler is not None:
        sampler.points = []
        sampler.sim = ddosim.sim
    run_start = time.perf_counter()
    try:
        result = ddosim.run()
    finally:
        run_end = time.perf_counter()
        if sampler is not None:
            sampler.stop()
    if sampler is not None:
        out["progress"] = {
            "start_events": start_events,
            "issued_events": probe.issued_events,
            "sim_end_events": probe.sim_returned_events,
            "samples": [[t - run_start, events] for t, events, _ in sampler.points],
            "calibration_s": [calib for _, _, calib in sampler.points],
        }
    if mode == "recruit":
        if probe.issued_at is None:
            print("no attack order was issued", file=sys.stderr)
            return 1
        out["recruit_s"] = probe.issued_at - run_start
        print(json.dumps(out))
        return 0
    covered = tracer.covered() if tracer is not None else 0.0

    checks = output_checks(config, result)
    if probe.issued_at is None:
        checks.append("no attack order was issued")
    if tracer is not None:
        # A layer whose entry point is gone, or is overridden past the
        # wrapper, would read 0 calls and hand its time to the simulator.
        checks.extend(f"entry point not traced: {name}" for name in tracer.untraced())
    issued = probe.issued_at if probe.issued_at is not None else run_end
    sim_end = probe.sim_returned_at if probe.sim_returned_at is not None else run_end
    out.update({
        "run_s": run_end - run_start,
        "recruit_s": issued - run_start,
        "attack_s": sim_end - issued,
        "collect_s": run_end - sim_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(result_to_json(result).encode()).hexdigest(),
        "checks": checks,
        "counts": deterministic_counts(ddosim, result, probe),
        "phases": [
            {"name": "run", "start": 0.0, "end": run_end - run_start, "parent": None},
            {"name": "recruit", "start": 0.0, "end": issued - run_start, "parent": "run"},
            {"name": "attack", "start": issued - run_start,
             "end": sim_end - run_start, "parent": "run"},
            {"name": "collect", "start": sim_end - run_start,
             "end": run_end - run_start, "parent": "run"},
        ],
    })
    if tracer is not None:
        layers = tracer.snapshot()
        layers["netsim.simulator"] = {
            "calls": 1, "self_s": out["run_s"] - covered,
            "inclusive_s": out["run_s"],
        }
        out["layers"] = layers
        out["entry_calls"] = {name: calls[0] for name, calls in tracer.entry_calls.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
