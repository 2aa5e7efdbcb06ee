"""IoT network churn, after Fan et al. (paper §IV-A, Eq. 1).

A device's *leaving factor* is ``L(h) = (1 - q(h)) * (1 - e(h))`` with
link quality ``q`` and remaining energy ``e`` drawn uniformly at random
per device.  The *leaving probability* scales L by a coefficient chosen
by regime::

    l(h) = φ1·L  if L <= 0.4
           φ2·L  if 0.4 < L <= 0.7
           φ3·L  if L > 0.7

with (φ1, φ2, φ3) = (0.16, 0.08, 0.04) — the values Fan et al. (and the
paper) use.

Two variants:

* **static churn** — each device leaves with probability ``l(h)`` at the
  simulation's outset and never rejoins;
* **dynamic churn** — every ``interval`` (20 s) seconds, online devices
  leave with probability ``l(h)`` and offline devices rejoin with a fixed
  rejoin probability ("devices rejoin the network upon condition
  improvement").  Rejoining bots that missed the attack command stay
  idle, which is why the paper measures dynamic < static < none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

DEFAULT_PHI = (0.16, 0.08, 0.04)


def leaving_factor(link_quality: float, energy: float) -> float:
    """Fan et al.'s ``L(h) = (1 - q(h)) * (1 - e(h))``."""
    if not 0.0 <= link_quality <= 1.0:
        raise ValueError(f"link quality {link_quality} outside [0, 1]")
    if not 0.0 <= energy <= 1.0:
        raise ValueError(f"energy {energy} outside [0, 1]")
    return (1.0 - link_quality) * (1.0 - energy)


def leaving_probability(
    link_quality: float, energy: float, phi: Tuple[float, float, float] = DEFAULT_PHI
) -> float:
    """Eq. 1 of the paper: regime-scaled leaving probability ``l(h)``."""
    factor = leaving_factor(link_quality, energy)
    if factor <= 0.4:
        return phi[0] * factor
    if factor <= 0.7:
        return phi[1] * factor
    return phi[2] * factor


@dataclass
class ChurnState:
    """Per-device churn bookkeeping."""

    device_index: int
    link_quality: float
    energy: float
    leave_probability: float
    online: bool = True
    departures: int = 0
    rejoins: int = 0


@dataclass
class ChurnLogEntry:
    time: float
    device_index: int
    event: str  # "leave" | "rejoin"


class _ChurnBase:
    """Shared setup: draw q/e per device, expose the event log."""

    def __init__(
        self,
        n_devs: int,
        rng: random.Random,
        phi: Tuple[float, float, float] = DEFAULT_PHI,
    ):
        self.rng = rng
        self.phi = phi
        self.states: List[ChurnState] = []
        for index in range(n_devs):
            quality = rng.random()
            energy = rng.random()
            self.states.append(
                ChurnState(
                    device_index=index,
                    link_quality=quality,
                    energy=energy,
                    leave_probability=leaving_probability(quality, energy, phi),
                )
            )
        self.log: List[ChurnLogEntry] = []

    def _record(self, sim, state: ChurnState, event: str) -> None:
        """Log one leave/rejoin and report it to ``sim``'s observatory."""
        self.log.append(ChurnLogEntry(sim.now, state.device_index, event))
        obs = sim.obs
        if event == "leave":
            obs.metrics.counter(
                "churn_departures_total", help="device churn departures"
            ).inc()
            if obs.tracer.enabled:
                obs.tracer.emit("churn.down", sim.now, device=state.device_index)
        else:
            obs.metrics.counter(
                "churn_rejoins_total", help="device churn rejoins"
            ).inc()
            if obs.tracer.enabled:
                obs.tracer.emit("churn.up", sim.now, device=state.device_index)

    def online_count(self) -> int:
        return sum(1 for state in self.states if state.online)

    def total_departures(self) -> int:
        return sum(state.departures for state in self.states)

    def total_rejoins(self) -> int:
        return sum(state.rejoins for state in self.states)


class StaticChurn(_ChurnBase):
    """Devices leave once, at the outset, with probability ``l(h)``."""

    def apply(self, sim, set_device_online: Callable[[int, bool], None]) -> int:
        """Apply the one-shot departure draw at the current instant.

        Returns the number of departed devices.
        """
        departed = 0
        for state in self.states:
            if self.rng.random() < state.leave_probability:
                state.online = False
                state.departures += 1
                departed += 1
                set_device_online(state.device_index, False)
                self._record(sim, state, "leave")
        return departed


class DynamicChurn(_ChurnBase):
    """Re-draw departures (and rejoins) every ``interval`` seconds."""

    def __init__(
        self,
        n_devs: int,
        rng: random.Random,
        interval: float = 20.0,
        rejoin_probability: float = 0.5,
        phi: Tuple[float, float, float] = DEFAULT_PHI,
    ):
        super().__init__(n_devs, rng, phi)
        if interval <= 0:
            raise ValueError("churn interval must be positive")
        if not 0.0 <= rejoin_probability <= 1.0:
            raise ValueError("rejoin probability outside [0, 1]")
        self.interval = interval
        self.rejoin_probability = rejoin_probability
        self._running = False

    def start(self, sim, set_device_online: Callable[[int, bool], None],
              until: float) -> None:
        """Schedule epochs every ``interval`` seconds until ``until``."""
        self._running = True

        def epoch() -> None:
            if not self._running or sim.now > until:
                return
            self.step(sim, set_device_online)
            sim.schedule(self.interval, epoch)

        sim.schedule(self.interval, epoch)

    def stop(self) -> None:
        self._running = False

    def step(self, sim, set_device_online: Callable[[int, bool], None]) -> None:
        """One churn epoch: toggle each device per its probabilities."""
        for state in self.states:
            if state.online:
                if self.rng.random() < state.leave_probability:
                    state.online = False
                    state.departures += 1
                    set_device_online(state.device_index, False)
                    self._record(sim, state, "leave")
            elif self.rng.random() < self.rejoin_probability:
                state.online = True
                state.rejoins += 1
                set_device_online(state.device_index, True)
                self._record(sim, state, "rejoin")
