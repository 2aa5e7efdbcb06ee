"""Fluid-flow datapath: analytic steady-state flood traffic.

The packet path costs one scheduled event per packet per hop, which
bounds how many flood packets a run can afford.  A steady UDP-PLAIN
flood, however, is fully described by a handful of numbers — wire
rate, packet size, source, target, start/stop — so this module
represents it as a :class:`FluidFlow` and solves the network
analytically instead of scheduling its packets.

The solver is piecewise-constant: between *epochs* (flow start/stop,
link up/down/degrade from churn or :mod:`repro.faults`, sink
start/stop) every rate in the network is constant, so each queue's
behaviour has a closed form — aggregate inflow against the link drain
rate yields a pass fraction, a queue-depth trajectory (fill, saturate,
drain) and a drop fraction.  The :class:`FlowEngine` re-linearizes only
at epochs, and in a fleet every flow's start and stop is one.  The cost
model: a start or stop re-solves only the queues on its own path (plus
any queue downstream whose entering rates it changed); a link change
rebuilds the whole plan; and each epoch integrates the closing segment
in one pass over the active flows, queue by queue, because the
per-segment floating-point order is what the pinned output bytes depend
on.

Accounting is exact in expectation and fully deterministic: queues see
integer drop counts (``queue_drops_total``, span drop attribution),
devices and channels see tx/carried counters, and the TServer
:class:`~repro.netsim.sink.PacketSink` integrates flow byte-rates into
the same per-second ``bytes_per_bin`` histogram the packet path fills.
Fractional bytes/packets carry across segments through per-flow
remainder accumulators, so totals never drift.

Crossover modes (``SimulationConfig.flood_flow`` / ``--flow``):

* ``off``  — no engine at all; the exact packet datapath.
* ``auto`` — hybrid: upstream hops (each bot's access link, typically
  uncongested because floods pace at the link rate) are fluid, while
  the *last* hop — the congested bottleneck queue in front of the sink
  — receives real packets injected at the upstream-surviving rate,
  keeping packet-exact drop-tail behaviour and per-packet sink arrival
  times where congestion decides the result.
* ``all``  — fully fluid end to end; the sink is credited analytically.

Known approximations (all expectation-neutral): flows do not contend
with discrete packets sharing a queue (flood queues carry only flood
traffic in the paper's star), channel-loss Bernoulli draws become exact
fractions (no RNG is consumed), and a stopping flow's residual queue
backlog is credited to the sink at the stop instant.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.netsim.address import Address, Ipv6Address
from repro.netsim.headers import PROTO_UDP, UdpHeader, ip_header_for
from repro.netsim.packet import Packet

#: crossover knob values (config ``flood_flow`` / CLI ``--flow``)
FLOW_MODES = ("off", "auto", "all")

#: safety bound on fluid path resolution
MAX_PATH_HOPS = 16


class FlowPathError(RuntimeError):
    """Raised when a fluid path to the destination cannot be resolved."""


def resolve_path(node, destination: Address) -> Tuple[list, object]:
    """Static route walk from ``node`` to the node owning ``destination``.

    Returns ``(hops, final_node)`` where ``hops`` is the ordered list of
    egress :class:`~repro.netsim.netdevice.NetDevice`\\ s the traffic
    serializes through.  Routing in the star (and any static host-route
    topology) never changes at runtime, so the path is resolved once per
    flow; only link *state* along it varies between epochs.
    """
    hops = []
    current = node
    for _ in range(MAX_PATH_HOPS):
        if destination in current.ip.addresses:
            return hops, current
        device = current.ip.routes.get(destination)
        if device is None:
            device = current.ip.default_device
        if device is None or device.channel is None:
            raise FlowPathError(
                f"{current.name}: no egress toward {destination}"
            )
        peer = device.channel.peer_of(device)
        if peer is None or peer.node is None:
            raise FlowPathError(
                f"{current.name}: {device.name} has no wired peer"
            )
        hops.append(device)
        current = peer.node
    raise FlowPathError(f"path to {destination} exceeds {MAX_PATH_HOPS} hops")


class FluidFlow:
    """One steady flood stream as a rate object.

    ``rate_bps`` is the *wire* emission rate (payload plus UDP/IP
    headers — the same pacing :func:`repro.botnet.attacks.udp_plain_flood`
    derives), ``packet_size`` the wire bytes per packet.  Offered,
    delivered and dropped byte totals accumulate as the engine
    integrates segments; ``offered_packets`` quantizes deterministically.
    """

    __slots__ = (
        "flow_id", "node", "src_address", "src_port", "dst_address",
        "dst_port", "rate_bps", "packet_size", "payload_size", "span",
        "started_at", "stopped_at", "active", "hops", "fluid_hops",
        "sink_node", "offered_bytes", "delivered_bytes", "dropped_bytes",
        "inject_rate_bps", "inject_device", "_injecting", "_inject_started",
        "_seg_latency", "_seg_sink", "_hop_rates", "_carry",
    )

    def __init__(self, flow_id: int, node, src_address: Address, src_port: int,
                 dst_address: Address, dst_port: int, rate_bps: float,
                 packet_size: int, payload_size: int, started_at: float,
                 span: Optional[str] = None):
        self.flow_id = flow_id
        self.node = node
        self.src_address = src_address
        self.src_port = src_port
        self.dst_address = dst_address
        self.dst_port = dst_port
        self.rate_bps = float(rate_bps)
        self.packet_size = int(packet_size)
        self.payload_size = int(payload_size)
        self.span = span
        self.started_at = started_at
        self.stopped_at: Optional[float] = None
        self.active = True
        self.hops: list = []
        self.fluid_hops: list = []
        self.sink_node = None
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.dropped_bytes = 0.0
        # Crossover injection state (auto mode).
        self.inject_rate_bps = 0.0
        self.inject_device = None
        self._injecting = False
        self._inject_started = False
        # Captured per-epoch by the solver.
        self._seg_latency = 0.0
        self._seg_sink = None
        #: rate entering each fluid hop, then the rate leaving the last
        self._hop_rates: List[float] = []
        #: bytes handed from hop to hop while a segment integrates
        self._carry = 0.0

    @property
    def offered_packets(self) -> int:
        """Deterministic packet count for the offered byte volume."""
        if self.packet_size <= 0:
            return 0
        return int(self.offered_bytes / self.packet_size + 0.5)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "active" if self.active else "stopped"
        return (
            f"<FluidFlow #{self.flow_id} {self.rate_bps:.0f}bps "
            f"{self.packet_size}B {state}>"
        )


class _HopSlot:
    """Persistent per-(queue, flow) fluid state: backlog bytes plus the
    fractional-packet remainders that keep integer counters drift-free."""

    __slots__ = ("backlog", "drop_rem", "tx_rem", "loss_rem", "down_rem")

    def __init__(self):
        self.backlog = 0.0
        self.drop_rem = 0.0
        self.tx_rem = 0.0
        self.loss_rem = 0.0
        self.down_rem = 0.0


class _GroupPlan:
    """One queue at one hop position, kept across epochs.

    Capacity and loss are captured when the group is built (immune to
    mid-segment mutation order; every link mutation rebuilds the plan).
    ``members`` are the flows through the queue at this position in
    ``FlowEngine.flows`` order, ``slots`` their :class:`_HopSlot` states —
    ``None`` until the member's first integrated segment creates it, as
    ``pending`` records.
    """

    __slots__ = ("device", "queue", "channel", "cap_bps", "loss_factor",
                 "max_backlog_bytes", "members", "slots", "pending")

    def __init__(self, device):
        channel = device.channel
        loss = channel.loss_rate if channel is not None else 0.0
        self.device = device
        self.queue = getattr(device, "queue", None)
        self.channel = channel
        self.cap_bps = device.data_rate_bps if device.up else 0.0
        self.loss_factor = 1.0 - loss
        self.max_backlog_bytes = 0.0
        self.members: List[FluidFlow] = []
        self.slots: List[Optional[_HopSlot]] = []
        self.pending = False

    def join(self, flow: FluidFlow, slot: Optional[_HopSlot]) -> None:
        self.members.append(flow)
        self.slots.append(slot)
        if slot is None:
            self.pending = True


class FlowEngine:
    """Piecewise-constant rate solver for :class:`FluidFlow` traffic.

    Lazily integrates: nothing is scheduled for a steady flow (``all``
    mode schedules *zero* events); state only advances when an epoch —
    :meth:`start_flow`, :meth:`stop_flow`, :meth:`on_link_change`, or a
    final :meth:`flush` — closes the current constant-rate segment.

    The plan persists across epochs: a flow start or stop joins or
    leaves the groups on its own path and re-solves only those, plus any
    group whose members' entering rates it changed; a link change
    rebuilds every group from current link state.  Either way the plan
    equals a full rebuild bit for bit (same group order, member order
    and float operations), so incremental solving changes no output.
    """

    def __init__(self, sim, mode: str = "all"):
        if mode not in FLOW_MODES or mode == "off":
            raise ValueError(f"flow engine mode must be 'auto' or 'all', got {mode!r}")
        self.sim = sim
        self.mode = mode
        self.flows: List[FluidFlow] = []
        self.finished: List[FluidFlow] = []
        self.epochs = 0
        self._flow_ids = itertools.count(1)
        self._seg_start = sim.now
        #: solved plan: per hop position, {device: _GroupPlan} in
        #: first-member order of ``flows``
        self._plan: List[Dict[object, _GroupPlan]] = []
        #: per-device per-flow fluid state (insertion-ordered, never sorted)
        self._hop_states: Dict[object, Dict[FluidFlow, _HopSlot]] = {}
        obs = sim.obs
        self._tracer = obs.tracer
        self._epoch_counter = obs.metrics.counter(
            "flow_epochs_total", help="fluid-flow re-linearization epochs"
        )
        self._flows_started = obs.metrics.counter(
            "flows_started_total", help="fluid flows ever started"
        )
        obs.metrics.gauge(
            "flows_active", help="fluid flows currently active",
            fn=lambda: len(self.flows),
        )
        sim.flows = self

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def start_flow(self, node, destination: Address, dst_port: int,
                   src_port: int, rate_bps: float, payload_size: int,
                   packet_size: int, span: Optional[str] = None) -> FluidFlow:
        """Open a flow from ``node`` toward ``destination`` and re-solve."""
        self.advance()
        hops, final_node = resolve_path(node, destination)
        if not hops:
            raise FlowPathError("fluid flows need at least one link hop")
        source = node.ip.primary_address(isinstance(destination, Ipv6Address))
        flow = FluidFlow(
            next(self._flow_ids), node, source, src_port, destination,
            dst_port, rate_bps, packet_size, payload_size, self.sim.now,
            span=span,
        )
        flow.hops = hops
        if self.mode == "all":
            flow.fluid_hops = hops
        else:
            flow.fluid_hops = hops[:-1]
            flow.inject_device = hops[-1]
        flow.sink_node = final_node
        self.flows.append(flow)
        self._flows_started.inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.start", self.sim.now, flow=flow.flow_id,
                src=str(source), rate_bps=round(flow.rate_bps, 3),
                size=flow.packet_size, mode=self.mode,
            )
        self._resolve(self._join(flow))
        return flow

    def stop_flow(self, flow: FluidFlow) -> None:
        """Close ``flow``: integrate up to now, flush residual backlog."""
        if not flow.active:
            return
        self.advance()
        flow.active = False
        flow.stopped_at = self.sim.now
        self.flows.remove(flow)
        self.finished.append(flow)
        # Residual queue backlog would drain and arrive shortly after the
        # flood ends in packet mode; credit it at the stop instant (at
        # most one queue's worth of bytes, invisible at 1 s bins).
        residual = 0.0
        for device in flow.fluid_hops:
            slots = self._hop_states.get(device)
            if slots is None:
                continue
            slot = slots.pop(flow, None)
            if slot is not None:
                residual += slot.backlog
        if residual > 0.0 and self.mode == "all":
            sink = getattr(flow.sink_node, "fluid_sink", None)
            if sink is not None:
                at = self.sim.now + flow._seg_latency
                delivered = sink.account_fluid(flow, residual, at, at)
                flow.delivered_bytes += delivered
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.stop", self.sim.now, flow=flow.flow_id,
                offered=round(flow.offered_bytes, 3),
                delivered=round(flow.delivered_bytes, 3),
            )
        self._resolve(self._leave(flow))

    def on_link_change(self) -> None:
        """Epoch hook for churn/fault link mutations (device up/down,
        data-rate overrides, channel parameter overrides)."""
        if not self.flows:
            return
        self.advance()
        self._resolve(self._rebuild())

    #: alias used by fault injection, naming the operation it performs
    relinearize = on_link_change

    def flush(self) -> None:
        """Integrate through ``sim.now`` (end-of-run settlement)."""
        self.advance()

    def checkpoint_state(self) -> dict:
        """Deterministic engine state — epochs, every flow's exact byte
        accounting, and all fractional-packet remainder accumulators —
        for state fingerprinting.  Read-only: no segment is closed.
        """

        def flow_state(flow: FluidFlow) -> list:
            return [
                flow.flow_id,
                str(flow.src_address),
                flow.src_port,
                flow.dst_port,
                flow.rate_bps,
                flow.packet_size,
                flow.started_at,
                flow.stopped_at,
                flow.active,
                flow.offered_bytes,
                flow.delivered_bytes,
                flow.dropped_bytes,
                flow.inject_rate_bps,
                flow._injecting,
                flow._inject_started,
                flow._seg_latency,
            ]

        hops = []
        for device, slots in self._hop_states.items():
            hops.append([
                getattr(device, "name", type(device).__name__),
                [
                    [flow.flow_id, slot.backlog, slot.drop_rem, slot.tx_rem,
                     slot.loss_rem, slot.down_rem]
                    for flow, slot in slots.items()
                ],
            ])
        return {
            "mode": self.mode,
            "epochs": self.epochs,
            "seg_start": self._seg_start,
            "active": [flow_state(flow) for flow in self.flows],
            "finished": [flow_state(flow) for flow in self.finished],
            "hops": hops,
        }

    # ------------------------------------------------------------------
    # Segment integration
    # ------------------------------------------------------------------
    def advance(self, now: Optional[float] = None) -> None:
        """Finalize the constant-rate segment from the last epoch to
        ``now`` under the plan captured at that epoch."""
        if now is None:
            now = self.sim.now
        dt = now - self._seg_start
        if dt <= 0.0:
            return
        self._integrate(self._seg_start, now)
        self._seg_start = now

    def _integrate(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        flows = self.flows
        if not flows:
            return
        # Bytes each flow pushes into its first hop this segment; the
        # cascade below thins the carry hop by hop.
        for flow in flows:
            nbytes = flow.rate_bps * dt / 8.0
            flow.offered_bytes += nbytes
            flow._carry = nbytes
        for groups in self._plan:
            for group in groups.values():
                if group.pending:
                    self._create_slots(group)
                if len(group.members) == 1:
                    self._integrate_single(group, dt)
                else:
                    self._integrate_group(group, dt)
        if self.mode != "all":
            return
        for flow in flows:
            nbytes = flow._carry
            if nbytes <= 0.0:
                continue
            sink = flow._seg_sink
            if sink is None:
                continue
            latency = flow._seg_latency
            delivered = sink.account_fluid(
                flow, nbytes, t0 + latency, t1 + latency
            )
            flow.delivered_bytes += delivered

    def _integrate_group(self, group: _GroupPlan, dt: float) -> None:
        members = group.members
        slots = group.slots
        total_in = 0.0
        for flow, slot in zip(members, slots):
            total_in += flow._carry + slot.backlog
        if total_in <= 0.0:
            return
        if group.cap_bps <= 0.0:
            self._lose_to_down_link(group)
            return
        cap_bytes = group.cap_bps * dt / 8.0
        out_total = min(cap_bytes, total_in)
        leftover = total_in - out_total
        new_backlog_total = min(group.max_backlog_bytes, leftover)
        dropped_total = leftover - new_backlog_total
        loss_factor = group.loss_factor
        queue = group.queue
        tx_packets = 0
        tx_bytes = 0
        carried_packets = 0
        carried_bytes = 0
        lost_packets = 0
        for flow, slot in zip(members, slots):
            flow_in = flow._carry + slot.backlog
            if flow_in <= 0.0:
                flow._carry = 0.0
                continue
            share = flow_in / total_in
            out_flow = out_total * share
            slot.backlog = new_backlog_total * share
            dropped_flow = dropped_total * share
            passed_flow = out_flow * loss_factor
            lost_flow = out_flow - passed_flow
            flow._carry = passed_flow
            size = flow.packet_size
            if dropped_flow > 0.0:
                flow.dropped_bytes += dropped_flow
                slot.drop_rem += dropped_flow / size
                whole = int(slot.drop_rem)
                if whole and queue is not None:
                    slot.drop_rem -= whole
                    queue.fluid_drop(whole, size, "overflow_fluid",
                                     span=flow.span)
            if out_flow > 0.0:
                slot.tx_rem += out_flow / size
                whole = int(slot.tx_rem)
                if whole:
                    slot.tx_rem -= whole
                    tx_packets += whole
                    tx_bytes += whole * size
            if lost_flow > 0.0:
                flow.dropped_bytes += lost_flow
                slot.loss_rem += lost_flow / size
                whole = int(slot.loss_rem)
                if whole:
                    slot.loss_rem -= whole
                    lost_packets += whole
        device = group.device
        if tx_packets:
            device.tx_packets += tx_packets
            device.tx_bytes += tx_bytes
            carried_packets = tx_packets - lost_packets
            carried_bytes = tx_bytes - lost_packets * (
                tx_bytes // tx_packets if tx_packets else 0
            )
        channel = group.channel
        if channel is not None and (carried_packets or lost_packets):
            channel.fluid_carry(carried_packets, carried_bytes, lost_packets)

    def _integrate_single(self, group: _GroupPlan, dt: float) -> None:
        """:meth:`_integrate_group` for a one-member group.  The member's
        share ``total_in / total_in`` is exactly 1.0, so every share
        product of the general path returns its other operand: skipping
        them changes no bit."""
        flow = group.members[0]
        slot = group.slots[0]
        total_in = flow._carry + slot.backlog
        if total_in <= 0.0:
            return
        if group.cap_bps <= 0.0:
            self._lose_to_down_link(group)
            return
        out_flow = min(group.cap_bps * dt / 8.0, total_in)
        leftover = total_in - out_flow
        backlog = min(group.max_backlog_bytes, leftover)
        slot.backlog = backlog
        dropped_flow = leftover - backlog
        passed_flow = out_flow * group.loss_factor
        lost_flow = out_flow - passed_flow
        flow._carry = passed_flow
        size = flow.packet_size
        if dropped_flow > 0.0:
            flow.dropped_bytes += dropped_flow
            slot.drop_rem += dropped_flow / size
            whole = int(slot.drop_rem)
            queue = group.queue
            if whole and queue is not None:
                slot.drop_rem -= whole
                queue.fluid_drop(whole, size, "overflow_fluid", span=flow.span)
        tx_packets = 0
        if out_flow > 0.0:
            slot.tx_rem += out_flow / size
            tx_packets = int(slot.tx_rem)
            if tx_packets:
                slot.tx_rem -= tx_packets
        lost_packets = 0
        if lost_flow > 0.0:
            flow.dropped_bytes += lost_flow
            slot.loss_rem += lost_flow / size
            lost_packets = int(slot.loss_rem)
            if lost_packets:
                slot.loss_rem -= lost_packets
        carried_packets = 0
        carried_bytes = 0
        if tx_packets:
            device = group.device
            device.tx_packets += tx_packets
            device.tx_bytes += tx_packets * size
            carried_packets = tx_packets - lost_packets
            carried_bytes = carried_packets * size
        channel = group.channel
        if channel is not None and (carried_packets or lost_packets):
            channel.fluid_carry(carried_packets, carried_bytes, lost_packets)

    def _lose_to_down_link(self, group: _GroupPlan) -> None:
        """Link down: everything offered (and any stranded backlog) is
        lost exactly as the packet path's drops_down accounting."""
        device = group.device
        for flow, slot in zip(group.members, group.slots):
            lost = flow._carry + slot.backlog
            slot.backlog = 0.0
            flow._carry = 0.0
            if lost <= 0.0:
                continue
            flow.dropped_bytes += lost
            slot.down_rem += lost / flow.packet_size
            whole = int(slot.down_rem)
            if whole:
                slot.down_rem -= whole
                device.drops_down += whole

    def _create_slots(self, group: _GroupPlan) -> None:
        """Give members their first :class:`_HopSlot` when the group's
        first segment integrates, registering them in ``_hop_states``
        in member order (the order state fingerprints list them in)."""
        states = self._hop_states.setdefault(group.device, {})
        slots = group.slots
        for index, flow in enumerate(group.members):
            if slots[index] is None:
                slots[index] = states[flow] = _HopSlot()
        group.pending = False

    # ------------------------------------------------------------------
    # Epoch solve
    # ------------------------------------------------------------------
    def _capture_segment(self, flow: FluidFlow) -> None:
        """Capture ``flow``'s path latency and sink for the segment."""
        latency = 0.0
        for device in flow.fluid_hops:
            if device.channel is not None:
                latency += device.channel.delay
        flow._seg_latency = latency
        flow._seg_sink = getattr(flow.sink_node, "fluid_sink", None)

    def _enter_groups(self, plan: List[Dict[object, _GroupPlan]],
                      flow: FluidFlow) -> None:
        """Append ``flow`` to its group at each hop position of ``plan``
        with its registered hop slot.  ``flow`` is the newest member of
        any group it opens, so a new group goes last in first-member
        order."""
        self._capture_segment(flow)
        states = self._hop_states
        for position, device in enumerate(flow.fluid_hops):
            if position == len(plan):
                plan.append({})
            groups = plan[position]
            group = groups.get(device)
            if group is None:
                group = groups[device] = _GroupPlan(device)
            slots = states.get(device)
            group.join(flow, slots.get(flow) if slots else None)

    def _join(self, flow: FluidFlow) -> List[Dict[object, None]]:
        """Add a new flow to the groups on its path.  Those groups are
        dirty; returns them as one ``{device: None}`` per position."""
        hops = flow.fluid_hops
        flow._hop_rates = [flow.rate_bps] * (len(hops) + 1)
        self._enter_groups(self._plan, flow)
        dirty: List[Dict[object, None]] = [{device: None} for device in hops]
        dirty.extend({} for _ in self._plan[len(hops):])
        return dirty

    def _leave(self, flow: FluidFlow) -> List[Dict[object, None]]:
        """Remove a stopped flow from the groups on its path.  Returns
        the groups it left that still have members, as :meth:`_join`
        does."""
        plan = self._plan
        dirty: List[Dict[object, None]] = [{} for _ in plan]
        for position, device in enumerate(flow.fluid_hops):
            groups = plan[position]
            group = groups[device]
            index = group.members.index(flow)
            del group.members[index]
            del group.slots[index]
            if not group.members:
                del groups[device]
                continue
            dirty[position][device] = None
            if index == 0 and len(groups) > 1:
                # The group's first member changed: restore first-member
                # order (flow ids grow in ``flows`` order).
                plan[position] = dict(sorted(
                    groups.items(), key=lambda item: item[1].members[0].flow_id
                ))
        while plan and not plan[-1]:
            plan.pop()
            dirty.pop()
        return dirty

    def _rebuild(self) -> List[Dict[object, None]]:
        """Rebuild every group from current link state; all are dirty."""
        plan: List[Dict[object, _GroupPlan]] = []
        for flow in self.flows:
            self._enter_groups(plan, flow)
        self._plan = plan
        return [dict.fromkeys(groups) for groups in plan]

    def _solve(self, dirty: List[Dict[object, None]]) -> None:
        """Re-solve the ``dirty`` groups position by position: per-queue
        backlog cap plus rate-based pass fractions.  A member whose
        leaving rate changed dirties its group at the next position."""
        plan = self._plan
        for position, devices in enumerate(dirty):
            groups = plan[position]
            following = position + 1
            for device in devices:
                group = groups[device]
                members = group.members
                demand = 0.0
                weighted_size = 0.0
                for flow in members:
                    rate = flow._hop_rates[position]
                    demand += rate
                    weighted_size += rate * flow.packet_size
                avg_size = (
                    weighted_size / demand if demand > 0.0
                    else float(members[0].packet_size)
                )
                queue = group.queue
                if queue is not None:
                    max_backlog = queue.max_packets * avg_size
                    if queue.max_bytes is not None:
                        max_backlog = min(max_backlog, float(queue.max_bytes))
                else:
                    max_backlog = 0.0
                group.max_backlog_bytes = max_backlog
                if group.cap_bps <= 0.0:
                    pass_fraction = 0.0
                elif demand > group.cap_bps > 0.0:
                    pass_fraction = group.cap_bps / demand
                else:
                    pass_fraction = 1.0
                pass_fraction *= group.loss_factor
                for flow in members:
                    rates = flow._hop_rates
                    rate = rates[position] * pass_fraction
                    if rate != rates[following]:
                        rates[following] = rate
                        hops = flow.fluid_hops
                        if following < len(hops):
                            dirty[following][hops[following]] = None

    def _resolve(self, dirty: List[Dict[object, None]]) -> None:
        """Close an epoch: re-solve the ``dirty`` groups and, in ``auto``
        mode, retune the crossover injectors to the new rates."""
        self.epochs += 1
        self._epoch_counter.inc()
        self._solve(dirty)
        if self.mode == "auto":
            for flow in self.flows:
                flow.inject_rate_bps = flow._hop_rates[-1]
                self._ensure_injector(flow)
        if self._tracer.enabled:
            self._tracer.emit(
                "flow.epoch", self.sim.now, flows=len(self.flows),
                epoch=self.epochs,
            )

    # ------------------------------------------------------------------
    # Crossover injection (auto mode)
    # ------------------------------------------------------------------
    def _ensure_injector(self, flow: FluidFlow) -> None:
        """(Re)start the packet injector feeding the crossover hop."""
        if flow._injecting or flow.inject_rate_bps <= 0.0 or not flow.active:
            return
        flow._injecting = True
        if flow._inject_started:
            delay = self._inject_interval(flow)
        else:
            # First packet reaches the bottleneck after the upstream
            # propagation latency, like the packet path's first packet.
            flow._inject_started = True
            delay = flow._seg_latency
        self.sim.schedule_bare(delay, self._inject, flow)

    def _inject_interval(self, flow: FluidFlow) -> float:
        return flow.packet_size * 8.0 / flow.inject_rate_bps

    def _inject(self, flow: FluidFlow) -> None:
        if not flow.active or flow.inject_rate_bps <= 0.0:
            flow._injecting = False
            return
        packet = Packet(None, flow.payload_size, created_at=self.sim.now)
        if flow.span is not None:
            packet.span = flow.span
        packet.add_header(UdpHeader(flow.src_port, flow.dst_port))
        packet.add_header(
            ip_header_for(flow.src_address, flow.dst_address, PROTO_UDP, 63)
        )
        device = flow.inject_device
        if device.send(packet):
            flow.delivered_bytes += packet.size
        self.sim.schedule_bare(self._inject_interval(flow), self._inject, flow)

    # ------------------------------------------------------------------
    # Introspection (tests, reports)
    # ------------------------------------------------------------------
    def queue_backlog_bytes(self, device) -> float:
        """Current fluid backlog at ``device``'s queue (the queue-depth
        trajectory sampled at the last epoch boundary)."""
        slots = self._hop_states.get(device)
        if not slots:
            return 0.0
        total = 0.0
        for slot in slots.values():
            total += slot.backlog
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<FlowEngine mode={self.mode} flows={len(self.flows)} "
            f"epochs={self.epochs}>"
        )
