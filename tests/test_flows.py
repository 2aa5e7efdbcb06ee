"""Fluid-flow datapath (repro.netsim.flows): analytic flood traffic.

The contract: a steady flood represented as a FluidFlow must account
bytes, packets, drops and spans *exactly in expectation* against the
packet path, re-solving only at rate-change epochs — while ``--flow
off`` keeps the packet datapath bit-identical to the seed.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import DDoSim, SimulationConfig
from repro.netsim.flows import (
    FLOW_MODES,
    FlowEngine,
    FlowPathError,
    resolve_path,
)
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.sink import PacketSink
from repro.netsim.tiered import TieredInternet
from repro.netsim.topology import StarInternet
from repro.serialization import result_to_json

WIRE = 560  # 512 B payload + UDP 8 + IPv6 40


def _star(uplink_bps=1e6, downlink_bps=None, queue_packets=None):
    """sender -> router -> receiver star with a PacketSink listening."""
    sim = Simulator()
    star = StarInternet(sim)
    sender = Node(sim, "sender")
    receiver = Node(sim, "receiver")
    star.attach_host(sender, uplink_bps, delay=0.001)
    star.attach_host(receiver, 100e6, delay=0.001,
                     downlink_rate_bps=downlink_bps,
                     queue_packets=queue_packets)
    sink = PacketSink(receiver)
    sink.start()
    return sim, star, sender, receiver, sink


class TestResolvePath:
    def test_walks_host_router_host(self):
        sim, star, sender, receiver, _sink = _star()
        hops, final = resolve_path(sender, star.address_of(receiver))
        assert final is receiver
        assert len(hops) == 2
        assert hops[0] is star.links[sender].host_device
        assert hops[1] is star.links[receiver].router_device

    def test_no_route_raises(self):
        sim = Simulator()
        lonely = Node(sim, "lonely")
        other = Node(sim, "other")
        sim2, star, _s, receiver, _sink = _star()
        with pytest.raises(FlowPathError):
            resolve_path(lonely, star.address_of(receiver))

    def test_engine_rejects_off_mode(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlowEngine(sim, mode="off")
        assert FLOW_MODES == ("off", "auto", "all")


class TestFluidSolver:
    def test_uncongested_flow_delivers_offered_bytes(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        offered = 1e6 * 10.0 / 8.0
        assert flow.offered_bytes == pytest.approx(offered)
        # Everything fits: delivered equals offered minus sub-byte
        # quantization remainder.
        assert sink.total_bytes == pytest.approx(offered, abs=2.0)
        assert sink.total_packets == pytest.approx(offered / WIRE, abs=1.0)
        assert star.total_queue_drops() == 0
        # Three epochs: flow start, flow stop — plus none in between.
        assert engine.epochs <= 4

    def test_bottleneck_drops_excess_analytically(self):
        sim, star, sender, receiver, sink = _star(
            uplink_bps=1e6, downlink_bps=500e3, queue_packets=10,
        )
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # The 500 kbps bottleneck passes half; one queue of backlog
        # (10 x 560 B) survives as the fill transient.
        cap_bytes = 500e3 * 10.0 / 8.0
        assert sink.total_bytes == pytest.approx(cap_bytes, rel=0.02)
        dropped = star.total_queue_drops()
        expected_dropped = (flow.offered_bytes - cap_bytes - 10 * WIRE) / WIRE
        assert dropped == pytest.approx(expected_dropped, rel=0.02)
        assert flow.dropped_bytes == pytest.approx(dropped * WIRE, rel=0.02)

    def test_link_down_epoch_stops_delivery(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        link = star.links[sender]
        sim.schedule(5.0, link.host_device.set_down)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # Only the first 5 s of the flow arrives; the rest is counted
        # against the downed device exactly like packet-mode drops_down.
        half = 1e6 * 5.0 / 8.0
        assert sink.total_bytes == pytest.approx(half, abs=2.0)
        assert link.host_device.drops_down == pytest.approx(half / WIRE, abs=1.0)
        # The down transition re-linearized the solver.
        assert engine.epochs >= 3

    def test_rate_degrade_epoch_thins_delivery(self):
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)
        device = star.links[sender].host_device
        sim.schedule(5.0, device.override_data_rate, 250e3)
        sim.schedule(10.0, engine.stop_flow, flow)
        sim.run(until=12.0)
        # 5 s at the full 1 Mbps, then 5 s clamped to 250 kbps (the
        # degraded link's analytic pass fraction), plus <= one queue of
        # backlog drained as the residual flush.
        expected = (1e6 * 5.0 + 250e3 * 5.0) / 8.0
        backlog_allowance = 100 * WIRE
        assert expected <= sink.total_bytes <= expected + backlog_allowance

    def test_two_flows_share_bottleneck_proportionally(self):
        sim = Simulator()
        star = StarInternet(sim)
        fast = Node(sim, "fast")
        slow = Node(sim, "slow")
        receiver = Node(sim, "receiver")
        star.attach_host(fast, 2e6, delay=0.001)
        star.attach_host(slow, 1e6, delay=0.001)
        star.attach_host(receiver, 100e6, delay=0.001,
                         downlink_rate_bps=1.5e6, queue_packets=10)
        sink = PacketSink(receiver)
        sink.start()
        engine = FlowEngine(sim, mode="all")
        destination = star.address_of(receiver)
        flow_a = engine.start_flow(fast, destination, 7777, 9,
                                   rate_bps=2e6, payload_size=512,
                                   packet_size=WIRE)
        flow_b = engine.start_flow(slow, destination, 7777, 10,
                                   rate_bps=1e6, payload_size=512,
                                   packet_size=WIRE)
        sim.schedule(10.0, engine.stop_flow, flow_a)
        sim.schedule(10.0, engine.stop_flow, flow_b)
        sim.run(until=12.0)
        # 3 Mbps offered into a 1.5 Mbps bottleneck: half passes, and
        # the per-flow split follows the 2:1 demand ratio.
        assert sink.total_bytes == pytest.approx(1.5e6 * 10 / 8, rel=0.02)
        assert flow_a.delivered_bytes == pytest.approx(
            2 * flow_b.delivered_bytes, rel=0.05
        )
        sources = sink.per_source
        assert len(sources) == 2

    def test_sink_quantization_never_drifts(self):
        """Integer bin credits + persistent remainders: the histogram sum
        equals the sink's byte total exactly, whatever the segmentation."""
        sim, star, sender, receiver, sink = _star(uplink_bps=1e6)
        engine = FlowEngine(sim, mode="all")
        flow = engine.start_flow(sender, star.address_of(receiver), 7777, 9,
                                 rate_bps=123_457.0, payload_size=512,
                                 packet_size=WIRE)
        # Force many tiny awkward segments.
        for step in range(1, 40):
            sim.schedule(step * 0.137, engine.on_link_change)
        sim.schedule(7.0, engine.stop_flow, flow)
        sim.run(until=9.0)
        assert sum(sink.bytes_per_bin.values()) == sink.total_bytes
        assert sink.total_bytes == pytest.approx(flow.offered_bytes, abs=2.0)
        assert all(isinstance(v, int) for v in sink.bytes_per_bin.values())


def _plan_view(engine):
    """Everything the solved plan decides, floats as exact hex strings:
    per hop position the groups in order, each with its device, member
    flow ids, capacity, loss factor, backlog cap and the rate each
    member enters with; then every flow's leaving and injector rate."""
    view = []
    for position, groups in enumerate(engine._plan):
        row = []
        for device, group in groups.items():
            states = engine._hop_states.get(device, {})
            # A group's slots are the engine's registered per-hop state.
            assert group.slots == [states.get(flow) for flow in group.members]
            row.append([
                device.name,
                [flow.flow_id for flow in group.members],
                group.cap_bps.hex(),
                group.loss_factor.hex(),
                group.max_backlog_bytes.hex(),
                [flow._hop_rates[position].hex() for flow in group.members],
            ])
        view.append(row)
    view.append([
        [flow.flow_id, flow._hop_rates[-1].hex(), flow.inject_rate_bps.hex()]
        for flow in engine.flows
    ])
    return view


#: one fuzzed step: (operation, operands), then seconds to run after it
_STEP = st.tuples(
    st.one_of(
        st.tuples(st.just("start"), st.integers(0, 2), st.integers(0, 1),
                  st.sampled_from([300e3, 700e3, 1.4e6]),
                  st.sampled_from([WIRE, 300])),
        st.tuples(st.just("stop"), st.integers(0, 7)),
        st.tuples(st.just("down"), st.integers(0, 4)),
        st.tuples(st.just("up"), st.integers(0, 4)),
        st.tuples(st.just("rate"), st.integers(0, 4),
                  st.sampled_from([None, 200e3, 900e3])),
        st.tuples(st.just("loss"), st.integers(0, 4),
                  st.sampled_from([None, 0.05, 0.3])),
    ),
    st.sampled_from([0.0, 0.05, 0.4]),
)

#: two flows from one node to two receivers, with a third node's flow
#: keeping the first receiver's bottleneck group alive; the node's first
#: flow stops, which re-solves the shared access group and changes the
#: rate its other flow enters the second receiver's group with
_FIRST_MEMBER_STOPS = [
    (("start", 0, 0, 700e3, WIRE), 0.05),
    (("start", 1, 0, 1.4e6, 300), 0.05),
    (("start", 0, 1, 1.4e6, WIRE), 0.4),
    (("stop", 0), 0.4),
    (("stop", 1), 0.05),
]


class TestIncrementalResolve:
    """A flow start or stop re-solves only its own path (plus groups
    whose entering rates it changed); the plan it leaves must equal a
    full rebuild of the same engine bit for bit."""

    @staticmethod
    def _apply(engine, star, nodes, receivers, op):
        kind = op[0]
        links = [star.links[node] for node in nodes + receivers]
        if kind == "start":
            _kind, node, receiver, rate, size = op
            engine.start_flow(nodes[node], star.address_of(receivers[receiver]),
                              7777,
                              1000 + len(engine.flows) + len(engine.finished),
                              rate_bps=rate, payload_size=size - 48,
                              packet_size=size)
        elif kind == "stop":
            if engine.flows:
                engine.stop_flow(engine.flows[op[1] % len(engine.flows)])
        elif kind in ("down", "up"):
            links[op[1]].set_up(kind == "up")
        elif kind == "rate":
            # A receiver's entry degrades its shared bottleneck device.
            link = links[op[1]]
            device = (link.router_device if op[1] >= len(nodes)
                      else link.host_device)
            if op[2] is None:
                device.clear_data_rate_override()
            else:
                device.override_data_rate(op[2])
        else:
            channel = links[op[1]].host_device.channel
            if op[2] is None:
                channel.clear_overrides()
            else:
                channel.override_parameters(loss_rate=op[2],
                                            rng=random.Random(7))

    @pytest.mark.parametrize("topology", ["star", "tiered"])
    @pytest.mark.parametrize("mode", ["all", "auto"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(_STEP, min_size=1, max_size=20))
    @example(steps=_FIRST_MEMBER_STOPS)
    def test_plan_equals_full_rebuild(self, topology, mode, steps):
        # Tiered paths run access -> home uplink -> a shared 1.2 Mbps ISP
        # uplink -> core, so a rate change can travel two hops downstream.
        sim = Simulator()
        star = (StarInternet(sim) if topology == "star"
                else TieredInternet(sim, n_isps=2, isp_uplink_bps=1.2e6))
        nodes = [Node(sim, f"dev{index}") for index in range(3)]
        receivers = [Node(sim, f"receiver{index}") for index in range(2)]
        for node in nodes:
            star.attach_host(node, 1e6, delay=0.001)
        for receiver in receivers:
            star.attach_host(receiver, 100e6, delay=0.001,
                             downlink_rate_bps=1.5e6, queue_packets=10)
            PacketSink(receiver).start()
        engine = FlowEngine(sim, mode=mode)
        for op, gap in steps:
            self._apply(engine, star, nodes, receivers, op)
            if gap:
                sim.run(until=sim.now + gap)
            incremental = _plan_view(engine)
            state = json.dumps(engine.checkpoint_state(), sort_keys=True)
            engine._solve(engine._rebuild())
            assert _plan_view(engine) == incremental
            assert json.dumps(engine.checkpoint_state(),
                              sort_keys=True) == state
            if mode == "all":
                assert all(flow.inject_rate_bps == 0.0
                           for flow in engine.flows)


class TestSinkFluidCache:
    """``account_fluid`` caches a flow's ``per_source`` entry and NetFlow
    record at its first credit; ``reset()`` must drop that cache."""

    def _flow(self, sim, star, sender, receiver, src_port=7777):
        engine = sim.flows or FlowEngine(sim, mode="all")
        return engine.start_flow(sender, star.address_of(receiver), 9,
                                 src_port, rate_bps=1e6, payload_size=512,
                                 packet_size=WIRE)

    def test_reset_opens_fresh_records(self):
        sim, star, sender, receiver, sink = _star()
        flow = self._flow(sim, star, sender, receiver)
        sim.run(until=2.0)
        sim.flows.flush()
        key = (flow.src_address, flow.src_port)
        stale_entry = sink.per_source[key]
        stale_record = sink.flows[key + (flow.dst_port,)]
        frozen = (list(stale_entry), dict(stale_record))
        sink.reset()
        sim.run(until=4.0)
        sim.flows.flush()
        assert (list(stale_entry), dict(stale_record)) == frozen
        entry = sink.per_source[key]
        record = sink.flows[key + (flow.dst_port,)]
        assert entry is not stale_entry and record is not stale_record
        assert entry[1] == sink.total_bytes > 0
        assert record["bytes"] == sink.total_bytes
        assert record["t_first"] >= 2.0

    def test_packet_and_fluid_share_per_source_entry(self):
        from repro.netsim.headers import UdpHeader, ip_header_for
        from repro.netsim.packet import Packet

        sim, star, sender, receiver, sink = _star()
        flow = self._flow(sim, star, sender, receiver)
        packet = Packet(None, 512)
        packet.add_header(UdpHeader(flow.src_port, flow.dst_port))
        packet.add_header(ip_header_for(flow.src_address, flow.dst_address,
                                        17, 64))
        star.links[sender].host_device.send(packet)
        sim.run(until=2.0)
        sim.flows.flush()
        assert len(sink.per_source) == 1
        assert len(sink.flows) == 1
        (packets, nbytes), = sink.per_source.values()
        assert nbytes == sink.total_bytes
        assert packets == sink.total_packets


class TestCrossoverModes:
    def _run(self, flow_mode):
        config = SimulationConfig(
            n_devs=3, seed=1, attack_duration=20.0, recruit_timeout=30.0,
            sim_duration=150.0, flood_flow=flow_mode,
        )
        ddosim = DDoSim(config)
        result = ddosim.run()
        return ddosim, result

    @pytest.fixture(scope="class")
    def packet_run(self):
        return self._run("off")

    def test_off_mode_is_byte_identical_to_default(self, packet_run):
        _ddosim, result = packet_run
        config = SimulationConfig(
            n_devs=3, seed=1, attack_duration=20.0, recruit_timeout=30.0,
            sim_duration=150.0,
        )
        baseline = DDoSim(config)
        assert result_to_json(baseline.run()) == result_to_json(result)

    @pytest.mark.parametrize("mode", ["all", "auto"])
    def test_flow_mode_matches_packet_mode_in_expectation(self, packet_run,
                                                          mode):
        _p_sim, p_result = packet_run
        f_sim, f_result = self._run(mode)
        assert f_result.attack.received_bytes == pytest.approx(
            p_result.attack.received_bytes, rel=0.02
        )
        assert f_result.attack.offered_bytes == pytest.approx(
            p_result.attack.offered_bytes, rel=0.02
        )
        # NetFlow records: same sources, comparable volumes.
        p_flows = _p_sim.tserver.sink.flow_records()
        f_flows = f_sim.tserver.sink.flow_records()
        assert [f["src"] for f in f_flows] == [f["src"] for f in p_flows]

    def test_all_mode_slashes_event_count(self, packet_run):
        _p_sim, p_result = packet_run
        f_sim, f_result = self._run("all")
        assert f_result.events_executed * 5 <= p_result.events_executed
        assert f_sim.flow_engine is not None
        assert f_sim.flow_engine.finished  # flows opened and closed

    def test_auto_mode_keeps_real_packets_at_sink(self):
        f_sim, _f_result = self._run("auto")
        sink = f_sim.tserver.sink
        # Crossover injection delivers genuine packets: the sink's fluid
        # quantization state stays untouched in auto mode.
        assert sink.total_packets > 0
        assert not sink._fluid

    def test_all_mode_double_run_is_deterministic(self):
        _a_sim, a_result = self._run("all")
        _b_sim, b_result = self._run("all")
        assert result_to_json(a_result) == result_to_json(b_result)

    def test_flow_mode_span_attribution_survives(self):
        from repro.obs import Observatory

        config = SimulationConfig(
            n_devs=2, seed=1, attack_duration=10.0, recruit_timeout=30.0,
            sim_duration=120.0, protection_profiles=((),),
            flood_flow="all",
        )
        ddosim = DDoSim(config, observatory=Observatory.full())
        ddosim.run()
        spans = ddosim.obs.spans
        assert spans.kinds()["attack.train"] == 2
        delivered = sum(span.packets_delivered for span in spans.spans())
        assert delivered > 0

    def test_flow_knob_changes_cache_key(self):
        from repro.serialization import config_to_canonical_json

        base = SimulationConfig(n_devs=3, seed=1)
        fluid = SimulationConfig(n_devs=3, seed=1, flood_flow="all")
        assert config_to_canonical_json(base) != config_to_canonical_json(fluid)
        assert json.loads(config_to_canonical_json(fluid))["flood_flow"] == "all"

    def test_invalid_flow_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_devs=1, flood_flow="fluid")
