"""Unit tests for core support modules: config, metrics, resources, results."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.metrics import (
    average_received_rate_kbps,
    delivery_ratio,
    peak_received_rate_kbps,
)
from repro.core.resources import ResourceModel, ResourceReport
from repro.core.results import format_table
from repro.netsim.node import Node
from repro.netsim.sink import PacketSink


class TestConfigValidation:
    def test_defaults_are_paper_aligned(self):
        config = SimulationConfig(n_devs=10)
        assert config.dev_rate_kbps == (100.0, 500.0)
        assert config.attack_duration == 100.0
        assert config.sim_duration == 600.0
        assert config.churn_phi == (0.16, 0.08, 0.04)
        assert config.churn_interval == 20.0
        assert config.attack_payload_size == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_devs": 0},
            {"n_devs": 5, "churn": "sometimes"},
            {"n_devs": 5, "binary_mix": "openwrt"},
            {"n_devs": 5, "dev_rate_kbps": (500.0, 100.0)},
            {"n_devs": 5, "dev_rate_kbps": (0.0, 100.0)},
            {"n_devs": 5, "attack_duration": 0},
            {"n_devs": 5, "attack_payload_size": 0},
            {"n_devs": 5, "attack_payload_size": 65_508},
            {"n_devs": 5, "churn_phi": (0.1, 0.2)},
            {"n_devs": 5, "churn_phi": (0.1, 0.2, 1.7)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_mean_dev_rate(self):
        config = SimulationConfig(n_devs=1, dev_rate_kbps=(100.0, 500.0))
        assert config.mean_dev_rate_bps == 300_000.0


class TestMetrics:
    def _sink_with_bytes(self, sim, schedule):
        node = Node(sim, "t")
        sink = PacketSink(node)
        # Inject bins directly (unit test of the arithmetic).
        for second, count in schedule.items():
            sink.bytes_per_bin[second] = count
        return sink

    def test_equation_two(self, sim):
        # 125 000 B over 10 s = 100 kbps average.
        sink = self._sink_with_bytes(sim, {i: 12_500 for i in range(10)})
        assert average_received_rate_kbps(sink, 0.0, 10.0) == pytest.approx(100.0)

    def test_window_excludes_outside_bins(self, sim):
        sink = self._sink_with_bytes(sim, {0: 1000, 5: 1000, 20: 99_999})
        assert average_received_rate_kbps(sink, 0.0, 10.0) == pytest.approx(
            2000 * 8 / 1000 / 10
        )

    def test_empty_window_is_zero(self, sim):
        sink = self._sink_with_bytes(sim, {})
        assert average_received_rate_kbps(sink, 5.0, 5.0) == 0.0
        assert average_received_rate_kbps(sink, 5.0, 1.0) == 0.0

    def test_peak_rate(self, sim):
        sink = self._sink_with_bytes(sim, {0: 1000, 1: 5000, 2: 2000})
        assert peak_received_rate_kbps(sink, 0.0, 3.0) == pytest.approx(40.0)

    def test_delivery_ratio(self):
        assert delivery_ratio(50, 100) == 0.5
        assert delivery_ratio(0, 0) == 0.0
        assert delivery_ratio(200, 100) == 1.0  # clamped


class TestResourceModel:
    def test_pre_attack_memory_grows_with_devs(self):
        model = ResourceModel()
        per_dev_container = 6 * 1024 * 1024
        values = [
            model.pre_attack_memory_gb(n, n * per_dev_container)
            for n in (20, 70, 130)
        ]
        assert values == sorted(values)
        assert values[0] > 0.2  # host base included

    def test_attack_memory_exceeds_pre_attack(self):
        model = ResourceModel()
        pre = model.pre_attack_memory_gb(100, 100 * 6_000_000)
        attack = model.attack_memory_gb(100, 100 * 6_000_000, flood_bytes=40_000_000)
        assert attack > pre

    def test_attack_memory_gap_widens_with_traffic(self):
        model = ResourceModel()
        small = model.attack_memory_gb(10, 0, 1_000_000) - model.pre_attack_memory_gb(10, 0)
        large = model.attack_memory_gb(10, 0, 50_000_000) - model.pre_attack_memory_gb(10, 0)
        assert large > small

    def test_attack_time_exceeds_simulated_duration(self):
        model = ResourceModel()
        assert model.attack_time_s(20, 100.0, 150_000) > 100.0

    def test_attack_time_monotone_in_devices_and_packets(self):
        model = ResourceModel()
        t_small = model.attack_time_s(20, 100.0, 20 * 7300)
        t_large = model.attack_time_s(130, 100.0, 130 * 7300)
        assert t_large > t_small

    def test_table1_shape_reproduced(self):
        """Model output tracks the published Table I within loose bounds."""
        model = ResourceModel()
        per_dev_container = 6 * 1024 * 1024
        paper = {20: 123, 40: 163, 70: 202, 100: 228, 130: 314}
        for n, seconds in paper.items():
            predicted = model.attack_time_s(n, 100.0, n * 7300)
            assert abs(predicted - seconds) / seconds < 0.35

    def test_report_and_mmss(self):
        model = ResourceModel()
        report = model.report(20, 120_000_000, 9_000_000, 140_000, 100.0)
        assert isinstance(report, ResourceReport)
        minutes, seconds = report.attack_time_mmss().split(":")
        assert int(minutes) >= 1
        assert len(seconds) == 2


class TestFormatTable:
    def test_alignment_and_content(self):
        rows = [
            {"a": 1, "bb": "x"},
            {"a": 100, "bb": "yyyy"},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "100" in lines[3]

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_column_selection(self):
        rows = [{"x": 1, "y": 2}]
        text = format_table(rows, columns=["y"])
        assert "x" not in text.splitlines()[0]
