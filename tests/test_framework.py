"""End-to-end integration tests for the DDoSim framework.

These run the complete chain — container build, exploit delivery, ROP,
infection-script download, Mirai install, C&C registration, UDP-PLAIN
flood, metric collection — on small fleets.
"""

import pytest

from repro.core import DDoSim, SimulationConfig


def quick_config(**overrides):
    defaults = dict(
        n_devs=4,
        seed=11,
        attack_duration=15.0,
        recruit_timeout=40.0,
        sim_duration=150.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def baseline_run():
    """One shared full run (module-scoped: these are integration checks
    over the same scenario)."""
    ddosim = DDoSim(quick_config())
    result = ddosim.run()
    return ddosim, result


class TestRecruitment:
    def test_all_devs_recruited(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.recruitment.infection_rate == 1.0
        assert result.recruitment.bots_recruited == 4

    def test_both_cves_used(self, baseline_run):
        """The mixed fleet recruits through both vulnerable binaries."""
        _ddosim, result = baseline_run
        assert set(result.recruitment.by_binary) <= {"connman", "dnsmasq"}
        assert sum(result.recruitment.by_binary.values()) == 4

    def test_leaks_precede_exploits(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.recruitment.leaks_harvested >= result.recruitment.bots_recruited
        assert result.recruitment.exploits_delivered >= result.recruitment.bots_recruited

    def test_recruitment_timeline_recorded(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.recruitment.first_bot_time is not None
        assert result.recruitment.last_bot_time >= result.recruitment.first_bot_time

    def test_devices_run_mirai_after_recruitment(self, baseline_run):
        ddosim, _result = baseline_run
        for dev in ddosim.devs.devs:
            names = [process.name for process in dev.container.processes.values()]
            # The daemon is gone (execlp) and an obfuscated bot remains.
            assert dev.kind not in names
            assert any(len(name) == 10 for name in names)

    def test_mirai_binary_deleted_after_install(self, baseline_run):
        ddosim, _result = baseline_run
        for dev in ddosim.devs.devs:
            assert not dev.container.fs.exists("/tmp/.mirai")


class TestAttack:
    def test_attack_magnitude_measured(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.attack.avg_received_kbps > 0
        assert result.attack.received_bytes > 0
        assert result.attack.offered_bytes >= result.attack.received_bytes

    def test_offered_rate_tracks_dev_links(self, baseline_run):
        """4 devs at 100-500 kbps should offer roughly 0.4-2 Mbps."""
        _ddosim, result = baseline_run
        assert 300 < result.attack.offered_kbps < 2200

    def test_rate_series_covers_attack_window(self, baseline_run):
        _ddosim, result = baseline_run
        assert len(result.rate_series_kbps) == int(result.attack.duration)
        assert max(result.rate_series_kbps) > 0

    def test_all_bots_commanded(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.attack.bots_commanded == 4

    def test_tserver_sees_each_bot(self, baseline_run):
        ddosim, _result = baseline_run
        assert ddosim.tserver.sink.distinct_sources() == 4

    def test_resources_reported(self, baseline_run):
        _ddosim, result = baseline_run
        assert result.resources.pre_attack_mem_gb > 0.2
        assert result.resources.attack_mem_gb > result.resources.pre_attack_mem_gb
        assert result.resources.attack_time_s > result.attack.duration


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        one = DDoSim(quick_config(seed=42)).run()
        two = DDoSim(quick_config(seed=42)).run()
        assert one.attack.avg_received_kbps == two.attack.avg_received_kbps
        assert one.attack.offered_packets == two.attack.offered_packets
        assert one.recruitment.bots_recruited == two.recruitment.bots_recruited
        assert one.attack.issued_at == two.attack.issued_at

    def test_different_seed_different_details(self):
        one = DDoSim(quick_config(seed=1)).run()
        two = DDoSim(quick_config(seed=2)).run()
        # Same infection outcome, different randomized fleet details.
        assert one.recruitment.infection_rate == two.recruitment.infection_rate == 1.0
        assert one.attack.offered_packets != two.attack.offered_packets


class TestDefenses:
    def test_patched_fleet_resists(self):
        """With patched binaries there is no recruitment and no attack."""
        from repro.binaries.connman import make_connman_binary
        from repro.binaries.dnsmasq import make_dnsmasq_binary

        ddosim = DDoSim(quick_config(recruit_timeout=25.0))
        ddosim.devs.connman_binary = make_connman_binary(vulnerable=False)
        ddosim.devs.dnsmasq_binary = make_dnsmasq_binary(vulnerable=False)
        # Patch the per-profile builds too: build() derives them from the
        # fleet binaries' seeds but with profile-specific protections.
        result = ddosim.run()
        assert result.recruitment.bots_recruited == 0
        assert result.attack.avg_received_kbps == 0.0

    def test_no_curl_devices_resist(self):
        """The paper's insight: removing curl breaks the install chain
        even though the hijack itself succeeds."""
        result = DDoSim(
            quick_config(devs_without_curl=True, recruit_timeout=25.0)
        ).run()
        assert result.recruitment.bots_recruited == 0

    def test_single_binary_fleets(self):
        for mix in ("connman", "dnsmasq"):
            result = DDoSim(quick_config(binary_mix=mix, n_devs=3)).run()
            assert result.recruitment.infection_rate == 1.0
            assert set(result.recruitment.by_binary) == {mix}


class TestChurnIntegration:
    def test_static_churn_never_rejoins(self):
        result = DDoSim(
            quick_config(n_devs=30, churn="static", seed=5)
        ).run()
        assert result.churn.mode == "static"
        assert result.churn.rejoins == 0
        assert result.recruitment.bots_recruited <= 30
        # Recruits = online devices (the 100% answer holds for reachable devs).
        assert result.recruitment.bots_recruited >= result.recruitment.devs_online_at_start - 1

    def test_dynamic_churn_has_rejoins(self):
        result = DDoSim(
            quick_config(
                n_devs=40, churn="dynamic", seed=5,
                attack_duration=60.0, sim_duration=300.0,
            )
        ).run()
        assert result.churn.departures > 0
        assert result.churn.rejoins > 0

    def test_no_churn_is_upper_bound(self):
        """No churn gets the full fleet, so it bounds both churn modes.
        (The full static > dynamic ordering needs scale to rise above
        per-seed noise; the Figure 2 benchmark checks it at 100+ Devs.)"""
        results = {}
        for mode in ("none", "static", "dynamic"):
            results[mode] = DDoSim(
                quick_config(
                    n_devs=30, churn=mode, seed=9,
                    attack_duration=40.0, sim_duration=250.0,
                )
            ).run()
        none_rate = results["none"].attack.avg_received_kbps
        assert none_rate >= results["static"].attack.avg_received_kbps
        assert none_rate >= results["dynamic"].attack.avg_received_kbps


class TestFrameworkPlumbing:
    def test_build_is_idempotent(self):
        ddosim = DDoSim(quick_config())
        ddosim.build()
        ddosim.build()
        assert len(ddosim.devs.devs) == 4

    def test_tserver_delivery_has_no_taps(self):
        # The sink keeps the NetFlow records; no per-delivery tap runs.
        ddosim = DDoSim(quick_config())
        ddosim.build()
        assert ddosim.tserver.node.ip.delivery_taps == []

    def test_row_summary(self, baseline_run):
        _ddosim, result = baseline_run
        row = result.row()
        assert row["n_devs"] == 4
        assert row["infection_rate"] == 1.0
        assert ":" in row["attack_time"]

    def test_image_reuse_across_profiles(self, baseline_run):
        ddosim, _result = baseline_run
        references = {dev.container.image.reference for dev in ddosim.devs.devs}
        # At most one image per (kind, profile) pair; containers share them.
        assert len(references) <= 8


class TestSettleDelay:
    def test_attack_waits_for_settle_window(self):
        """The attack command must not fire before recruitment + settle
        (the paper's long pre-attack phase that lets churn act)."""
        fast = DDoSim(quick_config(seed=21, attack_settle_delay=0.0)).run()
        settled = DDoSim(quick_config(seed=21, attack_settle_delay=25.0)).run()
        assert settled.attack.issued_at >= fast.attack.issued_at + 24.0
        # Outcome is otherwise unchanged on a churn-free fleet.
        assert settled.recruitment.bots_recruited == fast.recruitment.bots_recruited
