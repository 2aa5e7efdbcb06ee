"""The Devs component (paper §II-B / §III-B): the IoT device fleet.

Each Dev is a container running either the Connman or the Dnsmasq
analogue (a 50/50 random mix by default, like the paper's experiments
use both), built with a per-device protection profile (a random subset
of {W^X, ASLR}), on an access link drawn uniformly from 100–500 kbps.
Optionally each Dev also runs stock telnetd/dropbear services — the
processes Mirai kills on takeover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.binaries.busybox import make_dropbear_binary, make_telnetd_binary
from repro.binaries.connman import make_connman_binary
from repro.binaries.dnsmasq import make_dnsmasq_binary
from repro.binaries.logind import DEFAULT_CREDENTIALS, make_login_telnetd_binary
from repro.binaries.shell import make_shell_program
from repro.container.build import BuildContext, ImageBuilder
from repro.container.container import Container
from repro.container.runtime import ContainerRuntime
from repro.core.config import (
    BINARY_CONNMAN,
    BINARY_DNSMASQ,
    VECTOR_MEMORY_ERROR,
    SimulationConfig,
)
from repro.netsim.node import Node
from repro.netsim.topology import HostLink, StarInternet

DEV_DOCKERFILE_TEMPLATE = """
FROM scratch
COPY sh /bin/sh
COPY daemon /usr/sbin/{daemon_name}
{extra_copies}
COPY init /sbin/init
EXPOSE {port}
ENTRYPOINT ["/sbin/init"]
"""


@dataclass
class DevRecord:
    """One simulated IoT device."""

    index: int
    name: str
    kind: str                       # "connman" | "dnsmasq"
    protections: Tuple[str, ...]
    rate_bps: float
    node: Node
    link: HostLink
    container: Container
    #: True when the device ships factory-default telnet credentials
    #: (only meaningful when a credential recruitment vector is in play)
    weak_credentials: bool = False

    @property
    def ipv6(self):
        return self.link.ipv6


def _init_program(daemon_path: str, extra_paths: Tuple[str, ...]):
    """PID-1 for a Dev: start the network daemon + stock services."""

    def init(ctx):
        ctx.spawn([daemon_path])
        for path in extra_paths:
            ctx.spawn([path])
        yield ctx.sleep(0.0)

    return init


class DevFleet:
    """Builds and owns all Dev containers/nodes/links of one run."""

    def __init__(
        self,
        config: SimulationConfig,
        sim,
        runtime: ContainerRuntime,
        star: StarInternet,
        rng: random.Random,
    ):
        self.config = config
        self.sim = sim
        self.runtime = runtime
        self.star = star
        self.rng = rng
        # Credentials draw from their own stream so enabling the
        # credential vector never perturbs fleet composition/rates —
        # cross-vector comparisons run against the identical fleet.
        self._credential_rng = random.Random(f"{config.seed}-credentials")
        #: populated only in firmware emulation mode
        self.qemu_systems: List[object] = []
        self.devs: List[DevRecord] = []
        #: the binary builds the fleet uses (shared per kind; the attacker
        #: analyzes these same builds offline)
        self.connman_binary = make_connman_binary()
        self.dnsmasq_binary = make_dnsmasq_binary()
        self._images: Dict[Tuple[str, Tuple[str, ...]], str] = {}

    # ------------------------------------------------------------------
    # Image building (one per kind x protection profile)
    # ------------------------------------------------------------------
    def _image_for(self, kind: str, protections: Tuple[str, ...]) -> str:
        key = (kind, protections)
        reference = self._images.get(key)
        if reference is not None:
            return reference
        if kind == BINARY_CONNMAN:
            base = self.connman_binary
            binary = make_connman_binary(
                version=base.version,
                protections=protections,
                vulnerable=base.vulnerable,
            )
            daemon_name, port = "connmand", "53/udp"
        else:
            base = self.dnsmasq_binary
            binary = make_dnsmasq_binary(
                version=base.version,
                protections=protections,
                vulnerable=base.vulnerable,
            )
            daemon_name, port = "dnsmasq", "547/udp"
        # Same build (same gadget layout) as the fleet-wide binary; only
        # the protection flags differ per device profile.
        binary.build_seed = base.build_seed

        context = BuildContext()
        allow_curl = not self.config.devs_without_curl
        context.add(
            "sh", b"#!bin/sh\x00", mode=0o755,
            program=make_shell_program(allow_curl=allow_curl),
        )
        context.add("daemon", binary.serialize(), mode=0o755)
        extra_paths: Tuple[str, ...] = ()
        extra_copies = ""
        if self.config.extra_services:
            # With a credential vector in play, the telnet service is the
            # full login daemon (the classic Mirai attack surface);
            # otherwise the plain banner service suffices.
            if self.config.recruitment_vector == VECTOR_MEMORY_ERROR:
                telnetd = make_telnetd_binary()
            else:
                telnetd = make_login_telnetd_binary()
            context.add("telnetd", telnetd.serialize(), mode=0o755)
            context.add("dropbear", make_dropbear_binary().serialize(), mode=0o755)
            extra_copies = (
                "COPY telnetd /usr/sbin/telnetd\n"
                "COPY dropbear /usr/sbin/dropbear"
            )
            extra_paths = ("/usr/sbin/telnetd", "/usr/sbin/dropbear")
        context.add(
            "init", b"#!init\x00", mode=0o755,
            program=_init_program(f"/usr/sbin/{daemon_name}", extra_paths),
        )
        dockerfile = DEV_DOCKERFILE_TEMPLATE.format(
            daemon_name=daemon_name, port=port, extra_copies=extra_copies
        )
        protections_tag = "-".join(protections) if protections else "none"
        image = ImageBuilder(context).build(
            dockerfile, f"devs-{kind}", tag=protections_tag
        )
        self.runtime.add_image(image)
        self._images[key] = image.reference
        return image.reference

    # ------------------------------------------------------------------
    # Firmware (Firmadyne/QEMU) emulation mode
    # ------------------------------------------------------------------
    def _build_firmware_dev(self, kind: str, protections: Tuple[str, ...],
                            name: str, node: Node) -> Container:
        from repro.firmware.image import build_firmware
        from repro.firmware.qemu import QemuSystem

        base = (
            self.connman_binary if kind == BINARY_CONNMAN else self.dnsmasq_binary
        )
        firmware = build_firmware(
            kind, protections=protections, vulnerable=base.vulnerable
        )
        system = QemuSystem(self.runtime, firmware, name, node)
        self.qemu_systems.append(system)
        return system.container

    # ------------------------------------------------------------------
    # Fleet assembly
    # ------------------------------------------------------------------
    def _pick_kind(self, index: int) -> str:
        if self.config.binary_mix == BINARY_CONNMAN:
            return BINARY_CONNMAN
        if self.config.binary_mix == BINARY_DNSMASQ:
            return BINARY_DNSMASQ
        return BINARY_CONNMAN if self.rng.random() < 0.5 else BINARY_DNSMASQ

    def build(self, attacker_address) -> None:
        """Create every Dev: image, container, ghost node, access link."""
        low_kbps, high_kbps = self.config.dev_rate_kbps
        for index in range(self.config.n_devs):
            kind = self._pick_kind(index)
            protections = tuple(self.rng.choice(self.config.protection_profiles))
            rate_bps = self.rng.uniform(low_kbps, high_kbps) * 1000.0
            name = f"dev{index:03d}"
            node = Node(self.sim, name)
            link = self.star.attach_host(
                node,
                rate_bps,
                self.config.dev_link_delay,
                queue_packets=self.config.queue_packets,
                dhcp6_multicast_member=(kind == BINARY_DNSMASQ),
            )
            if self.config.dev_emulation == "firmware":
                container = self._build_firmware_dev(kind, protections, name, node)
            else:
                reference = self._image_for(kind, protections)
                container = self.runtime.create(reference, name=name)
            container.env["DNS_SERVER"] = str(attacker_address)
            container.env["QUERY_INTERVAL"] = str(self.config.dns_query_interval)
            weak_credentials = False
            if self.config.recruitment_vector != VECTOR_MEMORY_ERROR:
                credential_rng = self._credential_rng
                weak_credentials = (
                    credential_rng.random() < self.config.weak_credential_fraction
                )
                if weak_credentials:
                    user, password = credential_rng.choice(DEFAULT_CREDENTIALS)
                else:
                    user = "admin"
                    password = f"S3cure-{credential_rng.getrandbits(40):010x}"
                container.env["TELNET_USER"] = user
                container.env["TELNET_PASS"] = password
            if container.netns is None:  # firmware mode attaches itself
                self.runtime.attach_network(container, node)
            self.devs.append(
                DevRecord(
                    index=index,
                    name=name,
                    kind=kind,
                    protections=protections,
                    rate_bps=rate_bps,
                    node=node,
                    link=link,
                    container=container,
                    weak_credentials=weak_credentials,
                )
            )

    def start_all(self) -> None:
        for dev in self.devs:
            self.runtime.start(dev.container)

    # ------------------------------------------------------------------
    # Lookups used by the framework
    # ------------------------------------------------------------------
    def set_device_online(self, index: int, online: bool) -> None:
        """Churn hook: toggle one Dev's access link."""
        self.devs[index].link.set_up(online)

    def kind_by_address(self) -> Dict[object, str]:
        return {dev.ipv6: dev.kind for dev in self.devs}

    def online_count(self) -> int:
        return sum(1 for dev in self.devs if dev.link.up)

    def weak_credential_count(self) -> int:
        return sum(1 for dev in self.devs if dev.weak_credentials)

    def iid_range(self) -> Tuple[int, int, int]:
        """(pool_base, first_iid, last_iid) of the fleet's IPv6 block —
        what address-sweeping attack tooling needs."""
        if not self.devs:
            raise RuntimeError("fleet not built yet")
        iids = [dev.ipv6.value & 0xFFFFFFFF for dev in self.devs]
        base = self.devs[0].ipv6.value & ~((1 << 64) - 1)
        return base, min(iids), max(iids)

    def checkpoint_state(self) -> dict:
        """Deterministic fleet state (composition + per-dev link/attack
        progress) for state fingerprints."""
        offered_bytes, offered_packets = self.total_offered_attack()
        return {
            "online": self.online_count(),
            "offered_bytes": offered_bytes,
            "offered_packets": offered_packets,
            "devs": [
                [dev.index, dev.name, dev.kind, dev.rate_bps,
                 dev.weak_credentials, dev.link.up, dev.container.state]
                for dev in self.devs
            ],
        }

    def total_offered_attack(self) -> Tuple[int, int]:
        """(bytes, packets) actually emitted by all bots' floods."""
        total_bytes = 0
        total_packets = 0
        for dev in self.devs:
            for process in dev.container.processes.values():
                for stats in getattr(process, "attack_stats", ()):
                    total_bytes += stats.bytes_sent
                    total_packets += stats.packets_sent
        return total_bytes, total_packets
