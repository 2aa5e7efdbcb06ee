"""Byte-identity gate: pinned SHA-256 digests of whole-run outputs.

Each cell runs one small DDoSim configuration and hashes two artifacts:
the serialized result (``result_to_json``) and the canonical metrics
snapshot (``json.dumps(export_metrics(), sort_keys=True)``).  The
digests were recorded once and must never be regenerated to make a
refactor pass: a mismatch means some surviving output byte changed.

The grid covers the three flood datapaths (packet, ``--flow auto``,
``--flow all``) at two device counts, plus one dynamic-churn cell and
one fault-plan cell, so the churn and fault-injector schedules are
under the gate as well as the plain packet path.

The ``fault-plan`` cell pins no flood at all: the attack order goes out
at ~43.4 s, inside the ``cnc_outage`` (30-50 s) of
``examples/fault_plan.json``, when the C&C holds no bot session, so it
commands 0 bots (on every datapath, at 4 and 8 Devs).  The two
``link-faults`` cells cover the fluid solver under faults instead:
``link_fault_plan.json`` flaps Dev access links and degrades the TServer
link with 5% loss while the flood runs: two Devs start flooding late
behind downed links, every flow stops while the TServer link is lossy,
and every link change rebuilds the plan mid-flood.
"""

import hashlib
import json
import os

import pytest

from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.faults import load_fault_plan
from repro.serialization import result_to_json

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)
FAULT_PLAN = os.path.join(EXAMPLES, "fault_plan.json")
LINK_FAULT_PLAN = os.path.join(EXAMPLES, "link_fault_plan.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(config: SimulationConfig):
    """(result digest, metrics digest) of one run of ``config``."""
    ddosim = DDoSim(config)
    result = ddosim.run()
    metrics = json.dumps(ddosim.obs.export_metrics(), sort_keys=True)
    return _sha256(result_to_json(result)), _sha256(metrics)


def cell_config(cell: str) -> SimulationConfig:
    """The configuration behind one named grid cell."""
    base = dict(seed=1, attack_duration=20.0)
    if cell == "churn-dynamic":
        return SimulationConfig(n_devs=4, churn="dynamic", churn_interval=5.0,
                                **base)
    if cell == "fault-plan":
        return SimulationConfig(n_devs=4, faults=load_fault_plan(FAULT_PLAN),
                                **base)
    if cell.startswith("link-faults-"):
        return SimulationConfig(
            n_devs=8, seed=1, attack_duration=60.0,
            flood_flow=cell.rsplit("-", 1)[1],
            faults=load_fault_plan(LINK_FAULT_PLAN),
        )
    flow, devs = cell.split("-")
    return SimulationConfig(n_devs=int(devs), flood_flow=flow, **base)


#: cell -> (result SHA-256, metrics SHA-256)
GOLDEN = {
    "off-2": (
        "046124d354e75c7e02fe85a2d4ff297ff955a00aef843d754201b0a46523c4ea",
        "efffda1f9beaae57225136dbe48f13fd7a1566ca02261872c47dec05ef30f39c",
    ),
    "off-4": (
        "e462974a4ee1d92cf49f93aca0ac3baab4b516fdc9ed686680f48836ce62d973",
        "7b2ee33d1fe810ab242e41cc931216825c99d2e443f2b1c14b574843175118f2",
    ),
    "auto-2": (
        "f01da6a90c7d1c79cb54d3e4c4870347bad31940bef69c2fc29b36f40f8cf0a3",
        "4588ad6c622653aacc3eaee29ca8ca820e0985fcfae9aff6e82740d7311cbe9e",
    ),
    "auto-4": (
        "0e90bd11430657f6270cd80e6b593c20fd651168c099ffb10b20fa7d9f140475",
        "d0698135a2ea859f8542adedb11a4a880c6dfbb53f50e1e19dc151b2379ecef2",
    ),
    "all-2": (
        "966b3de24432f07f2bd6a81ac60dbd175c891b8e4502059507ea344006da1b9e",
        "567b8e538b1297263a5012355656ac7833ddd069a1e06d5d7b3da227b24f6530",
    ),
    "all-4": (
        "6b8d2b3f75fc0dec8c0a0da5cc735ceec53cbd51443a7a9ed00a6cea60523cc6",
        "81f999236dc88b66b790c6289c6d6d3dad1a359f07296ba3383fae94c9d3a2df",
    ),
    "churn-dynamic": (
        "56ab4e94de638d3aed4e3c64565d7c58c4263c641cd2097f0f9bc119d47a19f7",
        "7d2c7c5d10d1d14adf093bdaa7ec15424b49dfe699e70c5bfc9d74c06fd613fb",
    ),
    "fault-plan": (
        "2c90edd43d8df146e17c352f0b2148f91d425b455d3b15f2b745fd222873e092",
        "95e126ba8a569c72b82552955cdd115172358a27b581a58fea17cf388be2d0a8",
    ),
    "link-faults-all": (
        "4c86e7011fed782f26132b1153157464e30e1c3b2cece52700abedc872df8756",
        "cf0dc661ddef0d9c66e00348a9d34a3c02341a3dd5829071c13964c841df673c",
    ),
    "link-faults-auto": (
        "cbb592c694855c98ea8bd2f95feb3b87b7eec04d488fb2669152c85f7b33cc0e",
        "190ef3903a88d029921387dda7f2305af52257100a4c946975c953e646aafd48",
    ),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(cell):
    assert run_digests(cell_config(cell)) == GOLDEN[cell]


def test_churn_and_fault_cells_exercise_their_hooks():
    """The two hook cells must actually fire churn transitions and
    faults, or their digests would only re-check the packet path."""
    churned = DDoSim(cell_config("churn-dynamic"))
    churned.run()
    assert any(state.departures for state in churned.dynamic_churn.states)

    faulted = DDoSim(cell_config("fault-plan"))
    faulted.run()
    assert faulted.fault_injector.log


@pytest.mark.parametrize("mode", ["all", "auto"])
def test_link_fault_cells_hit_down_and_loss_branches(mode):
    """The link-fault cells must flood through a downed link and a
    lossy channel, or their digests would not pin those solver paths."""
    ddosim = DDoSim(cell_config(f"link-faults-{mode}"))
    result = ddosim.run()
    assert result.recruitment.bots_at_attack == 8
    links = ddosim.star.links.values()
    assert sum(link.host_device.drops_down for link in links) > 0
    assert sum(link.channel.packets_lost for link in links) > 0
