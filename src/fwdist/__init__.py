"""Name-based firmware roll-out toolkit.

Building blocks: the firmware namespace (`naming`), vendor-side preparation
and repository (`vendor`), the forwarding plane (`forwarder`, `packets`), the
device update agent (`agent`), a deterministic lossy multi-hop simulator
(`sim`, `scenario`, `topology`), and the experiment harness (`harness`).
"""

from .naming import (
    BaseName,
    EncodingModel,
    FirmwareName,
    Granularity,
    MalformedName,
    align_epoch,
    encoded_size,
)
from .packets import Data, HmacTag, Interest, ManifestSignature, Nack, packet_size
from .scenario import Scenario, ScenarioInvalid, load_scenario, scenario_from_dict
from .sim import Simulation, SimResult, run_simulation
from .harness import OverheadModel, overhead_report, sweep

__all__ = [
    "BaseName",
    "Data",
    "EncodingModel",
    "FirmwareName",
    "Granularity",
    "HmacTag",
    "Interest",
    "MalformedName",
    "ManifestSignature",
    "Nack",
    "OverheadModel",
    "Scenario",
    "ScenarioInvalid",
    "SimResult",
    "Simulation",
    "align_epoch",
    "encoded_size",
    "load_scenario",
    "overhead_report",
    "packet_size",
    "run_simulation",
    "scenario_from_dict",
    "sweep",
]
