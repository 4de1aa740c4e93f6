"""The composed BlueField DPU device."""

from __future__ import annotations

import dataclasses

from repro.dpu.calibration import Calibration, calibration_for
from repro.dpu.cengine import CEngine
from repro.dpu.memory import MemoryModel
from repro.dpu.soc import Soc
from repro.dpu.specs import BLUEFIELD2, BLUEFIELD3, DpuSpec
from repro.sim import Environment

__all__ = ["BlueFieldDPU", "make_device"]


class BlueFieldDPU:
    """One BlueField DPU in Separated Host mode (paper §II-A).

    Composes the SoC core pool, the C-Engine accelerator, and the
    memory cost model over one simulation environment.  The NIC fabric
    model lives in :mod:`repro.mpi.network` (it couples *pairs* of
    devices).
    """

    def __init__(self, env: Environment, spec: DpuSpec) -> None:
        self.env = env
        self.spec = spec
        self.cal: Calibration = calibration_for(spec)
        self.soc = Soc(env, spec.soc)
        self.cengine = CEngine(env, spec, self.cal)
        self.cengine.owner = self  # job spans share the device's trace track
        self.memory = MemoryModel(spec.memory, self.cal.buffer_fixed_time)
        # Charge plans by op key, filled by repro.plan.charges on first use.
        self.plans: dict = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def generation(self) -> int:
        return self.spec.generation

    def __repr__(self) -> str:
        return f"BlueFieldDPU({self.spec.name})"


_SPECS = {
    "bf2": BLUEFIELD2,
    "bf3": BLUEFIELD3,
    "bluefield-2": BLUEFIELD2,
    "bluefield-3": BLUEFIELD3,
}


def make_device(env: Environment, kind: str,
                name: "str | None" = None) -> BlueFieldDPU:
    """Create a DPU by kind (``"bf2"`` or ``"bf3"``).

    ``name`` overrides the spec's display name — fleets with several
    devices of one kind (every cluster) need unique worker names for
    routing logs and targeted kills; timing is untouched.
    """
    try:
        spec = _SPECS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown device {kind!r}; expected one of {sorted(set(_SPECS))}"
        ) from None
    if name is not None:
        spec = dataclasses.replace(spec, name=name)
    return BlueFieldDPU(env, spec)
