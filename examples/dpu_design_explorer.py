#!/usr/bin/env python3
"""Design-space explorer: all 8 PEDAL designs x both DPU generations.

For a workload of your choice (any Table IV dataset), prints where each
design actually executes after capability resolution (Table III), the
measured compression ratio, and the simulated compress/decompress cost
— the table a practitioner would use to pick a design for their
deployment.

Run:  python examples/dpu_design_explorer.py [dataset-key]
      python examples/dpu_design_explorer.py silesia/mozilla
"""

import sys

from repro.core import PedalContext
from repro.datasets import DATASETS, get_dataset
from repro.dpu import make_device
from repro.plan.designs import ALL_DESIGNS
from repro.plan.registry import resolve
from repro.sim import Environment


def drive(env, generator):
    proc = env.process(generator)
    return env.run(until=proc)


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "silesia/xml"
    if key not in DATASETS:
        raise SystemExit(f"unknown dataset {key!r}; pick one of {sorted(DATASETS)}")
    dataset = get_dataset(key)
    lossless = dataset.kind == "lossless"
    payload = dataset.generate(128 * 1024)
    nominal = dataset.nominal_bytes

    print(f"workload: {key} ({dataset.description}), "
          f"nominal {dataset.nominal_mb:.2f} MB\n")
    header = (f"{'device':6s} {'design':18s} {'comp@':8s} {'decomp@':8s} "
              f"{'fallback':8s} {'ratio':>7s} {'sim comp':>10s} {'sim decomp':>11s}")
    print(header)
    print("-" * len(header))

    for device_kind in ("bf2", "bf3"):
        env = Environment()
        device = make_device(env, device_kind)
        ctx = PedalContext(device)
        drive(env, ctx.init())
        for design in ALL_DESIGNS:
            if design.is_lossy == lossless:
                continue  # lossy designs need float arrays and vice versa
            resolved = resolve(device, design)
            comp = drive(env, ctx.compress(payload, design, nominal))
            dec = drive(
                env, ctx.decompress(comp.message, design.placement, nominal)
            )
            print(
                f"{device_kind:6s} {design.label:18s} "
                f"{resolved.compress_engine:8s} {resolved.decompress_engine:8s} "
                f"{'yes' if resolved.any_fallback else 'no':8s} "
                f"{comp.ratio:7.2f} "
                f"{comp.sim_seconds * 1e3:7.2f} ms "
                f"{dec.sim_seconds * 1e3:8.2f} ms"
            )
        drive(env, ctx.finalize())
        print()

    print("comp@/decomp@ = engine after Table III capability resolution;")
    print("'fallback yes' marks C-Engine designs redirected to the SoC.")


if __name__ == "__main__":
    main()
