"""Record the reference values the benchmark checks against.

Run from the repository root on the commit whose numbers are the reference:

    python3 bench/record_reference.py

It rewrites ``bench/reference.json`` with the selectivity leakages of every
pulse sweep, the dispersion fidelities of the core packet, the process
fidelities of the revival trap runs, and the full-band maps of the gaussian
single pulses (one column per basis state). These have no closed form; the
benchmark compares later commits against them.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from quditfft.iontrap import verify_hybrid_gate  # noqa: E402
from quditfft.pulses import AtomState, RabiCouplings, integrate_full, selectivity_sweep  # noqa: E402
from quditfft.register import RegisterShape  # noqa: E402
from quditfft.wavepacket import REVIVAL, WAVEPACKET, AmplitudeVector, dispersion_fidelity  # noqa: E402


def main() -> None:
    configs = w.PULSE_SIZES["full"]["configs"]
    leakage = {}
    gaussian_map = {}
    for d, shape, truncation in configs:
        spec = w.spectrum(d, truncation)
        couplings = RabiCouplings.uniform(d)
        key = w.pulse_key(d, shape, truncation)
        leak = selectivity_sweep(spec, couplings, w.sweep_durations(d), area=math.pi, shape=shape)
        leakage[key] = [float(x) for x in leak]
        if shape == "gaussian":
            cols = []
            for y0 in np.eye(d + 1, dtype=np.complex128):
                start = AtomState(y0[d], AmplitudeVector(WAVEPACKET, y0[:d]))
                out = integrate_full(start, w.single_pulse(shape), couplings, spec)
                cols.append(np.append(out.wp.amps, out.b_g))
            m = np.array(cols).T
            gaussian_map[key] = [m.real.tolist(), m.imag.tolist()]

    dispersion_core = {}
    for d in w.PULSE_SIZES["full"]["wavepacket_ds"]:
        core = AmplitudeVector(WAVEPACKET, np.eye(d)[0])
        spec = w.spectrum(d, REVIVAL)
        dispersion_core[f"d{d}"] = [
            float(dispersion_fidelity(core, spec, f * w.T_REV)) for f in w.DISPERSION_FRACTIONS
        ]

    trap_revival_fidelity = {}
    for d in w.TRAP_SIZES["full"]["verify_ds"]:
        for truncation, periods in w.TRAP_VARIANTS:
            if truncation == REVIVAL:
                rep = verify_hybrid_gate(
                    RegisterShape(d, 2), 0, 1, w.TRAP_PARAMS, w.spectrum(d, truncation),
                    kepler_periods=periods,
                )
                trap_revival_fidelity[f"d{d}-p{periods}"] = rep.fidelity

    reference = {
        "leakage": leakage,
        "dispersion_core": dispersion_core,
        "trap_revival_fidelity": trap_revival_fidelity,
        "gaussian_map": gaussian_map,
    }
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
