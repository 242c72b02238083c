"""Qudit Fourier-transform decomposition and its Rydberg ion-trap realization.

Layers, bottom up:

  register    mixed-radix amplitude indexing, the amplitude cap, register states
  gates       the Fourier/phase gate factorization of the N-point transform
  wavepacket  Rydberg level bands and the dual radial wave-packet basis
  pulses      area-parametrized drive pulses and band-leakage integrators
  iontrap     the five-pulse conditional phase gate on a two-ion phonon bus
  cli         JSON-reporting command-line front end over all of the above
"""
from .constants import EPS_STATE
from .errors import ConfigurationError, ContractError
from .gates import (
    GateDescriptor,
    accumulated_phase_turns,
    apply_fourier_gate,
    apply_phase_gate,
    apply_sequence,
    build_fft_sequence,
    direct_dft,
    fourier_gate_matrix,
    phase_gate_table,
    verify_fft_equivalence,
)
from .iontrap import (
    JointIonState,
    PulseSchedule,
    TrapParams,
    build_phase_gate_schedule,
    execute_schedule,
    free_evolve_joint,
    hybrid_phase_targets,
    solve_aux_detuning,
    verify_hybrid_gate,
)
from .pulses import (
    AtomState,
    PulseProfile,
    RabiCouplings,
    integrate_full,
    integrate_two_level,
    resonant_pulse_map,
    selectivity_error,
    selectivity_sweep,
)
from .register import (
    QuditState,
    RegisterShape,
    dit_reversal_permutation,
    measure_register,
)
from .wavepacket import (
    AmplitudeVector,
    RydbergSpectrum,
    change_basis,
    dispersion_fidelity,
    free_evolve,
    level_offsets,
    wavepacket_basis_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "AtomState",
    "ConfigurationError",
    "ContractError",
    "EPS_STATE",
    "GateDescriptor",
    "JointIonState",
    "PulseProfile",
    "PulseSchedule",
    "QuditState",
    "RabiCouplings",
    "RegisterShape",
    "RydbergSpectrum",
    "TrapParams",
    "accumulated_phase_turns",
    "apply_fourier_gate",
    "apply_phase_gate",
    "apply_sequence",
    "build_fft_sequence",
    "build_phase_gate_schedule",
    "change_basis",
    "direct_dft",
    "dispersion_fidelity",
    "dit_reversal_permutation",
    "execute_schedule",
    "fourier_gate_matrix",
    "free_evolve",
    "free_evolve_joint",
    "hybrid_phase_targets",
    "integrate_full",
    "integrate_two_level",
    "level_offsets",
    "measure_register",
    "phase_gate_table",
    "resonant_pulse_map",
    "selectivity_error",
    "selectivity_sweep",
    "solve_aux_detuning",
    "verify_fft_equivalence",
    "verify_hybrid_gate",
    "wavepacket_basis_matrix",
]
