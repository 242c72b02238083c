"""Shared numerical tolerances and size limits.

All comparison thresholds used across the package live here so that tests,
library code, and the CLI agree on what "equal" means.
"""

# Max deviation tolerated when checking unitary identities (norm preservation,
# matrix unitarity, exact permutation laws).
EPS_UNITARY = 1e-12

# Max norm deviation tolerated for a physical state (inputs to measurement,
# post-integration states).
EPS_STATE = 1e-9

# Max deviation of an integrated pulse map from its closed-form oracle.
EPS_PULSE = 1e-8

# Max |1 - F| for the composed trap gate's process fidelity F.
EPS_FIDELITY = 1e-9

# Max population any single run may leave in the trap mode.
EPS_TRAP_RESIDUAL = 1e-10

# Cap on the fixed-step RK4 steps of one pulse (about 20 s at d=8); longer
# gaussian pulses are refused instead of hanging.
MAX_RK4_STEPS = 10**6

# Cap on scratch size (complex entries) for batched products and per-block
# tables. At 4 MiB per array the gate plan's stages over a basis-column stack
# ran faster than at 64 MiB (exhaustive N=4096, d=2: 3.2 s vs 4.6 s) and peak
# memory fell; every column, kernel row and drive sample is computed the same
# way at any size.
BATCH_BUDGET = 2**18

# Default cap on the number of dense amplitudes a register may hold.
DEFAULT_MAX_AMPS = 2**20

# Environment variable that overrides the amplitude cap.
MAX_AMPS_ENV = "QUDITFFT_MAX_AMPS"
