"""The one norm contract, on both sides of its tolerance, for every state type."""
import math

import numpy as np
import pytest

from quditfft import (
    EPS_STATE,
    AmplitudeVector,
    AtomState,
    ContractError,
    JointIonState,
    QuditState,
    RegisterShape,
)
from quditfft.wavepacket import ENERGY, WAVEPACKET


def _qudit_state(s):
    return QuditState(RegisterShape(2, 1), [s, 0.0])


def _amplitude_vector(s):
    return AmplitudeVector(ENERGY, [s, 0.0])


def _atom_state(s):
    return AtomState(s, AmplitudeVector(WAVEPACKET, np.zeros(2)))


def _joint_stack(s):
    # four unit basis states, one of them scaled by s: the worst state decides
    amps = np.zeros((4, 3, 4, 2), dtype=np.complex128)
    for n, (j, k) in enumerate(np.ndindex(2, 2)):
        amps[n, j, k, 0] = 1.0
    amps[1] *= s
    return JointIonState(2, amps)


@pytest.mark.parametrize(
    "make,noun",
    [
        (_qudit_state, "state"),
        (_amplitude_vector, "vector"),
        (_atom_state, "atom state"),
        (_joint_stack, "joint state"),
    ],
)
def test_norm_contract_edges(make, noun):
    make(1.0 + 0.5 * EPS_STATE).require_normalized()
    make(1.0 - 0.5 * EPS_STATE).require_normalized()
    for s in (1.0 + 2.0 * EPS_STATE, 1.0 - 2.0 * EPS_STATE, math.nan):
        with pytest.raises(ContractError, match=f"^{noun} norm .* deviates from 1 by more than"):
            make(s).require_normalized()
