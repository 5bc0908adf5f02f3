"""Quantum burst-error correction by interleaving.

Builds block-interleaving permutations and their SWAP/CNOT circuits,
simulates Pauli burst errors on encoded multi-block registers, and verifies
burst-correcting ability of interleaved stabilizer codes both by exhaustive
state-vector decoding and by the symplectic correctability criterion.
"""
from .codes import (
    CorrectabilityResult,
    StabilizerCode,
    SyndromeCollisionError,
    block_decode,
    build_syndrome_table,
    corrects_error_set,
    encode_blocks,
    encode_phase3,
    five_qubit_code,
    interleaved_code,
    logical_encoder,
    phase3_code,
)
from .interleaver import (
    Circuit,
    Permutation,
    interleave_permutation,
    synthesize_swap_network,
)
from .pauli import (
    BURST_KINDS,
    PauliString,
    burst_masks,
    enumerate_bursts,
)
from .statevector import (
    MAX_QUBITS,
    IndeterminateEigenvalueError,
    StateVector,
)

__version__ = "0.1.0"

__all__ = [
    "BURST_KINDS",
    "Circuit",
    "CorrectabilityResult",
    "IndeterminateEigenvalueError",
    "MAX_QUBITS",
    "PauliString",
    "Permutation",
    "StabilizerCode",
    "StateVector",
    "SyndromeCollisionError",
    "block_decode",
    "build_syndrome_table",
    "burst_masks",
    "corrects_error_set",
    "encode_blocks",
    "encode_phase3",
    "enumerate_bursts",
    "five_qubit_code",
    "interleave_permutation",
    "interleaved_code",
    "logical_encoder",
    "phase3_code",
    "synthesize_swap_network",
]
