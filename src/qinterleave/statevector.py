"""Dense state-vector simulator for small qubit registers.

Qubit 0 is the leftmost symbol of a ket label, so the basis label
b_0 ... b_{n-1} lives at amplitude index sum(b_q * 2^(n-1-q)).  All
operations return new states; a state's amplitudes are never mutated.
A Pauli is applied one way, by apply_paulis: a gather at each index XOR the
flip mask and a negation where the source index meets the phase mask in odd
weight, over one state or over a stack of small states (blocks of a few
qubits), one Pauli per state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .interleaver import Permutation
from .pauli import PauliString

MAX_QUBITS = 26
_NORM_TOL = 1e-10
_EIG_TOL = 1e-6
_TABLE_TOL = 1e-12


class IndeterminateEigenvalueError(ValueError):
    """The state is not a +-1 eigenstate of the requested Pauli operator."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized dense state of an n-qubit register."""

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        # Written so that a NaN norm fails too: every comparison with NaN is false.
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state is not normalized (norm={norm!r})")
        object.__setattr__(self, "amps", amps)

    def apply_pauli(self, p: PauliString) -> "StateVector":
        """Apply X_x Z_z: phase (-1)^(label . z) first, then the bit flips
        (apply_paulis on the one state)."""
        if p.n != self.n:
            raise ValueError("Pauli length does not match register size")
        return StateVector(self.n, apply_paulis(self.amps, p.x, p.z))

    def permute_qubits(self, perm: Permutation | Sequence[int]) -> "StateVector":
        """Relabel qubits: the qubit at position i moves to position images[i]."""
        images = perm.array if isinstance(perm, Permutation) else tuple(perm)
        if len(images) != self.n:
            raise ValueError("permutation size does not match register size")
        src = self.amps.reshape((2,) * self.n)
        out = np.moveaxis(src, range(self.n), images)
        return StateVector(self.n, np.ascontiguousarray(out).reshape(-1))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        if self.n != other.n:
            raise ValueError("register size mismatch in fidelity")
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def stabilizer_eigenvalue(self, p: PauliString) -> int:
        """Deterministic +-1 readout of a Pauli on one of its eigenstates.

        Computed as <s|X_x Z_z|s> rounded to +-1; raises
        IndeterminateEigenvalueError when the state is not an eigenstate
        (expectation off the unit circle, or unit-modulus but not +-1).
        """
        return int(eigenvalue_signs(np.vdot(self.amps, self.apply_pauli(p).amps)))

    def amplitudes_table(self) -> list[tuple[str, float, float]]:
        """(basis label, real, imaginary) triples for amplitudes above _TABLE_TOL."""
        out = []
        for idx, amp in enumerate(self.amps):
            if abs(amp) > _TABLE_TOL:
                label = format(idx, f"0{self.n}b")
                out.append((label, float(amp.real), float(amp.imag)))
        return out


def apply_paulis(amps: np.ndarray, x, z) -> np.ndarray:
    """The rows of amps, (B, 2**n) states or one (2**n,) state, each hit by
    X_x Z_z: x and z are mask ints, one pair per row or one pair for all.
    Amplitude j of a row's image is amplitude j ^ x of the row, negated when
    (j ^ x) & z has odd weight: an exact gather and negation."""
    x, z = np.asarray(x, np.int64)[..., None], np.asarray(z, np.int64)[..., None]
    source = np.arange(amps.shape[-1]) ^ x
    out = np.take_along_axis(amps, np.broadcast_to(source, amps.shape), axis=-1)
    np.negative(out, out=out, where=np.bitwise_count(source & z) & 1 == 1)
    return out


def eigenvalue_signs(values) -> np.ndarray:
    """The +-1 readouts of expectations <s|P|s>, one per entry of values.

    Raises IndeterminateEigenvalueError at the first entry, in C order, that
    is off the unit circle, or on it but not +-1: its state is not an
    eigenstate of its Pauli.
    """
    values = np.asarray(values, np.complex128)
    signs = np.where(values.real > 0, 1, -1)
    off_circle = np.abs(np.abs(values) - 1.0) > _EIG_TOL
    bad = off_circle | (np.abs(values - signs) > _EIG_TOL)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        value = complex(values[first])
        if off_circle[first]:
            raise IndeterminateEigenvalueError(
                f"|<s|P|s>| = {abs(value):.8f}; state is not a Pauli eigenstate")
        raise IndeterminateEigenvalueError(
            f"<s|P|s> = {value:.8f} is not +-1; state is not a +-1 eigenstate")
    return signs
