"""Dense state-vector simulator for small qubit registers.

Qubit 0 is the leftmost symbol of a ket label, so the basis label
b_0 ... b_{n-1} lives at amplitude index sum(b_q * 2^(n-1-q)).  All
operations return new states; a state's amplitudes are never mutated.
Pauli action works on axis views of the amplitudes rather than on index
arrays: bit flips reverse the X qubits' axes of the (2,)*n view, and phases
negate the half of the copied amplitudes where a Z qubit reads 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interleaver import Circuit, Gate, Permutation
from .pauli import BinaryVector, PauliString

MAX_QUBITS = 26
_NORM_TOL = 1e-10
_EIG_TOL = 1e-6
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class IndeterminateEigenvalueError(ValueError):
    """The state is not a +-1 eigenstate of the requested Pauli operator."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized dense state of an n-qubit register."""

    n: int
    amps: np.ndarray

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

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"

    def tensor(self, other: "StateVector") -> "StateVector":
        """Kronecker product; this state's qubits take the lower-numbered positions."""
        if self.n + other.n > MAX_QUBITS:
            raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
        return StateVector(self.n + other.n, np.kron(self.amps, other.amps))

    def apply_pauli(self, p: PauliString) -> "StateVector":
        """Apply X_x Z_z: phase (-1)^(label . z) first, then the bit flips.

        The flips are made first, as the one copy of the amplitudes; the
        phase of a Z qubit then falls on the half where the input label bit
        was 1, which is the output half 0 on a flipped qubit.
        """
        if p.n != self.n:
            raise ValueError("Pauli length does not match register size")
        n, x, z = self.n, p.x, p.z
        flipped = tuple(q for q in range(n) if x >> (n - 1 - q) & 1)
        amps = np.flip(self.amps.reshape((2,) * n), flipped).copy().reshape(-1)
        for q in range(n):
            if z >> (n - 1 - q) & 1:
                half = amps.reshape(1 << q, 2, -1)[:, 1 - (x >> (n - 1 - q) & 1), :]
                np.negative(half, out=half)
        return StateVector(n, amps)

    def apply_gate(self, gate: Gate) -> "StateVector":
        if max(gate.qubits) >= self.n:
            raise ValueError(f"gate operand out of range for {self.n} qubits")
        if gate.kind == "H":
            q = gate.qubits[0]
            t = self.amps.reshape(1 << q, 2, -1)
            out = np.empty_like(t)
            out[:, 0, :] = (t[:, 0, :] + t[:, 1, :]) * _INV_SQRT2
            out[:, 1, :] = (t[:, 0, :] - t[:, 1, :]) * _INV_SQRT2
            return StateVector(self.n, out.reshape(-1))
        if gate.kind == "CNOT":
            c, t = gate.qubits
            a = self.amps.reshape((2,) * self.n).copy()
            sel = [slice(None)] * self.n
            sel[c] = 1
            t_axis = t - 1 if t > c else t
            a[tuple(sel)] = np.flip(a[tuple(sel)], axis=t_axis).copy()
            return StateVector(self.n, a.reshape(-1))
        # SWAP: relabel the two axes (equals the three-CNOT network).
        a, b = gate.qubits
        out = np.swapaxes(self.amps.reshape((2,) * self.n), a, b)
        return StateVector(self.n, np.ascontiguousarray(out).reshape(-1))

    def apply_circuit(self, circuit: Circuit) -> "StateVector":
        if circuit.width != self.n:
            raise ValueError("circuit width does not match register size")
        state = self
        for gate in circuit.gates:
            state = state.apply_gate(gate)
        return state

    def permute_qubits(self, perm: Permutation | Sequence[int]) -> "StateVector":
        """Relabel qubits: the qubit at position i moves to position images[i]."""
        images = perm.images if isinstance(perm, Permutation) else tuple(perm)
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
        value = complex(np.vdot(self.amps, self.apply_pauli(p).amps))
        if abs(abs(value) - 1.0) > _EIG_TOL:
            raise IndeterminateEigenvalueError(
                f"|<s|P|s>| = {abs(value):.8f}; state is not a Pauli eigenstate")
        eig = 1 if value.real > 0 else -1
        if abs(value - eig) > _EIG_TOL:
            raise IndeterminateEigenvalueError(
                f"<s|P|s> = {value:.8f} is not +-1; state is not a +-1 eigenstate")
        return eig

    def amplitudes_table(self, tol: float = 1e-12) -> list[tuple[str, float, float]]:
        """(basis label, real, imaginary) triples for amplitudes above tol."""
        out = []
        for idx, amp in enumerate(self.amps):
            if abs(amp) > tol:
                label = format(idx, f"0{self.n}b")
                out.append((label, float(amp.real), float(amp.imag)))
        return out


def basis_state(n: int, label: BinaryVector | str | Sequence[int]) -> StateVector:
    """Computational basis state |label> with qubit 0 leftmost."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    if isinstance(label, str):
        label = BinaryVector.from_string(label)
    elif not isinstance(label, BinaryVector):
        label = BinaryVector(tuple(label))
    if len(label) != n:
        raise ValueError("label length does not match qubit count")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[label.as_int] = 1.0
    return StateVector(n, amps)
