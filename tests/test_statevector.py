"""Tests for the dense simulator: endianness, gates, Pauli action (burst
branches on an interleaved register included), readout."""
import itertools

import numpy as np
import pytest

from qinterleave import (
    IndeterminateEigenvalueError,
    PauliString,
    Permutation,
    StateVector,
    encode_blocks,
    encode_phase3,
    enumerate_bursts,
    interleave_permutation,
)
from qinterleave.statevector import apply_paulis
from oracles import (
    Gate,
    apply_gate,
    basis_state,
    gate_unitary,
    index_apply_pauli,
    pauli_matrix,
    pauli_of_bits,
    permutation_label_action,
    permute_pauli,
    place_blocks,
    random_state,
    tensor,
)


class TestBasisAndTensor:
    def test_basis_state_examples(self):
        assert basis_state(3, "000").amps[0] == 1.0
        assert basis_state(1, "1").amps[1] == 1.0
        s = basis_state(2, "10")
        assert s.amps[2] == 1.0 and np.count_nonzero(s.amps) == 1

    def test_basis_state_errors(self):
        with pytest.raises(ValueError):
            basis_state(0, "")
        with pytest.raises(ValueError):
            basis_state(27, "0" * 27)
        with pytest.raises(ValueError):
            basis_state(3, "00")

    def test_tensor(self):
        s = tensor(basis_state(1, "0"), basis_state(1, "1"))
        assert s.amps[0b01] == 1.0
        rng = np.random.default_rng(0)
        a, b = random_state(2, rng), random_state(3, rng)
        assert np.allclose(tensor(a, b).amps, np.kron(a.amps, b.amps))

    def test_tensor_norm_preserved_with_ancilla(self):
        rng = np.random.default_rng(1)
        s = random_state(3, rng)
        extended = tensor(s, basis_state(1, "0"))
        assert abs(np.linalg.norm(extended.amps) - 1.0) < 1e-12

    def test_tensor_size_guard(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            tensor(random_state(14, rng), random_state(13, rng))

    def test_repr_shows_n_and_no_amplitudes(self):
        state = random_state(3, np.random.default_rng(3))
        assert repr(state) == "StateVector(n=3)"
        assert "amps" not in repr(state) and "j" not in repr(state)

    def test_normalization_guard(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))
        # every comparison with NaN is false, so the check must fail on it
        for amps in ([np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                StateVector(1, np.array(amps))


class TestApplyPauli:
    def test_x_flips(self):
        s = basis_state(1, "0").apply_pauli(PauliString.from_label("X"))
        assert s.amps[1] == 1.0

    def test_z_phase_on_11(self):
        s = basis_state(2, "11").apply_pauli(pauli_of_bits("00", "11"))
        assert s.amps[3] == 1.0  # (-1)^(1*1+1*1) = +1
        m = pauli_matrix(pauli_of_bits("00", "11"))
        assert np.allclose(m @ basis_state(2, "11").amps, s.amps)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5):
            for _ in range(10):
                s = random_state(n, rng)
                x = rng.integers(0, 2, size=n)
                z = rng.integers(0, 2, size=n)
                p = pauli_of_bits(list(x), list(z))
                got = s.apply_pauli(p).amps
                want = pauli_matrix(p) @ s.amps
                assert np.allclose(got, want)

    def test_norm_preserved_and_involution(self):
        rng = np.random.default_rng(4)
        for n in range(1, 11):
            s = random_state(n, rng)
            p = pauli_of_bits(
                list(rng.integers(0, 2, size=n)), list(rng.integers(0, 2, size=n)))
            once = s.apply_pauli(p)
            assert abs(np.linalg.norm(once.amps) - 1.0) < 1e-12
            assert abs(once.apply_pauli(p).fidelity(s) - 1.0) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            basis_state(2, "00").apply_pauli(PauliString.identity(3))

    def test_byte_identical_to_index_oracle_all_4_qubit_paulis(self):
        rng = np.random.default_rng(12)
        s = random_state(4, rng)
        for letters in itertools.product("IXZY", repeat=4):
            p = PauliString.from_label("".join(letters))
            got = s.apply_pauli(p).amps
            assert got.tobytes() == index_apply_pauli(s, p).tobytes(), p

    def test_byte_identical_to_index_oracle_random_12_qubit(self):
        rng = np.random.default_rng(13)
        s = random_state(12, rng)
        for _ in range(200):
            p = pauli_of_bits(
                list(rng.integers(0, 2, size=12)), list(rng.integers(0, 2, size=12)))
            got = s.apply_pauli(p).amps
            assert got.tobytes() == index_apply_pauli(s, p).tobytes(), p

    def test_batched_byte_identical_to_index_oracle(self):
        # a stack of states, one Pauli per row or one for every row, through
        # apply_paulis gives the amplitudes of the index-array oracle, byte
        # for byte
        rng = np.random.default_rng(15)
        states = [random_state(4, rng) for _ in range(3)]
        stack = np.stack([s.amps for s in states])
        paulis = [PauliString.from_label("".join(letters))
                  for letters in itertools.product("IXZY", repeat=4)]
        for i, s in enumerate(states):
            got = apply_paulis(stack[[i] * len(paulis)], [p.x for p in paulis],
                               [p.z for p in paulis])
            for row, p in zip(got, paulis):
                assert row.tobytes() == index_apply_pauli(s, p).tobytes(), p
        for p in paulis:
            got = apply_paulis(stack, p.x, p.z)
            assert got.tobytes() == np.stack([index_apply_pauli(s, p)
                                              for s in states]).tobytes(), p
        assert stack.tobytes() == np.stack([s.amps for s in states]).tobytes()

    def test_input_state_untouched(self):
        rng = np.random.default_rng(14)
        s = random_state(3, rng)
        before = s.amps.copy()
        for label in ("III", "XXX", "YYY", "ZZZ", "XIZ"):
            s.apply_pauli(PauliString.from_label(label))
        assert s.amps.tobytes() == before.tobytes()


DEMO_BURSTS = (pauli_of_bits("0" * 9, "111000000"),
               pauli_of_bits("0" * 9, "000001110"))


class TestApplyBranches:
    def test_identity_branch(self):
        state = encode_phase3(0.6, 0.8)
        out = state.apply_pauli(PauliString.identity(3))
        assert np.allclose(out.amps, state.amps)

    def test_two_branch_worked_example(self):
        # both corrupted 9-qubit states match a direct per-block construction:
        # the first mask puts one Z on the first qubit of every interleaved
        # block, the second puts Z on local qubit 2 of blocks 0 and 1 and on
        # local qubit 1 of block 2
        coeffs = [(0.6, 0.8), (0.28, 0.96), (0.96, -0.28)]
        phi_in = encode_blocks(coeffs, encode_phase3)
        interleaved = phi_in.permute_qubits(interleave_permutation(3, 3))
        outputs = [interleaved.apply_pauli(p) for p in DEMO_BURSTS]

        z_at = [pauli_matrix(PauliString.from_label(lab))
                for lab in ("ZII", "IZI", "IIZ")]
        blocks = [encode_phase3(*c).amps for c in coeffs]
        positions = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
        oracle1 = place_blocks([z_at[0] @ b for b in blocks], positions, 9)
        assert np.allclose(outputs[0].amps, oracle1.amps)
        oracle2 = place_blocks(
            [z_at[2] @ blocks[0], z_at[2] @ blocks[1], z_at[1] @ blocks[2]],
            positions, 9)
        assert np.allclose(outputs[1].amps, oracle2.amps)

    def test_branch_count_and_norm(self):
        coeffs = [(0.6, 0.8)] * 3
        state = encode_blocks(coeffs, encode_phase3).permute_qubits(
            interleave_permutation(3, 3))
        outputs = [state.apply_pauli(p) for p in enumerate_bursts(9, 3, "phase")]
        assert len(outputs) == 31
        for out in outputs:
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            encode_phase3(1, 0).apply_pauli(PauliString.identity(4))


class TestApplyGate:
    def test_cnot_example(self):
        s = apply_gate(basis_state(2, "10"), Gate.cnot(0, 1))
        assert s.amps[0b11] == 1.0

    def test_h_example(self):
        s = apply_gate(basis_state(1, "0"), Gate.h(0))
        assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_three_cnots_exchange_states(self):
        # the three-CNOT network swaps two arbitrary single-qubit states
        rng = np.random.default_rng(5)
        psi, chi = random_state(1, rng), random_state(1, rng)
        joint = tensor(psi, chi)
        swapped = apply_gate(apply_gate(apply_gate(joint, Gate.cnot(0, 1)),
                                        Gate.cnot(1, 0)), Gate.cnot(0, 1))
        assert np.allclose(swapped.amps, tensor(chi, psi).amps)

    def test_swap_equals_three_cnots_exhaustive(self):
        for n in range(2, 7):
            for a, b in itertools.combinations(range(n), 2):
                for value in range(1 << n):
                    s = basis_state(n, [(value >> (n - 1 - q)) & 1 for q in range(n)])
                    via_swap = apply_gate(s, Gate.swap(a, b))
                    via_cnots = apply_gate(apply_gate(apply_gate(s, Gate.cnot(a, b)),
                                                      Gate.cnot(b, a)), Gate.cnot(a, b))
                    assert np.allclose(via_swap.amps, via_cnots.amps)

    def test_matches_unitary_oracle(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            gates = [Gate.h(n - 1), Gate.cnot(0, n - 1), Gate.cnot(n - 1, 0),
                     Gate.swap(0, n - 1)]
            if n > 2:
                gates += [Gate.h(1), Gate.cnot(1, 2), Gate.swap(1, 2)]
            for gate in gates:
                s = random_state(n, rng)
                assert np.allclose(apply_gate(s, gate).amps,
                                   gate_unitary(gate, n) @ s.amps)

    def test_gate_errors(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, "00"), Gate.cnot(0, 2))

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 10):
            s = random_state(n, rng)
            for gate in (Gate.h(0), Gate.cnot(0, n - 1), Gate.swap(1, n - 1)):
                s = apply_gate(s, gate)
                assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


class TestPermutation:
    def test_identity(self):
        rng = np.random.default_rng(8)
        s = random_state(4, rng)
        assert np.allclose(s.permute_qubits(Permutation(np.arange(4))).amps, s.amps)

    def test_matches_label_oracle_exhaustive(self):
        rng = np.random.default_rng(9)
        for n in range(2, 7):
            images = list(range(n))
            rng.shuffle(images)
            perm = Permutation(tuple(images))
            action = permutation_label_action(perm)
            for value in range(1 << n):
                s = basis_state(n, [(value >> (n - 1 - q)) & 1 for q in range(n)])
                out = s.permute_qubits(perm)
                assert out.amps[action[value]] == 1.0
                assert np.count_nonzero(out.amps) == 1

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(10)
        for n in (3, 6, 9):
            images = list(range(n))
            rng.shuffle(images)
            perm = Permutation(tuple(images))
            s = random_state(n, rng)
            back = s.permute_qubits(perm).permute_qubits(Permutation(np.argsort(perm.array)))
            assert np.allclose(back.amps, s.amps)

    def test_interleave_matches_block_construction(self):
        # 3x3 interleave of three encoded blocks lands block 0 on {0,3,6}
        coeffs = [(0.6, 0.8), (0.28, 0.96), (1 / np.sqrt(2), 1 / np.sqrt(2))]
        blocks = [encode_phase3(a, b) for a, b in coeffs]
        joint = tensor(tensor(blocks[0], blocks[1]), blocks[2])
        perm = interleave_permutation(3, 3)
        interleaved = joint.permute_qubits(perm)
        from oracles import place_blocks
        oracle = place_blocks([b.amps for b in blocks],
                              [(0, 3, 6), (1, 4, 7), (2, 5, 8)], 9)
        assert np.allclose(interleaved.amps, oracle.amps)

    def test_pauli_permutation_covariance(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 10):
            s = random_state(n, rng)
            p = pauli_of_bits(
                list(rng.integers(0, 2, size=n)), list(rng.integers(0, 2, size=n)))
            images = list(range(n))
            rng.shuffle(images)
            perm = Permutation(tuple(images))
            lhs = s.apply_pauli(p).permute_qubits(perm)
            rhs = s.permute_qubits(perm).apply_pauli(permute_pauli(p, perm))
            assert np.allclose(lhs.amps, rhs.amps)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            basis_state(2, "00").permute_qubits(Permutation(np.arange(3)))


class TestFidelityAndReadout:
    def test_fidelity_examples(self):
        rng = np.random.default_rng(12)
        s = random_state(3, rng)
        assert abs(s.fidelity(s) - 1.0) < 1e-12
        assert basis_state(1, "0").fidelity(basis_state(1, "1")) == 0.0
        with pytest.raises(ValueError):
            s.fidelity(basis_state(2, "00"))

    def test_eigenvalue_examples(self):
        code_state = encode_phase3(1, 0)
        xxi = PauliString.from_label("XXI")
        assert code_state.stabilizer_eigenvalue(xxi) == 1
        corrupted = code_state.apply_pauli(PauliString.from_label("IZI"))
        assert corrupted.stabilizer_eigenvalue(xxi) == -1
        assert code_state.stabilizer_eigenvalue(PauliString.identity(3)) == 1

    def test_eigenvalue_indeterminate(self):
        plus = apply_gate(basis_state(1, "0"), Gate.h(0))
        with pytest.raises(IndeterminateEigenvalueError):
            plus.stabilizer_eigenvalue(PauliString.from_label("Z"))
        # Y eigenstate: <s|XZ|s> = -i, unit modulus but not +-1
        y_plus = StateVector(1, np.array([1, 1j]) / np.sqrt(2))
        with pytest.raises(IndeterminateEigenvalueError):
            y_plus.stabilizer_eigenvalue(PauliString.from_label("Y"))

    def test_amplitudes_table(self):
        table = encode_phase3(1, 0).amplitudes_table()
        assert table == [("000", 0.5, 0.0), ("011", 0.5, 0.0),
                         ("101", 0.5, 0.0), ("110", 0.5, 0.0)]
