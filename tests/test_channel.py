"""Tests for the burst channel: Pauli bursts applied to an interleaved
register, one branch per burst, and seeded burst sampling."""
import numpy as np
import pytest

from qinterleave import (
    BURST_KINDS,
    PauliString,
    enumerate_bursts,
    encode_blocks,
    encode_phase3,
    interleave_permutation,
)
from oracles import pauli_matrix, place_blocks, sample_burst

DEMO_BURSTS = (PauliString.from_masks("0" * 9, "111000000"),
               PauliString.from_masks("0" * 9, "000001110"))


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


class TestSampleBurst:
    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_contract(self, kind):
        for seed in range(300):
            p = sample_burst(seed, 9, 3, kind)
            assert not p.is_identity
            assert p.is_quantum_burst(3)

    def test_deterministic(self):
        for kind in BURST_KINDS:
            assert sample_burst(99, 9, 3, kind) == sample_burst(99, 9, 3, kind)

    def test_kind_shapes(self):
        for seed in range(50):
            assert sample_burst(seed, 8, 2, "bit").z_mask.is_zero
            assert sample_burst(seed, 8, 2, "phase").x_mask.is_zero
            p = sample_burst(seed, 8, 2, "colocated")
            union = [x | z for x, z in zip(p.x_mask.bits, p.z_mask.bits)]
            from oracles import scan_burst_length
            assert scan_burst_length(union) <= 2

    def test_phase_coverage(self):
        # every one of the 31 phase bursts appears across many seeds
        expected = {str(p) for p in enumerate_bursts(9, 3, "phase")}
        seen = {str(sample_burst(seed, 9, 3, "phase")) for seed in range(100_000)}
        assert seen == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_burst(0, 4, 5, "phase")
        with pytest.raises(ValueError):
            sample_burst(0, 4, 0, "phase")
        with pytest.raises(ValueError):
            sample_burst(0, 4, 2, "odd")
