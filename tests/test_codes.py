"""Tests for stabilizer codes, syndrome decoding, and interleaved construction."""
import functools
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qinterleave.codes
import qinterleave.pauli
from qinterleave import (
    BURST_KINDS,
    IndeterminateEigenvalueError,
    PauliString,
    Permutation,
    StabilizerCode,
    StateVector,
    SyndromeCollisionError,
    block_decode,
    build_syndrome_table,
    burst_masks,
    corrects_error_set,
    encode_blocks,
    encode_phase3,
    enumerate_bursts,
    five_qubit_code,
    interleave_permutation,
    interleaved_code,
    logical_encoder,
    phase3_code,
)
from qinterleave.cli import DEFAULT_COEFFS, run_demo, run_verify
from qinterleave.codes import _leaf, corrects_bursts
from qinterleave.pauli import _column_words, burst_count, mask_rows
from oracles import (
    basis_state,
    burst_ability_measured,
    class_corrects_masks,
    class_syndrome_table,
    commutation_bits,
    embed_pauli,
    gf2_rank_of,
    in_gf2_span,
    letter_grid,
    letter_label,
    pairwise_relation_checks,
    pauli_lanes,
    pauli_matrix,
    pauli_product,
    permute_pauli,
    random_state,
    split_pauli,
    support_of,
    symplectic,
    tensor,
)

FID_TOL = 1e-10

C0_LABELS = ("000", "011", "101", "110")
C1_LABELS = ("111", "100", "010", "001")


def random_pair(rng):
    raw = rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    return complex(raw[0], raw[1]), complex(raw[2], raw[3])


def single_burst_table(code, kind):
    return build_syndrome_table(
        code, [PauliString.identity(code.n)] + enumerate_bursts(code.n, 1, kind))


def decode_one(code, table, s):
    """block_decode of the one-row stack of a single block: its corrected
    amplitudes, its syndrome row and its correction."""
    fixed, syndromes, corrections = block_decode(code, table, s.amps[None])
    return fixed[0], syndromes[0], corrections[0]


def fidelity(amps, state):
    """|<amps|state>|^2 for a decoded row and an encoded state."""
    return abs(np.vdot(amps, state.amps)) ** 2


def stack(blocks):
    """The amplitudes of block states as one (B, 2**n) stack."""
    return np.stack([b.amps for b in blocks])


def corrupt_blocks(blocks, err, perm):
    """The blocks of a deinterleaved register, each hit by its part of the
    burst err on the interleaved register."""
    parts = split_pauli(permute_pauli(err, Permutation(np.argsort(perm.array))), blocks[0].n)
    return [b.apply_pauli(p) for b, p in zip(blocks, parts)]


class TestBuiltinCodes:
    def test_phase3_structure(self):
        code = phase3_code()
        assert (code.n, code.k, code.burst_ability) == (3, 1, 1)
        assert [str(g) for g in code.generators] == ["XXI", "IXX"]
        assert str(code.logical_xs[0]) == "XXX"
        assert str(code.logical_zs[0]) == "ZZZ"

    def test_phase3_generators_commute_matrix_oracle(self):
        g1, g2 = phase3_code().generators
        m1, m2 = pauli_matrix(g1), pauli_matrix(g2)
        assert np.allclose(m1 @ m2, m2 @ m1)

    def test_phase3_logicals_anticommute(self):
        code = phase3_code()
        lx, lz = code.logical_xs[0], code.logical_zs[0]
        assert symplectic(lx, lz) == 1
        mx, mz = pauli_matrix(lx), pauli_matrix(lz)
        assert np.allclose(mx @ mz, -(mz @ mx))

    def test_five_qubit_structure(self):
        code = five_qubit_code()
        assert (code.n, code.k, code.burst_ability) == (5, 1, 1)
        for g, h in itertools.combinations(code.generators, 2):
            assert symplectic(g, h) == 0
        assert gf2_rank_of(code.generators) == 4

    def test_five_qubit_corrects_all_single_errors(self):
        code = five_qubit_code()
        singles = enumerate_bursts(5, 1, "colocated")
        assert len(singles) == 15
        syndromes = {code.syndrome_of(e) for e in singles}
        assert len(syndromes) == 15
        assert (0, 0, 0, 0) not in syndromes
        assert corrects_error_set(code, singles).ok

    def test_code_validation_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            StabilizerCode(2, 1,
                           (PauliString.from_label("XI"),
                            PauliString.from_label("ZI")),
                           (PauliString.from_label("XX"),),
                           (PauliString.from_label("ZZ"),), 1)
        with pytest.raises(ValueError):  # dependent generators
            StabilizerCode(3, 1,
                           (PauliString.from_label("XXI"),
                            PauliString.from_label("XXI")),
                           (PauliString.from_label("XXX"),),
                           (PauliString.from_label("ZZZ"),), 1)

    @pytest.mark.parametrize("n,k,gens,lxs,lzs,message", [
        (3, 1, ["XXI"], ["XXX"], ["ZZZ"], "expected 2 generators"),
        (3, 1, ["XXI", "IXX"], ["XXX"], [], "expected 1 logical X/Z pairs"),
        (3, 1, ["XXI", "IXX"], ["XXXX"], ["ZZZ"], "operator length"),
        (3, 1, ["XXI", "ZII"], ["XXX"], ["ZZZ"], "generators XXI and ZII anticommute"),
        (3, 1, ["XXI", "XXI"], ["XXX"], ["ZZZ"], r"not GF\(2\)-independent"),
        (3, 1, ["XXI", "IXX"], ["XXX"], ["ZII"],
         "logical ZII anticommutes with generator XXI"),
        (3, 1, ["XXI", "IXX"], ["XXX"], ["III"], "pairing is wrong"),
        (2, 2, [], ["XI", "ZI"], ["ZI", "XI"], "same-type logicals must commute"),
    ], ids=["generator-count", "logical-count", "operator-length",
            "anticommuting-generators", "dependent-generators",
            "logical-anticommutes-with-generator", "xz-pairing",
            "anticommuting-same-type-logicals"])
    def test_code_validation_names_the_broken_rule(self, n, k, gens, lxs, lzs, message):
        ops = [tuple(PauliString.from_label(label) for label in labels)
               for labels in (gens, lxs, lzs)]
        with pytest.raises(ValueError, match=message):
            StabilizerCode(n, k, *ops, burst_ability=1)

    def test_to_text(self):
        text = phase3_code().to_text()
        assert text.splitlines() == [
            "[[3,1]] burst_ability=1",
            "stabilizer XXI",
            "stabilizer IXX",
            "logical_x XXX",
            "logical_z ZZZ",
        ]

    @pytest.mark.parametrize("grid_bytes", [1, 40, 8 << 20])
    def test_to_text_in_blocks_is_one_line_per_operator(self, monkeypatch, grid_bytes):
        # labels are made a block of operators at a time
        monkeypatch.setattr(qinterleave.codes, "GRID_BYTES", grid_bytes)
        for code in (phase3_code(), five_qubit_code(), interleaved_code(five_qubit_code(), 13)):
            lines = [f"[[{code.n},{code.k}]] burst_ability={code.burst_ability}"]
            for role, ops in (("stabilizer", code.generators), ("logical_x", code.logical_xs),
                              ("logical_z", code.logical_zs)):
                lines += [f"{role} {letter_label(p)}" for p in ops]
            assert code.to_text() == "\n".join(lines) + "\n"


class TestEncoding:
    def test_codeword_zero(self):
        table = encode_phase3(1, 0).amplitudes_table()
        assert {label for label, _, _ in table} == set(C0_LABELS)
        assert all(abs(re - 0.5) < 1e-12 and im == 0 for _, re, im in table)

    def test_codeword_one(self):
        table = encode_phase3(0, 1).amplitudes_table()
        assert {label for label, _, _ in table} == set(C1_LABELS)
        assert all(abs(re - 0.5) < 1e-12 and im == 0 for _, re, im in table)

    def test_equal_superposition(self):
        s = encode_phase3(1 / np.sqrt(2), 1 / np.sqrt(2))
        assert np.allclose(s.amps, np.full(8, 1 / (2 * np.sqrt(2))))

    def test_rejects_unnormalized(self):
        enc = logical_encoder(phase3_code())
        for c0, c1 in ((1, 1), (np.nan, 0), (0, complex(np.nan, 0))):
            with pytest.raises(ValueError):
                encode_phase3(c0, c1)
            with pytest.raises(ValueError):
                enc(c0, c1)

    def test_rejects_coefficients_whose_square_overflows(self):
        # |c|^2 past the largest float is refused, not an OverflowError
        enc = logical_encoder(phase3_code())
        for c0, c1 in ((1e200, 0), (0, -1e155), (complex(1e200, 1e200), 0),
                       (complex(1e308, 1e308), 1)):
            for encode in (encode_phase3, enc):
                with pytest.raises(ValueError, match=r"\|c0\|\^2 \+ \|c1\|\^2 = 1"):
                    encode(c0, c1)

    def test_projector_encoder_matches_phase3(self):
        enc = logical_encoder(phase3_code())
        rng = np.random.default_rng(21)
        for _ in range(5):
            c0, c1 = random_pair(rng)
            assert abs(enc(c0, c1).fidelity(encode_phase3(c0, c1)) - 1.0) < 1e-12
        # the CLI encodes phase3 blocks with the projector encoder, so its
        # amplitudes must reproduce the reference ones exactly
        for c0, c1 in [random_pair(rng) for _ in range(20)] + list(DEFAULT_COEFFS):
            assert enc(c0, c1).amps.tobytes() == encode_phase3(c0, c1).amps.tobytes()

    def test_projector_encoder_five(self):
        code = five_qubit_code()
        enc = logical_encoder(code)
        zero_l = enc(1, 0)
        table = single_burst_table(code, "colocated")
        assert decode_one(code, table, zero_l)[1].tolist() == [0, 0, 0, 0]
        assert zero_l.stabilizer_eigenvalue(code.logical_zs[0]) == 1
        one_l = enc(0, 1)
        assert one_l.stabilizer_eigenvalue(code.logical_zs[0]) == -1
        assert abs(zero_l.fidelity(one_l)) < 1e-12

    def test_projector_encoder_refuses_registers_past_the_guard(self):
        # 27 qubits, k = 1: refused before any amplitude array is allocated
        n = 27
        code = StabilizerCode(
            n=n, k=1,
            generators=[PauliString(n, 0, 3 << (n - 2 - i)) for i in range(n - 1)],
            logical_xs=[PauliString(n, (1 << n) - 1, 0)],
            logical_zs=[PauliString(n, 0, 1 << (n - 1))],
            burst_ability=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^qubit count must be in \[1, 26\]$"):
                logical_encoder(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_encode_blocks_basis(self):
        s = encode_blocks([(1, 0)] * 3, encode_phase3)
        single = encode_phase3(1, 0)
        expected = tensor(tensor(single, single), single)
        assert np.allclose(s.amps, expected.amps)

    def test_encode_blocks_gamma_expansion(self):
        # amplitude of each 9-bit label is the product over blocks of the
        # per-block codeword amplitude; computed here symbol by symbol
        rng = np.random.default_rng(22)
        coeffs = [random_pair(rng) for _ in range(3)]
        s = encode_blocks(coeffs, encode_phase3)

        def block_amp(label3, c0, c1):
            if label3 in C0_LABELS:
                return 0.5 * c0
            return 0.5 * c1

        for idx in range(512):
            bits = format(idx, "09b")
            want = 1.0
            for b in range(3):
                want *= block_amp(bits[3 * b:3 * b + 3], *coeffs[b])
            assert abs(s.amps[idx] - want) < 1e-12

    def test_encode_blocks_single(self):
        rng = np.random.default_rng(23)
        c0, c1 = random_pair(rng)
        assert np.allclose(encode_blocks([(c0, c1)], encode_phase3).amps,
                           encode_phase3(c0, c1).amps)

    def test_encode_blocks_guards(self):
        with pytest.raises(ValueError):
            encode_blocks([], encode_phase3)
        with pytest.raises(ValueError):
            encode_blocks([(1, 0)] * 9, encode_phase3)  # 27 qubits
        with pytest.raises(ValueError):
            encode_blocks([(1, 1)], encode_phase3)


class TestSyndromes:
    def test_extract_examples(self):
        code = phase3_code()
        table = single_burst_table(code, "phase")
        state = encode_phase3(0.6, 0.8)
        assert decode_one(code, table, state)[1].tolist() == [0, 0]
        assert decode_one(
            code, table,
            state.apply_pauli(PauliString.from_label("IZI")))[1].tolist() == [1, 1]
        assert decode_one(
            code, table,
            state.apply_pauli(PauliString.from_label("ZII")))[1].tolist() == [1, 0]

    def test_extract_propagates_indeterminate(self):
        code = phase3_code()
        with pytest.raises(IndeterminateEigenvalueError):
            decode_one(code, single_burst_table(code, "phase"), basis_state(3, "001"))

    def test_symplectic_and_state_syndromes_agree(self):
        code = five_qubit_code()
        table = single_burst_table(code, "colocated")
        state = logical_encoder(code)(0.28, 0.96)
        for err in enumerate_bursts(5, 1, "colocated"):
            _, syndrome, _ = decode_one(code, table, state.apply_pauli(err))
            assert tuple(syndrome.tolist()) == code.syndrome_of(err)

    def test_table_phase3(self):
        code = phase3_code()
        errors = [PauliString.identity(3)] + enumerate_bursts(3, 1, "phase")
        table = build_syndrome_table(code, errors)
        assert len(table) == 4
        assert set(table) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        assert table[(0, 0)] == PauliString.identity(3)

    def test_table_collision(self):
        code = phase3_code()
        with pytest.raises(SyndromeCollisionError):
            build_syndrome_table(code, [PauliString.identity(3),
                                        PauliString.from_label("XII")])

    def test_table_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="error length"):
            build_syndrome_table(phase3_code(), [PauliString.from_label("ZIII")])
        # every length is checked before the XII collision is reached
        with pytest.raises(ValueError, match="error length"):
            build_syndrome_table(phase3_code(), [PauliString.from_label("XII"),
                                                 PauliString.from_label("ZIII")])

    def test_table_identity_only(self):
        table = build_syndrome_table(phase3_code(), [PauliString.identity(3)])
        assert len(table) == 1
        assert table[(0, 0)] == PauliString.identity(3)

    def test_degenerate_duplicate_allowed(self):
        # two errors with equal syndrome whose product is a stabilizer element
        code = phase3_code()
        z0 = PauliString.from_label("ZII")
        z0_stab = pauli_product(z0, code.generators[0])  # differs by XXI
        table = build_syndrome_table(code, [z0, z0_stab])
        assert table[code.syndrome_of(z0)] == z0


class TestCorrection:
    """Correction of one block: block_decode of a one-row stack."""

    def test_correct_round_trip(self):
        code = phase3_code()
        table = single_burst_table(code, "phase")
        state = encode_phase3(0.6, 0.8)
        corrupted = state.apply_pauli(PauliString.from_label("IZI"))
        fixed, syndrome, _ = decode_one(code, table, corrupted)
        assert syndrome.tolist() == [1, 1]
        assert abs(fidelity(fixed, state) - 1.0) < FID_TOL
        assert decode_one(code, table, StateVector(3, fixed))[1].tolist() == [0, 0]

    def test_correct_uncorrupted(self):
        code = phase3_code()
        table = single_burst_table(code, "phase")
        state = encode_phase3(0.28, 0.96)
        fixed, _, correction = decode_one(code, table, state)
        assert correction == PauliString.identity(3)
        assert abs(fidelity(fixed, state) - 1.0) < FID_TOL

    def test_correct_up_to_stabilizer(self):
        # corruption by Z_0 * XXI decodes to a correction differing by a
        # stabilizer element, which acts trivially on code states
        code = phase3_code()
        table = single_burst_table(code, "phase")
        state = encode_phase3(0.6, 0.8)
        err = pauli_product(PauliString.from_label("ZII"), code.generators[0])
        fixed, _, _ = decode_one(code, table, state.apply_pauli(err))
        assert abs(fidelity(fixed, state) - 1.0) < FID_TOL

    def test_unknown_syndrome(self):
        code = phase3_code()
        table = build_syndrome_table(code, [PauliString.identity(3),
                                            PauliString.from_label("ZII")])
        corrupted = encode_phase3(0.6, 0.8).apply_pauli(PauliString.from_label("IZI"))
        fixed, syndrome, correction = decode_one(code, table, corrupted)
        assert correction is None
        assert syndrome.tolist() == [1, 1]
        assert fixed.tobytes() == corrupted.amps.tobytes()

    def test_decoder_soundness_five(self):
        code = five_qubit_code()
        errors = enumerate_bursts(5, 1, "colocated")
        table = build_syndrome_table(code, [PauliString.identity(5)] + errors)
        assert len(table) == 16
        rng = np.random.default_rng(24)
        enc = logical_encoder(code)
        state = enc(*random_pair(rng))
        for err in errors:
            fixed, _, _ = decode_one(code, table, state.apply_pauli(err))
            assert abs(fidelity(fixed, state) - 1.0) < FID_TOL


class TestInterleavedCode:
    def test_phase3_m3_layout(self):
        code = interleaved_code(phase3_code(), 3)
        assert (code.n, code.k, code.burst_ability) == (9, 3, 3)
        block0 = code.generators[:2]
        touched = set()
        for g in block0:
            touched |= support_of(g.n, g.x | g.z)
        assert touched == {0, 3, 6}

    def test_m1_identity(self):
        base = five_qubit_code()
        same = interleaved_code(base, 1)
        assert same.generators == base.generators
        assert same.logical_xs == base.logical_xs

    def test_25_5_parameters(self):
        code = interleaved_code(five_qubit_code(), 5)
        assert (code.n, code.k, code.burst_ability) == (25, 5, 5)
        assert len(code.generators) == 20
        assert len(code.logical_xs) == len(code.logical_zs) == 5

    def test_equals_embed_permute(self):
        # every block operator embedded at its block and pushed through the
        # permutation one at a time: the same operators in the same order
        rng = random.Random(13)
        bases = [phase3_code(), five_qubit_code()] + [
            scrambled_code(n, k, random_gates(n, 3 * n, rng))
            for n, k in ((1, 1), (2, 0), (4, 2), (6, 3), (9, 1))]
        for base in bases:
            for m in (1, 2, 3, 5, 13):
                code = interleaved_code(base, m)
                perm = interleave_permutation(base.n, m)
                for got, ops in ((code.generators, base.generators),
                                 (code.logical_xs, base.logical_xs),
                                 (code.logical_zs, base.logical_zs)):
                    assert got == tuple(
                        permute_pauli(embed_pauli(op, base.n * m, i * base.n), perm)
                        for i in range(m) for op in ops)
                assert (code.n, code.k, code.burst_ability) == (
                    base.n * m, base.k * m, base.burst_ability * m)

    def test_counting_invariant(self):
        for base, m in ((phase3_code(), 2), (phase3_code(), 3),
                        (five_qubit_code(), 2), (five_qubit_code(), 3)):
            code = interleaved_code(base, m)
            assert len(code.generators) == m * (base.n - base.k)
            assert len(code.logical_xs) == m * base.k
            assert gf2_rank_of(code.generators) == len(code.generators)


class TestCorrectability:
    def test_phase3_single_phase(self):
        assert corrects_error_set(phase3_code(), enumerate_bursts(3, 1, "phase")).ok

    def test_wrong_length_error_rejected(self):
        with pytest.raises(ValueError):
            corrects_error_set(phase3_code(), [PauliString.from_label("ZIII")])
        with pytest.raises(ValueError):
            corrects_error_set(five_qubit_code(), [PauliString.from_label("X"),
                                                   PauliString.from_label("XIIII")])
        # a failing set with a wrong length among it raises, not fails
        with pytest.raises(ValueError, match="error length"):
            corrects_error_set(phase3_code(), [PauliString.from_label("XII"),
                                               PauliString.from_label("ZIII")])

    def test_phase3_bit_error_witness(self):
        result = corrects_error_set(phase3_code(), [PauliString.from_label("XII")])
        assert not result.ok
        assert (str(result.witness[0]), str(result.witness[1])) == ("III", "XII")

    def test_witness_is_valid_and_deterministic(self):
        code = interleaved_code(phase3_code(), 3)
        errors = enumerate_bursts(9, 4, "phase")
        first = corrects_error_set(code, errors)
        second = corrects_error_set(code, errors)
        assert not first.ok
        assert first.witness == second.witness
        a, b = first.witness
        assert code.syndrome_of(a) == code.syndrome_of(b)
        assert not in_gf2_span(code.generators, pauli_product(a, b))

    def test_interleaved_phase_bursts(self):
        code = interleaved_code(phase3_code(), 3)
        assert corrects_error_set(code, enumerate_bursts(9, 3, "phase")).ok

    def test_measured_abilities(self):
        assert burst_ability_measured(phase3_code(), "phase") == 1
        assert burst_ability_measured(phase3_code(), "bit") == 0
        assert burst_ability_measured(interleaved_code(phase3_code(), 3), "phase") == 3
        assert burst_ability_measured(five_qubit_code(), "colocated") == 1
        assert burst_ability_measured(five_qubit_code(), "independent") == 0

    def test_ability_scales_with_degree(self):
        for base, m, kind in ((phase3_code(), 2, "phase"),
                              (phase3_code(), 3, "phase"),
                              (five_qubit_code(), 2, "colocated")):
            assert (burst_ability_measured(interleaved_code(base, m), kind)
                    == m * burst_ability_measured(base, kind))


def scrambled_code(n, k, gates):
    """[[n,k]] code whose generators, logical Xs and logical Zs are the images
    of Z_0..Z_{n-k-1}, X_{n-k}..X_{n-1} and Z_{n-k}..Z_{n-1} under mask-level
    Clifford gates, which preserve every commutation relation.  A gate is
    ("H", a, _), ("S", a, _) or ("CNOT", a, b), on qubits a and b."""
    ops = ([[0, 1 << q] for q in range(n - k)]
           + [[1 << q, 0] for q in range(n - k, n)]
           + [[0, 1 << q] for q in range(n - k, n)])
    for gate, a, b in gates:
        for op in ops:
            x, z = op
            if gate == "H":
                swap = (x ^ z) & (1 << a)
                x, z = x ^ swap, z ^ swap
            elif gate == "S":
                z ^= x & (1 << a)
            elif a != b:
                x ^= ((x >> a) & 1) << b
                z ^= ((z >> b) & 1) << a
            op[:] = x, z
    paulis = [PauliString(n, x, z) for x, z in ops]
    return StabilizerCode(n, k, paulis[:n - k], paulis[n - k:n],
                          paulis[n:], burst_ability=0)


def random_gates(n, count, rng):
    return [(rng.choice(("H", "S", "CNOT")), rng.randrange(n), rng.randrange(n))
            for _ in range(count)]


def assert_matches_oracle(code, errors):
    got = corrects_error_set(code, errors)
    want = class_corrects_masks(code, *pauli_lanes(code.n, errors))
    assert (got.ok, got.witness) == (want.ok, want.witness)
    return got


class TestCorrectsBursts:
    """corrects_bursts, whose words are folded down the burst-window tree,
    against class_corrects_masks over the lanes of burst_masks: the same verdict
    and witness for phase3 and five at degrees 1-4 and 13, every kind and
    every l up to 300,000 bursts."""

    def test_equals_row_path(self, monkeypatch):
        decoded = []
        monkeypatch.setattr(qinterleave.pauli, "_column_words",
                            lambda *args: decoded.append(args) or _column_words(*args))
        cases, verdicts, branches = 0, set(), set()
        for base in (phase3_code(), five_qubit_code()):
            for m in (1, 2, 3, 4, 13):
                code = interleaved_code(base, m)
                for kind in BURST_KINDS:
                    for l in range(1, code.n + 1):
                        if burst_count(code.n, l, kind) > 300_000:
                            break
                        decoded.clear()
                        got = corrects_bursts(code, l, kind)
                        assert got == class_corrects_masks(code, *burst_masks(code.n, l, kind))
                        verdicts.add(got.ok)
                        if not got.ok:
                            branches.add(bool(decoded))
                        cases += 1
        assert cases == 329
        # passing and failing sets; failing syndromes with few members,
        # decoded by column, and with most of the set, read from its rows
        assert verdicts == branches == {True, False}

    def test_25_5_boundary_witness(self):
        code = interleaved_code(five_qubit_code(), 5)
        assert corrects_bursts(code, 5, "colocated") == (True, None)
        result = corrects_bursts(code, 6, "colocated")
        assert [str(p) for p in result.witness] == [
            "IIIIIIIIIIIIIIIIIIIXIIIIY", "IIIIIIIIIIIIIIYIIIIYIIIII"]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 140), k=st.integers(0, 6), kind=st.sampled_from(BURST_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_random_codes(self, n, k, kind, seed):
        # scrambled codes, with words of one, two and three lanes
        rng = random.Random(seed)
        code = scrambled_code(n, min(k, n), random_gates(n, 2 * n, rng))
        longest = sum(1 for l in range(1, n + 1) if burst_count(n, l, kind) <= 20_000)
        for l in {1, max(longest, 1)}:
            assert corrects_bursts(code, l, kind) == class_corrects_masks(
                code, *burst_masks(n, l, kind))


class TestCommutationMemory:
    """A wide code and its commutation words take memory of the order of its
    operators' masks, the leaf and the words, not of the operators times the
    qubits."""

    def test_interleaved_code_peak(self):
        # 6,000 operators on 5,000 qubits, each placed from its set qubits
        assert self.traced_peak(lambda: interleaved_code(five_qubit_code(), 1000)) < 32 << 20

    @pytest.fixture(scope="class")
    def code(self):
        return interleaved_code(five_qubit_code(), 200)

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_to_text_peak(self):
        # 6,000 lines of 5,000 letters: the 28.7 MiB text and its blocks
        code = interleaved_code(five_qubit_code(), 1000)
        assert self.traced_peak(code.to_text) < 72 << 20

    def test_corrects_bursts_peak(self, code):
        assert self.traced_peak(lambda: corrects_bursts(code, 1, "colocated")) < 32 << 20

    def test_corrects_error_set_peak(self, code):
        errors = enumerate_bursts(code.n, 1, "colocated")
        assert len(errors) == 3000
        assert self.traced_peak(lambda: corrects_error_set(code, errors)) < 32 << 20


def faulted_ops(n, k, seed, faults):
    """The generators, logical Xs and logical Zs of a random [[n,k]] code
    after the faults (j, kind, other, x, z) in turn: operator j is replaced
    by the Pauli with masks x and z (kind 0) or by operator other (1), or is
    multiplied by operator other (2) or by that Pauli (3)."""
    code = scrambled_code(n, k, random_gates(n, 2 * n, random.Random(seed)))
    ops = [*code.generators, *code.logical_xs, *code.logical_zs]
    for j, kind, other, x, z in faults:
        j, other = j % len(ops), other % len(ops)
        pauli = PauliString(n, x % (1 << n), z % (1 << n))
        ops[j] = (pauli, ops[other], pauli_product(ops[j], ops[other]),
                  pauli_product(ops[j], pauli))[kind]
    return ops[:n - k], ops[n - k:n], ops[n:]


def relation_outcome(check):
    """The message of the ValueError check raises, None when it passes."""
    try:
        check()
    except ValueError as error:
        return str(error)
    return None


class TestRelationChecks:
    """A code's relation checks read one per-qubit operator table, with no
    pairwise product; pairwise_relation_checks pins their order and
    messages."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           faults=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7),
                                     st.integers(0, 63), st.integers(0, 63)), max_size=4))
    def test_matches_pairwise_reference(self, n, k, seed, faults):
        k = min(k, n)
        gens, lxs, lzs = faulted_ops(n, k, seed, faults)
        assert (relation_outcome(lambda: StabilizerCode(n, k, gens, lxs, lzs, 1))
                == relation_outcome(lambda: pairwise_relation_checks(gens, lxs, lzs)))

    def test_faults_reach_every_rule(self):
        # the reference's verdict on seeded random faults, every rule met
        rng, rules = random.Random(19), set()
        for _ in range(1500):
            n = rng.randint(1, 6)
            k = rng.randint(0, min(2, n))
            faults = [(rng.randrange(8), rng.randrange(4), rng.randrange(8),
                       rng.getrandbits(6), rng.getrandbits(6)) for _ in range(rng.randint(0, 4))]
            gens, lxs, lzs = faulted_ops(n, k, rng.getrandbits(32), faults)
            want = relation_outcome(lambda: pairwise_relation_checks(gens, lxs, lzs))
            assert relation_outcome(lambda: StabilizerCode(n, k, gens, lxs, lzs, 1)) == want
            rules.add(want and re.sub(r"\b[IXZY]+\b", "P", want))
        assert rules == {None, "generators P and P anticommute",
                         "generators are not GF(2)-independent",
                         "logical P anticommutes with generator P",
                         "logical P/P pairing is wrong", "same-type logicals must commute"}


class TestCorrectabilityOracle:
    """The per-syndrome membership test against the logical-class reference
    over mask lanes: the same verdict and the same witness pair."""

    def test_25_5_boundary(self):
        code = interleaved_code(five_qubit_code(), 5)
        assert assert_matches_oracle(code, enumerate_bursts(25, 5, "colocated")).ok
        result = assert_matches_oracle(code, enumerate_bursts(25, 6, "colocated"))
        assert [str(p) for p in result.witness] == [
            "IIIIIIIIIIIIIIIIIIIXIIIIY", "IIIIIIIIIIIIIIYIIIIYIIIII"]

    def test_10_2_witness(self):
        code = interleaved_code(five_qubit_code(), 2)
        result = assert_matches_oracle(code, enumerate_bursts(10, 3, "colocated"))
        assert [str(p) for p in result.witness] == ["IIIIIIIXIY", "IIIIIYIYII"]

    @pytest.mark.parametrize("base", [phase3_code, five_qubit_code])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["bit", "phase", "colocated", "independent"])
    def test_interleaved_burst_sets(self, base, m, kind):
        code = interleaved_code(base(), m)
        verdicts = []
        for l in range(1, code.n + 1):
            errors = enumerate_bursts(code.n, l, kind)
            if len(errors) > 3000:
                break
            verdicts.append(assert_matches_oracle(code, errors).ok)
        # the sweep reaches a failure wherever one exists within the cap
        assert verdicts and verdicts == sorted(verdicts, reverse=True)

    def test_duplicates_and_identity(self):
        code = interleaved_code(phase3_code(), 2)
        bursts = enumerate_bursts(6, 3, "phase")
        identity = PauliString.identity(6)
        for errors in (bursts + bursts[::-1],
                       [identity, identity] + bursts[:5],
                       [identity],
                       [bursts[3]] * 4,
                       bursts[::-1] + [identity] + bursts,
                       enumerate_bursts(6, 1, "colocated") * 2):
            assert_matches_oracle(code, errors)

    @pytest.mark.parametrize("n", [65, 66, 70])
    def test_multi_word_random_sets(self, n):
        rng = random.Random(n)
        codes = [scrambled_code(n, k, random_gates(n, 4 * n, rng)) for k in (1, 5)]
        if n % 5 == 0:
            codes.append(interleaved_code(five_qubit_code(), n // 5))
        if n % 3 == 0:
            codes.append(interleaved_code(phase3_code(), n // 3))
        verdicts = set()
        for code in codes:
            logicals = (*code.logical_xs, *code.logical_zs)
            for trial in range(8):
                errors = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
                          for _ in range(6)]
                errors += enumerate_bursts(n, 1, "colocated")[:trial * 20]
                # a product with a generator keeps the class (no failure), a
                # product with a logical changes it (a failure)
                errors += [pauli_product(e, rng.choice(code.generators)) for e in errors[:3]]
                if trial % 2:
                    errors += [pauli_product(errors[rng.randrange(len(errors))],
                                             rng.choice(logicals))]
                rng.shuffle(errors)
                verdicts.add(assert_matches_oracle(code, errors).ok)
        assert verdicts == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_small_codes(self, data):
        assert_matches_oracle(*draw_code_and_errors(data))


def unfold(words, count):
    """The (columns, count) bit matrix of the count low bits of each column
    of a (words, columns) uint64 array, most significant first; every bit
    above them is zero."""
    bits = np.unpackbits(words.T.astype(">u8", order="C").view(np.uint8), axis=1)
    assert not bits[:, :bits.shape[1] - count].any()
    return bits[:, bits.shape[1] - count:]


def random_masks(n, count, rng):
    """count masks of n bits: single-bit, sparse and uniform ones, and the
    two extremes, so every byte and word position sees set and clear bits."""
    full = (1 << n) - 1
    pool = (lambda: 0, lambda: full, lambda: rng.getrandbits(n),
            lambda: 1 << rng.randrange(n),
            lambda: rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
    return [rng.choice(pool)() for _ in range(count)]


def assert_words_match_oracle(n, ops, rng, errors=12):
    # the leaf XORed over the errors' letters, one qubit at a time
    xs, zs = random_masks(n, errors, rng), random_masks(n, errors, rng)
    leaf = _leaf(n, ops)
    words = np.zeros((len(leaf), errors), np.uint64)
    for column, letter_words in zip(letter_grid(n, mask_rows(n, xs), mask_rows(n, zs)).T,
                                    leaf.transpose(1, 0, 2)):
        words ^= letter_words[:, column]
    assert words.shape == (-(-len(ops) // 64), errors)
    assert (unfold(words, len(ops)) == commutation_bits(n, ops, xs, zs)).all()


class TestCommutationWords:
    """The commutation words folded from the leaf against the per-operator
    oracle, bit for bit: widths around byte and word boundaries, and
    operator counts whose bits fill one, two and three words."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
    def test_leaf_of_every_single_letter(self, n):
        # leaf[lane, q, c] is the word of letter code c at qubit q
        rng = random.Random(n)
        letters = [(q, c) for q in range(n) for c in range(4)]
        xs = [(c & 1) << (n - 1 - q) for q, c in letters]
        zs = [(c >> 1) << (n - 1 - q) for q, c in letters]
        for count in (1, 63, 64, 65, 129):
            ops = [PauliString(n, x, z) for x, z in zip(random_masks(n, count, rng),
                                                      random_masks(n, count, rng))]
            leaf = _leaf(n, ops)
            assert leaf.shape == (-(-count // 64), n, 4) and leaf.dtype == np.uint64
            assert (unfold(leaf.reshape(len(leaf), 4 * n), count)
                    == commutation_bits(n, ops, xs, zs)).all()

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 128, 129])
    def test_boundary_widths(self, n):
        rng = random.Random(n)
        for count in (1, 63, 64, 65, 128, 129):
            ops = [PauliString(n, x, z) for x, z in zip(random_masks(n, count, rng),
                                                      random_masks(n, count, rng))]
            assert_words_match_oracle(n, ops, rng)
        # a code without generators (k = n) and one without logicals (k = 0)
        for k in (n, 0):
            code = scrambled_code(n, k, random_gates(n, n, rng))
            assert_words_match_oracle(
                n, (*code.generators, *code.logical_xs, *code.logical_zs), rng)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), count=st.integers(1, 140),
           seed=st.integers(0, 2**32 - 1))
    def test_random_operators(self, n, count, seed):
        rng = random.Random(seed)
        ops = [PauliString(n, x, z) for x, z in zip(random_masks(n, count, rng),
                                                  random_masks(n, count, rng))]
        assert_words_match_oracle(n, ops, rng, errors=rng.randrange(30))

    @settings(max_examples=25, deadline=None)
    @given(n=st.one_of(st.integers(65, 140), st.integers(1, 64)),
           k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_wide_code_verdicts(self, n, k, seed):
        # errors seeded to collide: a product with a generator keeps the
        # class, a product with a logical changes it
        rng = random.Random(seed)
        k = min(k, n)
        code = scrambled_code(n, k, random_gates(n, 2 * n, rng))
        errors = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
                  for _ in range(6)]
        same = errors + [pauli_product(e, rng.choice(code.generators))
                         for e in errors[:3] if code.generators]
        other = same + [pauli_product(errors[0], rng.choice((*code.logical_xs, *code.logical_zs)))
                        for _ in range(min(k, 1))]
        verdicts = []
        for chosen in (same, other):
            rng.shuffle(chosen)
            verdicts.append(assert_matches_oracle(code, chosen).ok)
            assert_table_matches_oracle(code, chosen)
        # six uniform errors share a syndrome with odds below 2**-34; with
        # k = 0 there is no logical, and the second set is the first
        if n - k >= 40:
            assert verdicts == [True, k == 0]


def draw_code_and_errors(data):
    """A random scrambled [[n,k]] code (n <= 5) and up to 12 random errors."""
    n = data.draw(st.integers(1, 5), label="n")
    k = data.draw(st.integers(0, n), label="k")
    gates = data.draw(st.lists(st.tuples(st.sampled_from(("H", "S", "CNOT")),
                                         st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=12), label="gates")
    code = scrambled_code(n, k, gates)
    masks = st.integers(0, (1 << n) - 1)
    errors = [PauliString(n, x, z)
              for x, z in data.draw(st.lists(st.tuples(masks, masks), max_size=12),
                                    label="errors")]
    return code, errors


def table_outcome(build, code, errors):
    """The table's (syndrome, correction) items in order, or the collision
    message."""
    try:
        return list(build(code, errors).items())
    except SyndromeCollisionError as exc:
        return str(exc)


def assert_table_matches_oracle(code, errors):
    got = table_outcome(build_syndrome_table, code, errors)
    assert got == table_outcome(class_syndrome_table, code, errors)
    return got


class TestSyndromeTableOracle:
    """build_syndrome_table, the per-error syndrome and membership loop,
    against the logical-class reference over mask lanes: the same keys,
    corrections and order, or the same collision message."""

    def test_interleaved_burst_sweep(self):
        identity = {n: PauliString.identity(n) for n in range(3, 16)}
        cases, outcomes = 0, set()
        for base in (phase3_code(), five_qubit_code()):
            for m in (1, 2, 3):
                code = interleaved_code(base, m)
                for kind in ("bit", "phase", "colocated", "independent"):
                    for l in range(1, code.n + 1):
                        errors = enumerate_bursts(code.n, l, kind)
                        if len(errors) > 3000:
                            break
                        for ordered in (errors, errors[::-1],
                                        [identity[code.n]] + errors):
                            got = assert_table_matches_oracle(code, ordered)
                            outcomes.add(isinstance(got, str))
                            cases += 1
        assert cases == 390
        # both tables and collisions are reached
        assert outcomes == {True, False}

    def test_collision_message(self):
        # the table the statevector method builds for independent bursts
        code = five_qubit_code()
        errors = [PauliString.identity(5)] + enumerate_bursts(5, 1, "independent")
        message = assert_table_matches_oracle(code, errors)
        assert message.startswith("errors IIIIZ and XZIII share syndrome (0, 1, 0, 0) ")

    def test_degenerate_pair(self):
        code = phase3_code()
        z0 = PauliString.from_label("ZII")
        items = assert_table_matches_oracle(code, [z0, pauli_product(z0, code.generators[0])])
        assert items == [((0, 0), PauliString.identity(3)), ((1, 0), z0)]

    def test_codes_without_generators(self):
        code = scrambled_code(3, 3, [])
        assert assert_table_matches_oracle(code, []) == [((), PauliString.identity(3))]
        assert isinstance(
            assert_table_matches_oracle(code, [PauliString.from_label("XII")]), str)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_small_codes(self, data):
        assert_table_matches_oracle(*draw_code_and_errors(data))


def report_json(report):
    """A report's JSON with its elapsed_seconds value cut."""
    return re.sub(r'("elapsed_seconds": )\S+', r"\1", report.render("json"))


class TestMethodIndependence:
    """The state-vector method shares none of the stabilizer sweep's words:
    with the sweep's leaf and window-tree fold made to raise in codes, the
    state-vector runs, one of them a block decoder collision, and the demo
    give their reports unchanged."""

    RUNS = {
        "phase3": lambda: run_verify("phase3", 3, method="statevector"),
        "five collision": lambda: run_verify("five", 3, kind="colocated", burst=4,
                                             method="statevector"),
        "demo": run_demo,
    }

    def test_statevector_runs_without_the_sweep(self, monkeypatch):
        want = {name: report_json(run()) for name, run in self.RUNS.items()}
        assert '"reason": "errors ' in want["five collision"]

        def refuse(*args):
            raise AssertionError("the stabilizer sweep's fold was called")

        # pauli.burst_masks keeps its own burst_words
        monkeypatch.setattr(qinterleave.codes, "_leaf", refuse)
        monkeypatch.setattr(qinterleave.codes, "burst_words", refuse)
        with pytest.raises(AssertionError, match="fold was called"):
            corrects_bursts(phase3_code(), 1, "phase")
        assert {name: report_json(run()) for name, run in self.RUNS.items()} == want

    def test_membership_only_on_shared_syndromes(self, monkeypatch):
        calls = []
        member = StabilizerCode.in_stabilizer_group
        monkeypatch.setattr(StabilizerCode, "in_stabilizer_group",
                            lambda code, p: calls.append(p) or member(code, p))
        code = phase3_code()
        # the demo's table: the identity and three errors, four syndromes
        assert len(build_syndrome_table(code, enumerate_bursts(3, 1, "phase"))) == 4
        assert calls == []
        with pytest.raises(SyndromeCollisionError):
            build_syndrome_table(code, enumerate_bursts(3, 2, "phase"))
        assert len(calls) == 1


class TestTheorem2Equivalence:
    @pytest.mark.parametrize("m", [2, 3])
    def test_statevector_agrees_with_stabilizer(self, m):
        base = phase3_code()
        table = build_syndrome_table(
            base, [PauliString.identity(3)] + enumerate_bursts(3, 1, "phase"))
        rng = np.random.default_rng(25)
        blocks = [encode_phase3(*random_pair(rng)) for _ in range(m)]
        perm = interleave_permutation(3, m)
        compound = interleaved_code(base, m)
        for l in range(1, 3 * m + 1):
            bursts = enumerate_bursts(3 * m, l, "phase")
            failures = 0
            for err in bursts:
                fixed, _, corrections = block_decode(
                    base, table, stack(corrupt_blocks(blocks, err, perm)))
                fid = np.prod([fidelity(f, b) for f, b in zip(fixed, blocks)])
                ok = None not in corrections and fid >= 1.0 - FID_TOL
                failures += 0 if ok else 1
            stab_ok = corrects_error_set(compound, bursts).ok
            assert (failures == 0) == stab_ok
            assert stab_ok == (l <= m)  # ability is exactly b*m with b = 1


class TestBlockDecode:
    def test_records_unknown_syndrome(self):
        base = phase3_code()
        table = build_syndrome_table(base, [PauliString.identity(3),
                                            PauliString.from_label("ZII")])
        blocks = [encode_phase3(0.6, 0.8), encode_phase3(0.28, 0.96)]
        corrupted = [b.apply_pauli(p) for b, p in
                     zip(blocks, split_pauli(PauliString.from_label("IZIIII"), 3))]
        fixed, syndromes, corrections = block_decode(base, table, stack(corrupted))
        assert syndromes.tolist() == [[1, 1], [0, 0]]
        assert corrections[0] is None and corrections[1] == PauliString.identity(3)
        assert fixed[0].tobytes() == corrupted[0].amps.tobytes()

    def test_size_guard(self, monkeypatch):
        # a stack of another shape is refused before any eigenvalue is read
        def refuse(*args):
            raise AssertionError("apply_paulis called")

        monkeypatch.setattr(qinterleave.codes, "apply_paulis", refuse)
        base = phase3_code()
        table = build_syndrome_table(base, [PauliString.identity(3)])
        six = encode_blocks([(1, 0)] * 2, encode_phase3)
        for amps, shape in ((six.amps[None], r"\(1, 64\)"), (stack([six, six]), r"\(2, 64\)"),
                            (encode_phase3(1, 0).amps, r"\(8,\)")):
            with pytest.raises(ValueError, match=f"expected a \\(B, 8\\) stack .* {shape}"):
                block_decode(base, table, amps)


    @pytest.mark.parametrize("base,kind", [(phase3_code(), "phase"),
                                           (five_qubit_code(), "colocated")])
    def test_stack_decodes_as_its_rows(self, base, kind):
        # The table holds two single-qubit errors, so some of the length <= 2
        # bursts on the block have syndromes outside it.
        table = build_syndrome_table(base, enumerate_bursts(base.n, 1, kind)[:2])
        rng = np.random.default_rng(28)
        encoder = logical_encoder(base)
        blocks = [encoder(*random_pair(rng)).apply_pauli(e)
                  for e in enumerate_bursts(base.n, 2, kind)]
        fixed, syndromes, corrections = block_decode(base, table, stack(blocks))
        assert fixed.shape == (len(blocks), 1 << base.n)
        assert syndromes.shape == (len(blocks), len(base.generators))
        assert None in corrections and any(c is not None for c in corrections)
        for i, block in enumerate(blocks):
            row, syndrome, correction = decode_one(base, table, block)
            assert fixed[i].tobytes() == row.tobytes()
            assert syndromes[i].tolist() == syndrome.tolist()
            assert corrections[i] == correction


def whole_register_syndromes(code, s, m):
    """Block syndromes read by applying each embedded generator to the whole
    register (StateVector.stabilizer_eigenvalue)."""
    return [tuple(0 if s.stabilizer_eigenvalue(embed_pauli(g, s.n, i * code.n)) == 1 else 1
                  for g in code.generators)
            for i in range(m)]


def dense_register(blocks):
    return functools.reduce(tensor, blocks)


def raises_indeterminate(fn) -> bool:
    try:
        fn()
    except IndeterminateEigenvalueError:
        return True
    return False


class TestBlockReadoutOracle:
    """block_decode reads each block's syndrome from the block's own n-qubit
    state; the whole-register readout on the dense tensor product of the
    blocks is its oracle."""

    @pytest.mark.parametrize("base,m,table_kind", [
        (phase3_code(), 4, "phase"),
        (five_qubit_code(), 2, "colocated"),
    ])
    def test_matches_whole_register_readout(self, base, m, table_kind):
        table = build_syndrome_table(
            base, [PauliString.identity(base.n)]
            + enumerate_bursts(base.n, 1, table_kind))
        rng = np.random.default_rng(26)
        encoder = logical_encoder(base)
        pairs = [random_pair(rng) for _ in range(m)]
        blocks = [encoder(c0, c1) for c0, c1 in pairs]
        phi_in = encode_blocks(pairs, encoder)
        perm = interleave_permutation(base.n, m)
        interleaved = phi_in.permute_qubits(perm)
        total = base.n * m
        inverse, seen = Permutation(np.argsort(perm.array)), set()
        for err in enumerate_bursts(total, 3, "colocated"):
            _, syndromes, _ = block_decode(base, table,
                                           stack(corrupt_blocks(blocks, err, perm)))
            got = list(map(tuple, syndromes.tolist()))
            deint = interleaved.apply_pauli(err).permute_qubits(inverse)
            assert got == whole_register_syndromes(base, deint, m), err
            seen.update(got)
        # the bursts reach every syndrome of a block
        assert len(seen) == 1 << (base.n - base.k)

    def test_both_raise_on_the_same_non_eigenstates(self):
        base = phase3_code()
        table = build_syndrome_table(base, [PauliString.identity(3)])
        b0, b1 = encode_phase3(0.6, 0.8), encode_phase3(0.28, 0.96)

        def mixed(block, label):
            # equal superposition of two syndromes on the Z-hit block
            amps = block.amps + block.apply_pauli(PauliString.from_label(label)).amps
            return StateVector(3, amps / np.linalg.norm(amps))

        rng = np.random.default_rng(27)
        cases = {
            "codeword": [b0, b1],
            "corrupted": [b0.apply_pauli(PauliString.from_label("IZI")),
                          b1.apply_pauli(PauliString.from_label("IIZ"))],
            "block 0 mixed": [mixed(b0, "ZII"), b1],
            "block 1 mixed": [b0, mixed(b1, "IZI")],
            "random": [random_state(3, rng), random_state(3, rng)],
        }
        outcomes = {}
        for name, blocks in cases.items():
            by_block = raises_indeterminate(lambda: block_decode(base, table, stack(blocks)))
            whole = raises_indeterminate(
                lambda: whole_register_syndromes(base, dense_register(blocks), 2))
            assert by_block == whole, name
            outcomes[name] = by_block
        assert outcomes == {"codeword": False, "corrupted": False,
                            "block 0 mixed": True, "block 1 mixed": True,
                            "random": True}

    def test_both_raise_on_unit_modulus_non_real_expectation(self):
        # X_x Z_z with one overlapping qubit is XZ = -iY, whose expectation on
        # a Y eigenstate is -i or +i: unit modulus, but not +-1
        code = StabilizerCode(n=1, k=0, generators=(PauliString.from_label("Y"),),
                              logical_xs=(), logical_zs=(), burst_ability=0)
        table = build_syndrome_table(code, [PauliString.identity(1)])
        plus_i = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
        with pytest.raises(IndeterminateEigenvalueError, match="not \\+-1"):
            block_decode(code, table, stack([plus_i, plus_i]))
        with pytest.raises(IndeterminateEigenvalueError, match="not \\+-1"):
            whole_register_syndromes(code, dense_register([plus_i, plus_i]), 2)

    def test_batch_raises_for_the_first_offending_block(self):
        # |+i> reads Y as +-1: unit modulus, not +-1; |0> reads 0, off the
        # unit circle.  The batch raises the message of the first block.
        code = StabilizerCode(n=1, k=0, generators=(PauliString.from_label("Y"),),
                              logical_xs=(), logical_zs=(), burst_ability=0)
        table = build_syndrome_table(code, [PauliString.identity(1)])
        plus_i = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
        zero = basis_state(1, "0")
        for blocks, message in (([plus_i, zero], r"<s\|P\|s> = .* is not \+-1"),
                                ([zero, plus_i], r"\|<s\|P\|s>\| = 0\.00000000; state is not")):
            with pytest.raises(IndeterminateEigenvalueError, match=message):
                block_decode(code, table, stack(blocks))
            with pytest.raises(IndeterminateEigenvalueError, match=message):
                decode_one(code, table, blocks[0])
