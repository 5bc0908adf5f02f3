"""Tests for interleave permutations, SWAP synthesis, gate counts, and export."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinterleave import (
    Circuit,
    Permutation,
    interleave_permutation,
    synthesize_swap_network,
)
from oracles import (
    Gate,
    apply_circuit,
    burst_span,
    circuit_gates,
    circuit_label_action,
    compose,
    deinterleave_blocks,
    enumerate_burst_vectors,
    expand_swap_gates,
    expanded_qasm,
    gate_columns,
    parse_plain,
    permutation_label_action,
    plain_listing,
    qasm_listing,
    swap_network_gates,
)


def array_reading_oracle(n, m):
    """Images built by writing blocks as rows and reading the array by columns."""
    images = [0] * (n * m)
    slot = 0
    for j in range(n):          # column
        for i in range(m):      # row = block
            images[i * n + j] = slot
            slot += 1
    return tuple(images)


class TestPermutation:
    def test_interleave_3x3(self):
        perm = interleave_permutation(3, 3)
        assert perm.array[1] == 3
        assert perm.array[:3].tolist() == [0, 3, 6]  # block 0 occupies {0,3,6}

    def test_identity_case(self):
        assert interleave_permutation(1, 1).array.tolist() == [0]

    def test_interleave_5x5_block0(self):
        perm = interleave_permutation(5, 5)
        assert perm.array[:5].tolist() == [0, 5, 10, 15, 20]

    def test_matches_array_reading_oracle(self):
        for n in range(1, 7):
            for m in range(1, 7):
                assert (tuple(interleave_permutation(n, m).array.tolist())
                        == array_reading_oracle(n, m))

    def test_zero_sizes(self):
        with pytest.raises(ValueError):
            interleave_permutation(0, 3)
        with pytest.raises(ValueError):
            interleave_permutation(3, 0)

    def test_invert_square_is_involution(self):
        for n in range(1, 7):
            perm = interleave_permutation(n, n)
            assert np.array_equal(perm.array[perm.array], np.arange(n * n))

    def test_invert_rectangular(self):
        # argsort of the images is the inverse
        inverse = np.argsort(interleave_permutation(2, 3).array)
        assert np.array_equal(inverse, interleave_permutation(3, 2).array)
        for n in range(1, 7):
            for m in range(1, 7):
                perm = interleave_permutation(n, m)
                inverse, identity = Permutation(np.argsort(perm.array)), np.arange(n * m)
                assert np.array_equal(compose(inverse, perm).array, identity)
                assert np.array_equal(compose(perm, inverse).array, identity)

    def test_invert_identity(self):
        ident = Permutation(np.arange(5))
        assert np.array_equal(np.argsort(ident.array), ident.array)

    def test_bijection_guard(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("images", [
        (0, 0, 1),      # a repeat
        (0, 2),         # a gap
        (-1, 0),        # a negative image
        (0, 1, 3),      # an image out of range
        (0.5, 1),       # not integers, though they sort below 2
        (1.0, 0),
        (True, False),
        ("0", "1"),
        ((0, 1), (1, 0)),
        np.array([1, 1]),
        np.array([1.0, 0.0]),
    ])
    def test_refuses_non_permutations(self, images):
        with pytest.raises(ValueError, match=r"^images must be a permutation of 0\.\.N-1$"):
            Permutation(images)

    def test_array_and_tuple_build_one_permutation(self):
        from_array = interleave_permutation(3, 4)
        from_tuple = Permutation(tuple(from_array.array.tolist()))
        assert np.array_equal(from_array.array, from_tuple.array)
        assert from_array.array.dtype == from_tuple.array.dtype == np.intp
        with pytest.raises(ValueError):
            from_array.array[0] = 1

    def test_inverse_of_random_permutations(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 7, 300):
            perm = Permutation(tuple(rng.permutation(n).tolist()))
            inverse = Permutation(np.argsort(perm.array))
            assert np.array_equal(inverse.array[perm.array], np.arange(n))


class TestSynthesis:
    def test_3x3_exact_swap_set(self):
        circuit = synthesize_swap_network(interleave_permutation(3, 3))
        assert [(g.kind, g.qubits) for g in circuit_gates(circuit)] == [
            ("SWAP", (1, 3)), ("SWAP", (2, 6)), ("SWAP", (5, 7))]

    def test_identity_empty(self):
        circuit = synthesize_swap_network(Permutation(np.arange(4)))
        assert circuit.pairs.shape == (2, 0)

    def test_5x5_counts(self):
        circuit = synthesize_swap_network(interleave_permutation(5, 5))
        assert circuit.swap_count == 10
        assert circuit.cnot_count() == 30

    def test_square_count_formula(self):
        for n in range(1, 9):
            circuit = synthesize_swap_network(interleave_permutation(n, n))
            assert circuit.cnot_count() == 3 * n * (n - 1) // 2

    def test_rectangular_count_bound(self):
        for n in range(1, 9):
            for m in range(1, 9):
                circuit = synthesize_swap_network(interleave_permutation(n, m))
                total = n * m
                if total > 1:
                    assert circuit.cnot_count() <= 3 * (total - 1)
                else:
                    assert circuit.cnot_count() == 0

    def test_circuit_equals_permutation_on_all_labels(self):
        for n in range(1, 7):
            for m in range(1, 7):
                if n * m > 12:
                    continue
                perm = interleave_permutation(n, m)
                circuit = synthesize_swap_network(perm)
                got = circuit_label_action(circuit)
                want_src = permutation_label_action(perm)
                assert np.array_equal(got, want_src)

    def test_general_permutation_synthesis(self):
        rng = np.random.default_rng(13)
        for n in (3, 5, 8):
            for _ in range(10):
                images = list(range(n))
                rng.shuffle(images)
                perm = Permutation(tuple(images))
                circuit = synthesize_swap_network(perm)
                assert np.array_equal(circuit_label_action(circuit),
                                      permutation_label_action(perm))

    @pytest.mark.parametrize("n,m", [(200, 50), (1000, 7), (64, 64)])
    def test_long_cycles_equal_cycle_walk(self, n, m):
        # cycles of up to 300 (200x50) and 999 (1000x7) positions need many doubling rounds
        perm = interleave_permutation(n, m)
        assert np.array_equal(synthesize_swap_network(perm).pairs,
                              gate_columns(swap_network_gates(perm)))

    def test_single_5000_cycle_equals_cycle_walk(self):
        order = np.random.default_rng(21).permutation(5000)
        images = np.empty(5000, np.intp)
        images[order] = np.roll(order, -1)
        perm = Permutation(images)
        circuit = synthesize_swap_network(perm)
        assert circuit.swap_count == 4999
        assert np.array_equal(circuit.pairs, gate_columns(swap_network_gates(perm)))

    def test_apply_circuit_equals_permute_qubits_exhaustive_basis(self):
        from oracles import basis_state
        for n, m in ((2, 2), (3, 2), (2, 3), (3, 3)):
            perm = interleave_permutation(n, m)
            circuit = synthesize_swap_network(perm)
            total = n * m
            for value in range(1 << total):
                s = basis_state(total,
                                [(value >> (total - 1 - q)) & 1 for q in range(total)])
                assert np.allclose(apply_circuit(s, circuit).amps,
                                   s.permute_qubits(perm).amps)

    def test_circuit_equals_permutation_above_12_randomized(self):
        import random as _random
        from oracles import permute_label_scalar, track_label_scalar
        rng = _random.Random(17)
        for n, m in ((4, 4), (5, 4), (3, 7), (8, 7), (8, 8)):
            perm = interleave_permutation(n, m)
            circuit = synthesize_swap_network(perm)
            for _ in range(300):
                label = rng.getrandbits(n * m)
                assert (track_label_scalar(circuit, label)
                        == permute_label_scalar(perm, label))


def swap_lists(width):
    """Lists of up to 40 SWAP gates on `width` qubits (none on one qubit);
    operands at the digit-count edges are drawn often."""
    if width == 1:
        return st.just([])
    edges = [q for q in (0, 1, 9, 10, 99, 100, 999, 1000, width - 1) if q < width]
    qubit = st.one_of(st.integers(0, width - 1), st.sampled_from(edges))
    swap = qubit.flatmap(lambda a: qubit.filter(lambda q: q != a).map(
        lambda b: Gate.swap(a, b)))
    return st.lists(swap, max_size=40)


class TestExport:
    def test_plain_empty(self):
        text = Circuit(4, gate_columns([])).export("plain")
        assert text == "qubits 4\n"

    def test_swap_expansion_matches_three_cnots(self):
        circuit = Circuit(2, gate_columns([Gate.swap(0, 1)]))
        assert circuit.export("plain", lowered=True) == "qubits 2\nCNOT 0 1\nCNOT 1 0\nCNOT 0 1\n"

    def test_plain_round_trip(self):
        circuit = synthesize_swap_network(interleave_permutation(3, 3))
        swaps = Circuit(4, gate_columns([Gate.swap(1, 2), Gate.swap(3, 0)]))
        for original in (circuit, swaps):
            for lowered in (False, True):
                parsed = parse_plain(original.export("plain", lowered))
                assert parsed.width == original.width
                assert np.array_equal(parsed.pairs, original.pairs)

    def test_qasm(self):
        text = Circuit(3, gate_columns([Gate.swap(0, 2)])).export("qasm")
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[2] == "qreg q[3];"
        assert lines[3:] == ["cx q[0],q[2];", "cx q[2],q[0];", "cx q[0],q[2];"]

    def test_qasm_matches_expanded_oracle(self):
        swaps = Circuit(5, gate_columns([Gate.swap(0, 3), Gate.swap(4, 1), Gate.swap(2, 0)]))
        network = synthesize_swap_network(interleave_permutation(4, 6))
        for circuit in (swaps, network, Circuit(2, gate_columns([]))):
            assert circuit.export("qasm") == expanded_qasm(circuit)

    def test_export_dispatch(self):
        circuit = Circuit(3, gate_columns([Gate.swap(2, 0)]))
        assert circuit.export("plain") == "qubits 3\nSWAP 2 0\n"
        assert circuit.export("plain", lowered=True) == "qubits 3\nCNOT 2 0\nCNOT 0 2\nCNOT 2 0\n"
        with pytest.raises(ValueError, match="unknown circuit format 'svg'"):
            circuit.export("svg")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_plain("CNOT 0 1\n")
        with pytest.raises(ValueError):
            parse_plain("qubits 2\nCNOT 0 1\nCNOT 1 0\n")

    def test_circuit_width_guard(self):
        with pytest.raises(ValueError):
            Circuit(2, gate_columns([Gate.swap(0, 2)]))


class TestGateColumns:
    """A Circuit holds its SWAPs as (operand 0, operand 1) pairs; every output
    derived from them equals the per-gate oracle, and bad pairs are refused
    with the message of their first bad SWAP."""

    @pytest.mark.parametrize("width,pairs,message", [
        (2, ([0], [2]), "gate SWAP(0, 2) exceeds width 2"),
        # the first SWAP out of width is named
        (4, ([1, 7], [4, 0]), "gate SWAP(1, 4) exceeds width 4"),
        (3, ([0], [-3]), "negative qubit index"),
        (3, ([-2], [1]), "negative qubit index"),
        (3, ([1], [1]), "SWAP operands must be distinct"),
        (3, ([-1], [-1]), "SWAP operands must be distinct"),
        (3, ([0.5], [1]), "SWAP operands must be integers"),
        # one SWAP is checked for repeated, then negative, then out-of-width operands
        (3, ([4], [4]), "SWAP operands must be distinct"),
        (3, ([-1], [5]), "negative qubit index"),
        # the first bad SWAP is named, whatever a later one is refused for
        (3, ([0, 1], [5, 1]), "gate SWAP(0, 5) exceeds width 3"),
        (3, ([0, 2, 1], [1, -1, 1]), "negative qubit index"),
    ])
    def test_refuses_bad_pairs(self, width, pairs, message):
        with pytest.raises(ValueError) as caught:
            Circuit(width, pairs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("width,gates,message", [
        (2, [Gate.swap(0, 2)], "gate SWAP(0, 2) exceeds width 2"),
        (5, [Gate.swap(4, 3), Gate.swap(5, 0)], "gate SWAP(5, 0) exceeds width 5"),
        (1, [Gate.swap(0, 1)], "gate SWAP(0, 1) exceeds width 1"),
    ])
    def test_refuses_gates_out_of_width(self, width, gates, message):
        with pytest.raises(ValueError) as caught:
            Circuit(width, gate_columns(gates))
        assert str(caught.value) == message

    def test_pairs_are_read_only(self):
        circuit = synthesize_swap_network(interleave_permutation(3, 3))
        with pytest.raises(ValueError):
            circuit.pairs[1, 0] = 2

    @settings(max_examples=120, deadline=None)
    @given(perm=st.integers(0, 300).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from(["identity", "random", "involution", "cycle"]),
        st.permutations(range(n)), st.integers(0, n // 2))))
    def test_synthesis_equals_cycle_walk(self, perm):
        n, shape, order, pairs = perm
        images = list(range(n))
        if shape == "random":
            images = list(order)
        elif shape == "involution":
            for a, b in zip(order[:pairs], order[pairs:2 * pairs]):
                images[a], images[b] = b, a
        elif shape == "cycle":
            for a, b in zip(order, order[1:] + order[:1]):
                images[a] = b
        perm = Permutation(tuple(images))
        circuit = synthesize_swap_network(perm)
        assert circuit.width == n
        assert np.array_equal(circuit.pairs, gate_columns(swap_network_gates(perm)))

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001]).flatmap(
        lambda width: st.tuples(st.just(width), swap_lists(width))))
    # operands cross the 9/10, 99/100 and 999/1000 edges
    @example(case=(5, []))
    @example(case=(10, [Gate.swap(0, 9), Gate.swap(4, 3)]))
    @example(case=(1001, [Gate.swap(9, 10), Gate.swap(99, 100), Gate.swap(1000, 0),
                          Gate.swap(10, 9), Gate.swap(100, 99)]))
    def test_outputs_equal_gate_oracles(self, case):
        width, gates = case
        circuit = Circuit(width, gate_columns(gates))
        assert circuit_gates(circuit) == tuple(gates)
        assert circuit.export("plain") == plain_listing(width, gates)
        expanded = plain_listing(width, expand_swap_gates(gates))
        assert circuit.export("plain", lowered=True) == expanded
        assert circuit.export("qasm") == qasm_listing(width, gates)
        # QASM is lowered either way
        assert circuit.export("qasm", lowered=True) == qasm_listing(width, gates)
        assert circuit.swap_count == len(gates)
        assert circuit.cnot_count() == len(expand_swap_gates(gates))
        for lowered in (False, True):
            parsed = parse_plain(circuit.export("plain", lowered))
            assert parsed.width == width and circuit_gates(parsed) == tuple(gates)
        assert np.array_equal(Circuit(width, circuit.pairs.tolist()).pairs, circuit.pairs)


class TestBurstSpreading:
    def burst_fits_blocks(self, bits, n, m, b):
        return all(burst_span(block) <= b for block in deinterleave_blocks(bits, n, m))

    def test_exhaustive_small(self):
        # every burst of length <= b*m, all window positions and patterns
        for n, m in ((2, 2), (3, 2), (2, 4), (3, 3), (4, 2), (2, 6), (4, 4), (8, 2), (2, 8)):
            for b in range(1, n + 1):
                for v in enumerate_burst_vectors(n * m, b * m):
                    assert self.burst_fits_blocks(v, n, m, b)

    def test_windowed_all_sizes(self):
        # all-ones windows dominate every sub-pattern (support monotonicity)
        for n in range(1, 9):
            for m in range(1, 9):
                total = n * m
                for b in range(1, n + 1):
                    for length in range(1, b * m + 1):
                        for start in range(total - length + 1):
                            bits = [0] * total
                            for i in range(start, start + length):
                                bits[i] = 1
                            assert burst_span(bits) == length
                            assert self.burst_fits_blocks(bits, n, m, b)

    def test_spreading_is_tight(self):
        # a burst one longer than b*m must overload some block
        for n, m in ((3, 3), (2, 4), (5, 2)):
            for b in range(1, n):
                total = n * m
                length = b * m + 1
                bits = [1] * length + [0] * (total - length)
                assert not self.burst_fits_blocks(bits, n, m, b)
