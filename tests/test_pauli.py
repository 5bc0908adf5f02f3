"""Tests for burst lengths, Pauli masks and their algebra, and burst enumeration."""
import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterleave import (
    BURST_KINDS,
    PauliString,
    Permutation,
    burst_masks,
    enumerate_bursts,
    interleave_permutation,
)
from qinterleave.pauli import (BURST_BYTES_BUDGET, burst_count, label_letters, mask_rows,
                               row_labels, row_length_weight, row_lengths, row_masks)
from oracles import (
    bits_of,
    burst_labels,
    burst_lengths,
    burst_span,
    embed_pauli,
    enumerate_burst_vectors,
    hex_burst_labels,
    int_burst_masks,
    is_quantum_burst,
    label_burst_vectors,
    label_bursts,
    letter_grid,
    letter_label,
    pauli_matrix,
    pauli_of_bits,
    pauli_product,
    permute_pauli,
    scan_burst_length,
    split_pauli,
    support_of,
    symplectic,
)


def mask_bits(n, masks):
    """The 0/1 grid of n-bit masks: the x bits of letter_grid, checked
    against the z bits of the same masks."""
    rows, zero = mask_rows(n, masks), mask_rows(n, [0] * len(masks))
    bits = letter_grid(n, rows, zero) & 1
    assert np.array_equal(bits, letter_grid(n, zero, rows) >> 1)
    return bits


def labels_of(n, xs, zs):
    """The labels row_labels makes of mask lanes, as a list of str."""
    text, width = row_labels(n, xs, zs).tobytes().decode("ascii"), n
    return [text[i:i + width] for i in range(0, len(text), width)]


def all_paulis(n):
    labels = itertools.product("IXZY", repeat=n)
    return [PauliString.from_label("".join(ls)) for ls in labels]


class TestBinaryVector:
    """Burst lengths and supports of single masks."""

    @pytest.mark.parametrize("bits,expected", [
        ("111000000", 3),
        ("000001110", 3),
        ("000000000", 0),
        ("100000001", 9),
        ("010000000", 1),
    ])
    def test_burst_length(self, bits, expected):
        assert row_lengths(mask_rows(9, [int(bits, 2)])).tolist() == [expected]
        assert scan_burst_length([int(c) for c in bits]) == expected

    def test_burst_length_matches_scan_oracle(self):
        # one row per vector, and every row of the set at once
        for n in range(1, 13):
            lengths = burst_lengths(mask_bits(n, range(1 << n))).tolist()
            assert row_lengths(mask_rows(n, range(1 << n))).tolist() == lengths
            for value in range(1 << n):
                bits = bits_of(n, value)
                assert lengths[value] == scan_burst_length(bits) == burst_span(bits)
        assert burst_lengths(mask_bits(70, [1 << 69 | 1]))[0] == 70
        assert row_lengths(mask_rows(70, [1 << 69 | 1]))[0] == 70

    @pytest.mark.parametrize("bits,expected", [
        ("111000000", {0, 1, 2}),
        ("000000000", set()),
        ("010100000", {1, 3}),
    ])
    def test_support(self, bits, expected):
        assert support_of(9, int(bits, 2)) == expected

    def test_burst_zero_iff_empty_support(self):
        for n in range(1, 13):
            masks = range(1 << n)
            lengths = row_lengths(mask_rows(n, masks)).tolist()
            for value, length in zip(masks, lengths):
                assert (length == 0) == (not support_of(n, value))
                assert length >= len(support_of(n, value))


class TestPauliString:
    @pytest.mark.parametrize("x,z,expected", [
        ("110", "011", 3),
        ("000", "000", 0),
        ("100", "100", 1),
    ])
    def test_weight(self, x, z, expected):
        p = pauli_of_bits(x, z)
        assert (p.x | p.z).bit_count() == expected
        # union-of-supports oracle over explicit sets
        assert (p.x | p.z).bit_count() == len(support_of(p.n, p.x) | support_of(p.n, p.z))

    @pytest.mark.parametrize("x,z,l,expected", [
        ("000000000", "111000000", 3, True),
        ("000000000", "000000000", 1, True),
        ("110000000", "000000011", 2, True),   # disjoint X and Z windows allowed
        ("110000000", "000000011", 1, False),
    ])
    def test_is_quantum_burst(self, x, z, l, expected):
        p = pauli_of_bits(x, z)
        assert is_quantum_burst(p, l) is expected
        assert row_lengths(mask_rows(p.n, [p.x, p.z])).max() <= l or not expected

    def test_symplectic_against_matrix_oracle(self):
        # PQ = +-QP decides commutation; exhaustive over 3-qubit pairs is slow,
        # so sample a deterministic subset plus the spec's cases.
        rng = random.Random(11)
        paulis = all_paulis(3)
        cases = [(PauliString.from_label("IZI"), PauliString.from_label("XXI"))]
        cases += [(rng.choice(paulis), rng.choice(paulis)) for _ in range(60)]
        for p, q in cases:
            pq = pauli_matrix(p) @ pauli_matrix(q)
            qp = pauli_matrix(q) @ pauli_matrix(p)
            anti = 1 if np.allclose(pq, -qp) else 0
            assert np.allclose(pq, qp) or np.allclose(pq, -qp)
            assert symplectic(p, q) == anti

    def test_symplectic_examples(self):
        z1 = PauliString.from_label("IZI")
        xxi = PauliString.from_label("XXI")
        assert symplectic(z1, xxi) == 1
        assert symplectic(xxi, xxi) == 0
        x0 = PauliString.from_label("XI")
        z1b = PauliString.from_label("IZ")
        assert symplectic(x0, z1b) == 0

    def test_symplectic_symmetric_exhaustive(self):
        for n in (1, 2):
            for p in all_paulis(n):
                for q in all_paulis(n):
                    assert symplectic(p, q) == symplectic(q, p)

    def test_symplectic_symmetric_and_bilinear_n4(self):
        rng = random.Random(5)
        paulis = all_paulis(4)
        for _ in range(2000):
            p, q, r = (rng.choice(paulis) for _ in range(3))
            assert symplectic(p, q) == symplectic(q, p)
            assert symplectic(pauli_product(p, q), r) == symplectic(p, r) ^ symplectic(q, r)

    def test_multiply(self):
        p = pauli_of_bits("110", "000")
        q = pauli_of_bits("011", "000")
        assert pauli_product(p, q) == pauli_of_bits("101", "000")
        x = pauli_of_bits("100", "000")
        z = pauli_of_bits("000", "100")
        assert pauli_product(x, z) == pauli_of_bits("100", "100")
        assert pauli_product(p, p) == PauliString.identity(3)

    def test_multiply_group_properties(self):
        for n in (1, 2):
            paulis = all_paulis(n)
            for p in paulis:
                assert pauli_product(p, p) == PauliString.identity(n)
                for q in paulis:
                    assert pauli_product(p, q) == pauli_product(q, p)
                    for r in paulis:
                        assert (pauli_product(pauli_product(p, q), r)
                                == pauli_product(p, pauli_product(q, r)))
        # n = 4: exhaustive at the integer-mask level (XOR associativity)
        masks = np.arange(16, dtype=np.int64)
        a = masks[:, None, None]
        b = masks[None, :, None]
        c = masks[None, None, :]
        assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))

    def test_permute_examples(self):
        deint = Permutation(np.argsort(interleave_permutation(3, 3).array))
        p = pauli_of_bits("000000000", "111000000")
        assert format(permute_pauli(p, deint).z, "09b") == "100100100"
        q = pauli_of_bits("000000000", "000001110")
        assert format(permute_pauli(q, deint).z, "09b") == "001001010"
        assert permute_pauli(p, Permutation(np.arange(9))) == p

    def test_permute_preserves_weight(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 16)
            p = pauli_of_bits(
                [rng.randint(0, 1) for _ in range(n)],
                [rng.randint(0, 1) for _ in range(n)])
            images = list(range(n))
            rng.shuffle(images)
            moved = permute_pauli(p, Permutation(images))
            assert (moved.x | moved.z).bit_count() == (p.x | p.z).bit_count()

    def test_label_round_trip(self):
        p = PauliString.from_label("IXZYZXI")
        assert str(p) == "IXZYZXI"
        assert PauliString.from_label(str(p)) == p
        with pytest.raises(ValueError):
            PauliString.from_label("IXQ")
        with pytest.raises(ValueError):
            PauliString.from_label("")
        assert str(pauli_of_bits("1100", "0110")) == "XYZI"
        rng = random.Random(8)
        long_label = "".join(rng.choice("IXZY") for _ in range(70))
        p = PauliString.from_label(long_label)
        assert str(p) == long_label
        assert format(p.x_mask.as_int, "070b") == "".join(
            "1" if c in "XY" else "0" for c in long_label)

    def test_row_lexsort_orders_like_bit_tuples(self):
        # the witness rule sorts a bucket by a lexsort of its x lanes, then its
        # z lanes; it must order exactly like the lexicographic (x bits, z bits)
        # tuples, here built from the labels, across lane boundaries too
        rng = random.Random(8)
        for n in (4, 9, 70):
            labels = (["".join(ls) for ls in itertools.product("IXZY", repeat=n)] if n == 4
                      else ["".join(rng.choices("IIXZY", k=n)) for _ in range(300)])
            paulis = [PauliString.from_label(label) for label in labels]
            lanes = np.vstack([mask_rows(n, [p.x for p in paulis]),
                               mask_rows(n, [p.z for p in paulis])])
            bits = [tuple(tuple(int(c in ls) for c in label) for ls in ("XY", "ZY"))
                    for label in labels]
            order = np.lexsort(lanes[::-1]).tolist()
            assert [bits[i] for i in order] == sorted(bits)

    def test_embed(self):
        p = PauliString.from_label("XZ")
        assert str(embed_pauli(p, 5, 2)) == "IIXZI"
        # split_pauli(p, size) cuts an operator into its size-qubit parts: the inverse
        # of embedding each part at its offset
        p = PauliString.from_label("XZY")
        for i in range(4):
            parts = split_pauli(embed_pauli(p, 12, 3 * i), 3)
            assert parts == [p if j == i else PauliString.identity(3)
                             for j in range(4)]
        rng = random.Random(31)
        for _ in range(20):
            q = PauliString.from_label("".join(rng.choice("IXZY") for _ in range(70)))
            for size in (1, 2, 5, 7, 10, 14, 35, 70):
                parts = split_pauli(q, size)
                assert len(parts) == 70 // size
                assert all(part.n == size for part in parts)
                joined = PauliString.identity(70)
                for i, part in enumerate(parts):
                    joined = pauli_product(joined, embed_pauli(part, 70, i * size))
                assert joined == q
        for size in (0, -1, 4, 71):
            with pytest.raises(ValueError):
                split_pauli(q, size)


class TestPauliValue:
    """PauliString(n, x, z) holds its two mask ints; x_mask and z_mask wrap them."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(PauliString)] == ["n", "x", "z"]
        p = PauliString(3, 0b101, 0b011)
        assert (p.n, p.x, p.z) == (3, 5, 3)
        assert str(p) == "XZY"
        assert p == PauliString.from_label("XZY")
        assert hash(p) == hash(PauliString.from_label("XZY"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 0

    @pytest.mark.parametrize("n,x,z", [
        (0, 0, 0), (-1, 0, 0),       # no qubits
        (3, -1, 0), (3, 0, -1),      # negative masks
        (3, 8, 0), (3, 0, 8),        # masks >= 2**n
        (1, 2, 0), (70, 1 << 70, 0),
    ])
    def test_rejects_out_of_range(self, n, x, z):
        with pytest.raises(ValueError):
            PauliString(n, x, z)

    def test_accepts_the_range_ends(self):
        for n in (1, 3, 64, 70):
            top = (1 << n) - 1
            assert str(PauliString(n, top, top)) == "Y" * n
            assert PauliString(n, 0, 0) == PauliString.identity(n)
        with pytest.raises(ValueError):
            PauliString.identity(0)

    def test_no_binary_vector_pair_constructor(self):
        v = PauliString.from_label("IXI").x_mask
        with pytest.raises(TypeError):
            PauliString(v, v)

    @pytest.mark.parametrize("x,z", [
        ("010", "01"), ("1", "00"), ([0, 1], [1]), ((1, 0, 0), (0, 1)),
    ])
    def test_from_masks_unequal_lengths(self, x, z):
        with pytest.raises(ValueError):
            pauli_of_bits(x, z)

    def test_views_round_trip(self):
        rng = random.Random(21)
        paulis = all_paulis(3) + [
            PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
            for n in (1, 8, 63, 64, 65, 130) for _ in range(5)]
        for p in paulis:
            assert PauliString(p.n, p.x_mask.as_int, p.z_mask.as_int) == p
            assert p.x_mask.n == p.z_mask.n == p.n
            assert (p.x_mask.is_zero, p.z_mask.is_zero) == (p.x == 0, p.z == 0)

    @pytest.mark.parametrize("label", ["x", "iZy", "IXZY", "yyyyyyyyyyyyyyyyyyyy",
                                       "Z" * 64, "xiz" * 30])
    def test_label_upper_round_trip(self, label):
        assert str(PauliString.from_label(label)) == label.upper()


@st.composite
def pauli_case(draw, max_n=6):
    """Two n-qubit Paulis (n <= max_n), a permutation of the qubits and an
    embedding window of a register of up to max_n + 2 qubits."""
    n = draw(st.integers(1, max_n))
    mask = st.integers(0, (1 << n) - 1)
    p = PauliString(n, draw(mask), draw(mask))
    q = PauliString(n, draw(mask), draw(mask))
    images = draw(st.permutations(range(n)))
    total = draw(st.integers(n, max_n + 2))
    offset = draw(st.integers(0, total - n))
    return p, q, images, total, offset


class TestPauliMatrixProperty:
    """The mask-int Pauli algebra against dense matrices and letter-by-letter labels."""

    @settings(max_examples=200, deadline=None)
    @given(pauli_case())
    def test_symplectic_product_is_matrix_commutation(self, case):
        p, q = case[:2]
        a, b = pauli_matrix(p), pauli_matrix(q)
        sign = -1 if symplectic(p, q) else 1
        assert np.array_equal(a @ b, sign * (b @ a))
        assert symplectic(p, q) == symplectic(q, p)

    @settings(max_examples=200, deadline=None)
    @given(pauli_case())
    def test_product_is_matrix_product_up_to_phase(self, case):
        p, q = case[:2]
        want = pauli_matrix(p) @ pauli_matrix(q)
        got = pauli_matrix(pauli_product(p, q))
        phase = np.vdot(got, want) / (1 << p.n)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(want, phase * got)

    @settings(max_examples=200, deadline=None)
    @given(pauli_case())
    def test_permute_and_embed_move_letters(self, case):
        p, _, images, total, offset = case
        letters = letter_label(p)
        moved = [""] * p.n
        for i, dest in enumerate(images):
            moved[dest] = letters[i]
        assert letter_label(permute_pauli(p, Permutation(images))) == "".join(moved)
        placed = embed_pauli(p, total, offset)
        assert placed.n == total
        assert letter_label(placed) == (
            "I" * offset + letters + "I" * (total - offset - p.n))


class TestEnumerateBursts:
    def test_counts_against_exhaustive_oracle(self):
        # all nonzero 9-bit vectors with burst length <= 3, by brute scan
        oracle = sum(
            1 for value in range(1, 1 << 9)
            if scan_burst_length([(value >> (8 - i)) & 1 for i in range(9)]) <= 3)
        assert oracle == 31
        assert len(enumerate_bursts(9, 3, "phase")) == 31
        assert len(enumerate_bursts(9, 3, "bit")) == 31

    def test_single_qubit_colocated(self):
        assert [str(p) for p in enumerate_bursts(1, 1, "colocated")] == ["X", "Z", "Y"]

    def test_independent_count(self):
        assert len(enumerate_bursts(9, 3, "independent")) == 32 * 32 - 1

    def test_errors(self):
        with pytest.raises(ValueError):
            enumerate_bursts(3, 4, "phase")
        with pytest.raises(ValueError):
            enumerate_bursts(3, 0, "phase")
        with pytest.raises(ValueError):
            enumerate_bursts(3, 1, "weird")

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_outputs_are_bursts_and_unique(self, kind):
        for n, l in ((5, 2), (6, 3), (9, 3)):
            out = enumerate_bursts(n, l, kind)
            assert len({(p.x, p.z) for p in out}) == len(out)
            for p in out:
                assert p != PauliString.identity(n)
                assert is_quantum_burst(p, l)

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_order_matches_label_oracle(self, kind):
        # report items follow enumeration order, so pin the order, not the set
        for n in range(1, 7):
            for l in range(1, n + 1):
                assert enumerate_bursts(n, l, kind) == label_bursts(n, l, kind)

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_masks_match_enumeration_and_label_oracle(self, kind):
        # element by element, so the mask path and the Pauli path share one order
        cases = [(n, l) for n in range(1, 7) for l in range(1, n + 1)]
        for n, l in cases + [(25, 3), (70, 2)]:
            xs, zs = burst_masks(n, l, kind)
            assert xs.shape == zs.shape
            masks = list(zip(row_masks(xs), row_masks(zs)))
            assert masks == [(p.x, p.z) for p in enumerate_bursts(n, l, kind)]
            assert masks == [(p.x, p.z) for p in label_bursts(n, l, kind)]

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_burst_labels_match_paulis(self, kind):
        # past 64 qubits a mask takes more than one machine word
        for n in (1, 6, 25, 64, 65, 70):
            l = min(n, 2 if kind == "independent" else 3)
            xs, zs = burst_masks(n, l, kind)
            paulis = enumerate_bursts(n, l, kind)
            labels = labels_of(n, xs, zs)
            assert labels == [str(p) for p in paulis]
            assert labels == [letter_label(p) for p in paulis]
            assert labels == burst_labels(letter_grid(n, xs, zs))
        assert labels_of(4, mask_rows(4, []), mask_rows(4, [])) == []

    def test_masks_errors(self):
        with pytest.raises(ValueError, match="l=100 out of range for n=10"):
            burst_masks(10, 100, "bit")
        with pytest.raises(ValueError):
            burst_masks(3, 4, "phase")
        with pytest.raises(ValueError):
            burst_masks(3, 0, "bit")
        with pytest.raises(ValueError):
            burst_masks(3, 1, "weird")

    def test_vector_order_matches_label_oracle(self):
        for n in range(1, 9):
            for l in range(1, n + 1):
                assert enumerate_burst_vectors(n, l) == [
                    tuple(map(int, v)) for v in label_burst_vectors(n, l)]

    def test_exact_length_count_formula(self):
        for n in range(2, 13):
            for l in range(1, min(n, 5) + 1):
                below = len(enumerate_burst_vectors(n, l - 1)) if l > 1 else 0
                exact = len(enumerate_burst_vectors(n, l)) - below
                assert exact == (n - l + 1) * 2 ** max(l - 2, 0)
                oracle = sum(
                    1 for value in range(1, 1 << n)
                    if scan_burst_length([(value >> (n - 1 - i)) & 1
                                          for i in range(n)]) == l)
                assert exact == oracle

    def test_bit_phase_match_brute_force(self):
        for n, l in ((6, 2), (8, 3)):
            expected = {
                tuple((value >> (n - 1 - i)) & 1 for i in range(n))
                for value in range(1, 1 << n)
                if scan_burst_length([(value >> (n - 1 - i)) & 1
                                      for i in range(n)]) <= l}
            got_phase = {bits_of(n, p.z) for p in enumerate_bursts(n, l, "phase")}
            got_bit = {bits_of(n, p.x) for p in enumerate_bursts(n, l, "bit")}
            assert got_phase == expected
            assert got_bit == expected

    def test_colocated_matches_brute_force(self):
        for n, l in ((4, 2), (5, 3)):
            expected = set()
            for p in all_paulis(n):
                if p == PauliString.identity(n):
                    continue
                if scan_burst_length(bits_of(n, p.x | p.z)) <= l:
                    expected.add(str(p))
            assert {str(p) for p in enumerate_bursts(n, l, "colocated")} == expected

    def test_independent_matches_brute_force(self):
        for n, l in ((4, 2), (6, 2)):
            expected = set()
            for p in all_paulis(n):
                if p == PauliString.identity(n):
                    continue
                if is_quantum_burst(p, l):
                    expected.add(str(p))
            assert {str(p) for p in enumerate_bursts(n, l, "independent")} == expected

    def test_colocated_subset_of_independent(self):
        for n, l in ((4, 2), (6, 3)):
            colocated = {str(p) for p in enumerate_bursts(n, l, "colocated")}
            independent = {str(p) for p in enumerate_bursts(n, l, "independent")}
            assert colocated <= independent


ROW_SIZES = list(range(1, 13)) + [32, 33, 63, 64, 65, 127, 128, 129, 200]


def assert_rows_match_oracle(n, l, kind):
    xs, zs = burst_masks(n, l, kind)
    assert xs.dtype == zs.dtype == np.uint64
    assert xs.shape == zs.shape == (-(-n // 64), burst_count(n, l, kind))
    oracle_xs, oracle_zs = int_burst_masks(n, l, kind)
    assert row_masks(xs) == oracle_xs
    assert row_masks(zs) == oracle_zs


class TestBurstRows:
    """burst_masks' uint64 lanes against the pure-Python int enumerator,
    element by element, with windows starting on both sides of every byte and
    64-bit boundary; and the lane readers against their int counterparts."""

    @pytest.mark.parametrize("kind", BURST_KINDS)
    @pytest.mark.parametrize("n", ROW_SIZES)
    def test_rows_equal_int_oracle(self, kind, n):
        for l in range(1, n + 1):
            if burst_count(n, l, kind) > 40000:
                break
            assert_rows_match_oracle(n, l, kind)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 200), kind=st.sampled_from(BURST_KINDS))
    def test_random_rows_equal_int_oracle(self, data, n, kind):
        longest = sum(1 for _ in itertools.takewhile(
            lambda l: burst_count(n, l, kind) <= 50000, range(1, n + 1)))
        assert_rows_match_oracle(n, data.draw(st.integers(1, longest), label="l"), kind)

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_count_equals_enumerated_length(self, kind):
        # sets past the budget (600 + 4n bytes a burst) are refused, naming
        # the predicted count
        for n in range(1, 13):
            for l in range(1, n + 1):
                count = burst_count(n, l, kind)
                if count * (600 + 4 * n) > BURST_BYTES_BUDGET:
                    with pytest.raises(ValueError, match=f"^{count:,} {kind} bursts"):
                        burst_masks(n, l, kind)
                else:
                    assert count == burst_masks(n, l, kind)[0].shape[1]

    def test_count_closed_forms(self):
        assert burst_count(25, 6, "colocated") == 62463
        assert burst_count(25, 5, "colocated") == 16383
        assert burst_count(65, 7, "colocated") == 729087
        assert burst_count(65, 14, "colocated") == 10536091647
        assert burst_count(9, 3, "independent") == 32 * 32 - 1
        with pytest.raises(ValueError):
            burst_count(3, 4, "phase")
        with pytest.raises(ValueError):
            burst_count(3, 1, "weird")

    @pytest.mark.parametrize("n,l,kind,message", [
        (65, 14, "colocated", "10,536,091,647 colocated bursts of length <= 14"
                              " on 65 qubits exceed the budget of "),
        (200, 100, "bit", " or more bit bursts of length <= 100 on 200 qubits"),
        (10**6, 1, "phase", "1,000,000 phase bursts of length <= 1"),
        (40, 20, "independent", " independent bursts of length <= 20 on 40"),
    ])
    def test_refused_before_allocation(self, monkeypatch, n, l, kind, message):
        def no_allocation(*args, **kwargs):
            raise AssertionError("rows allocated before the budget check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match=message):
            burst_masks(n, l, kind)

    @pytest.mark.parametrize("n,l,kind", [(200, 3, "independent"), (1000, 4, "colocated")])
    def test_peak_is_the_returned_lanes(self, n, l, kind):
        # the halves are views of the window tree's one word array: the set is
        # not transposed or copied on its way out
        tracemalloc.start()
        try:
            halves = burst_masks(n, l, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(half.nbytes for half in halves)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 129])
    def test_labels_equal_hex_oracle(self, n):
        rng = random.Random(n)
        xs = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(40)]
        zs = [(1 << n) - 1, 0] + [rng.getrandbits(n) for _ in range(40)]
        assert labels_of(n, mask_rows(n, xs), mask_rows(n, zs)) == hex_burst_labels(n, xs, zs)
        for kind in BURST_KINDS:
            rows = burst_masks(n, min(n, 2), kind)
            assert labels_of(n, *rows) == hex_burst_labels(n, *map(row_masks, rows))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 129])
    def test_row_readers_equal_int_readers(self, n):
        rng = random.Random(n)
        masks = [0, 1, 1 << (n - 1), (1 << n) - 1] + [
            rng.getrandbits(n) & rng.getrandbits(n) for _ in range(60)]
        lanes = mask_rows(n, masks)
        assert lanes.shape == (-(-n // 64), len(masks))
        assert row_masks(lanes) == masks
        lengths = [scan_burst_length([m >> (n - 1 - i) & 1 for i in range(n)]) for m in masks]
        assert burst_lengths(mask_bits(n, masks)).tolist() == lengths
        assert row_lengths(lanes).tolist() == lengths
        assert row_masks(mask_rows(n, [])) == []


class TestRowTables:
    """Labels read off mask lanes a byte at a time, and burst lengths and
    weights read off the lanes a word at a time, equal what the letter grid
    (oracles.letter_grid) gives: its "IXZY" gather, its first and last 1 of
    each mask, and its nonzero count; the labels' letter codes are the grid."""

    @staticmethod
    def assert_rows_read_as_letter_grid(n, xs, zs):
        letters = letter_grid(n, xs, zs)
        labels = row_labels(n, xs, zs)
        assert labels.shape == (xs.shape[1], n) and labels.flags.c_contiguous
        assert labels_of(n, xs, zs) == burst_labels(letters)
        assert np.array_equal(label_letters(labels), letters)
        x_lengths = burst_lengths(letters & 1)
        z_lengths = burst_lengths(letters >> 1)
        assert row_lengths(xs).tolist() == x_lengths.tolist()
        assert row_lengths(zs).tolist() == z_lengths.tolist()
        lengths, weights = row_length_weight(xs, zs)
        assert lengths.tolist() == np.maximum(x_lengths, z_lengths).tolist()
        assert weights.tolist() == np.count_nonzero(letters, axis=1).tolist()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 140))
    def test_random_rows(self, data, n):
        # sparse masks too, so that first and last set bits fall in every byte
        mask = st.one_of(st.integers(0, (1 << n) - 1),
                         st.builds(lambda i, j: 1 << i | 1 << j,
                                   st.integers(0, n - 1), st.integers(0, n - 1)))
        pairs = data.draw(st.lists(st.tuples(mask, mask), max_size=30), label="masks")
        xs, zs = (mask_rows(n, [pair[k] for pair in pairs]) for k in (0, 1))
        self.assert_rows_read_as_letter_grid(n, xs, zs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 140), kind=st.sampled_from(BURST_KINDS))
    def test_burst_rows(self, data, n, kind):
        longest = sum(1 for _ in itertools.takewhile(
            lambda l: burst_count(n, l, kind) <= 20000, range(1, min(n, 6) + 1)))
        l = data.draw(st.integers(1, max(1, longest)), label="l")
        self.assert_rows_read_as_letter_grid(n, *burst_masks(n, l, kind))

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 65, 140])
    def test_zero_rows(self, n):
        empty = mask_rows(n, [])
        self.assert_rows_read_as_letter_grid(n, empty, empty)
        zero = mask_rows(n, [0, 0])
        self.assert_rows_read_as_letter_grid(n, zero, zero)
        assert row_lengths(zero).tolist() == [0, 0]


class TestRowLanes:
    """The uint64 lanes of mask ints, and the mask ints and burst lengths
    read off them, on each side of every lane edge."""

    @staticmethod
    def edge_masks(n):
        # bits on each side of every 64-bit lane edge (counted from the least
        # significant bit), singly and in pairs, among zero and full rows
        edges = sorted({b for e in range(0, n + 64, 64) for b in (e - 1, e) if 0 <= b < n}
                       | {n - 1})
        pairs = [1 << a | 1 << b for a, b in itertools.combinations(edges, 2)]
        return [0, *(1 << b for b in edges), 0, *pairs, (1 << n) - 1, 0]

    @staticmethod
    def assert_lanes_read_as_bits(n, masks):
        lanes = mask_rows(n, masks)
        assert lanes.shape == (-(-n // 64), len(masks))
        assert lanes.dtype == np.uint64 and lanes.dtype.isnative and lanes.flags.c_contiguous
        # lane 0 holds the most significant 64 bits of the zero-padded mask
        assert [sum(int(w) << 64 * k for k, w in enumerate(reversed(column)))
                for column in lanes.T.tolist()] == masks
        assert row_masks(lanes) == masks
        spans = [burst_span(bits_of(n, m)) for m in masks]
        assert row_lengths(lanes).tolist() == spans
        return lanes, spans

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])
    def test_lane_edges(self, n):
        masks = self.edge_masks(n)
        lanes, spans = self.assert_lanes_read_as_bits(n, masks)
        assert spans == [scan_burst_length(bits_of(n, m)) for m in masks]
        # past one lane, some rows have their first and last 1 in different lanes
        split = [np.count_nonzero(column) > 1 for column in lanes.T]
        assert any(split) == (n > 64)

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_empty_set(self, n):
        lanes = mask_rows(n, [])
        assert lanes.shape == (-(-n // 64), 0)
        assert row_lengths(lanes).tolist() == [] and row_masks(mask_rows(n, [])) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 40))
    def test_random_sparse_rows(self, data, width):
        n = data.draw(st.integers(8 * width - 7, 8 * width), label="n")
        sparse = st.builds(lambda bits: sum(1 << b for b in bits),
                           st.sets(st.integers(0, n - 1), max_size=3))
        masks = data.draw(st.lists(sparse, max_size=20), label="masks")
        self.assert_lanes_read_as_bits(n, masks)
