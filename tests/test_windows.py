"""Tests for burst sets addressed by window number: the window-tree words of
burst_words, the words _column_words gathers from column numbers, and the rows
burst_rows takes from them."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterleave import BURST_KINDS, burst_masks
from qinterleave.pauli import (BURST_BYTES_BUDGET, _column_words, _mask_leaf, burst_count,
                               burst_rows, burst_words, row_masks)
from oracles import int_burst_at, letter_grid


def admitted(n, l, kind):
    """True when burst_masks builds the set rather than refusing it."""
    return burst_count(n, l, kind) * (600 + 4 * n) <= BURST_BYTES_BUDGET


def linear_leaf(n, lanes, rng):
    """A random (lanes, n, 4) uint64 leaf that is linear in the masks: the I
    letter's word is zero and Y's is the XOR of X's and Z's."""
    leaf = rng.integers(0, 2**64, size=(lanes, n, 4), dtype=np.uint64)
    leaf[..., 0] = 0
    leaf[..., 3] = leaf[..., 1] ^ leaf[..., 2]
    return leaf


def decoded_rows(n, l, kind, columns):
    """The x and z lanes of the columns gathered from their numbers alone:
    _column_words of the mask leaf, whatever the share of the set."""
    columns = np.asarray(columns, dtype=np.int64)
    return tuple(_column_words(n, l, kind, _mask_leaf(n), columns).reshape(2, -1, len(columns)))


class TestBurstWindows:
    """The rows gathered from column numbers alone (decoded_rows, and
    burst_rows, which takes many columns from burst_masks instead) against
    the rows of burst_masks and the scalar counting oracle; the window-tree
    words of burst_words against a per-burst XOR of their leaf; and the words
    _column_words gathers against the columns of burst_words."""

    @pytest.mark.parametrize("kind", BURST_KINDS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_equal_burst_masks(self, kind, n):
        # every column of a set up to 2**18 bursts; past that, both sides of
        # every span edge and 4096 random columns; a refused set is refused
        rng = np.random.default_rng(n)
        for l in range(1, n + 1):
            count = burst_count(n, l, kind)
            if not admitted(n, l, kind):
                with pytest.raises(ValueError, match=f"^{count:,} {kind} bursts"):
                    burst_rows(n, l, kind, [0])
                continue
            if count <= 1 << 18:
                columns = np.arange(count + 1)
            else:
                edges = [burst_count(n, s, kind) + d for s in range(1, l) for d in (0, 1)]
                columns = np.r_[0, 1, count, edges, rng.integers(0, count + 1, 4096)]
            zero = np.zeros((-(-n // 64), 1), np.uint64)
            expected = [np.hstack([zero, lanes])[:, columns] for lanes in burst_masks(n, l, kind)]
            for got in (decoded_rows(n, l, kind, columns), burst_rows(n, l, kind, columns)):
                for lanes, want in zip(got, expected):
                    assert lanes.dtype == np.uint64
                    assert np.array_equal(lanes, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 200), kind=st.sampled_from(BURST_KINDS))
    def test_random_column_equals_counting_oracle(self, data, n, kind):
        longest = sum(1 for _ in itertools.takewhile(
            lambda l: admitted(n, l, kind), range(1, n + 1)))
        l = data.draw(st.integers(1, longest), label="l")
        count = burst_count(n, l, kind)
        columns = data.draw(st.lists(st.integers(0, count), min_size=1, max_size=5),
                            label="columns")
        want = [int_burst_at(n, l, kind, c - 1) if c else (0, 0) for c in columns]
        for rows in (decoded_rows(n, l, kind, columns), burst_rows(n, l, kind, columns)):
            assert list(zip(*map(row_masks, rows))) == want
        for c in (-1, count + 1):
            with pytest.raises(IndexError):
                burst_rows(n, l, kind, [c])

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_words_equal_per_burst_xor(self, kind):
        rng = np.random.default_rng(len(kind))
        for n in (1, 2, 5, 9, 66):
            for l in range(1, n + 1):
                if burst_count(n, l, kind) > 5000:
                    break
                for lanes in (1, 3):
                    leaf = linear_leaf(n, lanes, rng)
                    words = burst_words(n, l, kind, leaf)
                    assert words.dtype == np.uint64
                    assert words.shape == (lanes, burst_count(n, l, kind) + 1)
                    letters = letter_grid(n, *burst_masks(n, l, kind))
                    expected = np.bitwise_xor.reduce(
                        leaf[:, np.arange(n), letters], axis=2)
                    assert not words[:, 0].any()
                    assert np.array_equal(words[:, 1:], expected)

    @pytest.mark.parametrize("kind", BURST_KINDS)
    def test_column_words_equal_burst_words(self, kind):
        # column 0, both sides of every span edge and random columns, on
        # random linear leaves of 1 and 3 lanes; for independent sets the
        # edges of the bit side, as outer and inner halves
        rng = np.random.default_rng(len(kind) + 10)
        for n in (1, 2, 5, 9, 66):
            for l in range(1, n + 1):
                if burst_count(n, l, kind) > 5000:
                    break
                count = burst_count(n, l, kind)
                edges = [burst_count(n, s, "bit" if kind == "independent" else kind) + d
                         for s in range(1, l) for d in (0, 1)]
                if kind == "independent":
                    side = burst_count(n, l, "bit") + 1
                    halves = [0, 1, *edges, side - 1]
                    edges = [x * side + z for x in halves for z in halves]
                columns = np.r_[0, edges, count, rng.integers(0, count + 1, 64)].astype(np.int64)
                for lanes in (1, 3):
                    leaf = linear_leaf(n, lanes, rng)
                    got = _column_words(n, l, kind, leaf, columns)
                    assert got.dtype == np.uint64 and got.shape == (lanes, len(columns))
                    assert np.array_equal(got, burst_words(n, l, kind, leaf)[:, columns])
                    assert _column_words(n, l, kind, leaf, columns[:0]).shape == (lanes, 0)

    def test_words_refused_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("words allocated before the budget check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match="^10,536,091,647 colocated bursts"):
            burst_words(65, 14, "colocated", np.empty((1, 65, 4), np.uint64))
