"""Burst sets addressed by window number, with no set of mask rows built.

The bursts of a kind are numbered as burst_masks orders them, after the
identity: column 0 is the identity and column c burst c - 1.  burst_words folds
a word linear in the masks, such as a syndrome, down the tree of windows that
share a prefix, one 1-d uint64 lane at a time; burst_rows decodes the mask rows
of a few chosen columns from their numbers alone.  Both refuse a set over
BURST_BYTES_BUDGET before allocating it (admitted_burst_count).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .pauli import (_WINDOW_LETTERS, _span_sizes, admitted_burst_count, burst_count,
                    burst_masks, letter_rows)


def _window_tree(l: int, leaf: np.ndarray, ends: Sequence, inner: Sequence,
                 out: np.ndarray) -> None:
    # Each window's word is its head's word (all letters but the last, shared by
    # the windows one longer) XOR its last letter's leaf, one broadcast a span,
    # written to out in the order of _window_rows.  leaf is (n, 4), one lane.
    n = len(leaf)
    end, mid = (leaf[:, [x + 2 * z for x, z in letters]] for letters in (ends, inner))
    head, at = np.zeros((n, 1), np.uint64), 0
    for span in range(1, l + 1):
        starts = n - span + 1
        block = out[at:at + starts * head.shape[1] * len(ends)].reshape(starts, -1, len(ends))
        np.bitwise_xor(head[:starts, :, None], end[span - 1:, None, :], out=block)
        at += block.size
        if span < l:
            head = end if span == 1 else (
                head[:starts, :, None] ^ mid[span - 1:, None, :]).reshape(starts, -1)


def burst_words(n: int, l: int, kind: str, leaf: np.ndarray) -> np.ndarray:
    """(lanes, 1 + count) uint64 words: column 0 is the identity's zero, then
    one column per burst of burst_masks(n, l, kind), in its order, holding the
    XOR of leaf[:, q, c] over the burst's qubits q and their letter codes c
    (x + 2z).  leaf is (lanes, n, 4) uint64 and linear in the masks (letter 0
    zero, letter 3 the XOR of letters 1 and 2), such as commutation words, so
    the words come out with no mask row built.

    Windows sharing a prefix share its word, folded one lane at a time;
    independent words are the outer XOR of the bit and the phase words.
    """
    out = np.zeros((len(leaf), admitted_burst_count(n, l, kind) + 1), dtype=np.uint64)
    if kind != "independent":
        for lane, words in zip(leaf, out):
            _window_tree(l, lane, *_WINDOW_LETTERS[kind], words[1:])
        return out
    side = burst_count(n, l, "bit") + 1
    bits, phases = np.zeros(side, np.uint64), np.zeros(side, np.uint64)
    for lane, words in zip(leaf, out):
        _window_tree(l, lane, *_WINDOW_LETTERS["bit"], bits[1:])
        _window_tree(l, lane, *_WINDOW_LETTERS["phase"], phases[1:])
        np.bitwise_xor(bits[:, None], phases, out=words.reshape(side, side))
    return out


def _window_letters(n: int, l: int, kind: str, columns: np.ndarray) -> np.ndarray:
    # The (N, n) letter grid of the given columns of burst_words, decoded from
    # the numbers alone: span, then start, then the letters, the last one first
    # (leftmost slowest).  Column 0, the identity, stays all I.
    ends, inner = (np.array([x + 2 * z for x, z in letters], np.uint8)
                   for letters in _WINDOW_LETTERS[kind])
    sizes = _span_sizes(n, l, kind)
    first = np.cumsum([1, *sizes])
    span = np.searchsorted(first, columns, side="right")
    letters = np.zeros((len(columns), n), dtype=np.uint8)
    cells = letters.reshape(-1)
    for s in range(1, l + 1):
        rows = np.flatnonzero(span == s)
        start, rest = np.divmod(columns[rows] - first[s - 1], sizes[s - 1] // (n - s + 1))
        at = rows * n + start + s - 1
        for codes in [ends, *[inner] * (s - 2), ends][:-s - 1:-1]:
            rest, digit = np.divmod(rest, len(codes))
            cells[at] = codes[digit]
            at -= 1
    return letters


def burst_rows(n: int, l: int, kind: str, columns: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The x and z mask rows (mask_rows) of the given columns of
    burst_words(n, l, kind, ...), each decoded from its number with no other
    burst built.  Decoding a burst costs 4 to 35 times as much as building its
    row, so columns over 1/64 of the set are taken from burst_masks instead."""
    columns, count = np.asarray(columns, dtype=np.int64), admitted_burst_count(n, l, kind)
    if columns.size and not 0 <= columns.min() <= columns.max() <= count:
        raise IndexError(f"burst columns must lie in [0, {count}]")
    if 64 * len(columns) <= count + 1:
        return _decoded_rows(n, l, kind, columns)
    xs, zs = (rows[columns - 1] for rows in burst_masks(n, l, kind))
    xs[columns == 0] = zs[columns == 0] = 0  # the identity
    return xs, zs


def _decoded_rows(n: int, l: int, kind: str, columns: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    # An independent column is a bit column (outer) and a phase column.
    if kind != "independent":
        return letter_rows(_window_letters(n, l, kind, columns))
    x, z = np.divmod(columns, burst_count(n, l, "bit") + 1)
    return letter_rows(_window_letters(n, l, "bit", x) | _window_letters(n, l, "phase", z))
