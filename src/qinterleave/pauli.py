"""Pauli operators as mask ints, and burst sets as uint64 lanes.

An n-qubit Pauli operator is PauliString(n, x, z): two mask ints of n bits
read as the operator X_x Z_z, with the global phase deliberately untracked and
position 0 (the leftmost letter of a label such as "ZZZIIIIII") as the most
significant bit.  x_mask and z_mask wrap a mask as a BinaryVector (n, as_int).
A set of masks is one (ceil(n/64), N) native uint64 array of lanes: lane 0
holds each mask's most significant 64 bits, zero-padded on the left.

A burst of length l is a vector whose nonzero entries fit in l consecutive
positions with nonzero endpoints; a Pauli string is a quantum burst of length l
when both of its masks are bursts of length l or less.  A kind's bursts are
numbered after the identity: column 0 is the identity and column c burst c - 1.
burst_words folds a word linear in the masks, such as a syndrome, down the tree
of windows that share a prefix, and a few columns' words are gathered from their
numbers alone, the XOR of one leaf word a letter; burst_masks and burst_rows do
so with the mask leaf, whose words are mask lanes.  Each refuses a set over
BURST_BYTES_BUDGET before allocating it (admitted_burst_count).  Labels are read
off the lanes' big-endian bytes through a 256-entry byte table, burst lengths
and weights off the lanes themselves, a few whole-word passes a lane, and
label_letters reads labels back as the letter codes x + 2z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

BURST_KINDS = ("bit", "phase", "colocated", "independent")

# The peak bytes a burst set may take, at 600 + 4n a burst on n qubits.  That rate
# bounds enumerate --output json, which peaked at 0.40, 0.80 and 3.3 kB a burst
# on 25, 200 and 1000 qubits; 3 GiB at that rate stays well under 7 GB.
BURST_BYTES_BUDGET = 3 << 30

# The four ASCII letters of each key (x nibble << 4) | z nibble, as one uint32.
_NIBBLE_LETTERS = np.frombuffer(bytes(b"IXZY"[(k >> 4 + b & 1) | (k >> b & 1) << 1]
                                      for k in range(256) for b in (3, 2, 1, 0)), np.uint32)
# The letter code x + 2z of each ASCII byte "IXZY"; 0 for every other byte.
_LETTER_CODES = np.array([max(b"IXZY".find(b), 0) for b in range(256)], np.uint8)
_LETTER_X_DIGIT = str.maketrans("IXZY", "0101")
_LETTER_Z_DIGIT = str.maketrans("IXZY", "0011")
_DROP_LETTERS = str.maketrans("", "", "IXZY")

# The letter codes x + 2z each kind allows at a window's two ends, and inside it.
_WINDOW_LETTERS = {
    "bit": ((1,), (0, 1)),
    "phase": ((2,), (0, 2)),
    "colocated": ((1, 2, 3), (0, 1, 2, 3)),
}


@dataclass(frozen=True, slots=True)
class BinaryVector:
    """A mask of n bits packed into the int as_int, position 0 most
    significant: the type of PauliString.x_mask and z_mask."""

    n: int
    as_int: int

    @property
    def is_zero(self) -> bool:
        return self.as_int == 0


@dataclass(frozen=True, slots=True)
class PauliString:
    """Phase-free n-qubit Pauli operator X_x Z_z, its two masks as ints of n
    bits with qubit 0 the most significant; x_mask and z_mask are views."""

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if not (self.n >= 1 and 0 <= self.x < 1 << self.n
                and 0 <= self.z < 1 << self.n):
            raise ValueError(f"need n >= 1 and masks in [0, 2**n), got n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a string over {I,X,Z,Y}, e.g. "ZZZIIIIII"."""
        label = label.upper()
        invalid = label.translate(_DROP_LETTERS)
        if invalid:
            raise ValueError(f"invalid Pauli letter {invalid[0]!r}")
        if not label:
            raise ValueError("Pauli label must have length >= 1")
        return cls(len(label), int(label.translate(_LETTER_X_DIGIT), 2),
                   int(label.translate(_LETTER_Z_DIGIT), 2))

    @property
    def x_mask(self) -> BinaryVector:
        return BinaryVector(self.n, self.x)

    @property
    def z_mask(self) -> BinaryVector:
        return BinaryVector(self.n, self.z)

    def label(self) -> str:
        return row_labels(self.n, mask_rows(self.n, [self.x]),
                          mask_rows(self.n, [self.z])).tobytes().decode()

    __str__ = label


def mask_rows(n: int, masks: Sequence[int]) -> np.ndarray:
    """n-bit mask ints as burst_masks' (ceil(n/64), N) uint64 lanes: lane 0
    holds each mask's most significant 64 bits, zero-padded on the left."""
    lanes = -(-n // 64)
    return np.frombuffer(b"".join(m.to_bytes(8 * lanes, "big") for m in masks),
                         dtype=">u8").reshape(-1, lanes).T.astype(np.uint64, order="C")


def row_masks(lanes: np.ndarray) -> list[int]:
    """The mask ints of lanes (mask_rows); the inverse of mask_rows."""
    return reduce(lambda high, low: [h << 64 | w for h, w in zip(high, low)], lanes.tolist())


def row_lengths(lanes: np.ndarray) -> np.ndarray:
    """Span from the first to the last set bit of each mask of lanes
    (mask_rows), as int64; 0 for a zero mask.

    One pass over the lanes, the least significant first, keeps each mask's
    most and least significant nonzero lane and their numbers.  The span is
    64 bits a lane between them, plus the top lane's bit length (the set bits
    of the lane smeared right), less the bottom lane's trailing zeros.
    """
    count, last = lanes.shape[1], len(lanes) - 1
    top, bottom = lanes[last].copy(), lanes[last].copy()
    top_at, bottom_at = np.full((2, count), last, dtype=np.int64)
    for at in range(last - 1, -1, -1):
        lane = lanes[at]
        nonzero = lane != 0
        np.copyto(top, lane, where=nonzero)
        np.copyto(top_at, at, where=nonzero)
        nonzero &= bottom == 0
        np.copyto(bottom, lane, where=nonzero)
        np.copyto(bottom_at, at, where=nonzero)
    for shift in (1, 2, 4, 8, 16, 32):
        top |= top >> np.uint64(shift)
    bottom ^= bottom - np.uint64(1)  # its trailing zeros and lowest 1 set
    spans = 64 * (bottom_at - top_at) + np.bitwise_count(top) - np.bitwise_count(bottom) + 1
    # A zero mask reads 64 trailing zeros over no bits: a negative span.
    return np.maximum(spans, 0, out=spans)


def row_length_weight(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The burst length (the longer of its two masks' row_lengths) and the
    weight of each Pauli with x mask lanes xs and z mask lanes zs (mask_rows):
    the weight counts the set bits of the x lanes ORed with the z lanes, one
    bitwise_count a lane."""
    lengths = np.maximum(row_lengths(xs), row_lengths(zs))
    return lengths, np.bitwise_count(xs | zs).sum(axis=0)


def label_letters(labels: np.ndarray) -> np.ndarray:
    """The letter code x + 2z of each ASCII letter of labels (row_labels), in
    their shape, as uint8: one gather through a 256-entry byte table."""
    return np.take(_LETTER_CODES, labels)


def row_labels(n: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The (N, n) C-contiguous ASCII labels of the Paulis with mask lanes xs
    and zs (mask_rows), cut from one gather of four letters per (x, z) nibble
    of their big-endian bytes and copied when the pad letters lead each
    label, so that readers of the text pass over it in order."""
    width = -(-n // 8)
    # The masks' last width big-endian bytes, copied as one void item a mask, not one loop a mask.
    xs, zs = (np.ascontiguousarray(lanes.T.astype(">u8", order="C").view(np.uint8)[:, -width:]
                                   .view(f"V{width}")).view(np.uint8) for lanes in (xs, zs))
    keys = np.stack((xs & 0xF0 | zs >> 4, xs << 4 | zs & 0x0F), axis=-1)
    del xs, zs  # freed before the letters are gathered
    letters = _NIBBLE_LETTERS[keys].view(np.uint8).reshape(len(keys), 8 * width)
    return np.ascontiguousarray(letters[:, -n:])


def _span_sizes(n: int, l: int, kind: str) -> list[int]:
    """The windows of each span s = 1..l: n-s+1 starts of e^min(s,2) i^max(s-2,0)
    windows each, for e end and i inner letters."""
    ends, inner = map(len, _WINDOW_LETTERS[kind])
    return [(n - s + 1) * ends ** min(s, 2) * inner ** max(s - 2, 0) for s in range(1, l + 1)]


def burst_count(n: int, l: int, kind: str) -> int:
    """burst_masks(n, l, kind)[0].shape[1]: the windows of every span, and
    (B+1)^2 - 1 for B bit bursts."""
    if kind not in BURST_KINDS:
        raise ValueError(f"unknown burst kind {kind!r}; expected one of {BURST_KINDS}")
    if not 1 <= l <= n:
        raise ValueError(f"burst bound l={l} out of range for n={n}")
    if kind != "independent":
        return sum(_span_sizes(n, l, kind))
    return (sum(_span_sizes(n, l, "bit")) + 1) ** 2 - 1


def admitted_burst_count(n: int, l: int, kind: str) -> int:
    """burst_count(n, l, kind), once a set predicted past BURST_BYTES_BUDGET,
    at 600 + 4n bytes a burst, is refused with ValueError; burst_words,
    burst_masks and burst_rows call it before they allocate."""
    # Span s adds 2**(s-2) windows or more: a valid l past 64 is over budget.
    count, per_burst = burst_count(n, l if l > n else min(l, 64), kind), 600 + 4 * n
    if count * per_burst > BURST_BYTES_BUDGET:
        raise ValueError(
            f"{count:,}{' or more' if l > 64 else ''} {kind} bursts of length <= {l} on "
            f"{n} qubits exceed the budget of {BURST_BYTES_BUDGET // per_burst:,} bursts")
    return count


def _window_tree(l: int, leaf: np.ndarray, ends: Sequence, inner: Sequence,
                 out: np.ndarray) -> None:
    # Each window's word is its head's word (all letters but the last, shared by
    # the windows one longer) XOR its last letter's leaf, one broadcast a span,
    # written to out by span, start, then letters.  leaf is (n, 4), one lane.
    n = len(leaf)
    end, mid = leaf[:, ends], leaf[:, inner]
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

    Window kinds fold the words of windows sharing a prefix one lane at a time;
    independent words recurse, the outer XOR of the bit and the phase words.
    """
    out = np.zeros((len(leaf), admitted_burst_count(n, l, kind) + 1), dtype=np.uint64)
    if kind != "independent":
        for lane, words in zip(leaf, out):
            _window_tree(l, lane, *_WINDOW_LETTERS[kind], words[1:])
        return out
    bits, phases = (burst_words(n, l, k, leaf) for k in ("bit", "phase"))
    np.bitwise_xor(bits[:, :, None], phases[:, None, :], out=out.reshape(bits.shape + (-1,)))
    return out


def _column_words(n: int, l: int, kind: str, leaf: np.ndarray, columns: np.ndarray
                  ) -> np.ndarray:
    # burst_words(n, l, kind, leaf)[:, columns], no other word built: a column's
    # span, start and letter digits (the last letter fastest) are read off its
    # number, span by span of those met, and its letters' leaf rows XORed.
    if kind == "independent":
        x, z = np.divmod(columns, burst_count(n, l, "bit") + 1)
        return _column_words(n, l, "bit", leaf, x) ^ _column_words(n, l, "phase", leaf, z)
    ends, inner = map(np.array, _WINDOW_LETTERS[kind])
    sizes = _span_sizes(n, l, kind)
    first = np.cumsum([1, *sizes])
    span = np.searchsorted(first, columns, side="right")
    rows = np.ascontiguousarray(leaf.transpose(1, 2, 0)).reshape(4 * n, len(leaf))
    out = np.zeros((len(leaf), len(columns)), dtype=np.uint64)
    for s in np.flatnonzero(np.bincount(span, minlength=l + 1)[1:]) + 1:
        at = np.flatnonzero(span == s)
        start, rest = np.divmod(columns[at] - first[s - 1], sizes[s - 1] // (n - s + 1))
        row, words = 4 * (start + s - 1), np.zeros((len(at), len(leaf)), np.uint64)
        for codes in [ends, *[inner] * (s - 2), ends][:-s - 1:-1]:
            rest, digit = np.divmod(rest, len(codes))
            words ^= rows.take(row + codes[digit], axis=0)
            row -= 4
        out[:, at] = words.T
    return out


def burst_rows(n: int, l: int, kind: str, columns: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The x and z mask lanes (mask_rows) of the given columns of
    burst_words(n, l, kind, ...), gathered from their numbers alone: the mask
    leaf's words of each column's letters, XORed.  A gathered burst costs 2 to
    32 times a built one in sets of 10**5 bursts or more, so a request over
    1/64 of the set takes its columns from the words of burst_masks instead."""
    columns, count = np.asarray(columns, dtype=np.int64), admitted_burst_count(n, l, kind)
    if columns.size and not 0 <= columns.min() <= columns.max() <= count:
        raise IndexError(f"burst columns must lie in [0, {count}]")
    leaf = _mask_leaf(n)
    words = (_column_words(n, l, kind, leaf, columns) if 64 * len(columns) <= count + 1
             else burst_words(n, l, kind, leaf)[:, columns])
    return tuple(words.reshape(2, -1, len(columns)))


def _mask_leaf(n: int) -> np.ndarray:
    # The (2 lanes, n, 4) leaf holding each single letter's x lanes, then its
    # z lanes: its burst_words are every burst's x lanes, then its z lanes.
    lanes, qubits = -(-n // 64), np.arange(n)
    leaf = np.zeros((2, lanes, n, 4), np.uint64)
    lane, bit = np.divmod(qubits + 64 * lanes - n, 64)
    # X and Y set the qubit's bit in the x lanes, Z and Y in the z lanes.
    leaf[0, lane, qubits, 1::2] = leaf[1, lane, qubits, 2:] = (
        np.uint64(1) << (63 - bit).astype(np.uint64))[:, None]
    return leaf.reshape(2 * lanes, n, 4)


def burst_masks(n: int, l: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The x masks and the z masks of every non-identity Pauli string of the
    given burst kind on n qubits, as two arrays of lanes (mask_rows).

    bit: x mask is a burst of length <= l, z mask zero.
    phase: mirror image of bit.
    colocated: the minimal window holding both supports spans <= l positions.
    These three are ordered by (span, start, window letters in "IXZY" order).
    independent: each mask is separately a (possibly empty) burst of length
    <= l; every x mask (outer) with every z mask (inner).
    A set predicted past BURST_BYTES_BUDGET raises ValueError before allocation.

    The two halves are views of one array of burst_words of the mask leaf,
    its identity column dropped: the x lanes, then the z lanes.
    """
    admitted_burst_count(n, l, kind)  # refused before the leaf is built
    words = burst_words(n, l, kind, _mask_leaf(n))
    return tuple(words.reshape(2, -1, words.shape[1])[:, :, 1:])


def enumerate_bursts(n: int, l: int, kind: str) -> list[PauliString]:
    """All non-identity Pauli strings of the given burst kind on n qubits, in
    the order and with the kinds of burst_masks."""
    return [PauliString(n, x, z) for x, z in zip(*map(row_masks, burst_masks(n, l, kind)))]
