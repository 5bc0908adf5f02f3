"""Binary-vector and Pauli-mask algebra on packed masks, and burst sets.

A binary vector of length n is stored only as (n, as_int), with position 0
(the leftmost symbol of a mask string such as "111000000") as the most
significant bit; bit tuples and strings are views derived from the int.  An
n-qubit Pauli operator is PauliString(n, x, z), two such mask ints read as the
operator X_x Z_z with the global phase deliberately untracked.  A set of masks
is one (N, ceil(n/8)) uint8 array of rows, each a mask's big-endian bytes.

A burst of length l is a vector whose nonzero entries fit in l consecutive
positions with nonzero endpoints; a Pauli string is a quantum burst of length l
when both of its masks are bursts of length l or less.  burst_masks builds a
kind's bursts as rows with numpy, refusing a set over BURST_BYTES_BUDGET before
allocating it (admitted_burst_count, which the window module calls too).  Labels
and burst lengths are read off the rows through 256-entry byte tables; the (N, n)
grid of letter codes x + 2z that burst_letters unpacks, and letter_rows packs
back, serves the code tables and deinterleaving.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

BURST_KINDS = ("bit", "phase", "colocated", "independent")

# The peak bytes a burst set may take, at 600 + 4n a burst on n qubits.  That rate
# bounds enumerate --output json, which peaked at 0.40, 0.80 and 3.3 kB a burst
# on 25, 200 and 1000 qubits; 3 GiB at that rate stays well under 7 GB.
BURST_BYTES_BUDGET = 3 << 30
# synth's peak bytes per interleaver qubit under the same budget.  Its costliest
# path, --expand-swaps with n != m (about one SWAP a qubit), peaked at 379 and
# 382 B over import at 1e6 and 2e6 qubits; qasm at 211 B, and 161 B for n = m.
SYNTH_BYTES_PER_QUBIT = 448

# The four ASCII letters of each key (x nibble << 4) | z nibble, as one uint32.
_NIBBLE_LETTERS = np.frombuffer(b"".join(bytes(b"IXZY"[(k >> 4 + b & 1) | (k >> b & 1) << 1]
                                               for b in (3, 2, 1, 0)) for k in range(256)), np.uint32)
# A nonzero byte's zero bits above its highest set bit, and below its lowest.
_LEADING_ZEROS = np.array([8 - b.bit_length() for b in range(256)])
_TRAILING_ZEROS = np.array([(b & -b).bit_length() - 1 for b in range(256)])
_LETTER_X_DIGIT = str.maketrans("IXZY", "0101")
_LETTER_Z_DIGIT = str.maketrans("IXZY", "0011")
_DROP_LETTERS = str.maketrans("", "", "IXZY")

# Window letters of the burst kinds as (x bit, z bit) in "IXZY" order: the
# letters allowed at the two ends of a window, and inside it.
_WINDOW_LETTERS = {
    "bit": (((1, 0),), ((0, 0), (1, 0))),
    "phase": (((0, 1),), ((0, 0), (0, 1))),
    "colocated": (((1, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))),
}


@dataclass(frozen=True, slots=True, init=False)
class BinaryVector:
    """Ordered 0/1 sequence of length n packed into the int as_int;
    positions are 0-indexed left to right, position 0 most significant."""

    n: int
    as_int: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if len(bits) < 1:
            raise ValueError("binary vector must have length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("binary vector entries must be 0 or 1")
        object.__setattr__(self, "n", len(bits))
        object.__setattr__(self, "as_int", int("".join("01"[b] for b in bits), 2))

    @classmethod
    def from_int(cls, n: int, value: int) -> "BinaryVector":
        """Trusted constructor: n >= 1 and 0 <= value < 2**n are not checked."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "as_int", value)
        return v

    @classmethod
    def from_string(cls, s: str) -> "BinaryVector":
        return cls(int(c) for c in s)

    @classmethod
    def from_support(cls, n: int, positions: Iterable[int]) -> "BinaryVector":
        support = set(positions)
        if not support <= set(range(n)):
            raise ValueError(f"support positions must lie in [0, {n})")
        return cls(int(i in support) for i in range(n))

    @property
    def bits(self) -> tuple[int, ...]:
        """The entries as a tuple, position 0 first."""
        return tuple(self)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        return tuple(self)[i]

    def __iter__(self) -> Iterator[int]:
        return ((self.as_int >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def __str__(self) -> str:
        return format(self.as_int, f"0{self.n}b")

    @property
    def is_zero(self) -> bool:
        return self.as_int == 0

    def support(self) -> frozenset[int]:
        """Indices carrying a 1."""
        return frozenset(i for i in range(self.n)
                         if (self.as_int >> (self.n - 1 - i)) & 1)

    def burst_length(self) -> int:
        """Span from the first to the last nonzero position; 0 for the zero vector."""
        mask = self.as_int
        return mask.bit_length() - (mask & -mask).bit_length() + 1 if mask else 0


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
    def from_masks(cls, x: str | Sequence[int], z: str | Sequence[int]) -> "PauliString":
        xv = BinaryVector.from_string(x) if isinstance(x, str) else BinaryVector(x)
        zv = BinaryVector.from_string(z) if isinstance(z, str) else BinaryVector(z)
        if xv.n != zv.n:
            raise ValueError("x and z masks must have equal length")
        return cls(xv.n, xv.as_int, zv.as_int)

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
        return BinaryVector.from_int(self.n, self.x)

    @property
    def z_mask(self) -> BinaryVector:
        return BinaryVector.from_int(self.n, self.z)

    @property
    def is_identity(self) -> bool:
        return not (self.x or self.z)

    def label(self) -> str:
        return row_labels(self.n, mask_rows(self.n, [self.x]),
                          mask_rows(self.n, [self.z])).tobytes().decode()

    __str__ = label

    def weight(self) -> int:
        """Number of qubits touched: |supp(x) union supp(z)|."""
        return (self.x | self.z).bit_count()

    def is_quantum_burst(self, l: int) -> bool:
        """True when the bit mask and the phase mask are each bursts of length <= l."""
        return self.x_mask.burst_length() <= l and self.z_mask.burst_length() <= l

    def symplectic_product(self, other: "PauliString") -> int:
        """0 when the two operators commute, 1 when they anticommute."""
        if self.n != other.n:
            raise ValueError("Pauli strings act on different register sizes")
        return ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Mask-level product: XOR both masks, phase discarded."""
        if self.n != other.n:
            raise ValueError("Pauli strings act on different register sizes")
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z)

    def permute(self, images: Sequence[int]) -> "PauliString":
        """Move the letter at position i to position images[i], in both masks."""
        n = self.n
        if sorted(images) != list(range(n)):
            raise ValueError(f"images must be a permutation of 0..{n - 1}")
        x = z = 0
        for i, dest in enumerate(images):
            src, to = n - 1 - i, n - 1 - dest
            x |= ((self.x >> src) & 1) << to
            z |= ((self.z >> src) & 1) << to
        return PauliString(n, x, z)

    def embed(self, n_total: int, offset: int) -> "PauliString":
        """Place this operator at [offset, offset+n) of a larger identity register."""
        if offset < 0 or offset + self.n > n_total:
            raise ValueError("embedding window out of range")
        shift = n_total - offset - self.n
        return PauliString(n_total, self.x << shift, self.z << shift)


def mask_rows(n: int, masks: Sequence[int]) -> np.ndarray:
    """n-bit mask ints as burst_masks' (N, ceil(n/8)) uint8 big-endian rows."""
    width = -(-n // 8)
    return np.frombuffer(b"".join(m.to_bytes(width, "big") for m in masks),
                         dtype=np.uint8).reshape(-1, width)


def row_masks(rows: np.ndarray) -> list[int]:
    """The mask ints of big-endian byte rows; the inverse of mask_rows."""
    padded = np.zeros((len(rows), -(-rows.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, padded.shape[1] - rows.shape[1]:] = rows
    return reduce(lambda high, low: [h << 64 | w for h, w in zip(high, low)],
                  padded.view(">u8").T.tolist())


def row_lengths(rows: np.ndarray) -> np.ndarray:
    """Span from the first to the last set bit of each mask row (mask_rows),
    as int64, which holds 8 * width; 0 for a zero row."""
    nonzero, index = rows != 0, np.arange(len(rows))
    first, last = nonzero.argmax(axis=1), rows.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    top = rows[index, first]
    spans = 8 * (last - first + 1) - _LEADING_ZEROS[top] - _TRAILING_ZEROS[rows[index, last]]
    return np.where(top != 0, spans, 0)


def burst_letters(n: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The (N, n) uint8 grid of the n-qubit Paulis with x mask rows xs and z
    mask rows zs (mask_rows): row i holds each qubit's letter code x + 2z."""
    letters = np.unpackbits(zs, axis=1)[:, -n:]
    letters <<= 1
    letters |= np.unpackbits(xs, axis=1)[:, -n:]
    return letters


def letter_rows(letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x mask rows and the z mask rows (mask_rows) of the Paulis of a letter
    grid; the inverse of burst_letters."""
    n = letters.shape[1]
    width = -(-n // 8)
    bits = np.zeros((2, len(letters), 8 * width), dtype=np.uint8)
    np.bitwise_and(letters, 1, out=bits[0, :, -n:])
    np.right_shift(letters, 1, out=bits[1, :, -n:])
    # Rows of whole bytes pack as one run each.
    xs, zs = np.packbits(bits.reshape(2, -1), axis=1).reshape(2, len(letters), width)
    return xs, zs


def row_labels(n: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The (N, n) ASCII labels of the Paulis with mask rows xs and zs
    (mask_rows): a view of one gather of four letters per (x, z) nibble."""
    keys = np.stack((xs & 0xF0 | zs >> 4, xs << 4 | zs & 0x0F), axis=-1)
    return _NIBBLE_LETTERS[keys].view(np.uint8).reshape(len(xs), 8 * xs.shape[1])[:, -n:]


def _span_sizes(n: int, l: int, kind: str) -> list[int]:
    """The windows of each span s = 1..l: n-s+1 starts of e^min(s,2) i^max(s-2,0)
    windows each, for e end and i inner letters."""
    ends, inner = map(len, _WINDOW_LETTERS[kind])
    return [(n - s + 1) * ends ** min(s, 2) * inner ** max(s - 2, 0) for s in range(1, l + 1)]


def burst_count(n: int, l: int, kind: str) -> int:
    """len(burst_masks(n, l, kind)[0]): the windows of every span, and
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
    at 600 + 4n bytes a burst, is refused with ValueError; burst_masks and the
    window module's burst_words and burst_rows call it before they allocate."""
    # Span s adds 2**(s-2) windows or more: a valid l past 64 is over budget.
    count, per_burst = burst_count(n, l if l > n else min(l, 64), kind), 600 + 4 * n
    if count * per_burst > BURST_BYTES_BUDGET:
        raise ValueError(
            f"{count:,}{' or more' if l > 64 else ''} {kind} bursts of length <= {l} on "
            f"{n} qubits exceed the budget of {BURST_BYTES_BUDGET // per_burst:,} bursts")
    return count


def _window_rows(n: int, l: int, ends: Sequence, inner: Sequence) -> np.ndarray:
    # Minimal windows span <= l positions with end letters at both ends, ordered
    # by span, start, letters (leftmost slowest).  A window, a uint64 per mask, is
    # the low and high word of a row of big-endian words; word 0 spills, all zero.
    width, words = -(-n // 8), -(-n // 64)
    end_bits, inner_bits = (np.array(ls, np.uint64).T[:, None] for ls in (ends, inner))
    head, spans, shifts = end_bits[:, 0], [], np.arange(n - 1, -1, -1)
    lows, offsets = words - shifts // 64, (shifts % 64).astype(np.uint64)[:, None, None]
    for span in range(1, l + 1):
        windows = ((head[:, :, None] << 1) | end_bits).reshape(2, -1) if span > 1 else head
        low, offset, starts = lows[span - 1:], offsets[span - 1:], np.arange(n - span + 1)
        rows = np.zeros((2, len(starts), windows.shape[1], words + 1), dtype=">u8")
        rows[:, starts, :, low] = windows << offset
        rows[:, starts, :, low - 1] = (windows >> 1) >> (63 - offset)
        spans.append(rows.view(np.uint8)[..., -width:].reshape(2, -1, width))
        if span > 1:
            head = ((head[:, :, None] << 1) | inner_bits).reshape(2, -1)
    return np.concatenate(spans, axis=1)


def burst_masks(n: int, l: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The x masks and the z masks of every non-identity Pauli string of the
    given burst kind on n qubits, as two arrays of rows (mask_rows).

    bit: x mask is a burst of length <= l, z mask zero.
    phase: mirror image of bit.
    colocated: the minimal window holding both supports spans <= l positions.
    These three are ordered by (span, start, window letters in "IXZY" order).
    independent: each mask is separately a (possibly empty) burst of length
    <= l; every x mask (outer) with every z mask (inner).
    A set predicted past BURST_BYTES_BUDGET raises ValueError before allocation.
    """
    admitted_burst_count(n, l, kind)
    if kind != "independent":
        return tuple(_window_rows(n, l, *_WINDOW_LETTERS[kind]))
    # The identity pair comes first and is dropped.
    vectors = np.pad(_window_rows(n, l, *_WINDOW_LETTERS["bit"])[0], ((1, 0), (0, 0)))
    return (np.repeat(vectors, len(vectors), axis=0)[1:],
            np.tile(vectors, (len(vectors), 1))[1:])


def enumerate_bursts(n: int, l: int, kind: str) -> list[PauliString]:
    """All non-identity Pauli strings of the given burst kind on n qubits, in
    the order and with the kinds of burst_masks."""
    return [PauliString(n, x, z) for x, z in zip(*map(row_masks, burst_masks(n, l, kind)))]
