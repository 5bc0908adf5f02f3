"""Binary-vector and Pauli-mask algebra on packed integer masks.

A binary vector of length n is stored only as (n, as_int), with position 0
(the leftmost symbol of a mask string such as "111000000") as the most
significant bit; bit tuples and strings are views derived from the int.  An
n-qubit Pauli operator is PauliString(n, x, z), two such mask ints read as the
operator X_x Z_z with the global phase deliberately untracked.

A burst of length l is a vector whose nonzero entries fit in l consecutive
positions with nonzero endpoints; a Pauli string is a quantum burst of length l
when both of its masks are bursts of length l or less.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

BURST_KINDS = ("bit", "phase", "colocated", "independent")

_LETTER_X_DIGIT = str.maketrans("IXZY", "0101")
_LETTER_Z_DIGIT = str.maketrans("IXZY", "0011")
_DROP_LETTERS = str.maketrans("", "", "IXZY")
_HEX_DIGIT_LETTER = str.maketrans("0123", "IXZY")

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
        return burst_length(self.as_int)


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
        return burst_labels(self.n, [self.x], [self.z])[0]

    __str__ = label

    def weight(self) -> int:
        """Number of qubits touched: |supp(x) union supp(z)|."""
        return (self.x | self.z).bit_count()

    def is_quantum_burst(self, l: int) -> bool:
        """True when the bit mask and the phase mask are each bursts of length <= l."""
        return burst_length(self.x) <= l and burst_length(self.z) <= l

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

    @property
    def sort_key(self) -> tuple[int, int]:
        """(x, z); for equal lengths this orders like the bit tuples
        (x bits, z bits) lexicographically.  Used for deterministic tie-breaks."""
        return (self.x, self.z)


def burst_length(mask: int) -> int:
    """Span from the highest to the lowest set bit of a mask int; 0 for 0."""
    return mask.bit_length() - (mask & -mask).bit_length() + 1 if mask else 0


def burst_labels(n: int, xs: Sequence[int], zs: Sequence[int]) -> list[str]:
    """The labels of the n-qubit Paulis with x masks xs and z masks zs, in
    order, without building the Paulis; any masks, not only bursts."""
    if not xs:
        return []
    # Read as hex, the masks' binary digits give each qubit its own nibble, so
    # x + 2z per nibble indexes "IXZY"; hex converts in linear time.
    digits = ("{:0%db}" % n) * len(xs)
    x = int(digits.format(*xs), 16)
    z = int(digits.format(*zs), 16)
    text = format(x | (z << 1), f"0{n * len(xs)}x").translate(_HEX_DIGIT_LETTER)
    return [text[i:i + n] for i in range(0, len(text), n)]


def _window_bursts(n: int, l: int, ends: Sequence[tuple[int, int]],
                   inner: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    # The minimal window holding the support spans at most l positions, so its
    # endpoints carry an end letter and each string is produced exactly once.
    # Order: span, start, then the window letters, leftmost letter slowest.
    xs: list[int] = []
    zs: list[int] = []
    for span in range(1, l + 1):
        windows = [(0, 0)]
        for i in range(span):
            letters = ends if i in (0, span - 1) else inner
            windows = [((x << 1) | bx, (z << 1) | bz)
                       for x, z in windows for bx, bz in letters]
        wx = [x for x, _ in windows]
        wz = [z for _, z in windows]
        for start in range(n - span + 1):
            shift = n - start - span
            xs.extend([x << shift for x in wx])
            zs.extend([z << shift for z in wz])
    return xs, zs


def burst_masks(n: int, l: int, kind: str) -> tuple[list[int], list[int]]:
    """The x masks and the z masks, as ints, of every non-identity Pauli
    string of the given burst kind on n qubits.

    bit: x mask is a burst of length <= l, z mask zero.
    phase: mirror image of bit.
    colocated: the minimal window holding both supports spans <= l positions.
    These three are ordered by (span, start, window letters in "IXZY" order).
    independent: each mask is separately a (possibly empty) burst of length
    <= l; every x mask (outer) with every z mask (inner).
    """
    if kind not in BURST_KINDS:
        raise ValueError(f"unknown burst kind {kind!r}; expected one of {BURST_KINDS}")
    if not 1 <= l <= n:
        raise ValueError(f"burst bound l={l} out of range for n={n}")
    if kind != "independent":
        return _window_bursts(n, l, *_WINDOW_LETTERS[kind])
    vectors = [0] + _window_bursts(n, l, *_WINDOW_LETTERS["bit"])[0]
    count = len(vectors)
    # The identity pair comes first and is dropped.
    xs = [x for x in vectors for _ in range(count)][1:]
    zs = (vectors * count)[1:]
    return xs, zs


def enumerate_bursts(n: int, l: int, kind: str) -> list[PauliString]:
    """All non-identity Pauli strings of the given burst kind on n qubits, in
    the order and with the kinds of burst_masks."""
    xs, zs = burst_masks(n, l, kind)
    return [PauliString(n, x, z) for x, z in zip(xs, zs)]
