"""Block-interleaving permutations and their SWAP/CNOT circuits.

m blocks of n symbols, stored block-major (symbol j of block i at position
i*n + j), are rearranged so that symbol j of block i is transmitted at slot
j*m + i.  Any burst of length b*m in the transmitted layout then touches at
most b consecutive symbols of each block, which is what makes interleaved
codes burst-tolerant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grid import PAD, cells, digit_cells, grid_text

GATE_KINDS = ("H", "CNOT", "SWAP")
_H, _CNOT, _SWAP = range(len(GATE_KINDS))
_GATE_ARITY = {"H": 1, "CNOT": 2, "SWAP": 2}


@dataclass(frozen=True)
class Permutation:
    """Bijection on [0, N): images[i] is where position i is sent."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        array = np.array(images)
        # n images in [0, n) that fill every one of the n bins
        if images and not (array.dtype.kind in "iu" and array.ndim == 1
                           and 0 <= array.min() and array.max() < len(images)
                           and np.bincount(array.astype(np.intp), minlength=len(images)).all()):
            raise ValueError("images must be a permutation of 0..N-1")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inverse = np.empty(self.size, np.intp)
        inverse[np.array(self.images, np.intp)] = np.arange(self.size)
        return Permutation(tuple(inverse.tolist()))


def interleave_permutation(n: int, m: int) -> Permutation:
    """Permutation on n*m positions sending symbol j of block i to slot j*m + i."""
    if n < 1 or m < 1:
        raise ValueError("block length and degree must both be >= 1")
    return Permutation(tuple(np.arange(n * m).reshape(n, m).T.ravel().tolist()))


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(self.qubits)
        if len(qubits) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_ARITY[self.kind]} operand(s)")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind} operands must be distinct")
        if any(q < 0 for q in qubits):
            raise ValueError("negative qubit index")
        object.__setattr__(self, "qubits", qubits)

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        return cls("SWAP", (a, b))


# Listing cells per gate kind: its name, and what comes between the operands.
_PLAIN = cells(b"H ", b"CNOT ", b"SWAP "), cells(b"", b" ", b" ")
_QASM = cells(b"h q[", b"cx q["), cells(b"", b"],q[")


class Circuit:
    """Gates on `width` qubits, held as a read-only (3, G) int64 array of
    columns: the kind (an index into GATE_KINDS), operand 0 and operand 1 (-1
    for H).  Built from Gates or from columns, which are checked at once and
    refused with the errors of Gate; `gates` is derived from them."""

    def __init__(self, width: int, gates: Iterable[Gate] = (), *, columns=None) -> None:
        if columns is None:
            # (kind, operand 0, operand 1 or -1) per gate; Gate checked the arity
            columns = np.array([(GATE_KINDS.index(g.kind), *g.qubits, -1)[:3]
                                for g in gates], np.int64).reshape(-1, 3).T
        columns = np.array(columns)
        if columns.size and columns.dtype.kind not in "iu":
            raise ValueError("gate kinds and qubit indices must be integers")
        kind, a, b = columns = columns.astype(np.int64).reshape(3, -1)
        bad = ((kind < 0) | (kind >= len(GATE_KINDS)) | ((kind > _H) == (b == -1)) | (a == b)
               | (a < 0) | (b < -1) | (a >= width) | (b >= width))
        if bad.any():
            # the first bad gate, as a Gate, raises what Gate refuses in it
            g = int(bad.argmax())
            k, qubits = int(kind[g]), tuple(columns[1:2 + (b[g] != -1), g].tolist())
            gate = Gate(GATE_KINDS[k] if 0 <= k < len(GATE_KINDS) else k, qubits)
            raise ValueError(f"gate {gate.kind}{gate.qubits} exceeds width {width}")
        columns.setflags(write=False)
        self.width, self.columns = width, columns

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Circuit) and self.width == other.width
                and np.array_equal(self.columns, other.columns))

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(Gate(GATE_KINDS[k], (a, b) if k != _H else (a,))
                     for k, a, b in self.columns.T.tolist())

    @property
    def swap_count(self) -> int:
        return int(np.count_nonzero(self.columns[0] == _SWAP))

    def cnot_count(self) -> int:
        """CNOTs after lowering: 3 per SWAP plus every raw CNOT (H excluded)."""
        return int(np.take((0, 1, 3), self.columns[0]).sum())

    def expand_swaps(self) -> "Circuit":
        """Lower every SWAP(a,b) to CNOT(a,b) CNOT(b,a) CNOT(a,b)."""
        kind = self.columns[0]
        repeats = np.where(kind == _SWAP, 3, 1)
        gate = np.repeat(np.arange(len(kind)), repeats)
        # a row's offset in its gate's lowering; offset 1 is the reversed CNOT
        middle = np.arange(len(gate)) - np.repeat(np.cumsum(repeats) - repeats, repeats) == 1
        kind, a, b = self.columns[:, gate]
        return Circuit(self.width, columns=(np.minimum(kind, _CNOT), np.where(middle, b, a),
                                            np.where(middle, a, b)))

    def _listing(self, head: str, names: np.ndarray, between: np.ndarray,
                 end: bytes) -> str:
        kind = self.columns[0]
        first, second = np.split(digit_cells(np.maximum(self.columns[1:], 0).ravel()), 2)
        second = np.where((kind > _H)[:, None], second, np.uint8(PAD))
        return grid_text([np.take(names, kind, axis=0), first, np.take(between, kind, axis=0),
                          second, end], len(kind), head)

    def to_plain(self) -> str:
        """One gate per line after a "qubits N" header; 0-based operands."""
        return self._listing(f"qubits {self.width}\n", *_PLAIN, b"\n")

    def to_qasm(self) -> str:
        """QASM-2 style listing; SWAPs are always lowered to cx triples."""
        head = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{self.width}];\n'
        return self.expand_swaps()._listing(head, *_QASM, b"];\n")

    def export(self, fmt: str) -> str:
        if fmt == "plain":
            return self.to_plain()
        if fmt == "qasm":
            return self.to_qasm()
        raise ValueError(f"unknown circuit format {fmt!r}")


def synthesize_swap_network(perm: Permutation) -> Circuit:
    """SWAP circuit realizing the permutation, by cycle decomposition.

    Each k-cycle (c0 c1 ... c_{k-1}), entered at its smallest element,
    contributes SWAP(c0,c1), SWAP(c0,c2), ..., SWAP(c0,c_{k-1}) in that order;
    fixed points contribute nothing.  For an involution (the n = m
    interleaver) this is exactly the disjoint transposition set.
    """
    images = perm.images
    seen = bytearray(perm.size)
    starts, ends = [], []
    for start in range(perm.size):
        if seen[start]:
            continue
        seen[start] = 1
        cur = images[start]
        while cur != start:
            seen[cur] = 1
            starts.append(start)
            ends.append(cur)
            cur = images[cur]
    return Circuit(perm.size, columns=(np.full(len(starts), _SWAP), starts, ends))
