"""Block-interleaving permutations and their SWAP/CNOT circuits.

m blocks of n symbols, stored block-major (symbol j of block i at position
i*n + j), are rearranged so that symbol j of block i is transmitted at slot
j*m + i.  Any burst of length b*m in the transmitted layout then touches at
most b consecutive symbols of each block, which is what makes interleaved
codes burst-tolerant.

A permutation is its checked array of images (Permutation.array), and a
circuit its gate columns (Circuit.columns): synthesis, counting, lowering and
export read those arrays and build no per-gate object.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grid import PAD, cells, digit_cells, grid_text

GATE_KINDS = ("H", "CNOT", "SWAP")
_H, _CNOT, _SWAP = range(len(GATE_KINDS))


@dataclass(frozen=True, init=False, eq=False)
class Permutation:
    """Bijection on [0, N): images[i] is where position i is sent, from a
    sequence or an int array, held as the read-only intp array `array`."""

    array: np.ndarray

    def __init__(self, images: Iterable[int] | np.ndarray) -> None:
        n = len(array := np.array(images))
        # n images in [0, n) that fill every one of the n bins
        if n and not (array.dtype.kind in "iu" and array.ndim == 1
                      and 0 <= array.min() and array.max() < n
                      and np.bincount(array.astype(np.intp, copy=False), minlength=n).all()):
            raise ValueError("images must be a permutation of 0..N-1")
        array = array.astype(np.intp, copy=False)
        array.setflags(write=False)
        object.__setattr__(self, "array", array)

    @property
    def size(self) -> int:
        return len(self.array)


def interleave_permutation(n: int, m: int) -> Permutation:
    """Permutation on n*m positions sending symbol j of block i to slot j*m + i."""
    if n < 1 or m < 1:
        raise ValueError("block length and degree must both be >= 1")
    return Permutation(np.arange(n * m).reshape(n, m).T.ravel())


# A listing line per gate kind: cell tables by kind between operands 0 and 1,
# written in the kinds whose next cell is not empty (every line ends in "\n").
# QASM writes a SWAP as its three cx lines.
_PLAIN = (cells(b"H ", b"CNOT ", b"SWAP "), 0, cells(b"\n", b" ", b" "), 1,
          cells(b"", b"\n", b"\n"))
_QASM = (cells(b"h q[", b"cx q[", b"cx q["), 0, cells(b"];\n", b"],q[", b"],q["), 1,
         cells(b"", b"];\n", b"];\ncx q["), 1, cells(b"", b"", b"],q["), 0,
         cells(b"", b"", b"];\ncx q["), 0, cells(b"", b"", b"],q["), 1, cells(b"", b"", b"];\n"))


class Circuit:
    """Gates on `width` qubits, held as a read-only (3, G) int64 array of
    columns: the kind (an index into GATE_KINDS), operand 0 and operand 1 (-1
    for H).  The columns are checked at once, and the first bad gate is
    refused by its kind, its operand count, repeated or negative operands, or
    as out of width, in that order."""

    def __init__(self, width: int, columns) -> None:
        columns = np.array(columns)
        if columns.size and columns.dtype.kind not in "iu":
            raise ValueError("gate kinds and qubit indices must be integers")
        kind, a, b = columns = columns.astype(np.int64).reshape(3, -1)
        bad = ((kind < 0) | (kind >= len(GATE_KINDS)) | ((kind > _H) == (b == -1)) | (a == b)
               | (a < 0) | (b < -1) | (a >= width) | (b >= width))
        if bad.any():
            g = int(bad.argmax())
            k, qubits = int(kind[g]), tuple(columns[1:2 + (b[g] != -1), g].tolist())
            name, arity = GATE_KINDS[k] if 0 <= k < len(GATE_KINDS) else None, 1 + (k != _H)
            raise ValueError(
                f"unknown gate kind {k}" if name is None
                else f"{name} takes {arity} operand(s)" if len(qubits) != arity
                else f"{name} operands must be distinct" if len(set(qubits)) != arity
                else "negative qubit index" if min(qubits) < 0
                else f"gate {name}{qubits} exceeds width {width}")
        columns.setflags(write=False)
        self.width, self.columns = width, columns

    @property
    def swap_count(self) -> int:
        return int(np.count_nonzero(self.columns[0] == _SWAP))

    def cnot_count(self) -> int:
        """CNOTs after lowering: 3 per SWAP plus every raw CNOT (H excluded)."""
        return int(np.take((0, 1, 3), self.columns[0]).sum())

    def expand_swaps(self) -> "Circuit":
        """Lower every SWAP(a,b) to CNOT(a,b) CNOT(b,a) CNOT(a,b)."""
        kind, a, b = self.columns
        lowered = np.minimum(kind, _CNOT)
        # three rows per gate, the middle one reversed; all but a SWAP keep the first
        rows = np.stack([(lowered, a, b), (lowered, b, a), (lowered, a, b)], axis=-1)
        keep = (kind == _SWAP)[:, None] | (np.arange(3) == 0)
        return Circuit(self.width, columns=np.compress(keep.ravel(), rows.reshape(3, -1), axis=1))

    def _listing(self, head: str, layout: tuple) -> str:
        kind = self.columns[0]
        digits = np.split(digit_cells(np.maximum(self.columns[1:], 0).ravel()), 2)
        # one kind throughout: each table is one shared part, each operand all or none
        one = [kind[0]] if kind.size and kind.min() == kind.max() else None
        parts = []
        for j in range(0, len(layout), 2):
            table = layout[j][kind if one is None else one]
            if j and (has := table[:, :1] != PAD).any():
                operand = digits[layout[j - 1]]
                parts.append(operand if has.all() else np.where(has, operand, np.uint8(PAD)))
            parts.append(table if one is None else table[table != PAD].tobytes())
        return grid_text(parts, len(kind), head)

    def to_plain(self) -> str:
        """One gate per line after a "qubits N" header; 0-based operands."""
        return self._listing(f"qubits {self.width}\n", _PLAIN)

    def to_qasm(self) -> str:
        """QASM-2 style listing; SWAPs are always lowered to cx triples."""
        head = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{self.width}];\n'
        return self._listing(head, _QASM)

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

    Found by pointer jumping on walk = lead << 32 | off: after r rounds lead[i]
    is the least of the 2**r positions from i on, off[i] its distance (the
    nearer on a tie); once 2**r spans every cycle, lead is c0, i is c_{k-off}.
    """
    walk, hop, span = np.arange(perm.size) << 32, perm.array, 1
    while not np.array_equal((ahead := walk[hop] + span) >> 32, walk >> 32):
        np.minimum(walk, ahead, out=walk)
        hop, span = hop[hop], 2 * span
    moved = np.flatnonzero(walk & 0xFFFFFFFF)  # all but the c0s, sorted by c0, then off down
    ends = moved[np.argsort(walk[moved] ^ 0xFFFFFFFF)]
    return Circuit(perm.size, columns=(np.full(len(ends), _SWAP), walk[ends] >> 32, ends))
