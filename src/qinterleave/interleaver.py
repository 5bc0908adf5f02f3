"""Block-interleaving permutations and the SWAP circuits that realize them.

m blocks of n symbols, stored block-major (symbol j of block i at position
i*n + j), are rearranged so that symbol j of block i is transmitted at slot
j*m + i.  Any burst of length b*m in the transmitted layout then touches at
most b consecutive symbols of each block, which is what makes interleaved
codes burst-tolerant.

A permutation is its checked array of images (Permutation.array), and a
circuit its SWAP operand pairs (Circuit.pairs): synthesis, counting and export
read those arrays and build no per-gate object.  Lowering each SWAP(a,b) to
CNOT(a,b) CNOT(b,a) CNOT(a,b) is a layout of the listing, not a circuit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grid import digit_cells, grid_blocks


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


def interleave_permutation(n: int, m: int) -> Permutation:
    """Permutation on n*m positions sending symbol j of block i to slot j*m + i."""
    if n < 1 or m < 1:
        raise ValueError("block length and degree must both be >= 1")
    return Permutation(np.arange(n * m).reshape(n, m).T.ravel())


# The lines of one SWAP(a,b): shared bytes between its operands a (0) and b (1).
_PLAIN = (b"SWAP ", 0, b" ", 1, b"\n")
_LOWERED = (b"CNOT ", 0, b" ", 1, b"\nCNOT ", 1, b" ", 0, b"\nCNOT ", 0, b" ", 1, b"\n")
_QASM = (b"cx q[", 0, b"],q[", 1, b"];\ncx q[", 1, b"],q[", 0, b"];\ncx q[", 0, b"],q[", 1,
         b"];\n")
# synth's peak bytes a qubit under pauli's BURST_BYTES_BUDGET.  Its costliest path, qasm with
# n != m (about one SWAP a qubit), peaked at 166 and 171 B over import at 1e6 and 2e6 qubits;
# --expand-swaps at 136 and 138 B, plain at 89 B, and qasm at 114 B for n = m.
SYNTH_BYTES_PER_QUBIT = 448


class Circuit:
    """SWAP gates on `width` qubits, a read-only (2, G) int64 array of operand
    pairs checked at once: the first bad SWAP is refused for repeated or
    negative operands, or as out of width, in that order."""

    def __init__(self, width: int, pairs) -> None:
        pairs = np.array(pairs)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError("SWAP operands must be integers")
        a, b = pairs = pairs.astype(np.int64, copy=False).reshape(2, -1)
        bad = (a == b) | (np.minimum(a, b) < 0) | (np.maximum(a, b) >= width)
        if bad.any():
            g = int(bad.argmax())
            qubits = tuple(pairs[:, g].tolist())
            raise ValueError("SWAP operands must be distinct" if a[g] == b[g]
                             else "negative qubit index" if min(qubits) < 0
                             else f"gate SWAP{qubits} exceeds width {width}")
        pairs.setflags(write=False)
        self.width, self.pairs = width, pairs

    @property
    def swap_count(self) -> int:
        return self.pairs.shape[1]

    def cnot_count(self) -> int:
        """CNOTs after lowering: 3 per SWAP."""
        return 3 * self.swap_count

    def export(self, fmt: str, lowered: bool = False) -> str:
        """fmt "plain": "qubits N", then each SWAP as `SWAP a b` (0-based) or,
        lowered, as its three CNOT lines; "qasm": each SWAP as three cx lines."""
        if fmt == "plain":
            head, layout = f"qubits {self.width}\n", _LOWERED if lowered else _PLAIN
        elif fmt == "qasm":
            head, layout = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{self.width}];\n', _QASM
        else:
            raise ValueError(f"unknown circuit format {fmt!r}")
        digits = np.split(digit_cells(self.pairs.ravel()), 2)
        parts = [digits[p] if isinstance(p, int) else p for p in layout]
        return "".join(grid_blocks(parts, self.swap_count, head))


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
    walk, hop, span = np.arange(len(perm.array)) << 32, perm.array, 1
    while not np.array_equal((ahead := walk[hop] + span) >> 32, walk >> 32):
        np.minimum(walk, ahead, out=walk)
        hop, span = hop[hop], 2 * span
    moved = np.flatnonzero(walk & 0xFFFFFFFF)  # all but the c0s, sorted by c0, then off down
    ends = moved[np.argsort(walk[moved] ^ 0xFFFFFFFF)]
    return Circuit(len(perm.array), pairs=(walk[ends] >> 32, ends))
