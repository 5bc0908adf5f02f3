"""Stabilizer codes, syndrome decoding, and interleaved-code construction.

Two built-in codes are provided: the three-qubit phase-error code with
codewords (|000>+|011>+|101>+|110>)/2 and (|111>+|100>+|010>+|001>)/2,
stabilized by {XXI, IXX}, and the [[5,1]] code with the cyclic generators
XZZXI, IXZZX, XIXZZ, ZXIXZ.  Interleaving a code to degree m moves the set
qubits of each block's generators and logicals to their images under the
block-interleave permutation, and multiplies the declared burst-correcting
ability by m.

Operators are tabulated per qubit, as the sets of those with an X part and a
Z part there, one bit each.  An operator's commutation bits, which the relation
checks read, XOR the Z-sets of its X qubits and the X-sets of its Z qubits.

Correctability of an error set is the standard stabilizer criterion: any two
errors with equal syndromes must differ by a stabilizer element (degenerate
errors are allowed).  An explicit error set (corrects_error_set) and the
decoder's syndrome table (build_syndrome_table) apply it as stated: each
error's syndrome from syndrome_of, and the product of two errors with one
syndrome tested by in_stabilizer_group.  The burst sweep (corrects_bursts)
needs no product.  Two errors with equal syndromes differ by an element of
N(S), and that element lies in S exactly when both errors commute or
anticommute alike with every logical operator, i.e. lie in the same class of
N(S)/S.  So a set is correctable iff every syndrome holds a single class.
Syndrome and class bits are commutation bits, linear over GF(2) in the masks,
folded into uint64 words, syndrome on top.  Every word is an XOR of one leaf,
the words of each letter at each qubit: 0, the Z-set, the X-set and their XOR.
The sweep folds the leaf down the burst-window tree: a window's word is its
prefix's word XOR its last letter's, so no mask lane is built, and only the
failing syndrome's members get lanes, for the witness.  One sort of the words
puts each syndrome's classes side by side.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .interleaver import interleave_permutation
from .grid import GRID_BYTES
from .pauli import PauliString, burst_rows, burst_words, mask_rows, row_labels, row_masks
from .statevector import _NORM_TOL, MAX_QUBITS, StateVector, apply_paulis, eigenvalue_signs


class SyndromeCollisionError(ValueError):
    """Two errors share a syndrome but do not differ by a stabilizer element."""


def _reduced(pivots: dict[int, int], row: int) -> int:
    """row reduced over GF(2) by a basis held as pivots (top bit -> row): zero
    exactly when row lies in the basis's span."""
    while row and (base := pivots.get(row.bit_length() - 1)):
        row ^= base
    return row


def _qubits(n: int, mask: int) -> list[int]:
    """The qubits where an n-bit mask is set, qubit 0 its most significant
    bit; only the set bits are walked."""
    qubits = []
    while mask:
        top = mask.bit_length()
        qubits.append(n - top)
        mask ^= 1 << top - 1
    return qubits


def _operator_table(n: int, ops: Sequence[PauliString]
                    ) -> tuple[list[int], list[int], list[tuple[list[int], list[int]]]]:
    """Per qubit q, the operators with an X part at q and those with a Z part
    there, as ints in which bit len(ops)-1-j stands for ops[j]; and each
    operator's X qubits and Z qubits, the lists the table was filled from."""
    xsets, zsets = [0] * n, [0] * n
    supports = [(_qubits(n, p.x), _qubits(n, p.z)) for p in ops]
    for j, qubit_lists in enumerate(supports):
        bit = 1 << (len(ops) - 1 - j)
        for sets, qubits in zip((xsets, zsets), qubit_lists):
            for q in qubits:
                sets[q] |= bit
    return xsets, zsets, supports


@dataclass(frozen=True)
class StabilizerCode:
    """[[n,k]] code: commuting generators, logical pairs, declared burst ability."""

    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_xs: tuple[PauliString, ...]
    logical_zs: tuple[PauliString, ...]
    burst_ability: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "logical_xs", tuple(self.logical_xs))
        object.__setattr__(self, "logical_zs", tuple(self.logical_zs))
        if len(self.generators) != self.n - self.k:
            raise ValueError(f"expected {self.n - self.k} generators")
        if len(self.logical_xs) != self.k or len(self.logical_zs) != self.k:
            raise ValueError(f"expected {self.k} logical X/Z pairs")
        gens, g, k, n = self.generators, len(self.generators), self.k, self.n
        ops = (*gens, *self.logical_xs, *self.logical_zs)
        if any(p.n != n for p in ops):
            raise ValueError("operator length does not match code size")
        xsets, zsets, supports = _operator_table(n, ops)
        # Bit len(ops)-1-j of an operator's clash row: it anticommutes with ops[j].
        clash = [reduce(xor, [zsets[q] for q in xq] + [xsets[q] for q in zq], 0)
                 for xq, zq in supports]
        # Clashing generators, the first on top: a generator's earlier partners raise first.
        hits = [row & ((1 << g) - 1) << 2 * k for row in clash]
        for p, hit in zip(gens, hits):
            if hit:
                raise ValueError(
                    f"generators {p} and {ops[len(ops) - hit.bit_length()]} anticommute")
        # Uncached: the basis is kept only once a membership test asks for it.
        if len(StabilizerCode._pivots.func(self)) != g:
            raise ValueError("generators are not GF(2)-independent")
        for p, hit in zip(ops[g:], hits[g:]):
            if hit:
                raise ValueError(f"logical {p} anticommutes with generator "
                                 f"{ops[len(ops) - hit.bit_length()]}")
        lz_bits = (1 << k) - 1
        if any(row & lz_bits != 1 << (k - 1 - i) for i, row in enumerate(clash[g:g + k])):
            raise ValueError("logical X/Z pairing is wrong")
        if (any(row & lz_bits << k for row in clash[g:g + k])
                or any(row & lz_bits for row in clash[g + k:])):
            raise ValueError("same-type logicals must commute")

    @cached_property
    def _pivots(self) -> dict[int, int]:
        """The generators' GF(2) basis for _reduced, rows (x << n) | z; a
        dependent generator adds none."""
        pivots: dict[int, int] = {}
        for p in self.generators:
            if row := _reduced(pivots, (p.x << p.n) | p.z):
                pivots[row.bit_length() - 1] = row
        return pivots

    def syndrome_of(self, error: PauliString) -> tuple[int, ...]:
        """Commutation bits of the error against each generator (symplectic)."""
        if error.n != self.n:
            raise ValueError("error length does not match code size")
        return tuple(((g.x & error.z).bit_count() + (g.z & error.x).bit_count()) & 1
                     for g in self.generators)

    def in_stabilizer_group(self, p: PauliString) -> bool:
        """Mask-level membership of p in the group generated by the stabilizers."""
        if p.n != self.n:
            raise ValueError("operator length does not match code size")
        return not _reduced(self._pivots, (p.x << p.n) | p.z)

    def to_text(self) -> str:
        ops = (*self.generators, *self.logical_xs, *self.logical_zs)
        tags = (["stabilizer"] * len(self.generators) + ["logical_x"] * self.k
                + ["logical_z"] * self.k)
        lines, n = [f"[[{self.n},{self.k}]] burst_ability={self.burst_ability}\n"], self.n
        # labelled a block of operators at a time, not as one (J, n) grid
        step = max(1, GRID_BYTES // n)
        for start in range(0, len(ops), step):
            block = ops[start:start + step]
            text = row_labels(n, mask_rows(n, [p.x for p in block]),
                              mask_rows(n, [p.z for p in block])).tobytes().decode()
            lines += map("{} {}\n".format, tags[start:start + step],
                         (text[i:i + n] for i in range(0, len(text), n)))
        return "".join(lines)


def phase3_code() -> StabilizerCode:
    """Three-qubit code correcting a single phase error (burst ability 1)."""
    return StabilizerCode(
        n=3, k=1,
        generators=(PauliString.from_label("XXI"), PauliString.from_label("IXX")),
        logical_xs=(PauliString.from_label("XXX"),),
        logical_zs=(PauliString.from_label("ZZZ"),),
        burst_ability=1,
    )


def five_qubit_code() -> StabilizerCode:
    """The [[5,1]] code with cyclic generators; corrects any single-qubit error."""
    return StabilizerCode(
        n=5, k=1,
        generators=(
            PauliString.from_label("XZZXI"),
            PauliString.from_label("IXZZX"),
            PauliString.from_label("XIXZZ"),
            PauliString.from_label("ZXIXZ"),
        ),
        logical_xs=(PauliString.from_label("XXXXX"),),
        logical_zs=(PauliString.from_label("ZZZZZ"),),
        burst_ability=1,
    )


def _check_coefficients(c0: complex, c1: complex) -> None:
    """Refuse logical coefficients with |c0|^2 + |c1|^2 off 1, those too
    large for a float's square among them."""
    try:
        norm = abs(c0) ** 2 + abs(c1) ** 2
    except OverflowError:
        norm = float("inf")
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError("logical coefficients must satisfy |c0|^2 + |c1|^2 = 1")


def encode_phase3(c0: complex, c1: complex) -> StateVector:
    """c0|C_0> + c1|C_1> with the even/odd-parity codewords of the phase code."""
    _check_coefficients(c0, c1)
    amps = np.zeros(8, dtype=np.complex128)
    for label in ("000", "011", "101", "110"):
        amps[int(label, 2)] = 0.5 * c0
    for label in ("111", "100", "010", "001"):
        amps[int(label, 2)] = 0.5 * c1
    return StateVector(3, amps)


def logical_encoder(code: StabilizerCode) -> Callable[[complex, complex], StateVector]:
    """Encoder for a k=1 code, built by projecting |0...0> onto the code space.

    |0_L> is the normalized image of the all-zeros ket under prod (I+g)/2,
    and |1_L> = X_L |0_L>, both amplitude arrays (apply_paulis); requires a
    pure-Z logical Z so that |0...0> lies in its +1 eigenspace.
    """
    if code.k != 1:
        raise ValueError("logical_encoder supports k=1 codes only")
    if code.logical_zs[0].x:
        raise ValueError("logical Z must be Z-type for the projector construction")
    if code.n > MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    zero_l = np.zeros(1 << code.n, np.complex128)
    zero_l[0] = 1
    for g in code.generators:
        combined = zero_l + apply_paulis(zero_l, g.x, g.z)
        norm = np.linalg.norm(combined)
        if norm < 1e-9:
            raise ValueError("|0...0> has no component in the code space")
        zero_l = combined / norm
    one_l = apply_paulis(zero_l, code.logical_xs[0].x, code.logical_xs[0].z)

    def encode(c0: complex, c1: complex) -> StateVector:
        _check_coefficients(c0, c1)
        return StateVector(code.n, c0 * zero_l + c1 * one_l)

    return encode


def encode_blocks(coeffs: Sequence[tuple[complex, complex]],
                  encoder: Callable[[complex, complex], StateVector]) -> StateVector:
    """Tensor product of per-block encodings, block 0 in the lowest positions."""
    if not coeffs:
        raise ValueError("need at least one block")
    blocks = [encoder(c0, c1) for c0, c1 in coeffs]
    total = sum(b.n for b in blocks)
    if total > MAX_QUBITS:
        raise ValueError(f"{total} qubits exceeds the {MAX_QUBITS}-qubit guard")
    return StateVector(total, reduce(np.kron, [b.amps for b in blocks]))


def interleaved_code(code: StabilizerCode, m: int) -> StabilizerCode:
    """[[nm,km]] code: every block operator embedded at its block, then pushed
    through the interleave permutation; burst ability scales to b*m.  Each
    operator's set qubits are walked to their images."""
    if m < 1:
        raise ValueError("interleaving degree must be >= 1")
    n, total = code.n, code.n * m
    images = interleave_permutation(n, m).array.tolist()

    def moved(mask: int, i: int) -> int:
        # Qubit q of block i is register qubit images[i*n + q].
        return sum(1 << (total - 1 - images[i * n + q]) for q in _qubits(n, mask))

    def place(ops: Sequence[PauliString]) -> tuple[PauliString, ...]:
        return tuple(PauliString(total, moved(p.x, i), moved(p.z, i))
                     for i in range(m) for p in ops)

    return StabilizerCode(
        n=total,
        k=code.k * m,
        generators=place(code.generators),
        logical_xs=place(code.logical_xs),
        logical_zs=place(code.logical_zs),
        burst_ability=code.burst_ability * m,
    )


class CorrectabilityResult(NamedTuple):
    ok: bool
    witness: tuple[PauliString, PauliString] | None

    def __bool__(self) -> bool:
        return self.ok


def _leaf(n: int, ops: Sequence[PauliString]) -> np.ndarray:
    """(ceil(len(ops)/64), n, 4) uint64 words: bit len(ops)-1-j of [lane, q, c]
    is set when letter code c (x + 2z) at qubit q anticommutes with ops[j]:
    q's words are 0, its Z-set, its X-set (_operator_table) and their XOR.
    Word 0 is the most significant, padded above."""
    return mask_rows(len(ops), [w for x, z in zip(*_operator_table(n, ops)[:2])
                                for w in (0, z, x, x ^ z)]).reshape(-1, n, 4)


def corrects_bursts(code: StabilizerCode, l: int, kind: str) -> CorrectabilityResult:
    """corrects_error_set(code, enumerate_bursts(code.n, l, kind)) from
    words: each burst's commutation bits with the generators, then the
    logical Xs and Zs, folded down the burst-window tree (burst_words) from
    the leaf (_leaf) with no mask lane built.  Words sort in syndrome order,
    and two with one syndrome differ exactly when their errors lie in
    different classes, so the set fails iff two distinct words, column 0 the
    identity's, share a syndrome.  The witness comes from the first such
    syndrome, whose members alone get lanes (burst_rows): its smallest
    member by (x, z), a lexsort of the lanes, and the first later member of
    another class."""
    ops = (*code.generators, *code.logical_xs, *code.logical_zs)
    mask = mask_rows(len(ops), [((1 << len(code.generators)) - 1) << (2 * code.k)])
    words = burst_words(code.n, l, kind, _leaf(code.n, ops))
    ordered = (np.sort(words, axis=1) if len(words) == 1
               else words[:, np.lexsort(words[::-1])])
    # Sorted words keep each syndrome's classes side by side.
    syndromes = ordered & mask
    clash = np.flatnonzero((syndromes[:, 1:] == syndromes[:, :-1]).all(axis=0)
                           & (ordered[:, 1:] != ordered[:, :-1]).any(axis=0))
    if not len(clash):
        return CorrectabilityResult(True, None)
    members = np.flatnonzero(((words & mask) == syndromes[:, clash[:1]]).all(axis=0))
    del ordered, syndromes  # freed before burst_rows builds any lane
    xs, zs = burst_rows(code.n, l, kind, members)
    # Unsigned lanes, lane 0 first, compare as the mask ints do.
    order = np.lexsort(np.vstack([xs, zs])[::-1])
    ranked = words[:, members[order]]
    pair = order[[0, np.argmax((ranked != ranked[:, :1]).any(axis=0))]]
    return CorrectabilityResult(False, tuple(
        PauliString(code.n, x, z) for x, z in zip(row_masks(xs[:, pair]), row_masks(zs[:, pair]))))


def corrects_error_set(code: StabilizerCode,
                       errors: Sequence[PauliString]) -> CorrectabilityResult:
    """Stabilizer correctability of the error set (identity always included).

    True iff any two errors with equal syndromes have a product inside the
    stabilizer group.  The distinct errors are bucketed by syndrome_of, and
    each bucket's members are checked against its smallest by (x, z) with
    in_stabilizer_group.  On failure the witness is the offending pair: the
    first failing bucket in syndrome order, its smallest member, and the
    first later member whose product with it is outside the group.  Every
    error's length is checked first.
    """
    if any(e.n != code.n for e in errors):
        raise ValueError("error length does not match code size")
    buckets: dict[tuple[int, ...], list[PauliString]] = {}
    for e in dict.fromkeys((PauliString.identity(code.n), *errors)):
        buckets.setdefault(code.syndrome_of(e), []).append(e)
    for syndrome in sorted(buckets):
        base, *rest = sorted(buckets[syndrome], key=lambda p: (p.x, p.z))
        for e in rest:
            if not code.in_stabilizer_group(PauliString(code.n, base.x ^ e.x, base.z ^ e.z)):
                return CorrectabilityResult(False, (base, e))
    return CorrectabilityResult(True, None)


def build_syndrome_table(code: StabilizerCode, errors: Sequence[PauliString]
                         ) -> dict[tuple[int, ...], PauliString]:
    """Syndrome -> correction map, the identity's zero syndrome included.

    Each syndrome (syndrome_of) maps to its first error in input order (the
    identity for the zero syndrome), keys in order of first appearance.  A
    later error with a syndrome already in the table is checked against its
    correction with in_stabilizer_group, and SyndromeCollisionError is raised
    at the first whose product with it is outside the stabilizer group.
    Every error's length is checked first.
    """
    if any(e.n != code.n for e in errors):
        raise ValueError("error length does not match code size")
    table: dict[tuple[int, ...], PauliString] = {}
    for e in (PauliString.identity(code.n), *errors):
        syndrome = code.syndrome_of(e)
        first = table.setdefault(syndrome, e)
        if first != e and not code.in_stabilizer_group(
                PauliString(code.n, first.x ^ e.x, first.z ^ e.z)):
            raise SyndromeCollisionError(
                f"errors {first} and {e} share syndrome {syndrome} "
                "but their product is outside the stabilizer group")
    return table


def block_decode(code: StabilizerCode, table: dict[tuple[int, ...], PauliString],
                 amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[PauliString | None]]:
    """Decode a (B, 2**n) stack of n-qubit block states, n = code.n, one row
    per block of a deinterleaved register.

    Each block's syndrome is read from its own row: every generator's +-1
    eigenvalue, <s|g|s> for all rows at once, with the tolerance checks of
    StateVector.stabilizer_eigenvalue (the first row, then generator, that is
    not an eigenstate raises IndeterminateEigenvalueError).  The table maps
    syndrome tuples to corrections (build_syndrome_table); a row whose
    syndrome is outside it is left uncorrected, an exact copy, with None for
    its correction, and the caller decides whether that counts as failure.
    Corrections are exact gathers and negations (apply_paulis).  Returns the
    corrected rows, the (B, r) int syndromes and the corrections.
    """
    amps = np.asarray(amps, np.complex128)
    if amps.ndim != 2 or amps.shape[1] != 1 << code.n:
        raise ValueError(f"expected a (B, {1 << code.n}) stack of {code.n}-qubit blocks, "
                         f"got shape {amps.shape}")
    values = np.empty((len(amps), len(code.generators)), np.complex128)
    for j, g in enumerate(code.generators):
        values[:, j] = np.vecdot(amps, apply_paulis(amps, g.x, g.z))
    syndromes = (eigenvalue_signs(values) < 0).astype(np.int64)
    corrections = [table.get(syn) for syn in map(tuple, syndromes.tolist())]
    fixed = apply_paulis(amps, [0 if c is None else c.x for c in corrections],
                         [0 if c is None else c.z for c in corrections])
    return fixed, syndromes, corrections
