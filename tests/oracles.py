"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (dense matrices,
explicit label arithmetic, brute-force scans) and deliberately avoids the
code paths under test.  The Pauli algebra that PauliString does not carry
(products, commutation, permutation, embedding, supports) is written here over
its mask ints.  The last section holds helpers that only tests use: burst
vectors, deinterleaving a transmitted vector, permutation composition,
basis states, tensor products, dense gate simulation, reading a plain circuit
listing back, the measured burst ability of a code, and the byte-grid
references: digit cells one decimal digit at a time and rows joined by
concatenating their parts.  The per-gate oracles
take a Gate value; a circuit's SWAP pairs are read as and written from SWAP
gates by circuit_gates and gate_columns.
"""
from __future__ import annotations

import json
import math
from itertools import product
from typing import NamedTuple

import numpy as np

from qinterleave import (
    MAX_QUBITS,
    Circuit,
    CorrectabilityResult,
    PauliString,
    Permutation,
    StabilizerCode,
    StateVector,
    SyndromeCollisionError,
    block_decode,
    build_syndrome_table,
    burst_masks,
    encode_blocks,
    enumerate_bursts,
    interleave_permutation,
    logical_encoder,
)
import qinterleave.grid
from qinterleave.cli import FIDELITY_TOL
from qinterleave.grid import PAD
from qinterleave.pauli import row_masks

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of X_x Z_z (X applied after Z on each qubit)."""
    m = np.eye(1, dtype=complex)
    for xb, zb in zip(bits_of(p.n, p.x), bits_of(p.n, p.z)):
        f = np.eye(2, dtype=complex)
        if zb:
            f = Z2 @ f
        if xb:
            f = X2 @ f
        m = np.kron(m, f)
    return m


def gate_unitary(gate, n: int) -> np.ndarray:
    """Dense unitary of a single gate on n qubits, from label arithmetic."""
    if gate.kind == "H":
        m = np.eye(1, dtype=complex)
        for q in range(n):
            m = np.kron(m, H2 if q == gate.qubits[0] else I2)
        return m
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        if gate.kind == "CNOT":
            c, t = gate.qubits
            if bits[c]:
                bits[t] ^= 1
        else:  # SWAP
            a, b = gate.qubits
            bits[a], bits[b] = bits[b], bits[a]
        j = 0
        for bit in bits:
            j = (j << 1) | bit
        u[j, i] = 1.0
    return u


def index_apply_pauli(s: StateVector, p: PauliString) -> np.ndarray:
    """Amplitudes of X_x Z_z |s> from explicit 2^n index arrays: a sign per
    index from the parity of (index & z), then a gather at index ^ x."""
    indices = np.arange(1 << s.n, dtype=np.int64)
    amps = s.amps
    x, z = p.x, p.z
    if z:
        parity = np.zeros_like(indices)
        for q in range(s.n):
            if (z >> q) & 1:
                parity ^= (indices >> q) & 1
        amps = amps * (1.0 - 2.0 * parity)
    if x:
        amps = amps[indices ^ x]
    return amps


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def letter_label(p: PauliString) -> str:
    """Label read letter by letter from the two bit tuples."""
    return "".join("IXZY"[bx + 2 * bz]
                   for bx, bz in zip(bits_of(p.n, p.x), bits_of(p.n, p.z)))


# The Pauli algebra on PauliString's mask ints.

def bits_of(n: int, mask: int) -> tuple[int, ...]:
    """The n bits of a mask int, position 0 (the most significant) first."""
    return tuple(mask >> (n - 1 - i) & 1 for i in range(n))


def support_of(n: int, mask: int) -> set[int]:
    """The positions of the 1s of an n-bit mask int."""
    return {i for i, bit in enumerate(bits_of(n, mask)) if bit}


def pauli_of_bits(x, z) -> PauliString:
    """The Pauli whose x and z masks are spelled as 0/1 strings or sequences
    of equal length, position 0 first."""
    if len(x) != len(z):
        raise ValueError("x and z masks must have equal length")
    return PauliString(len(x), *(int("".join(map(str, bits)), 2) for bits in (x, z)))


def is_quantum_burst(p: PauliString, l: int) -> bool:
    """Both masks of p are bursts of length <= l: fewer than l bits lie
    between the highest 1 of each nonzero mask and its lowest 1."""
    return all(m.bit_length() - (m & -m).bit_length() < l for m in (p.x, p.z) if m)


def symplectic(p: PauliString, q: PauliString) -> int:
    """0 when p and q commute, 1 when they anticommute."""
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1


def pauli_product(p: PauliString, q: PauliString) -> PauliString:
    """The product pq with its phase discarded: both masks XORed."""
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z)


def permute_pauli(p: PauliString, perm: Permutation) -> PauliString:
    """p with the letter at position i moved to position perm.array[i]."""
    return PauliString(p.n, permute_label_scalar(perm, p.x), permute_label_scalar(perm, p.z))


def embed_pauli(p: PauliString, total: int, offset: int) -> PauliString:
    """p placed at [offset, offset + p.n) of an identity on total qubits."""
    shift = total - offset - p.n
    return PauliString(total, p.x << shift, p.z << shift)


def enumerate_items(n: int, burst: int, kind: str) -> list[dict]:
    """run_enumerate's items, from one PauliString per burst."""
    effective = min(burst, n)
    return [{"label": letter_label(p), "passed": is_quantum_burst(p, effective),
             "weight": (p.x | p.z).bit_count()}
            for p in enumerate_bursts(n, effective, kind)]


def scan_burst_length(bits) -> int:
    """Smallest window covering the support, found by scanning all windows."""
    support = [i for i, b in enumerate(bits) if b]
    if not support:
        return 0
    n = len(bits)
    for w in range(1, n + 1):
        for start in range(n - w + 1):
            if all(start <= i < start + w for i in support):
                return w
    raise AssertionError("unreachable")


def burst_span(bits) -> int:
    """scan_burst_length without the scan: from the first 1 to the last."""
    ones = [i for i, b in enumerate(bits) if b]
    return ones[-1] - ones[0] + 1 if ones else 0


def label_burst_vectors(n: int, l: int) -> list[str]:
    """Mask strings of every nonzero length-n vector with burst length <= l,
    spelled out symbol by symbol in (length, start, interior pattern) order."""
    out = []
    for length in range(1, l + 1):
        windows = ["1"] if length == 1 else [
            "1" + "".join(inner) + "1" for inner in product("01", repeat=length - 2)]
        for start in range(n - length + 1):
            out.extend("0" * start + w + "0" * (n - start - length) for w in windows)
    return out


def label_bursts(n: int, l: int, kind: str) -> list[PauliString]:
    """enumerate_bursts rebuilt from label strings, in the package's order:
    bit/phase follow label_burst_vectors; colocated runs over span, start,
    then the window letters in lexicographic "IXZY" order (end letters never
    I); independent pairs every x mask (outer) with every z mask (inner)."""
    zero = "0" * n
    masks = label_burst_vectors(n, l)
    if kind == "bit":
        return [pauli_of_bits(v, zero) for v in masks]
    if kind == "phase":
        return [pauli_of_bits(zero, v) for v in masks]
    if kind == "independent":
        masks = [zero] + masks
        return [pauli_of_bits(x, z) for x in masks for z in masks
                if x != zero or z != zero]
    out = []
    for span in range(1, l + 1):
        windows = ["X", "Z", "Y"] if span == 1 else [
            first + "".join(middle) + last
            for first in "XZY" for middle in product("IXZY", repeat=span - 2)
            for last in "XZY"]
        for start in range(n - span + 1):
            for w in windows:
                label = "I" * start + w + "I" * (n - start - span)
                out.append(pauli_of_bits(
                    "".join("1" if c in "XY" else "0" for c in label),
                    "".join("1" if c in "ZY" else "0" for c in label)))
    return out


WORD = 64


def pack_masks(masks, words: int) -> np.ndarray:
    """(len(masks), words) uint64 array of the masks, word 0 most significant."""
    low = (1 << WORD) - 1
    return np.array([[(m >> (WORD * (words - 1 - w))) & low for w in range(words)]
                     for m in masks], dtype=np.uint64).reshape(-1, words)


def pauli_lanes(n: int, paulis) -> tuple[np.ndarray, np.ndarray]:
    """The (words, N) uint64 lanes of the Paulis' x masks and of their z
    masks, one column a Pauli, word 0 most significant."""
    words = -(-n // WORD)
    return (pack_masks([p.x for p in paulis], words).T,
            pack_masks([p.z for p in paulis], words).T)


def lane_commutation_bits(ops, xs, zs) -> np.ndarray:
    """(N, len(ops)) uint8 matrix: bit j of row i is 1 when the error whose
    masks are column i of the lanes xs and zs (pauli_lanes) anticommutes with
    ops[j], one operator at a time, by the parity of the two mask overlaps."""
    bits = np.zeros((xs.shape[1], len(ops)), dtype=np.uint8)
    for j, op in enumerate(ops):
        ox, oz = pauli_lanes(op.n, [op])
        # The XOR of the two overlaps has the parity of their summed counts.
        bits[:, j] = np.bitwise_count((xs & oz) ^ (zs & ox)).sum(axis=0) & 1
    return bits


def commutation_bits(n: int, ops, xs, zs) -> np.ndarray:
    """lane_commutation_bits of the errors X_xs[i] Z_zs[i], from mask ints."""
    words = -(-n // WORD)
    return lane_commutation_bits(ops, pack_masks(xs, words).T, pack_masks(zs, words).T)


def class_bits(code: StabilizerCode, xs, zs) -> np.ndarray:
    """Each error's commutation bits with the generators, its syndrome, then
    with the logical Xs and Zs: two errors with one syndrome lie in one class
    of N(S)/S, i.e. differ by a stabilizer element, iff all their bits agree."""
    return lane_commutation_bits((*code.generators, *code.logical_xs, *code.logical_zs),
                                 xs, zs)


def class_corrects_masks(code: StabilizerCode, xs, zs) -> CorrectabilityResult:
    """Stabilizer correctability of the errors with mask lanes xs and zs
    (pauli_lanes, or burst_masks), the identity's zero column put first, by
    logical classes: the errors sorted by syndrome, then class (class_bits),
    fail where two neighbours share a syndrome but not a class.  The witness
    is the first such syndrome's smallest member by (x, z), from a lexsort of
    the members' lanes, and its first later member of another class."""
    zero = np.zeros((len(xs), 1), np.uint64)
    xs, zs = np.hstack([zero, xs]), np.hstack([zero, zs])
    bits, g = class_bits(code, xs, zs), len(code.generators)
    ranked = bits[np.lexsort(np.packbits(bits, axis=1).T[::-1])]
    clash = ((ranked[1:, :g] == ranked[:-1, :g]).all(axis=1)
             & (ranked[1:] != ranked[:-1]).any(axis=1))
    if not clash.any():
        return CorrectabilityResult(True, None)
    members = np.flatnonzero((bits[:, :g] == ranked[np.argmax(clash), :g]).all(axis=1))
    members = members[np.lexsort(np.vstack([xs[:, members], zs[:, members]])[::-1])]
    pair = members[[0, np.argmax((bits[members] != bits[members[0]]).any(axis=1))]]
    return CorrectabilityResult(False, tuple(
        PauliString(code.n, x, z) for x, z in zip(row_masks(xs[:, pair]), row_masks(zs[:, pair]))))


def class_syndrome_table(code: StabilizerCode,
                         errors) -> dict[tuple[int, ...], PauliString]:
    """Syndrome table by logical classes: the identity, then the errors in
    input order, stably sorted by syndrome (class_bits), so each syndrome's
    first error, its correction, leads its run.  The first error in input
    order whose class differs from its correction's raises."""
    paulis = [PauliString.identity(code.n), *errors]
    bits, g = class_bits(code, *pauli_lanes(code.n, paulis)), len(code.generators)
    # input order breaks ties, and is the one key of a code without generators
    order = np.lexsort([np.arange(len(paulis)), *bits[:, :g].T[::-1]])
    ranked = bits[order]
    leads = np.r_[True, (ranked[1:, :g] != ranked[:-1, :g]).any(axis=1)]
    first = np.empty(len(paulis), np.intp)
    first[order] = order[np.flatnonzero(leads)[np.cumsum(leads) - 1]]
    syndromes = [tuple(row) for row in bits[:, :g].tolist()]
    stray = np.flatnonzero((bits != bits[first]).any(axis=1))
    if len(stray):
        i = stray[0]
        raise SyndromeCollisionError(
            f"errors {paulis[first[i]]} and {paulis[i]} share syndrome {syndromes[i]} "
            "but their product is outside the stabilizer group")
    return {syndromes[i]: paulis[i] for i in np.unique(first).tolist()}


def dense_statevector_items(code: StabilizerCode, kind: str, length: int, pairs,
                            errors) -> list[dict]:
    """The CLI's state-vector items, computed on one dense register of all m
    blocks: encode_blocks, interleave with permute_qubits, apply each burst
    to the whole register and deinterleave it, read block i's syndrome from
    the register-wide eigenvalues of its embedded generators, apply every
    block's correction as one Pauli and take the fidelity with the encoded
    register.  The table is class_syndrome_table's, for the kind's
    bursts of length <= length on one block."""
    table = class_syndrome_table(code, enumerate_bursts(code.n, length, kind))
    m = len(pairs)
    total = code.n * m
    phi_in = encode_blocks(pairs, logical_encoder(code))
    perm = interleave_permutation(code.n, m)
    interleaved = phi_in.permute_qubits(perm)
    inverse = Permutation(np.argsort(perm.array))
    items = []
    for label, err in errors:
        deint = interleaved.apply_pauli(err).permute_qubits(inverse)
        fix = PauliString.identity(total)
        syndromes = []
        for i in range(m):
            syn = tuple(
                0 if deint.stabilizer_eigenvalue(embed_pauli(g, total, i * code.n)) == 1 else 1
                for g in code.generators)
            syndromes.append(syn)
            if syn in table:
                fix = pauli_product(fix, embed_pauli(table[syn], total, i * code.n))
        decoded = all(syn in table for syn in syndromes)
        fid = deint.apply_pauli(fix).fidelity(phi_in)
        positions = sorted(support_of(total, fix.x | fix.z))
        items.append({
            "label": label,
            "passed": bool(decoded and fid >= 1.0 - FIDELITY_TOL),
            "fidelity": fid,
            "block_syndromes": [list(syn) for syn in syndromes],
            "corrected_positions_0based": positions,
            "corrected_positions_1based": [q + 1 for q in positions],
            "decoded": decoded,
        })
    return items


def random_pairs_reference(seed: int, m: int) -> list[tuple[complex, complex]]:
    """m logical coefficient pairs drawn a pair at a time from one generator:
    4 normal reals each, divided by their np.linalg.norm."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(m):
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        pairs.append((complex(raw[0], raw[1]), complex(raw[2], raw[3])))
    return pairs


def split_pauli(p: PauliString, size: int) -> list[PauliString]:
    """The consecutive size-qubit parts of p, position 0's part first: part i
    embedded at offset i*size gives back p's letters there."""
    if size < 1 or p.n % size:
        raise ValueError(f"part size {size} does not divide {p.n} qubits")
    x, z, low = p.x, p.z, (1 << size) - 1
    return [PauliString(size, (x >> shift) & low, (z >> shift) & low)
            for shift in range(p.n - size, -1, -size)]


def per_burst_statevector_items(code: StabilizerCode, kind: str, length: int,
                                pairs, errors) -> list[dict]:
    """The CLI's state-vector items with every block of every burst decoded:
    for each (label, error) on the interleaved register, the error is moved
    through the inverse interleave permutation and split into block Paulis,
    and every block is corrupted, decoded by block_decode and compared with
    its encoded state.  The table is built for the kind's bursts of length
    <= length on one block."""
    table = build_syndrome_table(code, enumerate_bursts(code.n, length, kind))
    encoder = logical_encoder(code)
    blocks = [encoder(c0, c1) for c0, c1 in pairs]
    inverse = Permutation(np.argsort(interleave_permutation(code.n, len(blocks)).array))
    items = []
    for label, err in errors:
        parts = split_pauli(permute_pauli(err, inverse), code.n)
        fixed, syndromes, corrections = block_decode(
            code, table, np.stack([b.apply_pauli(p).amps for b, p in zip(blocks, parts)]))
        decoded = None not in corrections
        fid = math.prod(abs(np.vdot(f, b.amps)) ** 2 for f, b in zip(fixed, blocks))
        positions = sorted(
            code.n * i + q
            for i, c in enumerate(corrections) if c is not None
            for q in support_of(code.n, c.x | c.z))
        items.append({
            "label": label,
            "passed": bool(decoded and fid >= 1.0 - FIDELITY_TOL),
            "fidelity": fid,
            "block_syndromes": syndromes.tolist(),
            "corrected_positions_0based": positions,
            "corrected_positions_1based": [q + 1 for q in positions],
            "decoded": decoded,
        })
    return items


def expanded_qasm(circuit: Circuit) -> str:
    """QASM listing of the circuit's SWAPs lowered by expand_swap_gates, one
    cx line a CNOT."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
    lines += [f"cx q[{c}],q[{t}];" for _, (c, t) in expand_swap_gates(circuit_gates(circuit))]
    return "\n".join(lines) + "\n"


# The per-gate synthesis, lowering and listings that the SWAP pairs of
# Circuit replaced, kept as their oracles, over one gate value.

class Gate(NamedTuple):
    """One gate: its kind ("H", "CNOT" or "SWAP") and its one or two operands."""

    kind: str
    qubits: tuple[int, ...]

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        return cls("SWAP", (a, b))


def gate_columns(gates) -> np.ndarray:
    """The (2, G) Circuit pairs of a list of SWAP gates: operand 0 and operand 1."""
    if any(g.kind != "SWAP" for g in gates):
        raise ValueError("a circuit holds SWAP gates only")
    return np.array([g.qubits for g in gates], np.int64).reshape(-1, 2).T


def circuit_gates(circuit: Circuit) -> tuple[Gate, ...]:
    """The SWAP gates of a circuit's pairs, in order."""
    return tuple(Gate.swap(a, b) for a, b in circuit.pairs.T.tolist())


def swap_network_gates(perm: Permutation) -> tuple[Gate, ...]:
    """SWAP gates of the cycle decomposition, entering each cycle at its
    smallest element: SWAP(c0,c1), SWAP(c0,c2), ... per cycle."""
    images = perm.array.tolist()
    seen = [False] * len(images)
    gates = []
    for start in range(len(images)):
        if seen[start]:
            continue
        seen[start] = True
        cur = images[start]
        while cur != start:
            seen[cur] = True
            gates.append(Gate.swap(start, cur))
            cur = images[cur]
    return tuple(gates)


def expand_swap_gates(gates) -> tuple[Gate, ...]:
    """Every SWAP(a,b) of a list of SWAP gates lowered to CNOT(a,b) CNOT(b,a)
    CNOT(a,b)."""
    return tuple(g for _, (a, b) in gates
                 for g in (Gate.cnot(a, b), Gate.cnot(b, a), Gate.cnot(a, b)))


def plain_listing(width: int, gates) -> str:
    """Circuit.export("plain"), lowered or not, one f-string per gate."""
    lines = [f"qubits {width}"]
    lines += [f"{g.kind} {' '.join(str(q) for q in g.qubits)}" for g in gates]
    return "\n".join(lines) + "\n"


def qasm_listing(width: int, gates) -> str:
    """Circuit.export("qasm") of a list of SWAP gates, one f-string per line, each
    SWAP as three cx lines."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{width}];"]
    for _, (a, b) in gates:
        ab = f"cx q[{a}],q[{b}];"
        lines += (ab, f"cx q[{b}],q[{a}];", ab)
    return "\n".join(lines) + "\n"


def circuit_label_action(circuit: Circuit) -> np.ndarray:
    """Output basis label for every input basis label."""
    n = circuit.width
    labels = np.arange(1 << n, dtype=np.int64)
    for _, (a, b) in circuit_gates(circuit):
        ab, bb = n - 1 - a, n - 1 - b
        diff = ((labels >> ab) ^ (labels >> bb)) & 1
        labels = labels ^ (diff << ab) ^ (diff << bb)
    return labels


def permutation_label_action(perm: Permutation) -> np.ndarray:
    """Output basis label for every input label under a qubit relabeling."""
    n = len(perm.array)
    labels = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(labels)
    for q, image in enumerate(perm.array.tolist()):
        out |= ((labels >> (n - 1 - q)) & 1) << (n - 1 - image)
    return out


def track_label_scalar(circuit: Circuit, label: int) -> int:
    """Scalar basis-label tracker (plain ints, so any register size works)."""
    n = circuit.width
    for _, (a, b) in circuit_gates(circuit):
        ab, bb = n - 1 - a, n - 1 - b
        if ((label >> ab) ^ (label >> bb)) & 1:
            label ^= (1 << ab) | (1 << bb)
    return label


def permute_label_scalar(perm: Permutation, label: int) -> int:
    n = len(perm.array)
    out = 0
    for q, image in enumerate(perm.array.tolist()):
        out |= ((label >> (n - 1 - q)) & 1) << (n - 1 - image)
    return out


def _gf2_rank(matrix: np.ndarray) -> int:
    m = matrix.copy() % 2
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def paulis_to_gf2(paulis) -> np.ndarray:
    """Symplectic GF(2) rows [x bits | z bits] for a list of Pauli strings."""
    return np.array([bits_of(p.n, p.x) + bits_of(p.n, p.z) for p in paulis],
                    dtype=np.uint8)


def gf2_rank_of(paulis) -> int:
    return _gf2_rank(paulis_to_gf2(paulis))


def pairwise_relation_checks(gens, logical_xs, logical_zs) -> None:
    """A code's relation checks with one symplectic per operator pair,
    in StabilizerCode's order and with its messages; operator counts and
    lengths are taken as right.  Raises ValueError at the first broken rule."""
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if symplectic(g, h):
                raise ValueError(f"generators {g} and {h} anticommute")
    if gens and gf2_rank_of(gens) != len(gens):
        raise ValueError("generators are not GF(2)-independent")
    for log in (*logical_xs, *logical_zs):
        for g in gens:
            if symplectic(log, g):
                raise ValueError(f"logical {log} anticommutes with generator {g}")
    for i, lx in enumerate(logical_xs):
        for j, lz in enumerate(logical_zs):
            want = 1 if i == j else 0
            if symplectic(lx, lz) != want:
                raise ValueError("logical X/Z pairing is wrong")
    for ops in (logical_xs, logical_zs):
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if symplectic(a, b):
                    raise ValueError("same-type logicals must commute")


def in_gf2_span(paulis, candidate: PauliString) -> bool:
    """Membership of candidate in the GF(2) span of the given Paulis."""
    base = paulis_to_gf2(paulis)
    ext = np.vstack([base, paulis_to_gf2([candidate])])
    return _gf2_rank(ext) == _gf2_rank(base)


def place_blocks(block_amps: list[np.ndarray], position_sets: list[tuple[int, ...]],
                 n: int) -> StateVector:
    """State with each block's amplitudes carried by the given qubit positions.

    block_amps[i] is a dense 2^(block size) array over the block's local
    labels; position_sets[i] lists the global positions of the block's qubits
    in local order.
    """
    amps = np.zeros(1 << n, dtype=complex)
    sizes = [len(ps) for ps in position_sets]

    def fill(depth: int, label: int, coeff: complex) -> None:
        if depth == len(block_amps):
            amps[label] += coeff
            return
        for local in range(1 << sizes[depth]):
            sub = label
            for t in range(sizes[depth]):
                bit = (local >> (sizes[depth] - 1 - t)) & 1
                sub |= bit << (n - 1 - position_sets[depth][t])
            fill(depth + 1, sub, coeff * block_amps[depth][local])

    fill(0, 0, 1.0)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


# The int enumerator and hex labels that the uint64-lane burst_masks and
# burst_labels replaced, kept as their oracles.

WINDOW_LETTERS = {
    "bit": (((1, 0),), ((0, 0), (1, 0))),
    "phase": (((0, 1),), ((0, 0), (0, 1))),
    "colocated": (((1, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))),
}


def window_bursts(n: int, l: int, ends, inner) -> tuple[list[int], list[int]]:
    """x and z mask ints of the window bursts, one window at a time, in
    (span, start, window letters) order, leftmost letter slowest."""
    xs: list[int] = []
    zs: list[int] = []
    for span in range(1, l + 1):
        windows = [(0, 0)]
        for i in range(span):
            letters = ends if i in (0, span - 1) else inner
            windows = [((x << 1) | bx, (z << 1) | bz)
                       for x, z in windows for bx, bz in letters]
        for start in range(n - span + 1):
            shift = n - start - span
            xs.extend(x << shift for x, _ in windows)
            zs.extend(z << shift for _, z in windows)
    return xs, zs


def int_burst_masks(n: int, l: int, kind: str) -> tuple[list[int], list[int]]:
    """burst_masks as two lists of mask ints, built in pure Python."""
    if kind != "independent":
        return window_bursts(n, l, *WINDOW_LETTERS[kind])
    vectors = [0] + window_bursts(n, l, *WINDOW_LETTERS["bit"])[0]
    count = len(vectors)
    return ([x for x in vectors for _ in range(count)][1:],
            (vectors * count)[1:])


def int_burst_at(n: int, l: int, kind: str, i: int) -> tuple[int, int]:
    """Entry i of int_burst_masks(n, l, kind), found by counting instead of
    enumerating: whole spans and then whole starts are skipped by their
    window counts, and the letters are the mixed-radix digits of the rest,
    leftmost slowest."""
    if kind == "independent":
        bits = sum((n - s + 1) * math.prod(len(a) for a in _span_letters(s, "bit"))
                   for s in range(1, l + 1))
        x, z = divmod(i + 1, bits + 1)
        return (int_burst_at(n, l, "bit", x - 1)[0] if x else 0,
                int_burst_at(n, l, "phase", z - 1)[1] if z else 0)
    for span in range(1, l + 1):
        alphabets = _span_letters(span, kind)
        per_start = math.prod(len(a) for a in alphabets)
        if i < (n - span + 1) * per_start:
            break
        i -= (n - span + 1) * per_start
    start, i = divmod(i, per_start)
    x = z = 0
    for position in range(span - 1, -1, -1):
        i, digit = divmod(i, len(alphabets[position]))
        bx, bz = alphabets[position][digit]
        x |= bx << (n - 1 - start - position)
        z |= bz << (n - 1 - start - position)
    return x, z


def _span_letters(span: int, kind: str) -> list:
    """The letters allowed at each position of a window of the given span."""
    ends, inner = WINDOW_LETTERS[kind]
    return [ends if i in (0, span - 1) else inner for i in range(span)]


def hex_burst_labels(n: int, xs, zs) -> list[str]:
    """Labels of the Paulis with mask ints xs and zs: read as hex, the masks'
    binary digits give each qubit its own nibble, and x + 2z indexes "IXZY"."""
    if not xs:
        return []
    digits = ("{:0%db}" % n) * len(xs)
    x = int(digits.format(*xs), 16)
    z = int(digits.format(*zs), 16)
    text = format(x | (z << 1), f"0{n * len(xs)}x").translate(
        str.maketrans("0123", "IXZY"))
    return [text[i:i + n] for i in range(0, len(text), n)]


# The letter grid and its readers, the references for row_labels (a byte
# table), row_lengths (a scan over uint64 lanes) and label_letters.

def letter_grid(n: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The (N, n) uint8 grid of the n-qubit Paulis with x mask lanes xs and z
    mask lanes zs (mask_rows): row i holds each qubit's letter code x + 2z,
    unpacked bit by bit from the lanes' big-endian bytes."""
    def bits(lanes):
        return np.unpackbits(lanes.T.astype(">u8", order="C").view(np.uint8), axis=1)[:, -n:]
    return bits(xs) + 2 * bits(zs)


def burst_labels(letters: np.ndarray) -> list[str]:
    """The labels of the rows of a letter grid (letter_grid), in order."""
    n = letters.shape[1]
    text = np.frombuffer(b"IXZY", np.uint8)[letters].tobytes().decode("ascii")
    return [text[i:i + n] for i in range(0, len(text), n)]


def burst_lengths(bits: np.ndarray) -> np.ndarray:
    """Span from the first to the last 1 of each row of a uint8 0/1 grid; 0 for a
    zero row."""
    bits = bits.view(bool)
    first, last = bits.argmax(axis=1), bits[:, ::-1].argmax(axis=1)
    return np.where(bits.any(axis=1), bits.shape[1] - last - first, 0)


# The row reader and the dict renderer that rendered reports are compared with.

def table_rows(table) -> list[dict]:
    """The rows of an ItemTable as the report items they stand for: a (N, w)
    uint8 text column read as str and a (N, k, w) text-list column as lists of
    k str, each with its PAD padding dropped, an int-list column with its -1
    padding dropped, every other column as its Python values."""
    def values(col):
        if col.dtype == np.uint8 and col.ndim > 1:
            data, w = col.tobytes(), col.shape[-1]
            texts = [data[i:i + w].rstrip(bytes([PAD])).decode("ascii")
                     for i in range(0, len(data), w)]
            if col.ndim == 2:
                return texts
            k = col.shape[1]
            return [texts[i * k:(i + 1) * k] for i in range(len(col))]
        return unpadded(col.tolist(), col.ndim - 1)

    def unpadded(rows, depth):
        if depth == 0:
            return rows
        if depth == 1:
            return [[v for v in row if v >= 0] for row in rows]
        return [unpadded(row, depth - 1) for row in rows]

    columns = {name: values(col) for name, col in table.columns.items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def report_dict(report) -> dict:
    """A Report as the dict its JSON stands for: its items read back as dicts
    (table_rows) and its verdict taken from them, pass only when there are
    items and every one of them passed."""
    items = table_rows(report.items)
    return {"command": report.command, "parameters": report.parameters, "items": items,
            "verdict": "pass" if items and all(item["passed"] for item in items) else "fail",
            "elapsed_seconds": report.elapsed_seconds}


def text_row(item: dict) -> str:
    """An item dict as one line of a report's text: its status and label, then
    its other keys as key=str(value)."""
    status = "pass" if item["passed"] else "FAIL"
    extras = " ".join(f"{k}={v}" for k, v in item.items() if k not in ("label", "passed"))
    return f"  [{status}] {item['label']}" + (f" | {extras}" if extras else "") + "\n"


def render_dict(report: dict, fmt: str) -> str:
    """A report dict (report_dict) as JSON, json.dumps(indent=2) of the whole
    dict, or as text: the command, one line per parameter (a long list or a
    multi-line str one line per element), the item count, one text_row per
    item, the verdict and the elapsed seconds."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = [f"command: {report['command']}"]
    for key, value in report["parameters"].items():
        if isinstance(value, list) and len(str(value)) > 80:
            lines += [f"  {key} =", *(f"    {element}" for element in value)]
        elif isinstance(value, str) and "\n" in value:
            lines += [f"  {key} =", *(f"    {ln}" for ln in value.rstrip().splitlines())]
        else:
            lines.append(f"  {key} = {value}")
    lines.append(f"items: {len(report['items'])}\n")
    return ("\n".join(lines) + "".join(map(text_row, report["items"]))
            + f"verdict: {report['verdict']}\nelapsed_seconds: {report['elapsed_seconds']:.3f}\n")


# Test-only helpers.

def enumerate_burst_vectors(n: int, l: int) -> list[tuple[int, ...]]:
    """The bits of all nonzero length-n vectors with burst length <= l, in
    (length, start, interior pattern) order."""
    return [bits_of(n, v) for v in row_masks(burst_masks(n, l, "bit")[0])]


def deinterleave_blocks(v, n: int, m: int) -> list[tuple[int, ...]]:
    """Split a transmitted-layout length-n*m vector back into its m blocks."""
    if len(v) != n * m:
        raise ValueError("vector length must be n*m")
    inv = np.argsort(interleave_permutation(n, m).array).tolist()
    restored = [0] * (n * m)
    for i, bit in enumerate(v):
        restored[inv[i]] = bit
    return [tuple(restored[i * n:(i + 1) * n]) for i in range(m)]


def compose(second: Permutation, first: Permutation) -> Permutation:
    """Permutation equal to applying `first`, then `second`."""
    if len(first.array) != len(second.array):
        raise ValueError("size mismatch in permutation composition")
    return Permutation(second.array[first.array])


def basis_state(n: int, label) -> StateVector:
    """Computational basis state |label> with qubit 0 leftmost; label is a
    0/1 string or a sequence of bits."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    if len(label) != n:
        raise ValueError("label length does not match qubit count")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[int("".join(map(str, label)), 2)] = 1.0
    return StateVector(n, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits take the lower-numbered positions."""
    if a.n + b.n > MAX_QUBITS:
        raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def apply_gate(s: StateVector, gate: Gate) -> StateVector:
    """The state after one H, CNOT or SWAP, computed on axis views."""
    if max(gate.qubits) >= s.n:
        raise ValueError(f"gate operand out of range for {s.n} qubits")
    if gate.kind == "H":
        q = gate.qubits[0]
        t = s.amps.reshape(1 << q, 2, -1)
        out = np.empty_like(t)
        out[:, 0, :] = (t[:, 0, :] + t[:, 1, :]) * _INV_SQRT2
        out[:, 1, :] = (t[:, 0, :] - t[:, 1, :]) * _INV_SQRT2
        return StateVector(s.n, out.reshape(-1))
    if gate.kind == "CNOT":
        c, t = gate.qubits
        a = s.amps.reshape((2,) * s.n).copy()
        sel = [slice(None)] * s.n
        sel[c] = 1
        t_axis = t - 1 if t > c else t
        a[tuple(sel)] = np.flip(a[tuple(sel)], axis=t_axis).copy()
        return StateVector(s.n, a.reshape(-1))
    # SWAP: relabel the two axes (equals the three-CNOT network).
    a, b = gate.qubits
    out = np.swapaxes(s.amps.reshape((2,) * s.n), a, b)
    return StateVector(s.n, np.ascontiguousarray(out).reshape(-1))


def apply_circuit(s: StateVector, circuit: Circuit) -> StateVector:
    """The state after every gate of the circuit, in order."""
    if circuit.width != s.n:
        raise ValueError("circuit width does not match register size")
    for gate in circuit_gates(circuit):
        s = apply_gate(s, gate)
    return s


def parse_plain(text: str) -> Circuit:
    """Inverse of Circuit.export("plain"), lowered or not: in a lowered listing every
    three CNOT lines are read back as the one SWAP they lower."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError('plain circuit must start with a "qubits N" header')
    width = int(lines[0].split()[1])
    gates = [Gate(kind, tuple(map(int, qubits))) for kind, *qubits in map(str.split, lines[1:])]
    if any(g.kind == "CNOT" for g in gates):
        lowered, gates = gates, [Gate.swap(*g.qubits) for g in gates[::3]]
        if list(expand_swap_gates(gates)) != lowered:
            raise ValueError("CNOT lines must come as the three of a lowered SWAP")
    return Circuit(width, gate_columns(gates))


def burst_ability_measured(code: StabilizerCode, kind: str) -> int:
    """Largest l for which every burst of the kind with length <= l is correctable."""
    for l in range(1, code.n + 1):
        if not class_corrects_masks(code, *burst_masks(code.n, l, kind)):
            return l - 1
    return code.n


# The byte-grid references: digit cells one decimal digit at a time, and rows
# joined by concatenating every part's columns, a block of rows at a time.

def digit_cells_reference(values: np.ndarray) -> np.ndarray:
    """Right-aligned decimal digits of non-negative ints, padded with PAD to
    the widest, written one digit column at a time from the right."""
    rest = np.asarray(values).astype(np.uint64)
    top = int(rest.max(initial=0))
    width, ten = len(str(top)), np.uint64(10)
    digits = np.empty((len(rest), width), np.uint8)
    for k in range(width - 1, -1, -1):
        quotient = rest // ten
        digits[:, k] = np.where((rest > 0) | (k == width - 1), rest - quotient * ten + 48, PAD)
        rest = quotient
    return digits


def grid_text_reference(parts, rows: int, cut: int = 0) -> str:
    """Row i of every part joined in order (a bytes part is shared by every
    row), with the PAD bytes dropped and the last `cut` bytes of the last row
    left out; made grid.GRID_BYTES grid bytes at a time."""
    merged = []
    for p in parts:
        if isinstance(p, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += p
        else:
            merged.append(p)
    parts = [np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
             if isinstance(p, bytes) else p for p in merged]
    step = max(1, qinterleave.grid.GRID_BYTES // max(1, sum(p.shape[1] for p in parts)))
    text = []
    for start in range(0, rows, step):
        grid = np.concatenate([p[start:start + step] for p in parts], axis=1).ravel()
        if grid.max(initial=0) == PAD:
            grid = grid[grid != PAD]
        if start + step >= rows:
            grid = grid[:len(grid) - cut]
        text.append(str(grid.data, "utf-8"))
    return "".join(text)
