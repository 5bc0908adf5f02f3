"""Block-interleaving permutations and their SWAP/CNOT circuits.

m blocks of n symbols, stored block-major (symbol j of block i at position
i*n + j), are rearranged so that symbol j of block i is transmitted at slot
j*m + i.  Any burst of length b*m in the transmitted layout then touches at
most b consecutive symbols of each block, which is what makes interleaved
codes burst-tolerant.
"""
from __future__ import annotations

from dataclasses import dataclass

GATE_KINDS = ("H", "CNOT", "SWAP")
_GATE_ARITY = {"H": 1, "CNOT": 2, "SWAP": 2}


@dataclass(frozen=True)
class Permutation:
    """Bijection on [0, N): images[i] is where position i is sent."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        n = len(images)
        if sorted(images) != list(range(n)):
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
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))


def interleave_permutation(n: int, m: int) -> Permutation:
    """Permutation on n*m positions sending symbol j of block i to slot j*m + i."""
    if n < 1 or m < 1:
        raise ValueError("block length and degree must both be >= 1")
    images = [0] * (n * m)
    for i in range(m):
        for j in range(n):
            images[i * n + j] = j * m + i
    return Permutation(tuple(images))


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


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        for g in gates:
            if max(g.qubits) >= self.width:
                raise ValueError(f"gate {g.kind}{g.qubits} exceeds width {self.width}")
        object.__setattr__(self, "gates", gates)

    @property
    def swap_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "SWAP")

    def cnot_count(self) -> int:
        """CNOTs after lowering: 3 per SWAP plus every raw CNOT (H excluded)."""
        return sum(3 if g.kind == "SWAP" else 1 if g.kind == "CNOT" else 0
                   for g in self.gates)

    def expand_swaps(self) -> "Circuit":
        """Lower every SWAP(a,b) to CNOT(a,b) CNOT(b,a) CNOT(a,b)."""
        gates: list[Gate] = []
        for g in self.gates:
            if g.kind == "SWAP":
                a, b = g.qubits
                gates += [Gate.cnot(a, b), Gate.cnot(b, a), Gate.cnot(a, b)]
            else:
                gates.append(g)
        return Circuit(self.width, tuple(gates))

    def to_plain(self) -> str:
        """One gate per line after a "qubits N" header; 0-based operands."""
        lines = [f"qubits {self.width}"]
        lines += [f"{g.kind} {' '.join(str(q) for q in g.qubits)}" for g in self.gates]
        return "\n".join(lines) + "\n"

    def to_qasm(self) -> str:
        """QASM-2 style listing; SWAPs are always lowered to cx triples."""
        lines = [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            f"qreg q[{self.width}];",
        ]
        for g in self.gates:
            if g.kind == "H":
                lines.append(f"h q[{g.qubits[0]}];")
            else:
                a, b = g.qubits
                ab = f"cx q[{a}],q[{b}];"
                lines += (ab, f"cx q[{b}],q[{a}];", ab) if g.kind == "SWAP" else (ab,)
        return "\n".join(lines) + "\n"

    def export(self, fmt: str) -> str:
        if fmt == "plain":
            return self.to_plain()
        if fmt == "qasm":
            return self.to_qasm()
        raise ValueError(f"unknown circuit format {fmt!r}")


def parse_plain(text: str) -> Circuit:
    """Inverse of Circuit.to_plain."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError('plain circuit must start with a "qubits N" header')
    width = int(lines[0].split()[1])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        gates.append(Gate(parts[0], tuple(int(p) for p in parts[1:])))
    return Circuit(width, tuple(gates))


def synthesize_swap_network(perm: Permutation) -> Circuit:
    """SWAP circuit realizing the permutation, by cycle decomposition.

    Each k-cycle (c0 c1 ... c_{k-1}), entered at its smallest element,
    contributes SWAP(c0,c1), SWAP(c0,c2), ..., SWAP(c0,c_{k-1}) in that order;
    fixed points contribute nothing.  For an involution (the n = m
    interleaver) this is exactly the disjoint transposition set.
    """
    n = perm.size
    seen = [False] * n
    gates: list[Gate] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        cur = perm(start)
        while cur != start:
            seen[cur] = True
            gates.append(Gate.swap(start, cur))
            cur = perm(cur)
    return Circuit(n, tuple(gates))
