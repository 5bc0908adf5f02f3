"""Command-line front end: demo, verification sweeps, synthesis, enumeration.

Exit codes: 0 when the report verdict is "pass", 1 on a verification failure
(an empty report counts as one), 2 on a usage error, 3 on an I/O error (a
file or stream that cannot be written), on an allocation that fails (out of
memory) or on an internal error (a state that should be a stabilizer
eigenstate is not one, or a syndrome table that should exist does not).
"""
from __future__ import annotations

import argparse
import errno
import functools
import sys
import time
from typing import Callable, Sequence

import numpy as np

from .codes import (
    StabilizerCode,
    SyndromeCollisionError,
    block_decode,
    build_syndrome_table,
    corrects_bursts,
    five_qubit_code,
    interleaved_code,
    logical_encoder,
    phase3_code,
)
from .grid import cells
from .interleaver import SYNTH_BYTES_PER_QUBIT, interleave_permutation, synthesize_swap_network
from .pauli import (BURST_BYTES_BUDGET, BURST_KINDS, PauliString, admitted_burst_count,
                    burst_masks, enumerate_bursts, label_letters, row_labels, row_length_weight)
from .report import ItemTable, Report
from .statevector import MAX_QUBITS, IndeterminateEigenvalueError, apply_paulis

CODES: dict[str, Callable[[], StabilizerCode]] = {
    "phase3": phase3_code,
    "five": five_qubit_code,
}

METHODS = ("statevector", "stabilizer")  # verify's methods, in the order --method lists them

# Fixed logical coefficients, cycled over blocks.  Chosen away from every
# logical-Pauli eigenstate so that a wrong correction always shows up as a
# fidelity drop.
DEFAULT_COEFFS = ((0.6, 0.8), (0.28, 0.96), (0.96, -0.28))

# The two length-3 phase bursts of the worked example, on the 9-qubit register.
DEMO_BURSTS = ("ZZZIIIIII", "IIIIIZZZI")

FIDELITY_TOL = 1e-10

# A stabilizer verify's peak bytes a letter of the interleaved code's text ((n+k)m operators of
# nm letters): five and phase3 at --burst 1, degrees 1000-4000, peaked at 4.03-4.4 over import.
STABILIZER_BYTES_PER_LETTER = 6


def _coefficients(seed: int | None, m: int) -> list[tuple[complex, complex]]:
    """m logical coefficient pairs: DEFAULT_COEFFS cycled, or with a seed one
    normal draw of m rows of 4 reals, each row scaled to unit norm."""
    if seed is None:
        return [DEFAULT_COEFFS[i % len(DEFAULT_COEFFS)] for i in range(m)]
    raw = np.random.default_rng(seed).normal(size=(m, 4))
    raw /= np.sqrt(np.vecdot(raw, raw))[:, None]  # a row's np.linalg.norm, bit for bit
    return [(complex(a, b), complex(c, d)) for a, b, c, d in raw.tolist()]


def _statevector_table(code: StabilizerCode, table: dict, states: np.ndarray,
                       labels: np.ndarray) -> ItemTable:
    """For the encoded blocks `states`, one (2**n,) row each, and each error on
    the interleaved register, a row of the text column `labels` whose last n*m
    letters spell it (row_labels): deinterleave -> corrupt -> block-decode ->
    fidelity.

    Deinterleaved, the register is a tensor product of blocks and the error a
    tensor product of block Paulis, so each block is decoded on its own n
    qubits and the fidelity is the product of the block fidelities, in block
    order.  One gather of the labels' letters by the interleave permutation
    puts every error's block parts side by side, read as letter codes
    (label_letters); each distinct (block, block Pauli) is corrupted once,
    and all of them are decoded in one block_decode call.  `table` is the
    block decoder's syndrome table (build_syndrome_table).
    """
    n, m = code.n, len(states)
    # Qubit j of block i is register qubit images[i*n + j]: a label's letter images - n*m.
    parts = label_letters(labels[:, interleave_permutation(n, m).array - n * m]).reshape(-1, m, n)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = (np.arange(m) << 2 * n) | ((parts & 1) @ weights << n) | ((parts >> 1) @ weights)
    keys, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(-1, m)
    block, low = keys >> 2 * n, (1 << n) - 1
    fixed, syndromes, corrections = block_decode(
        code, table, apply_paulis(states[block], keys >> n & low, keys & low))
    # |<fixed|encoded>|^2, the operands in StateVector.fidelity's order
    fidelities = np.array([abs(np.vdot(f, states[i])) ** 2
                           for f, i in zip(fixed, block.tolist())])
    ok = np.array([c is not None for c in corrections], bool)
    touched = np.array([0 if c is None else c.x | c.z for c in corrections], np.int64)
    fidelity = fidelities[inverse].prod(axis=1)  # left to right over the blocks, as math.prod
    decoded = ok[inverse].all(axis=1)
    rows, cols = np.nonzero(((touched[:, None] & weights) != 0)[inverse].reshape(-1, m * n))
    count = np.bincount(rows, minlength=len(inverse))
    positions = np.full((len(inverse), count.max(initial=0)), -1)
    positions[rows, np.arange(len(rows)) - (np.cumsum(count) - count)[rows]] = cols
    return ItemTable(
        label=labels,
        passed=decoded & (fidelity >= 1.0 - FIDELITY_TOL),
        fidelity=fidelity,
        block_syndromes=syndromes[inverse],
        corrected_positions_0based=positions,
        corrected_positions_1based=np.where(positions < 0, -1, positions + 1),
        decoded=decoded,
    )


def run_demo(coeffs: Sequence[tuple[complex, complex]] | None = None,
             seed: int | None = None,
             bursts: Sequence[str] | None = None) -> Report:
    """Worked example: three phase-code blocks, interleave, the two default
    bursts, deinterleave, block-wise correction, through the same label-level
    pipeline as verify --method statevector.

    `bursts` replaces the default bursts with 9-qubit Pauli strings, one
    report item labelled e_<pauli> each; an empty list or a Pauli given twice
    is refused.
    """
    start = time.perf_counter()
    if coeffs is not None and seed is not None:
        raise ValueError("demo takes --coeffs or --seed, not both")
    if coeffs is None:
        coeffs = _coefficients(seed, 3)
    coeffs = [(complex(a), complex(b)) for a, b in coeffs]
    if len(coeffs) != 3:
        raise ValueError("demo takes exactly 3 logical coefficient pairs")
    labels = DEMO_BURSTS if bursts is None else bursts
    paulis = [PauliString.from_label(label) for label in labels]
    if any(p.n != 9 for p in paulis):
        raise ValueError("demo bursts act on 9 qubits")
    if not paulis:
        raise ValueError("demo needs at least one burst")
    if len(set(paulis)) != len(paulis):
        raise ValueError("demo bursts must be pairwise distinct Paulis")

    code = phase3_code()
    encoder = logical_encoder(code)
    blocks = [encoder(a, b) for a, b in coeffs]
    table = build_syndrome_table(code, enumerate_bursts(code.n, code.burst_ability,
                                                        "phase"))
    labels = np.frombuffer("".join(f"e_{p}" for p in paulis).encode(), np.uint8)
    items = _statevector_table(code, table, np.stack([b.amps for b in blocks]),
                               labels.reshape(len(paulis), -1))

    return Report(
        command="demo",
        parameters={
            "coefficients": [[_fmt_c(a), _fmt_c(b)] for a, b in coeffs],
            "bursts": [str(p) for p in paulis],
            "kind": "phase",
            "fidelity_tolerance": FIDELITY_TOL,
            "block_amplitudes": [[list(entry) for entry in b.amplitudes_table()]
                                 for b in blocks],
        },
        items=items,
        elapsed_seconds=time.perf_counter() - start,
    )


def _fmt_c(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j" if z.imag else f"{z.real:.12g}"


def run_verify(code_name: str, degree: int, burst: int | None = None,
               kind: str = "phase", method: str = "stabilizer",
               seed: int | None = None) -> Report:
    """Exhaustive burst sweep against one interleaved code.

    The stabilizer method checks syndrome-level correctability of the whole
    burst set from words folded down the burst-window tree (corrects_bursts),
    building no mask lane; the statevector method reads the uint64 lanes of
    burst_masks and runs deinterleave -> corrupt -> block-decode
    -> fidelity on the encoded blocks for every burst, decoding each distinct
    (block, block Pauli) once, and labels the bursts only once the block
    decoder exists.  Burst lengths beyond the register size are clamped.
    `seed` draws the statevector method's logical coefficients; the
    stabilizer method refuses it.  Every argument, the statevector size guard,
    and the burst and letter budgets are checked before any burst or interleaved code is built.
    """
    start = time.perf_counter()
    if code_name not in CODES:
        raise ValueError(f"unknown code name {code_name!r}")
    if kind not in BURST_KINDS:
        raise ValueError(f"unknown burst kind {kind!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if seed is not None and method == "stabilizer":
        raise ValueError("verify takes --seed with --method statevector only: "
                         "--method stabilizer draws no logical state")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if burst is not None and burst < 1:
        raise ValueError(f"--burst must be >= 1, got {burst}")
    code = CODES[code_name]()
    total = code.n * degree
    if method == "statevector" and total > MAX_QUBITS:
        raise ValueError(
            f"statevector method needs n*m <= {MAX_QUBITS}, got {total}")
    requested = burst if burst is not None else code.burst_ability * degree
    effective = min(requested, total)
    count = admitted_burst_count(total, effective, kind)
    letters = (code.n + code.k) * degree * total
    if method == "stabilizer" and letters * STABILIZER_BYTES_PER_LETTER > BURST_BYTES_BUDGET:
        raise ValueError(f"the interleaved code's {letters:,} letters exceed the stabilizer budget "
                         f"of {BURST_BYTES_BUDGET // STABILIZER_BYTES_PER_LETTER:,} letters")
    parameters = {
        "code": code_name,
        "degree": degree,
        "burst_requested": requested,
        "burst_effective": effective,
        "kind": kind,
        "method": method,
        "interleaved_code": f"[[{total},{code.k * degree}]]",
        "burst_count": count,
        "code_block": code.to_text(),
    }
    if method == "stabilizer":
        compound = interleaved_code(code, degree)
        parameters["interleaved_code_block"] = compound.to_text()
        result = corrects_bursts(compound, effective, kind)
        label = f"{count} {kind} bursts of length <= {effective}".encode()
        witness = {} if result.ok else {
            "witness": cells(*(str(p).encode() for p in result.witness))[None]}
        items = ItemTable(label=cells(label), passed=np.array([result.ok]), **witness)
    else:
        # The swept set restricted to a block: block bursts of length <= length.
        length = min(code.n, (effective - 1) // degree + 1)
        try:
            table = build_syndrome_table(code, enumerate_bursts(code.n, length, kind))
        except SyndromeCollisionError as exc:
            label = f"block decoder for {kind} bursts of length <= {length}".encode()
            items = ItemTable(label=cells(label), passed=np.zeros(1, bool),
                              reason=cells(str(exc).encode()))
        else:
            encoder = logical_encoder(code)
            states = np.stack([encoder(a, b).amps for a, b in _coefficients(seed, degree)])
            items = _statevector_table(code, table, states,
                                       row_labels(total, *burst_masks(total, effective, kind)))

    return Report("verify", parameters, items, time.perf_counter() - start)


def run_synth(rows: int, cols: int, fmt: str = "plain",
              expand_swaps: bool = False) -> tuple[str, Report]:
    """Synthesize the rows x cols interleaver circuit; returns (circuit text,
    report with gate counts and, for rows == cols, the count assertion).  A
    run past BURST_BYTES_BUDGET at SYNTH_BYTES_PER_QUBIT is refused before
    anything is allocated."""
    start = time.perf_counter()
    total = rows * cols
    if rows > 0 and cols > 0 and total * SYNTH_BYTES_PER_QUBIT > BURST_BYTES_BUDGET:
        raise ValueError(f"{total:,} qubits exceed the synth budget of "
                         f"{BURST_BYTES_BUDGET // SYNTH_BYTES_PER_QUBIT:,} qubits")
    perm = interleave_permutation(rows, cols)
    circuit = synthesize_swap_network(perm)
    text = circuit.export(fmt, lowered=expand_swaps)
    count = circuit.cnot_count()
    labels = [f"cnot count within 3(nm-1) = {3 * (total - 1)}".encode()]
    passed = [count <= 3 * (total - 1)]
    if rows == cols:
        expected = 3 * rows * (rows - 1) // 2
        labels.insert(0, f"cnot count equals 3n(n-1)/2 = {expected}".encode())
        passed.insert(0, count == expected)
    items = ItemTable(label=cells(*labels), passed=np.array(passed),
                      cnot_count=np.full(len(labels), count))
    report = Report(
        command="synth",
        parameters={
            "rows": rows,
            "cols": cols,
            "format": fmt,
            "expand_swaps": expand_swaps,
            "swap_count": circuit.swap_count,
            "cnot_count": count,
        },
        items=items,
        elapsed_seconds=time.perf_counter() - start,
    )
    return text, report


def run_enumerate(n: int, burst: int, kind: str) -> Report:
    """List every burst of the kind with length <= burst on n qubits."""
    start = time.perf_counter()
    if n < 1:
        raise ValueError(f"qubits must be >= 1, got {n}")
    if burst < 1:
        raise ValueError(f"--burst must be >= 1, got {burst}")
    effective = min(burst, n)
    xs, zs = burst_masks(n, effective, kind)
    # checked on the rows, not assumed from how the windows were built
    lengths, weight = row_length_weight(xs, zs)
    items = ItemTable(label=row_labels(n, xs, zs), passed=lengths <= effective, weight=weight)
    parameters = {"qubits": n, "burst_requested": burst, "burst_effective": effective,
                  "kind": kind, "count": len(items)}
    return Report("enumerate", parameters, items, time.perf_counter() - start)


def _parse_coeffs(text: str) -> list[tuple[complex, complex]]:
    fields = text.split(",")
    if len(fields) != 6:
        raise ValueError("--coeffs takes 6 comma-separated reals (c0,c1 per block)")
    try:
        reals = [float(field) for field in fields]
    except ValueError as exc:  # float's message quotes the field
        raise ValueError(f"--coeffs: {exc}") from None
    return list(zip(reals[::2], reals[1::2]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinterleave",
        description="Quantum burst-error correction by interleaving.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the 3x3 phase-burst worked example")
    demo.add_argument("--coeffs", type=str, default=None,
                      help="6 comma-separated reals: c0,c1 for each block")
    demo.add_argument("--seed", type=int, default=None,
                      help="randomize logical coefficients")
    demo.add_argument("--bursts", type=str, default=None,
                      help="comma-separated distinct 9-qubit Pauli strings "
                           "replacing the default bursts (e.g. ZZZIIIIII,IIIIIZZZI)")
    demo.add_argument("--output", choices=("text", "json"), default="text",
                      help="report format")

    verify = sub.add_parser("verify", help="exhaustive burst sweep on a code")
    verify.add_argument("--code", choices=sorted(CODES), default="phase3")
    verify.add_argument("--degree", type=int, default=3,
                        help="interleaving degree m")
    verify.add_argument("--burst", type=int, default=None,
                        help="maximum burst length (default: ability * degree)")
    verify.add_argument("--kind", choices=BURST_KINDS, default="phase")
    verify.add_argument("--method", choices=METHODS, default="stabilizer")
    verify.add_argument("--seed", type=int, default=None,
                        help="randomize logical coefficients (statevector only)")
    verify.add_argument("--output", choices=("text", "json"), default="text")

    synth = sub.add_parser("synth", help="synthesize an interleaver circuit")
    synth.add_argument("rows", type=int, help="block length n")
    synth.add_argument("cols", type=int, help="interleaving degree m")
    synth.add_argument("--format", choices=("plain", "qasm"), default="plain",
                       help="circuit format")
    synth.add_argument("--expand-swaps", action="store_true",
                       help="lower SWAPs to CNOT triples in plain output")
    synth.add_argument("--output", type=str, default=None, metavar="FILE",
                       help="write the circuit to FILE instead of stdout")
    synth.add_argument("--report", choices=("text", "json"), default="text",
                       help="report format")

    enum = sub.add_parser("enumerate", help="list bursts of a given kind")
    enum.add_argument("qubits", type=int, help="register size n")
    enum.add_argument("--burst", type=int, required=True,
                      help="maximum burst length")
    enum.add_argument("--kind", choices=BURST_KINDS, default="phase")
    enum.add_argument("--output", choices=("text", "json"), default="text")
    return parser


# One parser per process, built on first use: parse_args leaves it as it is.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        out = sys.stdout
        if out is None:  # the process was started with its stdout closed
            raise OSError(errno.EBADF, "standard output is closed")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "demo":
            coeffs = _parse_coeffs(args.coeffs) if args.coeffs is not None else None
            bursts = args.bursts.split(",") if args.bursts is not None else None
            report = run_demo(coeffs=coeffs, seed=args.seed, bursts=bursts)
        elif args.command == "verify":
            report = run_verify(args.code, args.degree, burst=args.burst,
                                kind=args.kind, method=args.method,
                                seed=args.seed)
        elif args.command == "synth":
            text, report = run_synth(args.rows, args.cols, fmt=args.format,
                                     expand_swaps=args.expand_swaps)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                out.write(text)
        else:
            report = run_enumerate(args.qubits, args.burst, args.kind)
        fmt = args.report if args.command == "synth" else args.output
        report.write(out, fmt)
    # Both subclass ValueError, so they are caught first: a fault in the
    # program must not read as a usage error.
    except (IndeterminateEigenvalueError, SyndromeCollisionError) as exc:
        parser.exit(3, f"{parser.prog}: internal error: {exc}\n")
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except OSError as exc:
        parser.exit(3, f"{parser.prog}: I/O error: {exc}\n")
    except MemoryError as exc:
        parser.exit(3, f"{parser.prog}: out of memory: {str(exc) or 'allocation failed'}\n")
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
