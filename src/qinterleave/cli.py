"""Command-line front end: demo, verification sweeps, synthesis, enumeration.

Exit codes: 0 when the report verdict is "pass", 1 on a verification failure
(an empty report counts as one), 2 on a usage error, 3 on an I/O error (a
file or stream that cannot be written) or an internal error (a state that
should be a stabilizer eigenstate is not one, or a syndrome table that should
exist does not).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .codes import (
    StabilizerCode,
    SyndromeCollisionError,
    block_decode,
    build_syndrome_table,
    corrects_masks,
    five_qubit_code,
    interleaved_code,
    logical_encoder,
    phase3_code,
)
from .grid import cells, digit_cells, grid_text
from .interleaver import interleave_permutation, synthesize_swap_network
from .pauli import (BURST_KINDS, LETTERS, PauliString, burst_labels, burst_lengths,
                    burst_letters, burst_masks, enumerate_bursts, row_masks)
from .statevector import MAX_QUBITS, IndeterminateEigenvalueError

CODES: dict[str, Callable[[], StabilizerCode]] = {
    "phase3": phase3_code,
    "five": five_qubit_code,
}

# Fixed logical coefficients, cycled over blocks.  Chosen away from every
# logical-Pauli eigenstate so that a wrong correction always shows up as a
# fidelity drop.
DEFAULT_COEFFS = ((0.6, 0.8), (0.28, 0.96), (0.96, -0.28))

# The two length-3 phase bursts of the worked example, on the 9-qubit register.
DEMO_BURSTS = ("ZZZIIIIII", "IIIIIZZZI")

FIDELITY_TOL = 1e-10


# Cells of a bool column in JSON and in text, and of the text status.
_JSON_BOOLS = cells(b"false", b"true")
_TEXT_BOOLS = cells(b"False", b"True")
_STATUS = cells(b"FAIL", b"pass")
# Ends of a JSON item: all but the last are followed by a comma.
_JSON_ENDS = cells(b"\n    },\n", b"\n    }")


def _cells(col: np.ndarray, bools: np.ndarray) -> np.ndarray:
    """A column's padded cells: text as it is, bools from `bools`, ints in digits."""
    if col.ndim == 2:
        return col
    return np.take(bools, col.view(np.uint8), axis=0) if col.dtype == bool else digit_cells(col)


class ItemTable:
    """Report items held as columns: 1-d bool, 1-d non-negative int, or (N, w)
    uint8 text of printable ASCII without '"' or '\\'.  Rows read as dicts of
    str, bool and int; json_rows and text_rows render them through byte grids."""

    def __init__(self, **columns: np.ndarray) -> None:
        for name, col in columns.items():
            number = col.ndim == 1 and (col.dtype == bool or col.dtype.kind in "iu"
                                        and not (col < 0).any())
            text = col.ndim == 2 and col.dtype == np.uint8 and col.shape[1] > 0 and not (
                col.size and (col.min() < 0x20 or col.max() > 0x7E
                              or (col == ord('"')).any() or (col == ord("\\")).any()))
            if not (number or text):
                raise ValueError(f"column {name!r} is not bool, non-negative int or text")
        if len(sizes := {len(col) for col in columns.values()}) > 1:
            raise ValueError(f"ragged columns of lengths {sorted(sizes)}")
        self.columns, self._len = columns, sizes.pop() if sizes else 0

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        rows = list(ItemTable(**{name: col[i if isinstance(i, slice) else [i]]
                                 for name, col in self.columns.items()}))
        return rows if isinstance(i, slice) else rows[0]

    def __iter__(self):
        def values(col):
            if col.ndim == 1:
                return col.tolist()
            text, w = col.tobytes().decode(), col.shape[1]
            return [text[i:i + w] for i in range(0, len(text), w)]
        rows = map(values, self.columns.values())
        return map(dict, zip(*map(zip, map(repeat, self.columns), rows)))

    def json_rows(self, head: str = "", tail: str = "") -> str:
        """head, the rows of a non-empty table as json.dumps(indent=2) writes
        them inside a report's items list, then tail."""
        parts = []
        for j, (name, col) in enumerate(self.columns.items()):
            key = (("    {\n" if j == 0 else ",\n") + f"      {json.dumps(name)}: ").encode()
            quote = b'"' if col.ndim == 2 else b""
            parts += [key + quote, _cells(col, _JSON_BOOLS), quote]
        last = np.arange(len(self)) == len(self) - 1
        ends = np.take(_JSON_ENDS, last.view(np.uint8), axis=0)
        return grid_text(parts + [ends], len(self), head, tail)

    def text_rows(self, head: str = "", tail: str = "") -> str:
        """head, the rows as Report.to_text lists items, then tail."""
        passed = self.columns["passed"].astype(bool).view(np.uint8)
        parts = [b"  [", np.take(_STATUS, passed, axis=0), b"] ",
                 _cells(self.columns["label"], _TEXT_BOOLS)]
        sep = b" | "
        for name, col in self.columns.items():
            if name not in ("label", "passed"):
                parts += [sep + f"{name}=".encode(), _cells(col, _TEXT_BOOLS)]
                sep = b" "
        return grid_text(parts + [b"\n"], len(self), head, tail)


def _text_row(item: dict) -> str:
    status = "pass" if item["passed"] else "FAIL"
    extras = " ".join(f"{k}={v}" for k, v in item.items() if k not in ("label", "passed"))
    return f"  [{status}] {item['label']}" + (f" | {extras}" if extras else "") + "\n"


@dataclass
class Report:
    """Per-item results plus an aggregate verdict; renders as text or JSON."""

    command: str
    parameters: dict
    items: list[dict] | ItemTable = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """Pass only when there are items and every one of them passed."""
        items = self.items
        if isinstance(items, ItemTable):
            return "pass" if len(items) and items.columns["passed"].all() else "fail"
        passed = items and all(item["passed"] for item in items)
        return "pass" if passed else "fail"

    def to_dict(self, items: list | None = None) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "items": list(self.items) if items is None else items,
            "verdict": self.verdict,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, end: str = "") -> str:
        """json.dumps(self.to_dict(), indent=2) + end, byte for byte."""
        if not (isinstance(self.items, ItemTable) and len(self.items)):
            return json.dumps(self.to_dict(), indent=2) + end
        envelope = json.dumps(self.to_dict(items=[]), indent=2)
        head, tail = envelope.split('\n  "items": []', 1)
        return self.items.json_rows(f'{head}\n  "items": [\n', f"\n  ]{tail}{end}")

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            if isinstance(value, list) and len(str(value)) > 80:
                lines.append(f"  {key} =")
                lines.extend(f"    {element}" for element in value)
                continue
            if isinstance(value, str) and "\n" in value:
                lines.append(f"  {key} =")
                lines.extend(f"    {ln}" for ln in value.rstrip().splitlines())
                continue
            lines.append(f"  {key} = {value}")
        lines.append(f"items: {len(self.items)}\n")
        head = "\n".join(lines)
        tail = f"verdict: {self.verdict}\nelapsed_seconds: {self.elapsed_seconds:.3f}\n"
        if isinstance(self.items, ItemTable):
            return self.items.text_rows(head, tail)
        return head + "".join(map(_text_row, self.items)) + tail

    def render(self, fmt: str) -> str:
        return self.to_json("\n") if fmt == "json" else self.to_text()


def report_schema() -> dict:
    """The published JSON schema for CLI reports."""
    text = resources.files("qinterleave").joinpath("report_schema.json").read_text()
    return json.loads(text)


def _random_pairs(seed: int, m: int) -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(m):
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        pairs.append((complex(raw[0], raw[1]), complex(raw[2], raw[3])))
    return pairs


def _cycled_pairs(m: int) -> list[tuple[complex, complex]]:
    return [DEFAULT_COEFFS[i % len(DEFAULT_COEFFS)] for i in range(m)]


def _statevector_items(code: StabilizerCode, table: dict,
                       pairs: Sequence[tuple[complex, complex]],
                       errors: Iterable[tuple[str, int, int]]) -> list[dict]:
    """Encode one block per coefficient pair; for each (label, x mask, z mask)
    of an error on the interleaved register, deinterleave -> corrupt ->
    block-decode -> fidelity.

    Deinterleaved, the register is a tensor product of blocks and the error a
    tensor product of block Paulis, so each block is decoded on its own n
    qubits and the fidelity is the product of the block fidelities, in block
    order.  The error's set bits are moved straight into m block-part mask
    pairs, and each distinct (block, x part, z part) is corrupted and decoded
    once per call.  `table` is the block decoder's syndrome table
    (build_syndrome_table).
    """
    encoder = logical_encoder(code)
    blocks = [encoder(c0, c1) for c0, c1 in pairs]
    n, m = code.n, len(blocks)
    # Register bit b (bit 0 is the last qubit) is bit `bit` of block `block`.
    inverse = interleave_permutation(n, m).inverse().images
    slots = [(p // n, 1 << (n - 1 - p % n))
             for p in (inverse[n * m - 1 - b] for b in range(n * m))]
    decoded_blocks: dict[tuple[int, int, int], tuple] = {}

    def decode(i: int, x: int, z: int) -> tuple:
        corrupted = blocks[i].apply_pauli(PauliString(n, x, z))
        (fixed,), (record,) = block_decode(code, table, [corrupted])
        touched = record.correction.x | record.correction.z if record.ok else 0
        return (record.ok, fixed.fidelity(blocks[i]), record.syndrome,
                [q for q in range(n) if touched >> (n - 1 - q) & 1])

    items = []
    for label, x, z in errors:
        x_parts, z_parts = [0] * m, [0] * m
        for mask, parts in ((x, x_parts), (z, z_parts)):
            while mask:
                low = mask & -mask
                i, bit = slots[low.bit_length() - 1]
                parts[i] |= bit
                mask ^= low
        records = []
        for key in zip(range(m), x_parts, z_parts):
            record = decoded_blocks.get(key)
            if record is None:
                record = decoded_blocks[key] = decode(*key)
            records.append(record)
        oks, fids, syndromes, fixes = zip(*records)
        decoded = all(oks)
        fid = math.prod(fids)
        positions = [n * i + q for i, fix in enumerate(fixes) for q in fix]
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


def run_demo(coeffs: Sequence[tuple[complex, complex]] | None = None,
             seed: int | None = None,
             bursts: Sequence[str] | None = None) -> Report:
    """Worked example: three phase-code blocks, interleave, the two default
    bursts, deinterleave, block-wise correction, through the same mask-level
    pipeline as verify --method statevector.

    `bursts` replaces the default bursts with 9-qubit Pauli strings, one
    report item labelled e_<pauli> each; an empty list or a Pauli given twice
    is refused.
    """
    start = time.perf_counter()
    if coeffs is not None and seed is not None:
        raise ValueError("demo takes --coeffs or --seed, not both")
    if coeffs is None:
        coeffs = _random_pairs(seed, 3) if seed is not None else _cycled_pairs(3)
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
    table = build_syndrome_table(code, enumerate_bursts(code.n, code.burst_ability,
                                                        "phase"))
    items = _statevector_items(code, table, coeffs,
                               [(f"e_{p}", p.x, p.z) for p in paulis])

    return Report(
        command="demo",
        parameters={
            "coefficients": [[_fmt_c(a), _fmt_c(b)] for a, b in coeffs],
            "bursts": [str(p) for p in paulis],
            "kind": "phase",
            "fidelity_tolerance": FIDELITY_TOL,
            "block_amplitudes": [
                [list(entry) for entry in encoder(a, b).amplitudes_table()]
                for a, b in coeffs],
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

    Both methods take the bursts as the byte rows of burst_masks.  The
    stabilizer method checks syndrome-level correctability of the whole burst
    set; the statevector method runs deinterleave -> corrupt -> block-decode
    -> fidelity on the encoded blocks for every burst, decoding each distinct
    (block, block Pauli) once, and labels the bursts only once the block
    decoder exists.  Burst lengths beyond the register size are clamped.
    Every argument, the statevector size guard included, is checked before
    any burst is enumerated.
    """
    start = time.perf_counter()
    if code_name not in CODES:
        raise ValueError(f"unknown code name {code_name!r}")
    if kind not in BURST_KINDS:
        raise ValueError(f"unknown burst kind {kind!r}")
    if method not in ("statevector", "stabilizer"):
        raise ValueError(f"unknown method {method!r}")
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
    xs, zs = burst_masks(total, effective, kind)
    parameters = {
        "code": code_name,
        "degree": degree,
        "burst_requested": requested,
        "burst_effective": effective,
        "kind": kind,
        "method": method,
        "interleaved_code": f"[[{total},{code.k * degree}]]",
        "burst_count": len(xs),
        "code_block": code.to_text(),
    }
    if method == "stabilizer":
        compound = interleaved_code(code, degree)
        parameters["interleaved_code_block"] = compound.to_text()
        result = corrects_masks(compound, xs, zs)
        item = {
            "label": f"{len(xs)} {kind} bursts of length <= {effective}",
            "passed": result.ok,
        }
        if not result.ok:
            item["witness"] = [str(result.witness[0]), str(result.witness[1])]
        items = [item]
    else:
        pairs = _random_pairs(seed, degree) if seed is not None else _cycled_pairs(degree)
        # The swept set restricted to a block: block bursts of length <= length.
        length = min(code.n, (effective - 1) // degree + 1)
        try:
            table = build_syndrome_table(code, enumerate_bursts(code.n, length, kind))
        except SyndromeCollisionError as exc:
            items = [{
                "label": f"block decoder for {kind} bursts of length <= {length}",
                "passed": False,
                "reason": str(exc),
            }]
        else:
            labels = burst_labels(burst_letters(total, xs, zs))
            items = _statevector_items(code, table, pairs,
                                       zip(labels, row_masks(xs), row_masks(zs)))

    return Report("verify", parameters, items, time.perf_counter() - start)


def run_synth(rows: int, cols: int, fmt: str = "plain",
              expand_swaps: bool = False) -> tuple[str, Report]:
    """Synthesize the rows x cols interleaver circuit; returns (circuit text,
    report with gate counts and, for rows == cols, the count assertion)."""
    start = time.perf_counter()
    perm = interleave_permutation(rows, cols)
    circuit = synthesize_swap_network(perm)
    if expand_swaps:
        circuit = circuit.expand_swaps()
    text = circuit.export(fmt)
    count = circuit.cnot_count()
    total = rows * cols
    items = [{
        "label": f"cnot count within 3(nm-1) = {3 * (total - 1)}",
        "passed": count <= 3 * (total - 1) if total > 1 else count == 0,
        "cnot_count": count,
    }]
    if rows == cols:
        expected = 3 * rows * (rows - 1) // 2
        items.insert(0, {
            "label": f"cnot count equals 3n(n-1)/2 = {expected}",
            "passed": count == expected,
            "cnot_count": count,
        })
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
    letters = burst_letters(n, *burst_masks(n, effective, kind))
    lengths = np.maximum(burst_lengths(letters & 1), burst_lengths(letters >> 1))
    items = ItemTable(label=LETTERS[letters], passed=lengths <= effective,
                      weight=np.count_nonzero(letters, axis=1))
    return Report(
        command="enumerate",
        parameters={"qubits": n, "burst_requested": burst,
                    "burst_effective": effective, "kind": kind,
                    "count": len(items)},
        items=items,
        elapsed_seconds=time.perf_counter() - start,
    )


def _parse_coeffs(text: str) -> list[tuple[complex, complex]]:
    fields = text.split(",")
    if len(fields) != 6:
        raise ValueError("--coeffs takes 6 comma-separated reals (c0,c1 per block)")
    return [(float(fields[2 * i]), float(fields[2 * i + 1])) for i in range(3)]


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
    verify.add_argument("--method", choices=("statevector", "stabilizer"),
                        default="stabilizer")
    verify.add_argument("--seed", type=int, default=None,
                        help="randomize logical coefficients (statevector)")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
                sys.stdout.write(text)
        else:
            report = run_enumerate(args.qubits, args.burst, args.kind)
        fmt = args.report if args.command == "synth" else args.output
        sys.stdout.write(report.render(fmt))
    # Both subclass ValueError, so they are caught first: a fault in the
    # program must not read as a usage error.
    except (IndeterminateEigenvalueError, SyndromeCollisionError) as exc:
        parser.exit(3, f"{parser.prog}: internal error: {exc}\n")
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except OSError as exc:
        parser.exit(3, f"{parser.prog}: I/O error: {exc}\n")
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
