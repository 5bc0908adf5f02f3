"""Span tracer that wraps qinterleave's public functions from outside.

`Tracer.install` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op id) and counts work at the same
boundary.  Module functions are replaced under every name a loaded
`qinterleave` module binds them to, because `cli` and `codes` import names
directly (`qinterleave.cli.corrects_error_set` as well as
`qinterleave.codes.corrects_error_set`); methods are replaced on their class.
Spans stay in memory in one flat integer array and are written out by
`Tracer.write` when the run ends.  Nothing in the program is edited.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

# Span record layout in `Tracer.spans`: FIELDS integers per span.
NAME, START, END, PARENT, OP = range(5)
FIELDS = 5

# Bytes moved by dense state-vector passes are computed from array sizes,
# not measured: a pass reads and writes every complex128 amplitude (16 B
# each way) and, where the program indexes with an int64 array (Pauli phase
# and flip passes), reads 8 B of index per amplitude.
AMP_BYTES = 16
INDEX_BYTES = 8


def _apply_pauli_bytes(counts, args, kwargs, result) -> None:
    state, pauli = args[0], (args[1] if len(args) > 1 else kwargs["p"])
    passes = (not pauli.z_mask.is_zero) + (not pauli.x_mask.is_zero)
    counts["statevector.apply_pauli.bytes_computed"] += (
        passes * (1 << state.n) * (2 * AMP_BYTES + INDEX_BYTES))
    counts["statevector.max_qubits"] = max(counts["statevector.max_qubits"], state.n)


def _permute_bytes(counts, args, kwargs, result) -> None:
    counts["statevector.permute_qubits.bytes_computed"] += (1 << args[0].n) * 2 * AMP_BYTES


def _bursts(counts, args, kwargs, result) -> None:
    counts["pauli.bursts"] += len(result)


def _syndrome(counts, args, kwargs, result) -> None:
    counts.syndromes.add(result)


def _membership(counts, args, kwargs, result) -> None:
    counts["codes.in_stabilizer_group.true"] += bool(result)


def _blocks(counts, args, kwargs, result) -> None:
    counts["codes.blocks_decoded"] += len(result[1])


def _swaps(counts, args, kwargs, result) -> None:
    counts["interleaver.swaps"] += result.swap_count


def _text_bytes(key: str) -> Callable:
    def count(counts, args, kwargs, result) -> None:
        counts[key] += len(result.encode("utf-8"))
    return count


# (module, function or Class.method, span name, counter at the boundary)
TARGETS = (
    ("qinterleave.pauli", "enumerate_bursts", "pauli.enumerate_bursts", _bursts),
    ("qinterleave.codes", "StabilizerCode.syndrome_of", "codes.syndrome_of", _syndrome),
    ("qinterleave.codes", "StabilizerCode.in_stabilizer_group",
     "codes.in_stabilizer_group", _membership),
    ("qinterleave.codes", "corrects_error_set", "codes.corrects_error_set", None),
    ("qinterleave.codes", "interleaved_code", "codes.interleaved_code", None),
    ("qinterleave.codes", "build_syndrome_table", "codes.build_syndrome_table", None),
    ("qinterleave.codes", "encode_blocks", "codes.encode", None),
    ("qinterleave.codes", "logical_encoder", "codes.encode", None),
    ("qinterleave.codes", "encode_phase3", "codes.encode", None),
    ("qinterleave.codes", "block_decode", "codes.block_decode", _blocks),
    ("qinterleave.statevector", "StateVector.apply_pauli",
     "statevector.apply_pauli", _apply_pauli_bytes),
    ("qinterleave.statevector", "StateVector.stabilizer_eigenvalue",
     "statevector.stabilizer_eigenvalue", None),
    ("qinterleave.statevector", "StateVector.permute_qubits",
     "statevector.permute_qubits", _permute_bytes),
    ("qinterleave.statevector", "StateVector.fidelity", "statevector.fidelity", None),
    ("qinterleave.interleaver", "interleave_permutation",
     "interleaver.interleave_permutation", None),
    ("qinterleave.interleaver", "synthesize_swap_network",
     "interleaver.synthesize_swap_network", _swaps),
    ("qinterleave.interleaver", "Circuit.export", "interleaver.export",
     _text_bytes("interleaver.export.bytes")),
    ("qinterleave.cli", "Report.render", "cli.render", _text_bytes("cli.render.bytes")),
    ("qinterleave.cli", "main", "cli.main", None),
)
ROOT = "cli.main"


class OpCounts(defaultdict):
    """Counters of one op, plus the set of distinct syndromes it computed."""

    def __init__(self) -> None:
        super().__init__(int)
        self.syndromes: set = set()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.current = -1
        self.op = -1
        self.op_first_span: list[int] = []
        self.op_counts: list[OpCounts] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        name_id = self._name_id(name)
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // FIELDS
            parent = tracer.current
            spans.extend((name_id, 0, 0, parent, tracer.op))
            tracer.current = index
            base = index * FIELDS
            spans[base + START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[base + END] = clock()
                tracer.current = parent
            if count is not None:
                count(tracer.op_counts[-1], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Put every wrapper in place; raises AttributeError when a target
        is gone.  Wrappers are built once and reused after `uninstall`."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _find_patches(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qinterleave" or key.startswith("qinterleave.")]
        for module_name, qualname, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in qualname:
                class_name, attr = qualname.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                yield cls, attr, original, self._wrap(original, name, count)
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        yield module, attr, original, wrapper

    def begin_op(self) -> None:
        self.op += 1
        self.op_first_span.append(len(self.spans) // FIELDS)
        self.op_counts.append(OpCounts())

    def op_metrics(self, op: int) -> dict[str, float]:
        """Self time and calls per span name, and the op's counters.

        A span's self time is its duration minus its children's; spans on
        one thread nest without overlap, so the self times of an op add up
        to its root span exactly.  Raises ValueError when the op's spans do
        not form one tree under `cli.main`.
        """
        spans = self.spans
        first = self.op_first_span[op]
        last = (self.op_first_span[op + 1] if op + 1 < len(self.op_first_span)
                else len(spans) // FIELDS)
        child_ns: dict[int, int] = defaultdict(int)
        roots = []
        for i in range(first, last):
            base = i * FIELDS
            parent = spans[base + PARENT]
            if parent < 0:
                roots.append(i)
            else:
                child_ns[parent] += spans[base + END] - spans[base + START]
        if len(roots) != 1 or self.names[spans[roots[0] * FIELDS + NAME]] != ROOT:
            raise ValueError(f"op {op}: expected one {ROOT} root span, "
                             f"got {[self.names[spans[r * FIELDS]] for r in roots]}")
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i in range(first, last):
            base = i * FIELDS
            name = self.names[spans[base + NAME]]
            self_ns[name] += spans[base + END] - spans[base + START] - child_ns[i]
            calls[name] += 1
        root = roots[0] * FIELDS
        root_ns = spans[root + END] - spans[root + START]
        if sum(self_ns.values()) != root_ns:
            raise ValueError(f"op {op}: self times do not add up to the root span")
        metrics: dict[str, float] = {"trace.root_s": root_ns / 1e9}
        for name in self.names:
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9
            metrics[f"{name}.calls"] = calls[name]
        counts = self.op_counts[op]
        metrics.update(counts)
        metrics["codes.syndromes_distinct"] = len(counts.syndromes)
        return metrics

    def write(self, path) -> int:
        """Write every span as tab-separated text (gzip); returns the count."""
        spans = self.spans
        count = len(spans) // FIELDS
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(count):
                b = i * FIELDS
                out.write(f"{i}\t{self.names[spans[b]]}\t{spans[b + START]}\t"
                          f"{spans[b + END]}\t{spans[b + PARENT]}\t{spans[b + OP]}\n")
        return count
