"""The benchmark's workloads and the check applied to every op's output.

Each workload is one ``qinterleave`` CLI request, sent to
``qinterleave.cli.main`` once per op.  The workload seed never reaches the
program directly: only the generated argv does.  Expected outputs are pinned
in ``expected/<workload>.json``, taken from the unmodified program; an op
passes when its exit code, verdict and every pinned report field match.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Fidelity is a float sum, so its last bits may legitimately change; it is
# checked against the CLI's own pass threshold instead of being pinned.
FIDELITY_FLOOR = 1.0 - 1e-10

# The report fields an op is compared on; `elapsed_seconds` is a timing and
# any field added later (such as stage statistics) is not pinned.
REPORT_KEYS = ("command", "parameters", "items", "verdict")


def reference_kernel(items: int, passes: int) -> float:
    """Seconds taken by a fixed piece of work that calls nothing in
    qinterleave.  Its interpreter-bound part makes `items` small tuples and
    strings, buckets them in a dict and sorts the buckets, as pauli
    enumeration, syndromes, export and rendering do.  Its array part makes
    `passes` gather, phase and inner-product passes over an 18-qubit (4 MiB)
    complex vector, as StateVector does."""
    start = time.perf_counter()
    made = [(i, (i * 2654435761) & 0xFFFFF, "X" * (i & 15) + str(i)) for i in range(items)]
    buckets: dict[int, list] = {}
    for i, key, label in made:
        buckets.setdefault(key & 0x3FFF, []).append((label, i))
    sorted(buckets.items())
    del made, buckets
    if passes:
        import numpy as np

        vector = np.full(1 << 18, 0.5 + 0.5j)
        index = np.arange(1 << 18) ^ 5
        for _ in range(passes):
            moved = vector[index]
            moved *= 1j
            np.vdot(moved, vector)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # Bursts verified or emitted by one op; 0 for a workload with no bursts.
    bursts_per_op: int
    # Size of the reference kernel timed between warm ops, a few percent of
    # an op, and made of the kind of work that dominates the op: array
    # passes only where the op is mostly numpy.  Load from other tenants
    # slows interpreter-bound code more than array passes.
    reference_items: int
    reference_passes: int
    # Append `--seed <n>` drawn from the workload seed to every op.
    seeded: bool = False

    def reference_s(self) -> float:
        return reference_kernel(self.reference_items, self.reference_passes)

    def op_argvs(self, seed: int, stream: int) -> Iterator[list[str]]:
        """Endless argv sequence for one process; `stream` separates the
        sequences of the processes started by one run."""
        rng = random.Random(f"{self.name}/{seed}/{stream}")
        while True:
            argv = list(self.argv)
            if self.seeded:
                argv += ["--seed", str(rng.randrange(2**31))]
            yield argv

    def expected(self) -> dict:
        return json.loads((EXPECTED_DIR / f"{self.name}.json").read_text())


WORKLOADS = {w.name: w for w in (
    # The paper's [[25,5]] boundary: 62,463 colocated bursts of length <= 6,
    # which the interleaved five-qubit code fails with a fixed witness pair.
    # Busy layers: pauli enumeration, codes syndromes and bucketing.
    Workload("stabilizer-sweep",
             ("verify", "--code", "five", "--degree", "5", "--kind", "colocated",
              "--burst", "6", "--method", "stabilizer", "--output", "json"),
             bursts_per_op=62463, reference_items=40000, reference_passes=0),
    # 67 phase bursts decoded on an 18-qubit register whose 4 MiB vector
    # exceeds the per-core L2.  Busy layer: statevector.  The seed changes
    # the logical state but not the work.
    Workload("statevector-sweep",
             ("verify", "--code", "phase3", "--degree", "6", "--kind", "phase",
              "--burst", "3", "--method", "statevector", "--output", "json"),
             bursts_per_op=67, reference_items=80000,
             reference_passes=40, seeded=True),
    # The same enumeration as stabilizer-sweep at length 5, with every burst
    # rendered as a label and weight: 16,383 items, 1.6 MB of JSON.  Busy
    # layers: pauli object materialization and cli rendering.
    Workload("enumerate-render",
             ("enumerate", "25", "--burst", "5", "--kind", "colocated",
              "--output", "json"),
             bursts_per_op=16383, reference_items=12000, reference_passes=0),
    # A 4,096-qubit interleaver: 2,016 SWAPs exported as 6,048 QASM CNOTs.
    # Busy layer: interleaver.  Short ops give the tail many samples.
    Workload("synth-circuit",
             ("synth", "64", "64", "--format", "qasm", "--report", "json"),
             bursts_per_op=0, reference_items=4000, reference_passes=0),
)}


def canonical_sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_difference(expected, actual, path: str = "report") -> str | None:
    """Path and values of the first pinned field that differs, else None.
    Keys present only in `actual` are ignored."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object, got {actual!r:.80}"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = _first_difference(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            size = len(actual) if isinstance(actual, list) else type(actual).__name__
            return f"{path}: expected {len(expected)} entries, got {size}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path}: expected {expected!r:.80}, got {actual!r:.80}"
    return None


def check_output(expected: dict, exit_code: int, stdout: str) -> list[str]:
    """Problems found in one op's output; an empty list means the op passed."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    text = stdout
    if "circuit_sha256" in expected:
        # synth writes the circuit first, then the JSON report.
        cut = stdout.find("\n{\n") + 1
        if cut == 0:
            return problems + ["no JSON report after the circuit"]
        circuit, text = stdout[:cut], stdout[cut:]
        if hashlib.sha256(circuit.encode("utf-8")).hexdigest() != expected["circuit_sha256"]:
            problems.append("circuit text differs from the pinned circuit")
    try:
        report = json.loads(text)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or report.get("verdict") != expected["verdict"]:
        verdict = report.get("verdict") if isinstance(report, dict) else None
        return problems + [f"verdict {verdict!r}, expected {expected['verdict']!r}"]
    pinned = {key: report.get(key) for key in REPORT_KEYS}
    for i, item in enumerate(pinned["items"] or []):
        if isinstance(item, dict) and "fidelity" in item:
            fidelity = item.pop("fidelity")
            if not (isinstance(fidelity, float) and math.isfinite(fidelity)
                    and fidelity >= FIDELITY_FLOOR):
                problems.append(f"report.items[{i}].fidelity {fidelity!r} "
                                f"below {FIDELITY_FLOOR!r}")
    if "report" in expected:
        found = _first_difference(expected["report"], pinned)
        if found:
            problems.append(found)
    if "report_sha256" in expected:
        if canonical_sha256(pinned) != expected["report_sha256"]:
            items = pinned["items"] if isinstance(pinned["items"], list) else []
            problems.append(f"report differs from the pinned digest "
                            f"({len(items)} items, expected {expected['item_count']})")
    return problems
