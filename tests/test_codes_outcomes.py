"""corrects_error_set and build_syndrome_table pinned on one fixed case set.

The cases are the built-in codes interleaved to degrees 1-4 and 40 scrambled
codes, every burst kind: each length's burst set whole while it is small,
then a sample with duplicates, the identity and random Paulis mixed in, and
for the scrambled codes random Paulis with products that keep or change
their class.  Each case's outcomes are rendered as text (the verdict and
witness pair; the table's items in order, or the collision message, for the
errors in order and reversed), and each group's lines hash to its pin in
codes_outcomes.json, so a change in which witness is chosen, in the table's
keys or order, or in a message fails here.

Run as a script to rewrite the pins from the program at hand:

    PYTHONPATH=src python tests/test_codes_outcomes.py
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

from qinterleave import (
    BURST_KINDS,
    PauliString,
    SyndromeCollisionError,
    build_syndrome_table,
    corrects_error_set,
    enumerate_bursts,
    five_qubit_code,
    interleaved_code,
    phase3_code,
)
from qinterleave.pauli import burst_count
from oracles import pauli_product
from test_codes import random_gates, scrambled_code

PINS = Path(__file__).with_name("codes_outcomes.json")
# Burst sets up to this size are taken whole; the next length is sampled.
WHOLE = 600


def burst_sets(code, rng):
    """Per kind, every length's burst set while it holds at most WHOLE
    bursts, then half the last whole set drawn with replacement, the
    identity and four random Paulis added, shuffled."""
    n = code.n
    for kind in BURST_KINDS:
        bursts = []
        for l in range(1, n + 1):
            if burst_count(n, l, kind) > WHOLE:
                break
            bursts = enumerate_bursts(n, l, kind)
            yield bursts
        sample = rng.choices(bursts, k=len(bursts) // 2) + [PauliString.identity(n)]
        sample += [PauliString(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)]
        rng.shuffle(sample)
        yield sample


def random_set(code, rng, change_class):
    """Eight random Paulis, three of them again times a generator (same
    class), and with change_class one of them times a logical."""
    n = code.n
    errors = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(8)]
    if code.generators:
        errors += [pauli_product(e, rng.choice(code.generators)) for e in errors[:3]]
    logicals = (*code.logical_xs, *code.logical_zs)
    if change_class and logicals:
        errors.append(pauli_product(rng.choice(errors), rng.choice(logicals)))
    rng.shuffle(errors)
    return errors


def cases(group):
    """The group's (code, errors) cases, in a fixed order."""
    rng = random.Random(group)
    if group == "interleaved":
        for base in (phase3_code(), five_qubit_code()):
            for m in (1, 2, 3, 4):
                code = interleaved_code(base, m)
                for errors in burst_sets(code, rng):
                    yield code, errors
        return
    for _ in range(40):
        n = rng.randint(1, 70)
        code = scrambled_code(n, rng.randint(0, min(n, 5)), random_gates(n, 2 * n, rng))
        for errors in burst_sets(code, rng):
            yield code, errors
        for change_class in (False, True):
            yield code, random_set(code, rng, change_class)


def table_line(code, errors):
    try:
        table = build_syndrome_table(code, errors)
    except SyndromeCollisionError as exc:
        return f"collision {exc}"
    return "table " + " ".join(f"{''.join(map(str, syn))}:{p}" for syn, p in table.items())


def outcome_lines(code, errors):
    """The verdict with its witness, and the table of the errors in order and
    reversed."""
    result = corrects_error_set(code, errors)
    verdict = "pass" if result.ok else "fail {} {}".format(*result.witness)
    return [verdict, table_line(code, errors), table_line(code, errors[::-1])]


def group_pin(group):
    lines = [line for code, errors in cases(group) for line in outcome_lines(code, errors)]
    return {"outcomes": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "kinds": sorted({line.split(" ", 1)[0] for line in lines})}


GROUPS = ("interleaved", "scrambled")


@pytest.mark.parametrize("group", GROUPS)
def test_outcomes_match_pin(group):
    pins = json.loads(PINS.read_text())
    got = group_pin(group)
    # passing and failing sets, tables and collisions are all reached
    assert got["kinds"] == ["collision", "fail", "pass", "table"]
    assert got == pins[group]


if __name__ == "__main__":
    PINS.write_text(json.dumps({group: group_pin(group) for group in GROUPS}, indent=1) + "\n")
