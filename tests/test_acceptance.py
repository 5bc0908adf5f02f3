"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import time

import numpy as np

from qinterleave import (
    corrects_error_set,
    enumerate_bursts,
    five_qubit_code,
    interleave_permutation,
    interleaved_code,
    phase3_code,
    synthesize_swap_network,
)
from qinterleave.cli import run_demo, run_verify
from oracles import (
    apply_circuit,
    burst_span,
    circuit_label_action,
    deinterleave_blocks,
    permutation_label_action,
    random_state,
    table_rows,
)

FID_TOL = 1e-10


def record(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_gate_count_formula():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        count = synthesize_swap_network(interleave_permutation(n, n)).cnot_count()
        ok = ok and count == 3 * n * (n - 1) // 2
        if n == 5:
            ok = ok and count == 30
    record(1, "gate-count formula 3n(n-1)/2 for n=m in 2..8",
           ok, time.perf_counter() - start, 1.0)


def test_criterion_2_worked_example_100_random_triples():
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        report = run_demo(seed=seed)
        items = table_rows(report.items)
        positions = [item["corrected_positions_1based"] for item in items]
        ok = ok and positions == [[1, 4, 7], [3, 6, 8]]
        ok = ok and all(item["fidelity"] >= 1.0 - FID_TOL for item in items)
        ok = ok and report.verdict == "pass"
    record(2, "worked example residuals {1,4,7}/{3,6,8}, fidelity 1",
           ok, time.perf_counter() - start, 5.0)


def test_criterion_3_theorem2_statevector_scale():
    start = time.perf_counter()
    at_3 = run_verify("phase3", 3, burst=3, kind="phase", method="statevector")
    at_4 = run_verify("phase3", 3, burst=4, kind="phase", method="statevector")
    ok = (at_3.verdict == "pass"
          and len(at_3.items) == 31
          and at_4.verdict == "fail"
          and sum(1 for item in table_rows(at_4.items) if not item["passed"]) >= 1)
    record(3, "phase3 m=3 corrects all 31 length-3 phase bursts, fails at 4",
           ok, time.perf_counter() - start, 10.0)


def test_criterion_4_theorem2_stabilizer_scale():
    start = time.perf_counter()
    code = interleaved_code(five_qubit_code(), 5)
    ok = (code.n, code.k) == (25, 5)
    ok = ok and corrects_error_set(
        code, enumerate_bursts(25, 5, "colocated")).ok
    ok = ok and not corrects_error_set(
        code, enumerate_bursts(25, 6, "colocated")).ok
    record(4, "[[25,5]] corrects colocated bursts to length 5, fails at 6",
           ok, time.perf_counter() - start, 300.0)


def test_criterion_5_burst_spreading_lemma():
    # All-ones windows dominate every sub-pattern because burst length is
    # monotone under support inclusion, so sweeping every window position and
    # exact length is exhaustive over all bursts of length <= b*m.
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            total = n * m
            for b in range(1, n + 1):
                for length in range(1, b * m + 1):
                    window = (1,) * length
                    for s in range(total - length + 1):
                        bits = (0,) * s + window + (0,) * (total - s - length)
                        blocks = deinterleave_blocks(bits, n, m)
                        if any(burst_span(blk) > b
                               for blk in blocks):
                            ok = False
    record(5, "burst-spreading lemma for all n,m<=8, b<=n",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_6_circuit_permutation_equivalence():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(42)
    for n in range(1, 13):
        for m in range(1, 13):
            total = n * m
            if total > 12:
                continue
            perm = interleave_permutation(n, m)
            circuit = synthesize_swap_network(perm)
            ok = ok and np.array_equal(circuit_label_action(circuit),
                                       permutation_label_action(perm))
            if total <= 10:
                # bind the label semantics to the dense simulator as well
                state = random_state(total, rng)
                ok = ok and np.allclose(apply_circuit(state, circuit).amps,
                                        state.permute_qubits(perm).amps)
    record(6, "SWAP network equals permutation on every basis state, nm<=12",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_7_method_agreement():
    start = time.perf_counter()
    ok = True
    for m in (1, 2, 3):
        for l in (1, 2, 3, 4):
            sv = run_verify("phase3", m, burst=l, kind="phase",
                            method="statevector")
            st = run_verify("phase3", m, burst=l, kind="phase",
                            method="stabilizer")
            ok = ok and sv.verdict == st.verdict
            expected = "pass" if min(l, 3 * m) <= m else "fail"
            ok = ok and sv.verdict == expected
    record(7, "statevector and stabilizer verdicts agree (phase3, m<=3, l<=4)",
           ok, time.perf_counter() - start, 60.0)
