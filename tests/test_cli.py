"""CLI tests: subcommands, exit codes, report formats, and the JSON schema."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qinterleave.cli
import qinterleave.codes
import qinterleave.grid
import qinterleave.pauli
import qinterleave.report
from qinterleave import (
    BURST_KINDS,
    IndeterminateEigenvalueError,
    PauliString,
    SyndromeCollisionError,
    build_syndrome_table,
    burst_masks,
    enumerate_bursts,
    logical_encoder,
)
from qinterleave.interleaver import SYNTH_BYTES_PER_QUBIT
from qinterleave.pauli import (BURST_BYTES_BUDGET, burst_count, mask_rows, row_length_weight,
                               row_masks)
from qinterleave.cli import (
    CODES,
    DEFAULT_COEFFS,
    STABILIZER_BYTES_PER_LETTER,
    ItemTable,
    Report,
    _coefficients,
    _parser,
    _statevector_table,
    main,
    run_demo,
    run_enumerate,
    run_synth,
    run_verify,
)
from qinterleave.grid import PAD
from qinterleave.report import report_schema
from oracles import (
    Gate,
    burst_labels,
    circuit_gates,
    circuit_label_action,
    dense_statevector_items,
    enumerate_items,
    hex_burst_labels,
    is_quantum_burst,
    letter_grid,
    parse_plain,
    per_burst_statevector_items,
    permutation_label_action,
    permute_pauli,
    qasm_listing,
    random_pairs_reference,
    render_dict,
    report_dict,
    split_pauli,
    swap_network_gates,
    table_rows,
    text_row,
)
from qinterleave import Permutation, interleave_permutation, synthesize_swap_network


def block_table(code, kind, length):
    """The block decoder's table as run_verify builds it for statevector_items."""
    return build_syndrome_table(code, enumerate_bursts(code.n, length, kind))


def statevector_items(code, table, pairs, errors):
    """_statevector_table for the blocks the coefficient pairs encode and
    (label, x mask, z mask) triples of errors on the interleaved register,
    labels of one length that end in the error's letters; the masks are not
    read."""
    encoder = logical_encoder(code)
    states = np.stack([encoder(c0, c1).amps for c0, c1 in pairs])
    labels = [row[0] for row in errors]
    text = np.frombuffer("".join(labels).encode("ascii"), np.uint8)
    return _statevector_table(code, table, states,
                              text.reshape(len(labels), -1 if labels else code.n * len(pairs)))


def labelled(passed, **columns):
    """An ItemTable of one row per passed flag, labelled A, B, ..., with the
    given columns."""
    labels = np.frombuffer(bytes(range(65, 65 + len(passed))), np.uint8)
    return ItemTable(label=labels.reshape(-1, 1), passed=np.array(passed, bool), **columns)


def assert_renders_as_dicts(report):
    """A report renders as its dict (oracles.report_dict) does, in JSON and
    in text, and its JSON validates against the schema with the rows of its
    table as its items."""
    want = report_dict(report)
    for fmt in ("json", "text"):
        assert report.render(fmt) == render_dict(want, fmt)
    rendered = json.loads(report.render("json"))
    jsonschema.validate(rendered, report_schema())
    assert rendered["items"] == want["items"]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDemoCommand:
    def test_default_run(self, capsys):
        code, out = run_main(capsys, "demo", "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["parameters"]["bursts"] == ["ZZZIIIIII", "IIIIIZZZI"]
        assert len(report["parameters"]["block_amplitudes"]) == 3
        positions = [item["corrected_positions_1based"] for item in report["items"]]
        assert positions == [[1, 4, 7], [3, 6, 8]]
        for item in report["items"]:
            assert item["fidelity"] >= 1.0 - 1e-10

    def test_custom_bursts(self, capsys):
        code, out = run_main(capsys, "demo", "--bursts", "ZZZIIIIII,IIIIIZZZI",
                             "--output", "json")
        assert code == 0
        report = json.loads(out)
        positions = [item["corrected_positions_1based"] for item in report["items"]]
        assert positions == [[1, 4, 7], [3, 6, 8]]

    def test_custom_single_burst(self, capsys):
        code, out = run_main(capsys, "demo", "--bursts", "IIIIZIIII",
                             "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["items"][0]["corrected_positions_1based"] == [5]

    def test_uncorrectable_burst_fails_honestly(self, capsys):
        # a bit error is invisible to the phase-code decoder, so the burst
        # must be reported as failed
        code, out = run_main(capsys, "demo", "--bursts", "XIIIIIIII",
                             "--output", "json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["items"][0]["fidelity"] < 1.0 - 1e-10

    def test_bad_burst_length_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--bursts", "ZZZ"])
        assert exc.value.code == 2

    def test_duplicate_bursts_usage_error(self, capsys):
        # letters are read case-blind, so these are the same Pauli twice
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--bursts", "ZZZIIIIII,zzziiiiii"])
        assert exc.value.code == 2
        assert "distinct" in capsys.readouterr().err

    def test_empty_bursts_rejected(self):
        with pytest.raises(ValueError):
            run_demo(bursts=[])
        # an empty argument is an empty burst, never the default bursts
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--bursts", ""])
        assert exc.value.code == 2

    def test_custom_burst_labels(self, capsys):
        code, out = run_main(capsys, "demo", "--bursts", "IIIIZIIII,xxiiiiiii",
                             "--output", "json")
        assert code == 1
        report = json.loads(out)
        assert [item["label"] for item in report["items"]] == [
            "e_IIIIZIIII", "e_XXIIIIIII"]
        assert report["parameters"]["bursts"] == ["IIIIZIIII", "XXIIIIIII"]

    def test_basis_coefficients(self, capsys):
        code, out = run_main(capsys, "demo", "--coeffs", "1,0,1,0,1,0",
                             "--output", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_seeded_run_passes(self, capsys):
        code, out = run_main(capsys, "demo", "--seed", "7", "--output", "json")
        assert code == 0

    def test_bad_coeffs_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--coeffs", "1,0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--coeffs", "1,1,1,0,1,0"])
        assert exc.value.code == 2
        # NaN is not normalized: a usage error, never a failed verification
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--coeffs", "nan,0,1,0,1,0"])
        assert exc.value.code == 2
        # an empty argument is not the default coefficients
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--coeffs", ""])
        assert exc.value.code == 2
        assert "6 comma-separated reals" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["demo", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["demo", "--coeffs", "a,b,c,d,e,f"],
         "--coeffs: could not convert string to float: 'a'"),
        (["demo", "--coeffs", "1,0,0.6,0.8,0,1x"],
         "--coeffs: could not convert string to float: '1x'"),
    ], ids=["seed", "coeffs-first-field", "coeffs-last-field"])
    def test_usage_error_names_its_flag(self, monkeypatch, capsys, argv, message):
        # one line naming the flag, not the message of the library below it,
        # and no block encoded first
        def no_work(*args):
            raise AssertionError("work done for a refused request")

        monkeypatch.setattr(qinterleave.cli, "logical_encoder", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qinterleave: error: {message}\n"

    def test_overflowing_coeffs_usage_error(self):
        # |1e200|^2 overflows a float: still a usage error, with no traceback
        src = os.path.dirname(os.path.dirname(qinterleave.cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "qinterleave.cli", "demo", "--coeffs",
                               "1e200,0,1,0,1,0"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("qinterleave: error: logical coefficients must satisfy "
                               "|c0|^2 + |c1|^2 = 1\n")

    def test_coeffs_with_seed_usage_error(self, capsys):
        # the seed only draws coefficients, so with --coeffs it would be dropped
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--coeffs", "1,0,1,0,1,0", "--seed", "7"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qinterleave: error: demo takes --coeffs or --seed, not both\n")
        for seed in (0, 7):
            with pytest.raises(ValueError, match="--coeffs or --seed, not both"):
                run_demo(coeffs=[(1, 0)] * 3, seed=seed)


class TestVerifyCommand:
    def test_statevector_pass(self, capsys):
        code, out = run_main(capsys, "verify", "--code", "phase3", "--degree", "3",
                             "--burst", "3", "--kind", "phase",
                             "--method", "statevector", "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["parameters"]["burst_count"] == 31
        assert len(report["items"]) == 31

    def test_statevector_fail_has_witness_burst(self, capsys):
        code, out = run_main(capsys, "verify", "--degree", "3", "--burst", "4",
                             "--method", "statevector", "--output", "json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert any(not item["passed"] for item in report["items"])

    def test_stabilizer_five(self, capsys):
        code, out = run_main(capsys, "verify", "--code", "five", "--degree", "2",
                             "--burst", "2", "--kind", "colocated",
                             "--method", "stabilizer", "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["interleaved_code"] == "[[10,2]]"

    def test_stabilizer_fail_witness(self, capsys):
        code, out = run_main(capsys, "verify", "--code", "five", "--degree", "2",
                             "--burst", "3", "--kind", "colocated",
                             "--method", "stabilizer", "--output", "json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["items"][0]["witness"] == ["IIIIIIIXIY", "IIIIIYIYII"]

    @pytest.mark.parametrize("kind,burst,exit_code", [
        ("bit", 6, 0), ("phase", 6, 0), ("colocated", 6, 1), ("independent", 3, 1)])
    def test_stabilizer_builds_no_rows(self, monkeypatch, capsys, kind, burst, exit_code):
        # the [[25,5]] boundary sweep folds its words down the window tree:
        # no set of mask rows is built, and the failing syndrome's few members
        # are decoded by column
        def no_rows(*args):
            raise AssertionError("mask rows built for the stabilizer method")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "qinterleave" and hasattr(module, "burst_masks"):
                monkeypatch.setattr(module, "burst_masks", no_rows)
        code, out = run_main(capsys, "verify", "--code", "five", "--degree", "5",
                             "--burst", str(burst), "--kind", kind,
                             "--method", "stabilizer", "--output", "json")
        report = json.loads(out)
        assert (code, report["verdict"]) == (exit_code, ("pass", "fail")[exit_code])
        assert report["parameters"]["burst_count"] == burst_count(25, burst, kind)
        if kind == "colocated":
            assert report["items"][0]["witness"] == [
                "IIIIIIIIIIIIIIIIIIIXIIIIY", "IIIIIIIIIIIIIIYIIIIYIIIII"]

    @pytest.mark.parametrize("kind,burst,exit_code,count,witness", [
        ("independent", 1, 1, 4355,
         ["IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIZIIIIIIIIIIIIIIIIIIIIIIIIIX",
          "IIIIIIIIIIIIXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"]),
        ("colocated", 2, 0, 771, None),
    ])
    def test_stabilizer_two_words(self, capsys, kind, burst, exit_code, count,
                                  witness):
        # 65 qubits: 52 generator and 26 class bits fold into two words
        code, out = run_main(capsys, "verify", "--code", "five", "--degree", "13",
                             "--kind", kind, "--burst", str(burst),
                             "--output", "json")
        assert code == exit_code
        report = json.loads(out)
        assert report["parameters"]["burst_count"] == count
        assert report["items"][0].get("witness") == witness

    def test_burst_clamped(self, capsys):
        code, out = run_main(capsys, "verify", "--degree", "1", "--burst", "4",
                             "--method", "statevector", "--output", "json")
        report = json.loads(out)
        assert report["parameters"]["burst_requested"] == 4
        assert report["parameters"]["burst_effective"] == 3

    def test_default_burst_is_ability(self, capsys):
        code, out = run_main(capsys, "verify", "--degree", "2", "--output", "json")
        report = json.loads(out)
        assert report["parameters"]["burst_effective"] == 2
        assert code == 0

    def test_unknown_code_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--code", "nosuch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["stabilizer", "statevector"])
    @pytest.mark.parametrize("burst", ["0", "-3"])
    def test_burst_below_one_usage_error(self, monkeypatch, capsys, method, burst):
        def no_enumeration(*args):
            raise AssertionError("bursts enumerated before --burst was checked")

        monkeypatch.setattr(qinterleave.cli, "enumerate_bursts", no_enumeration)
        monkeypatch.setattr(qinterleave.cli, "burst_masks", no_enumeration)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--degree", "2", "--burst", burst, "--method", method])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"qinterleave: error: --burst must be >= 1, got {burst}\n")

    @pytest.mark.parametrize("command", [
        ["verify", "--code", "five", "--degree", "13", "--kind", "colocated",
         "--burst", "14"],
        ["enumerate", "65", "--burst", "14", "--kind", "colocated"],
    ])
    def test_burst_budget_refusal(self, monkeypatch, capsys, command):
        # refused by the predicted count, before any row or code is built
        def no_build(*args):
            raise AssertionError("built before the burst budget was checked")

        monkeypatch.setattr(qinterleave.cli, "interleaved_code", no_build)
        monkeypatch.setattr(qinterleave.pauli, "_window_tree", no_build)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "qinterleave: error: 10,536,091,647 colocated bursts of length <= 14 "
            "on 65 qubits exceed the budget of ")

    def test_burst_budget_refusal_before_tree(self, monkeypatch, capsys):
        # the stabilizer method refuses by the same count and message before
        # its interleaved code or any burst-window word is built
        def no_build(*args):
            raise AssertionError("built before the burst budget was checked")

        monkeypatch.setattr(qinterleave.cli, "interleaved_code", no_build)
        monkeypatch.setattr(qinterleave.pauli, "_window_tree", no_build)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--code", "five", "--degree", "13", "--kind", "colocated",
                  "--burst", "14", "--method", "stabilizer"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "qinterleave: error: 10,536,091,647 colocated bursts of length <= 14 "
            "on 65 qubits exceed the budget of 3,745,611 bursts\n")

    @pytest.mark.parametrize("degree, refusal", [
        # the burst budget refuses this one first, at 600 + 4n bytes a burst
        (8000, "40,000 phase bursts of length <= 1 on 40000 qubits exceed the budget of "),
        (5000, "the interleaved code's 750,000,000 letters exceed the stabilizer budget of "
               f"{BURST_BYTES_BUDGET // STABILIZER_BYTES_PER_LETTER:,} letters\n"),
        (4231, "the interleaved code's 537,040,830 letters exceed the stabilizer budget of "),
        (4230, None),
        (4000, None),
    ])
    def test_stabilizer_letter_budget(self, monkeypatch, capsys, degree, refusal):
        # The interleaved code's text, (n+k)m operators of nm letters, is refused past
        # the budget before the code is built; a run within it goes on to build the code.
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        monkeypatch.setattr(qinterleave.cli, "interleaved_code", build)
        argv = ["verify", "--code", "five", "--degree", str(degree), "--burst", "1"]
        if refusal is None:
            with pytest.raises(Built):
                main(argv)
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"qinterleave: error: {refusal}")

    def test_negative_seed_usage_error(self, monkeypatch, capsys):
        # refused with the flag's name before any code or burst is built, not
        # with numpy's message for a negative seed
        def no_work(*args):
            raise AssertionError("work done for a refused request")

        for name in ("burst_masks", "build_syndrome_table", "interleaved_code"):
            monkeypatch.setattr(qinterleave.cli, name, no_work)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--method", "statevector", "--seed", "-2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qinterleave: error: --seed must be >= 0, got -2\n"

    def test_seed_with_stabilizer_usage_error(self, monkeypatch, capsys):
        # the seed only draws the statevector blocks' logical states, so the
        # stabilizer method would drop it; refused before any burst is made
        def no_bursts(*args):
            raise AssertionError("bursts enumerated for a refused request")

        monkeypatch.setattr(qinterleave.cli, "burst_masks", no_bursts)
        for seed in ("0", "7"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--method", "stabilizer", "--seed", seed])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "qinterleave: error: verify takes --seed with --method statevector only: "
                "--method stabilizer draws no logical state\n")
        with pytest.raises(ValueError, match="--seed .* --method stabilizer"):
            run_verify("phase3", 2, method="stabilizer", seed=0)

    def test_statevector_size_guard(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--code", "five", "--degree", "6",
                  "--method", "statevector"])
        assert exc.value.code == 2

    def test_statevector_size_guard_before_enumeration(self, monkeypatch, capsys):
        # 30 qubits at --burst 12 would enumerate tens of millions of bursts
        def no_enumeration(*args):
            raise AssertionError("bursts enumerated before the size guard")

        monkeypatch.setattr(qinterleave.cli, "enumerate_bursts", no_enumeration)
        monkeypatch.setattr(qinterleave.cli, "burst_masks", no_enumeration)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--code", "five", "--degree", "6", "--burst", "12",
                  "--kind", "colocated", "--method", "statevector"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "qinterleave: error: statevector method needs n*m <= 26, got 30\n")

    @pytest.mark.parametrize("method,extra", [
        ("stabilizer", ["interleaved_code_block"]),
        ("statevector", []),
    ])
    def test_parameter_order(self, capsys, method, extra):
        _, out = run_main(capsys, "verify", "--degree", "2", "--method", method,
                          "--output", "json")
        assert list(json.loads(out)["parameters"]) == [
            "code", "degree", "burst_requested", "burst_effective", "kind",
            "method", "interleaved_code", "burst_count", "code_block", *extra]

    def test_methods_agree_on_shared_configs(self):
        # spot check here; the full sweep lives in the acceptance suite
        for m, l in ((1, 2), (2, 2), (2, 3)):
            sv = run_verify("phase3", m, burst=l, kind="phase", method="statevector")
            st = run_verify("phase3", m, burst=l, kind="phase", method="stabilizer")
            assert sv.verdict == st.verdict

    @pytest.mark.parametrize("degree,burst,kind,exit_code", [
        (1, 2, "bit", 0), (2, 3, "bit", 0), (3, 4, "bit", 0), (2, 3, "phase", 0),
        (1, 3, "bit", 1), (3, 7, "bit", 1), (2, 5, "phase", 1),
        (1, 2, "colocated", 1), (3, 4, "colocated", 1),
    ])
    def test_methods_agree_above_declared_ability(self, capsys, degree, burst,
                                                  kind, exit_code):
        # five declares burst ability 1 but measures 2 for bit and phase and 1
        # for colocated; the block decoder is built for the block restriction
        # of the swept set, so both methods decide the measured ability
        argv = ["verify", "--code", "five", "--degree", str(degree),
                "--burst", str(burst), "--kind", kind]
        assert run_main(capsys, *argv, "--method", "stabilizer")[0] == exit_code
        assert run_main(capsys, *argv, "--method", "statevector")[0] == exit_code

    def test_statevector_five_single_errors(self):
        report = run_verify("five", 1, burst=1, kind="colocated",
                            method="statevector")
        assert report.verdict == "pass"
        assert len(report.items) == 15

    def test_statevector_uncorrectable_kind_reports_fail(self):
        # the five-qubit code cannot correct independent-kind bursts even at
        # l = 1, so the block decoder cannot be built
        report = run_verify("five", 2, burst=1, kind="independent",
                            method="statevector")
        assert report.verdict == "fail"
        assert "reason" in report.items.columns

    def test_no_block_decoder_labels_no_burst(self, monkeypatch):
        # 237,567 bursts whose block restriction (length 2) has no decoder:
        # the table is built first, so no burst is labelled, no label is read
        # back as letter codes to deinterleave it, and none is decoded
        def no_labels(*args):
            raise AssertionError("bursts labelled without a block decoder")

        monkeypatch.setattr(qinterleave.cli, "label_letters", no_labels)
        monkeypatch.setattr(qinterleave.cli, "row_labels", no_labels)
        monkeypatch.setattr(qinterleave.cli, "_statevector_table", no_labels)
        report = run_verify("five", 5, burst=7, kind="colocated", method="statevector")
        assert report.parameters["burst_count"] == 237567
        [item] = table_rows(report.items)
        assert item["label"] == "block decoder for colocated bursts of length <= 2"
        assert item["passed"] is False
        assert report.verdict == "fail"

    def test_labels_are_the_one_decoded_form(self, monkeypatch):
        # demo labels its Paulis as text, and a state-vector sweep reads its
        # lanes into labels once: both deinterleave the letters of the labels
        calls = []
        original = qinterleave.cli.row_labels

        def counting(n, xs, zs):
            calls.append((n, xs.shape[1]))
            return original(n, xs, zs)

        monkeypatch.setattr(qinterleave.cli, "row_labels", counting)
        assert run_demo(bursts=["zzziiiiii", "IIIIIIIIY"]).verdict == "fail"
        assert calls == []
        report = run_verify("five", 2, burst=2, kind="colocated", method="statevector")
        assert calls == [(10, report.parameters["burst_count"])]


def counting_encoders(monkeypatch) -> dict:
    """Counts of the encoders the CLI builds (logical_encoder) and of the
    blocks they encode, kept as the commands run."""
    counts = {"built": 0, "encoded": 0}
    original = qinterleave.cli.logical_encoder

    def building(code):
        counts["built"] += 1
        encoder = original(code)

        def encoding(c0, c1):
            counts["encoded"] += 1
            return encoder(c0, c1)

        return encoding

    monkeypatch.setattr(qinterleave.cli, "logical_encoder", building)
    return counts


class TestLogicalStates:
    """demo and verify --method statevector draw their coefficients in one
    step and encode each block once, with one encoder."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), m=st.integers(1, 8))
    def test_one_draw_equals_a_draw_per_pair(self, seed, m):
        assert _coefficients(seed, m) == random_pairs_reference(seed, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_unseeded_coefficients_cycle_the_defaults(self, m):
        assert _coefficients(None, m) == [DEFAULT_COEFFS[i % 3] for i in range(m)]

    @pytest.mark.parametrize("kwargs", [{}, {"seed": 7}, {"coeffs": [(1, 0), (0, 1), (0.6, 0.8)]},
                                        {"bursts": ["XIIIIIIII"]}])
    def test_demo_encodes_each_block_once(self, monkeypatch, kwargs):
        counts = counting_encoders(monkeypatch)
        report = run_demo(**kwargs)
        assert counts == {"built": 1, "encoded": 3}
        assert len(report.parameters["block_amplitudes"]) == 3

    @pytest.mark.parametrize("code_name,degree,seed", [
        ("phase3", 1, None), ("phase3", 4, 2), ("phase3", 6, None), ("five", 2, 9)])
    def test_statevector_sweep_encodes_each_block_once(self, monkeypatch, code_name, degree,
                                                       seed):
        counts = counting_encoders(monkeypatch)
        report = run_verify(code_name, degree, method="statevector", seed=seed)
        assert len(report.items) == report.parameters["burst_count"]
        assert counts == {"built": 1, "encoded": degree}

    def test_colliding_block_table_builds_no_encoder(self, monkeypatch):
        # the block decoder's table collides before any block is encoded
        counts = counting_encoders(monkeypatch)
        report = run_verify("five", 5, burst=7, kind="colocated", method="statevector")
        assert "reason" in report.items.columns
        assert counts == {"built": 0, "encoded": 0}


class TestDenseOracle:
    """The block-by-block state-vector pipeline against the dense register of
    all blocks (oracles.dense_statevector_items), on every configuration
    with n*m <= 12."""

    @pytest.mark.parametrize("code_name,m", [
        ("phase3", 1), ("phase3", 2), ("phase3", 3), ("phase3", 4),
        ("five", 1), ("five", 2)])
    def test_block_pipeline_matches_dense_register(self, code_name, m):
        code = CODES[code_name]()
        # a decoder for the declared ability only, so that sweeps past it
        # reach failing items
        length = code.burst_ability
        outcomes = set()
        for kind in BURST_KINDS:
            for l in sorted({1, m, m + 1}):
                if kind == "independent" and l > 2:
                    continue
                errors = [(str(e), e) for e in enumerate_bursts(code.n * m, l, kind)]
                masks = [(label, e.x, e.z) for label, e in errors]
                for pairs in (_coefficients(None, m), _coefficients(5, m)):
                    try:
                        dense = dense_statevector_items(code, kind, length, pairs,
                                                        errors)
                    except SyndromeCollisionError as exc:
                        with pytest.raises(SyndromeCollisionError) as got:
                            statevector_items(code, block_table(code, kind, length),
                                              pairs, masks)
                        assert str(got.value) == str(exc)
                        continue
                    items = statevector_items(code, block_table(code, kind, length),
                                              pairs, masks)
                    assert len(items) == len(dense)
                    for item, want in zip(table_rows(items), dense):
                        assert abs(item.pop("fidelity") - want.pop("fidelity")) <= 1e-12
                        assert item == want
                        outcomes.add(item["passed"])
        assert outcomes == {True, False}


class TestPerBurstOracle:
    """The state-vector items, each distinct (block, block Pauli) decoded
    once from the burst masks, against the pipeline that decodes every block
    of every burst (oracles.per_burst_statevector_items): equal item lists,
    fidelity floats included."""

    @pytest.mark.parametrize("code_name,m", [("phase3", m) for m in range(1, 7)]
                             + [("five", m) for m in range(1, 5)])
    def test_items_equal_per_burst_oracle(self, code_name, m):
        code = CODES[code_name]()
        length = code.burst_ability
        total = code.n * m
        outcomes = set()
        for kind in BURST_KINDS:
            for l in sorted({1, m, m + 1}):
                rows = burst_masks(total, l, kind)
                labels = burst_labels(letter_grid(total, *rows))
                xs, zs = map(row_masks, rows)
                for pairs in (_coefficients(None, m), _coefficients(5, m)):
                    # generators: the table is built before the first burst,
                    # so a collision costs no Pauli per burst
                    paulis = ((label, PauliString(total, x, z))
                              for label, x, z in zip(labels, xs, zs))
                    try:
                        want = per_burst_statevector_items(code, kind, length,
                                                           pairs, paulis)
                    except SyndromeCollisionError as exc:
                        with pytest.raises(SyndromeCollisionError) as got:
                            statevector_items(code, block_table(code, kind, length),
                                              pairs, zip(labels, xs, zs))
                        assert str(got.value) == str(exc)
                        outcomes.add("collision")
                        continue
                    items = statevector_items(code, block_table(code, kind, length),
                                              pairs, zip(labels, xs, zs))
                    assert table_rows(items) == want
                    outcomes.update(item["passed"] for item in want)
        assert outcomes == {True, False, "collision"}

    def test_each_distinct_block_pauli_decoded_once(self, monkeypatch):
        # phase3 at m = 6: bursts of length 3 and of length 6 both leave at
        # most one Z per block, so both sweeps decode the same blocks
        decoded = []
        original = qinterleave.cli.block_decode

        def counting(code, table, blocks):
            decoded[-1] += len(blocks)
            return original(code, table, blocks)

        monkeypatch.setattr(qinterleave.cli, "block_decode", counting)
        inverse = Permutation(np.argsort(interleave_permutation(3, 6).array))
        for l, count in ((3, 67), (6, 447)):
            decoded.append(0)
            report = run_verify("phase3", 6, burst=l, kind="phase",
                                method="statevector", seed=3)
            assert report.parameters["burst_count"] == count
            assert report.verdict == "pass"
            keys = {(i, part) for e in enumerate_bursts(18, l, "phase")
                    for i, part in enumerate(split_pauli(permute_pauli(e, inverse), 3))}
            assert decoded[-1] == len(keys)
        assert decoded == [24, 24]


class TestStatevectorRendering:
    """The state-vector items, a table of float and int-list columns, render
    byte for byte as their rows do through json.dumps(indent=2) and one text
    line per dict: sweeps, failing items and demo."""

    def test_sweeps_render_as_dicts(self):
        seen = set()
        for code_name, m in ((name, m) for name in sorted(CODES) for m in range(1, 5)):
            code = CODES[code_name]()
            total = code.n * m
            for kind in BURST_KINDS:
                for l in sorted({1, m, m + 1}):
                    rows = burst_masks(total, l, kind)
                    errors = list(zip(burst_labels(letter_grid(total, *rows)),
                                      *map(row_masks, rows)))
                    reports = [run_verify(code_name, m, burst=l, kind=kind,
                                          method="statevector", seed=m)]
                    # a decoder for the declared ability only, so that sweeps
                    # past it reach failing items
                    try:
                        table = block_table(code, kind, code.burst_ability)
                    except SyndromeCollisionError:
                        table = None
                    if table is not None:
                        items = statevector_items(code, table, _coefficients(None, m), errors)
                        reports.append(Report("verify", {"m": m}, items, 0.125))
                    for report in reports:
                        assert_renders_as_dicts(report)
                        for item in table_rows(report.items):
                            if "fidelity" in item:  # not the block decoder's collision row
                                seen.add((item["passed"],
                                          min(len(item["corrected_positions_0based"]), 2),
                                          item["fidelity"] < 0.5))
        # passing items with one and several corrected positions; failing
        # items with none (an unknown block syndrome), one and several, with
        # fidelities below 0.5 and between 0.5 and the threshold
        assert {(True, 1, False), (True, 2, False), (False, 0, True), (False, 1, True),
                (False, 2, True), (False, 2, False)} <= seen

    @pytest.mark.parametrize("argv", [
        [], ["--seed", "7"], ["--coeffs", "1,0,0.6,0.8,0,1"],
        ["--bursts", "ZZZIIIIII,IIIIIZZZI,ZZZZIIIII,XIIIIIIII,YYIIIIIII,IIIIIIIII"],
    ])
    def test_demo_renders_as_dicts(self, capsys, argv):
        code, out = run_main(capsys, "demo", *argv, "--output", "json")
        report = json.loads(out)
        assert code == (1 if "--bursts" in argv else 0)
        assert report["verdict"] == ("fail" if "--bursts" in argv else "pass")
        assert out == render_dict(report, "json")
        code, out = run_main(capsys, "demo", *argv, "--output", "text")
        report["elapsed_seconds"] = float(out.rsplit(" ", 1)[1])
        assert out == render_dict(report, "text")
        if "--bursts" in argv:
            # the identity passes with no corrected position; ZZZZIIIII fails
            by_label = {item["label"]: item for item in report["items"]}
            assert by_label["e_IIIIIIIII"]["passed"] is True
            assert by_label["e_IIIIIIIII"]["corrected_positions_0based"] == []
            assert by_label["e_ZZZZIIIII"]["passed"] is False
        kwargs = {"seed": 7} if "--seed" in argv else {}
        assert_renders_as_dicts(run_demo(**kwargs, bursts=argv[1].split(",")
                                         if "--bursts" in argv else None))


class TestStatevectorMemory:
    """A state-vector sweep takes memory of the order of its bursts' rows and
    decoded blocks: no per-burst int64 index array over the register is built."""

    def test_verify_peak_per_burst(self):
        tracemalloc.start()
        try:
            report = run_verify("five", 5, burst=5, kind="colocated", method="statevector")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.parameters["burst_count"] == 16383
        assert peak < 550 * 16383


class TestMethodProperty:
    """A burst set the stabilizer method rejects is rejected by the
    state-vector method too; a decoder table that cannot be built counts as
    a state-vector failure."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), code_name=st.sampled_from(sorted(CODES)),
           degree=st.integers(1, 4), kind=st.sampled_from(BURST_KINDS),
           seed=st.integers(0, 2**31 - 1))
    def test_stabilizer_fail_implies_statevector_fail(self, data, code_name,
                                                      degree, kind, seed):
        total = CODES[code_name]().n * degree
        l = data.draw(st.integers(1, degree + 2), label="l")
        assume(burst_masks(total, min(l, total), kind)[0].shape[1] <= 20000)
        stabilizer = run_verify(code_name, degree, burst=l, kind=kind)
        statevector = run_verify(code_name, degree, burst=l, kind=kind,
                                 method="statevector", seed=seed)
        assert stabilizer.verdict == "pass" or statevector.verdict == "fail"


class TestSynthCommand:
    def test_5x5(self, capsys):
        code, out = run_main(capsys, "synth", "5", "5")
        assert code == 0
        assert "qubits 25" in out
        assert "cnot count equals 3n(n-1)/2 = 30" in out

    def test_1x1_empty(self, capsys):
        code, out = run_main(capsys, "synth", "1", "1")
        assert code == 0
        assert out.startswith("qubits 1\ncommand:")

    def test_2x3_verified_against_permutation(self, capsys):
        code, out = run_main(capsys, "synth", "2", "3")
        assert code == 0
        circuit_text, _, report_text = out.partition("command")
        circuit = parse_plain(circuit_text)
        assert circuit.cnot_count() <= 15
        perm = interleave_permutation(2, 3)
        assert np.array_equal(circuit_label_action(circuit),
                              permutation_label_action(perm))

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "circuit.txt"
        code, out = run_main(capsys, "synth", "3", "3", "--output", str(target))
        assert code == 0
        circuit = parse_plain(target.read_text())
        assert circuit.width == 9
        assert circuit_gates(circuit) == (Gate.swap(1, 3), Gate.swap(2, 6), Gate.swap(5, 7))
        assert out.startswith("command:")

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "3", "3", "--output", str(tmp_path / "missing" / "x")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("qinterleave: I/O error:")
        assert err.count("\n") == 1

    def test_expand_swaps(self, capsys):
        code, out = run_main(capsys, "synth", "2", "2", "--expand-swaps")
        assert "CNOT 1 2" in out and "SWAP" not in out.split("command")[0]

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (4, 6)])
    def test_swap_count_ignores_the_layout(self, rows, cols):
        # the report counts the circuit's SWAPs whatever the listing's layout,
        # as cnot_count does; expand_swaps alone says how it is laid out
        swaps = synthesize_swap_network(interleave_permutation(rows, cols)).swap_count
        for fmt in ("plain", "qasm"):
            for expand in (False, True):
                parameters = run_synth(rows, cols, fmt, expand_swaps=expand)[1].parameters
                assert parameters["swap_count"] == swaps
                assert parameters["expand_swaps"] is expand

    def test_internal_fault_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken_readout(values):
            raise IndeterminateEigenvalueError("injected readout fault")

        # block_decode reads every block's eigenvalues through eigenvalue_signs
        monkeypatch.setattr(qinterleave.codes, "eigenvalue_signs", broken_readout)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--degree", "2", "--burst", "1",
                  "--method", "statevector"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err == "qinterleave: internal error: injected readout fault\n"

    def test_syndrome_collision_is_an_internal_error(self, monkeypatch, capsys):
        def broken_table(code, errors):
            raise SyndromeCollisionError("injected table fault")

        monkeypatch.setattr(qinterleave.cli, "build_syndrome_table", broken_table)
        with pytest.raises(SystemExit) as exc:
            main(["demo"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err == "qinterleave: internal error: injected table fault\n"

    def test_out_of_memory_is_not_a_verification_failure(self, monkeypatch, capsys):
        def exhausted(perm):
            raise MemoryError

        monkeypatch.setattr(qinterleave.cli, "synthesize_swap_network", exhausted)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "3", "3"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qinterleave: out of memory: allocation failed\n"

    def test_zero_size_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "0", "3"])
        assert exc.value.code == 2

    def test_qasm_of_long_cycles_equals_oracle_listing(self):
        text, _ = run_synth(200, 50, fmt="qasm")
        assert text == qasm_listing(10000, swap_network_gates(interleave_permutation(200, 50)))

    def test_past_budget_is_refused_before_allocating(self, monkeypatch, capsys):
        class Reached(Exception):
            pass

        def allocating(n, m):
            raise Reached

        budget = BURST_BYTES_BUDGET // SYNTH_BYTES_PER_QUBIT
        monkeypatch.setattr(qinterleave.cli, "interleave_permutation", allocating)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["synth", "100000", "100000"])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"qinterleave: error: 10,000,000,000 qubits exceed the synth budget of "
            f"{budget:,} qubits\n")
        # the largest admitted size goes on to build the permutation
        with pytest.raises(Reached):
            main(["synth", str(budget), "1"])
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(budget + 1), "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["synth", "3", "3"], ["enumerate", "3", "--burst", "1"]])
    def test_closed_stdout_is_io_error(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdout", None)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "qinterleave: I/O error: [Errno 9] standard output is closed\n")

    def test_closed_stdout_in_a_fresh_process_is_io_error(self):
        src = os.path.dirname(os.path.dirname(qinterleave.cli.__file__))
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" -m qinterleave.cli enumerate 3 --burst 1 >&-', sys.executable],
            env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 3
        assert done.stderr == "qinterleave: I/O error: [Errno 9] standard output is closed\n"


class TestEnumerateCommand:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stdout_failing_mid_stream_is_io_error(self, monkeypatch, capsys, fmt):
        class FullDisk:
            def __init__(self):
                self.blocks = []

            def write(self, text):
                if self.blocks:
                    raise OSError(28, "No space left on device")
                self.blocks.append(text)

        stdout = FullDisk()
        monkeypatch.setattr(qinterleave.grid, "GRID_BYTES", 64)
        monkeypatch.setattr("sys.stdout", stdout)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "9", "--burst", "3", "--output", fmt])
        assert exc.value.code == 3
        # the head went out before the failing write
        assert stdout.blocks and stdout.blocks[0].startswith("{" if fmt == "json" else "command:")
        assert capsys.readouterr().err == (
            "qinterleave: I/O error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_out_of_memory_mid_stream_is_not_a_verification_failure(
            self, monkeypatch, capsys, fmt):
        made = qinterleave.report.grid_blocks

        def exhausted(*args, **kwargs):
            blocks = made(*args, **kwargs)
            yield next(blocks)
            yield next(blocks)
            raise MemoryError

        monkeypatch.setattr(qinterleave.grid, "GRID_BYTES", 64)
        monkeypatch.setattr(qinterleave.report, "grid_blocks", exhausted)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "9", "--burst", "3", "--output", fmt])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out and "verdict" not in captured.out
        assert captured.err == "qinterleave: out of memory: allocation failed\n"

    def test_counts(self, capsys):
        code, out = run_main(capsys, "enumerate", "9", "--burst", "3",
                             "--kind", "phase", "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["count"] == 31
        assert len(report["items"]) == 31

    def test_text_mode(self, capsys):
        code, out = run_main(capsys, "enumerate", "3", "--burst", "1",
                             "--kind", "colocated")
        assert code == 0
        assert out.count("[pass]") == 9

    def test_usage_errors(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "5", "--burst", "2", "--kind", "odd"])
        assert exc.value.code == 2
        capsys.readouterr()

        def no_enumeration(*args):
            raise AssertionError("bursts enumerated before the arguments were checked")

        monkeypatch.setattr(qinterleave.cli, "enumerate_bursts", no_enumeration)
        monkeypatch.setattr(qinterleave.cli, "burst_masks", no_enumeration)
        for argv, message in [
            (["0", "--burst", "1"], "qubits must be >= 1, got 0"),
            (["-2", "--burst", "1"], "qubits must be >= 1, got -2"),
            (["5", "--burst", "0"], "--burst must be >= 1, got 0"),
            (["5", "--burst", "-1"], "--burst must be >= 1, got -1"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["enumerate", *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"qinterleave: error: {message}\n"


class TestRendering:
    """Reports render exactly as json.dumps(..., indent=2) would, and
    enumerate renders exactly what one PauliString per burst gives."""

    @pytest.mark.parametrize("kind", BURST_KINDS)
    @pytest.mark.parametrize("n", [1, 12, 25, 64, 65, 70])
    def test_enumerate_matches_pauli_oracle(self, capsys, kind, n):
        self.assert_enumerate_matches_oracle(capsys, n, 2 if kind == "independent" else 3,
                                             kind)

    @pytest.mark.parametrize("kind", ["bit", "phase"])
    def test_enumerate_weights_of_two_digits(self, capsys, kind):
        # weights 1..12 give digit cells of one and two digits
        self.assert_enumerate_matches_oracle(capsys, 12, 12, kind)

    @staticmethod
    def assert_enumerate_matches_oracle(capsys, n, burst, kind):
        argv = ["enumerate", str(n), "--burst", str(burst), "--kind", kind]
        code, out = run_main(capsys, *argv, "--output", "json")
        report = json.loads(out)
        oracle = {**report, "items": enumerate_items(n, burst, kind)}
        assert code == 0
        assert out == render_dict(oracle, "json")
        code, out = run_main(capsys, *argv, "--output", "text")
        oracle["elapsed_seconds"] = float(out.rsplit(" ", 1)[1])
        assert code == 0
        assert out == render_dict(oracle, "text")

    def test_passed_is_checked_on_the_masks(self, monkeypatch):
        # burst_masks yields only bursts, so append the lanes of some that are
        # too long: on 70 qubits, one whose ends (bits 69 and 0) lie in
        # different uint64 lanes
        for n, labels in ((5, ["XIIIX", "ZIZII"]), (70, ["X" + "I" * 68 + "X"])):
            long = [PauliString.from_label(label) for label in labels]

            def with_long_bursts(n, l, kind, long=long):
                xs, zs = burst_masks(n, l, kind)
                return (np.concatenate([xs, mask_rows(n, [p.x for p in long])], axis=1),
                        np.concatenate([zs, mask_rows(n, [p.z for p in long])], axis=1))

            monkeypatch.setattr(qinterleave.cli, "burst_masks", with_long_bursts)
            report = run_enumerate(n, 2, "colocated")
            paulis = enumerate_bursts(n, 2, "colocated") + long
            items = table_rows(report.items)
            assert [item["label"] for item in items] == [str(p) for p in paulis]
            assert [item["passed"] for item in items] == [
                is_quantum_burst(p, 2) for p in paulis]
            assert [item["weight"] for item in items] == [
                (p.x | p.z).bit_count() for p in paulis]
            assert [item["passed"] for item in items[-len(long):]] == [False] * len(long)
            assert report.verdict == "fail"

    @pytest.mark.parametrize("n,burst,kind", [(70, 3, "independent"), (130, 2, "colocated")])
    def test_multi_lane_items_equal_pauli_oracle(self, n, burst, kind):
        # masks of two and three uint64 lanes: every item's weight and passed
        # flag against the Pauli and the quantum-burst oracle, and each
        # burst's exact length against the oracle at that length and one less
        report = run_enumerate(n, burst, kind)
        paulis = enumerate_bursts(n, burst, kind)
        assert len(report.items) == len(paulis)
        items = report.items.columns
        text = items["label"].tobytes().decode()
        assert [text[i:i + n] for i in range(0, len(text), n)] == hex_burst_labels(
            n, [p.x for p in paulis], [p.z for p in paulis])
        assert items["weight"].tolist() == [(p.x | p.z).bit_count() for p in paulis]
        assert items["passed"].tolist() == [is_quantum_burst(p, burst) for p in paulis]
        lengths, _ = row_length_weight(*burst_masks(n, burst, kind))
        assert all(is_quantum_burst(p, length) and not is_quantum_burst(p, length - 1)
                   for p, length in zip(paulis, lengths.tolist()))

    @pytest.mark.parametrize("make", [
        lambda: run_verify("phase3", 2, method="stabilizer"),
        lambda: run_verify("five", 2, burst=3, kind="colocated", method="stabilizer"),
        lambda: run_verify("phase3", 2, burst=2, method="statevector"),
        lambda: run_verify("phase3", 3, burst=4, method="statevector"),
        lambda: run_demo(),
        lambda: run_synth(4, 4)[1],
        lambda: run_synth(3, 5, fmt="qasm")[1],
        lambda: run_enumerate(6, 2, "independent"),
        lambda: Report("verify", {}),
        # "items" keys among the parameters, and text only json.dumps escapes
        lambda: Report("x", {"items": None, "nested": {"items": [], "k": "v"},
                             "label": 'a},\n      {"b', "text": "\u00e9\u2028\\", "none": None,
                             "f": 1.5e-300, "inf": float("inf"), "i": -3},
                       labelled([True, False])),
        lambda: Report("x", {}, labelled([False, True])),
    ])
    def test_to_json_equals_indent_encoder(self, make):
        report = make()
        assert report.render("json") == render_dict(report_dict(report), "json")


SAFE_TEXT = [b for b in range(0x20, 0x7F) if b not in b'"\\']
INTS = st.one_of(st.integers(0, 10**12),
                 st.sampled_from([0] + [10**k for k in range(13)]))


def padded_texts(draw, size, width, alphabet=SAFE_TEXT):
    """`size` texts of 0 to `width` bytes of the alphabet, as (size, width)
    uint8 rows padded after their text with PAD, and as str."""
    texts = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=width),
                          min_size=size, max_size=size))
    rows = [bytes(text).ljust(width, bytes([PAD])) for text in texts]
    return (np.frombuffer(b"".join(rows), np.uint8).reshape(size, width),
            [bytes(text).decode() for text in texts])


@st.composite
def item_columns(draw):
    """Named columns of one length: text of width 1-80, each row padded after
    its text or not, ints, bools; a text "label" and a bool "passed" always
    among them, in a random order."""
    size = draw(st.integers(0, 50), label="N")
    names = draw(st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True)
                 .filter(lambda names: not {"label", "passed"} & set(names)))
    columns = {}
    for name in ["label", "passed", *names]:
        kind = {"label": "text", "passed": "bool"}.get(name) or draw(
            st.sampled_from(["text", "int", "bool"]))
        if kind == "text" and draw(st.booleans(), label=f"{name} padded"):
            columns[name] = padded_texts(draw, size, draw(st.integers(1, 80)))[0]
        elif kind == "text":
            width = draw(st.integers(1, 80))
            cells = draw(st.lists(st.lists(st.sampled_from(SAFE_TEXT), min_size=width,
                                           max_size=width), min_size=size, max_size=size))
            columns[name] = np.array(cells, dtype=np.uint8).reshape(size, width)
        elif kind == "int":
            cells = draw(st.lists(INTS, min_size=size, max_size=size))
            columns[name] = np.array(cells, dtype=np.int64)
        else:
            # a column of one value renders as one shared part
            same = draw(st.sampled_from([None, True, False]), label=f"{name} all")
            cells = draw(st.lists(st.booleans() if same is None else st.just(same),
                                  min_size=size, max_size=size))
            columns[name] = np.array(cells, dtype=bool)
    order = draw(st.permutations(list(columns)))
    return {name: columns[name] for name in order}


FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


def padded_lists(value, depth, width):
    """Nested lists `depth` deep above their innermost lists, each innermost
    list padded with -1 to `width` entries."""
    if depth == 0:
        return value + [-1] * (width - len(value))
    return [padded_lists(v, depth - 1, width) for v in value]


@st.composite
def float_and_list_columns(draw):
    """A text "label", a bool "passed", then finite float columns, int-list
    columns (nested lists of fixed shape above a last axis of lists, ragged or
    not, empty ones included) and text-list columns (0-3 padded texts a row,
    with no "'"), 1-8 rows, in a random order; and the row dicts they stand
    for."""
    size = draw(st.integers(1, 8), label="N")
    labels = [chr(65 + i) * 3 for i in range(size)]
    same = draw(st.sampled_from([None, True, False]), label="passed all")
    values = {"label": labels,
              "passed": draw(st.lists(st.booleans() if same is None else st.just(same),
                                      min_size=size, max_size=size))}
    columns = {"label": np.frombuffer("".join(labels).encode(), np.uint8).reshape(size, 3),
               "passed": np.array(values["passed"], bool)}
    names = ["fidelity", "f", "lists", "syn", "pos", "witness", "texts"]
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=7, unique=True)):
        if name in ("fidelity", "f"):
            values[name] = draw(st.lists(FLOATS, min_size=size, max_size=size))
            columns[name] = np.array(values[name], np.float64)
            continue
        if name in ("witness", "texts"):
            k, width = draw(st.integers(0, 3)), draw(st.integers(1, 6))
            col, texts = padded_texts(draw, size * k, width,
                                      [b for b in SAFE_TEXT if b != ord("'")])
            columns[name] = col.reshape(size, k, width)
            values[name] = [texts[i * k:(i + 1) * k] for i in range(size)]
            continue
        shape = draw(st.lists(st.integers(0, 3), max_size=2), label="fixed axes")
        width = draw(st.integers(0, 4), label="list width")
        ragged = draw(st.booleans(), label="ragged")

        def lists(shape):
            if not shape:
                return draw(st.lists(INTS, min_size=0 if ragged else width, max_size=width))
            return [lists(shape[1:]) for _ in range(shape[0])]

        values[name] = [lists(shape) for _ in range(size)]
        columns[name] = np.array([padded_lists(v, len(shape), width) for v in values[name]],
                                 np.int64).reshape(size, *shape, width)
    order = draw(st.permutations(list(columns)))
    rows = [{name: values[name][i] for name in order} for i in range(size)]
    return {name: columns[name] for name in order}, rows


def assert_written_as_rendered(report, grid_bytes):
    """Report.write makes the text render joins, under the given block size
    and with every block one row, so the last block is one row too."""
    for size in (grid_bytes, 1):
        with mock.patch.object(qinterleave.grid, "GRID_BYTES", size):
            for fmt in ("json", "text"):
                stream = io.StringIO()
                report.write(stream, fmt)
                assert stream.getvalue() == report.render(fmt)
        with mock.patch.object(qinterleave.grid, "GRID_BYTES", size):
            assert report.render("json") == render_dict(report_dict(report), "json")


class TestItemTable:
    """A column table of report items renders as json.dumps(indent=2) of the
    dicts its rows stand for (oracles.table_rows), byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(columns=item_columns(), grid_bytes=st.integers(1, 3000))
    def test_to_json_equals_indent_encoder(self, columns, grid_bytes):
        table = ItemTable(**columns)
        rows = [{name: col[i].tobytes().rstrip(bytes([PAD])).decode() if col.ndim == 2
                 else col[i].item() for name, col in columns.items()} for i in range(len(table))]
        assert table_rows(table) == rows
        assert len(table) == len(rows)
        report = Report("x", {"n": len(rows), "nested": {"items": []}}, table, 0.25)
        want = report_dict(report)
        assert report.render("json") == render_dict(want, "json")
        # rows rendered a few (or one) at a time join to the same text
        with mock.patch.object(qinterleave.grid, "GRID_BYTES", grid_bytes):
            assert report.render("json") == render_dict(want, "json")
        assert want["items"] == rows
        assert report.verdict == want["verdict"]
        assert report.render("text") == render_dict(want, "text")
        if not rows:
            assert '"items": []' in report.render("json")
        assert_written_as_rendered(report, grid_bytes)

    @settings(max_examples=200, deadline=None)
    @given(columns_rows=float_and_list_columns(), grid_bytes=st.integers(1, 3000))
    def test_float_and_list_columns_render_as_dicts(self, columns_rows, grid_bytes):
        columns, rows = columns_rows
        table = ItemTable(**columns)
        assert table_rows(table) == rows
        report = Report("x", {"n": len(rows)}, table, 0.5)
        oracle = report_dict(report)
        assert oracle["items"] == rows
        assert "".join(table.text_rows()) == "".join(map(text_row, rows))
        assert report.render("text") == render_dict(oracle, "text")
        assert report.render("json") == render_dict(oracle, "json")
        with mock.patch.object(qinterleave.grid, "GRID_BYTES", grid_bytes):
            assert report.render("json") == render_dict(oracle, "json")
            assert report.render("text") == render_dict(oracle, "text")
        assert_written_as_rendered(report, grid_bytes)

    @pytest.mark.parametrize("make", [
        lambda: run_synth(4, 4)[1],
        lambda: run_verify("five", 2, burst=3, kind="colocated", method="stabilizer"),
        lambda: run_verify("five", 2, burst=4, kind="independent", method="stabilizer"),
        lambda: run_verify("five", 2, burst=1, kind="independent", method="statevector"),
        lambda: run_verify("phase3", 3, burst=4, method="statevector"),
        lambda: run_demo(),
        lambda: run_enumerate(9, 3, "colocated"),
        lambda: run_enumerate(5, 9, "independent"),
        lambda: Report("x", {}),
    ])
    def test_list_and_table_reports_write_as_rendered(self, make):
        assert_written_as_rendered(make(), 7)

    @pytest.mark.parametrize("dtype,top", [(np.int64, 2**63 - 1), (np.uint64, 2**64 - 1),
                                           (np.uint8, 255)])
    def test_digit_cells(self, dtype, top):
        values = [v for v in (0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12, 10**19) if v < top]
        values.append(top)
        table = ItemTable(label=np.full((len(values), 1), 65, np.uint8),
                          passed=np.ones(len(values), bool), v=np.array(values, dtype))
        report = Report("x", {}, table)
        assert [item["v"] for item in json.loads(report.render("json"))["items"]] == values
        assert report.render("json") == render_dict(report_dict(report), "json")

    @pytest.mark.parametrize("columns,message", [
        ({"a": np.zeros(3, bool), "b": np.zeros(2, int)}, "ragged"),
        ({"a": np.zeros((3, 4), np.uint8) + 65, "b": np.zeros(4, bool)}, "ragged"),
        ({"a": np.array([1, -1, 2])}, "'a'"),
        ({"a": np.array([0.5, np.nan])}, "'a'"),
        ({"a": np.zeros((2, 2, 2, 2), np.uint8) + 65}, "'a'"),
        ({"a": np.zeros((2, 0), np.uint8)}, "'a'"),
        ({"a": np.zeros((2, 2, 0), np.uint8)}, "'a'"),
        ({"a": np.full((2, 3), 65.0)}, "'a'"),
    ] + [({"t": np.array([[65, bad, 66]], np.uint8)}, "'t'")
         for bad in (ord('"'), ord("\\"), 0, 0x0A, 0x1F, 0x7F, 0x80, 0xFF)] + [
        # floats must be finite; int lists signed, >= -1, padded after entries
        ({"a": np.array([-np.inf])}, "'a'"),
        ({"a": np.full((2, 3), 65, np.uint16)}, "'a'"),
        ({"a": np.full((2, 3), -2, np.int64)}, "'a'"),
        ({"a": np.array([[65, -1, 65]])}, "'a'"),
        ({"a": np.array([[[1, 2], [-1, 0]]])}, "'a'"),
        ({"a": np.ones((2, 3), bool)}, "'a'"),
        # text is padded with PAD after its last byte only; a text-list entry
        # holds no ', which str would write between " quotes
        ({"t": np.array([[65, PAD], [PAD, 66]], np.uint8)}, "'t'"),
        ({"w": np.array([[[65, 66], [ord("'"), PAD]]], np.uint8)}, "'w'"),
        # the schema's rule for items: a text label and a bool passed
        ({"passed": np.ones(2, bool), "v": np.arange(2)}, "label"),
        ({"label": np.full((2, 1), 65, np.uint8), "passed": np.ones(2, np.int64)}, "passed"),
    ])
    def test_refuses_bad_columns(self, columns, message):
        with pytest.raises(ValueError, match=message):
            ItemTable(**columns)

    @pytest.mark.parametrize("bad", [ord('"'), ord("\\"), 0x1F, 0x7F])
    def test_text_column_is_checked_in_row_blocks(self, monkeypatch, bad):
        # blocks of two 3-byte rows: the bad byte sits in the last block only
        monkeypatch.setattr(qinterleave.report, "GRID_BYTES", 6)
        col = np.full((7, 3), 65, np.uint8)
        labels = labelled([True] * 7).columns
        assert [row["t"] for row in table_rows(ItemTable(**labels, t=col))] == ["AAA"] * 7
        col[6, 1] = bad
        with pytest.raises(ValueError, match="'t'"):
            ItemTable(**labels, t=col)

    def test_enumerate_items_are_a_table(self):
        report = run_enumerate(5, 2, "colocated")
        assert isinstance(report.items, ItemTable)
        assert table_rows(report.items) == enumerate_items(5, 2, "colocated")


# Integers for the exit-code property: small ones run in milliseconds, and
# huge ones are refused by an admission check before anything is allocated.
# Mid-range sizes, which may run for minutes, are never drawn.
CLI_INTS = st.one_of(st.integers(-2, 6), st.integers(10**7, 10**30)).map(str)
CLI_COEFFS = ["0.6,0.8,1,0,0,1", "1,0,1,0,1,0", "0,0,0,0,0,0", "1,2", "nan,0,1,0,1,0",
              "a,b,c,d,e,f"]
CLI_BURSTS = ["ZZZIIIIII,IIIIIZZZI", "XXXXXXXXX,ZIZIZIZIZ", "ZZZIIIIII,ZZZIIIIII",
              "IIIIIIIII", "ZZ", "QQQQQQQQQ", ","]


@st.composite
def cli_argv(draw):
    """An argv over the CLI grammar: a command, its positionals and any
    subset of its flags."""
    def flags(**choices):
        drawn = [(name, values) for name, values in choices.items() if draw(st.booleans())]
        return [arg for name, values in drawn for arg in (f"--{name}", draw(values))]

    formats = st.sampled_from(["text", "json"])
    kinds = st.sampled_from(BURST_KINDS)
    command = draw(st.sampled_from(["demo", "verify", "synth", "enumerate"]))
    if command == "demo":
        return ["demo", *flags(coeffs=st.sampled_from(CLI_COEFFS), seed=CLI_INTS,
                               bursts=st.sampled_from(CLI_BURSTS), output=formats)]
    if command == "verify":
        return ["verify", *flags(code=st.sampled_from(sorted(CODES)), degree=CLI_INTS,
                                 burst=CLI_INTS, kind=kinds,
                                 method=st.sampled_from(["statevector", "stabilizer"]),
                                 seed=CLI_INTS, output=formats)]
    if command == "synth":
        return ["synth", draw(CLI_INTS), draw(CLI_INTS),
                *flags(format=st.sampled_from(["plain", "qasm"]), output=st.just(os.devnull),
                       report=formats),
                *["--expand-swaps"] * draw(st.booleans())]
    return ["enumerate", draw(CLI_INTS), *flags(burst=CLI_INTS, kind=kinds, output=formats)]


class TestMainInProcess:
    @settings(max_examples=500, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_contract(self, argv):
        # 0 pass, 1 verification failure, 2 usage error, 3 I/O, memory or
        # internal error; a report is rendered with exits 0 and 1 only
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        verdicts = re.findall(r'^(?:verdict: |  "verdict": ")(pass|fail)\b', out.getvalue(), re.M)
        assert verdicts == ([("pass", "fail")[code]] if code < 2 else [])

    def test_repeated_calls_keep_exit_codes_and_output(self, capsys):
        # one parser serves every call in the process; a usage error in one
        # call leaves nothing behind for the next
        def call(*argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out.rsplit("elapsed_seconds", 1)[0], captured.err

        good = ("verify", "--degree", "2", "--method", "statevector", "--seed", "4")
        first = call(*good)
        assert first[0] == 0 and first[1].startswith("command: verify") and not first[2]
        code, out, err = call("verify", "--kind", "nope")
        assert code == 2 and out == "" and "invalid choice: 'nope'" in err
        code, out, err = call("verify", "--method", "stabilizer", "--seed", "4")
        assert code == 2 and out == "" and "--method stabilizer" in err
        assert call("enumerate", "3", "--burst", "1")[0] == 0
        assert call(*good) == first
        assert call("verify", "--degree", "2", "--burst", "3", "--method", "statevector",
                    "--seed", "4")[0] == 1
        assert call(*good) == first
        assert _parser() is _parser()


class TestReports:
    def test_json_reports_validate_against_schema(self, capsys):
        schema = report_schema()
        reports = [
            run_demo(),
            run_verify("phase3", 2, burst=2, method="statevector"),
            run_verify("five", 2, burst=2, kind="colocated", method="stabilizer"),
            run_synth(4, 4)[1],
            run_enumerate(6, 2, "bit"),
        ]
        for report in reports:
            jsonschema.validate(json.loads(report.render("json")), schema)

    def test_text_and_json_verdicts_match(self):
        for report in (run_demo(),
                       run_verify("phase3", 3, burst=4, method="stabilizer")):
            text_verdict = [ln for ln in report.render("text").splitlines()
                            if ln.startswith("verdict:")][0].split()[1]
            assert json.loads(report.render("json"))["verdict"] == text_verdict

    @pytest.mark.parametrize("make,verdict", [
        (lambda: run_demo(), "pass"),
        (lambda: run_verify("phase3", 3), "pass"),
        (lambda: run_verify("five", 3, burst=4, kind="colocated"), "fail"),
        (lambda: run_verify("phase3", 3, method="statevector"), "pass"),
        (lambda: run_verify("phase3", 3, burst=4, kind="bit", method="statevector"), "fail"),
        (lambda: run_synth(4, 4)[1], "pass"),
        (lambda: run_synth(1, 1)[1], "pass"),
        (lambda: run_synth(2, 3)[1], "pass"),
        (lambda: run_enumerate(6, 2, "bit"), "pass"),
    ], ids=["demo", "stabilizer-pass", "stabilizer-witness", "statevector-pass",
            "statevector-collision", "synth-n-eq-m", "synth-1x1", "synth-n-ne-m", "enumerate"])
    def test_each_report_shape_validates_as_its_table(self, make, verdict):
        # one report shape per command: its JSON validates against the schema
        # and its items are the rows of its table
        report = make()
        rendered = json.loads(report.render("json"))
        jsonschema.validate(rendered, report_schema())
        assert rendered["items"] == table_rows(report.items)
        assert rendered["verdict"] == report.verdict == verdict

    def test_empty_report_fails(self):
        empty = Report("verify", {})
        assert empty.verdict == "fail"
        assert json.loads(empty.render("json"))["items"] == []
        assert '\n  "items": [],\n' in empty.render("json")
        assert "\nitems: 0\nverdict: fail\n" in empty.render("text")
        assert Report("verify", {}, labelled([True])).verdict == "pass"

    def test_verdict_rule(self):
        report = run_verify("phase3", 3, burst=4, method="statevector")
        assert report.verdict == "fail"
        assert any(not item["passed"] for item in table_rows(report.items))
        report2 = run_verify("phase3", 3, burst=3, method="statevector")
        assert report2.verdict == "pass"
        assert all(item["passed"] for item in table_rows(report2.items))
