"""The package's export list: every exported name resolves, and names of
removed API stay out of it."""
import dataclasses
import importlib

import pytest

import qinterleave


def test_every_exported_name_resolves():
    assert len(set(qinterleave.__all__)) == len(qinterleave.__all__)
    for name in qinterleave.__all__:
        assert getattr(qinterleave, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from qinterleave import *", namespace)
    assert set(qinterleave.__all__) <= set(namespace)


def test_single_block_decoder_is_gone():
    # block_decode is the one decoder, and its table is a plain dict
    for name in ("extract_syndrome", "correct", "SyndromeTable",
                 "UnknownSyndromeError", "BlockDecode"):
        assert name not in qinterleave.__all__
        assert not hasattr(qinterleave, name)
        assert not hasattr(qinterleave.codes, name)

    # block_decode takes and returns arrays: no per-block record, and the CLI
    # wraps no decoded row in a StateVector
    assert not hasattr(qinterleave.StateVector, "trusted")
    assert not hasattr(importlib.import_module("qinterleave.cli"), "StateVector")


def test_channel_module_is_gone():
    # the demo checks its own bursts; the other helpers live in tests/oracles.py
    for name in ("BranchSet", "ErrorBranch", "apply_branches", "sample_burst",
                 "enumerate_burst_vectors", "deinterleave_blocks"):
        assert name not in qinterleave.__all__
        assert not hasattr(qinterleave, name)
    assert not hasattr(qinterleave.pauli, "enumerate_burst_vectors")
    assert not hasattr(qinterleave.interleaver, "deinterleave_blocks")
    assert not hasattr(qinterleave.Permutation, "compose")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qinterleave.channel")


def test_test_only_helpers_are_gone():
    # no command runs them; the references live in tests/oracles.py
    for name in ("basis_state", "parse_plain", "burst_ability_measured"):
        assert name not in qinterleave.__all__
        assert not hasattr(qinterleave, name)
    assert not hasattr(qinterleave.statevector, "basis_state")
    assert not hasattr(qinterleave.interleaver, "parse_plain")
    assert not hasattr(qinterleave.codes, "burst_ability_measured")
    for method in ("apply_gate", "apply_circuit", "tensor"):
        assert not hasattr(qinterleave.StateVector, method)
    # demo and verify share _statevector_table; the label-triple form is gone
    cli = importlib.import_module("qinterleave.cli")
    assert not hasattr(cli, "_statevector_items")
    assert not hasattr(cli, "report_schema")


def test_letter_grid_label_path_is_gone():
    # labels are read off mask rows through a byte table, lengths and weights
    # off their uint64 lanes; the letter-grid readers live in tests/oracles.py
    pauli = importlib.import_module("qinterleave.pauli")
    for name in ("LETTERS", "burst_labels", "burst_lengths"):
        assert name not in qinterleave.__all__
        assert not hasattr(pauli, name)
    for name in ("_LEADING_ZEROS", "_TRAILING_ZEROS"):
        assert not hasattr(pauli, name)
    # a set of masks has one layout, the uint64 lanes: no byte-row view of it
    assert not hasattr(pauli, "row_lanes")
    assert callable(pauli.row_labels) and callable(pauli.row_lengths)
    assert not hasattr(importlib.import_module("qinterleave.report"), "_JSON_ENDS")


def test_second_burst_decoder_and_row_reader_are_gone():
    # a burst set is decoded once, into its labels, and deinterleaving reads
    # the labels' letter codes; the row reader lives in tests/oracles.py
    pauli = importlib.import_module("qinterleave.pauli")
    for name in ("burst_letters", "_lane_bytes"):
        assert not hasattr(pauli, name), name
    assert callable(pauli.label_letters)
    report = importlib.import_module("qinterleave.report")
    for name in ("__iter__", "__getitem__"):
        assert name not in vars(report.ItemTable), name
    assert not hasattr(report, "_unpadded")


def test_report_items_have_one_form():
    # a report's items are always an ItemTable: the list-of-dicts path, its
    # text line and the report dict are gone (the dict renderer is
    # tests/oracles.py::render_dict)
    report = importlib.import_module("qinterleave.report")
    assert not hasattr(report, "_text_row")
    assert not hasattr(report.Report, "to_dict")
    assert isinstance(report.Report("verify", {}).items, report.ItemTable)
    cli = importlib.import_module("qinterleave.cli")
    # verify's methods are named once, in the order --method lists them
    assert cli.METHODS == ("statevector", "stabilizer")


def test_pauli_algebra_is_gone():
    # a Pauli is (n, x, z); its products, commutation, permutation and
    # embedding live in tests/oracles.py, over the mask ints
    for name in ("from_masks", "is_identity", "is_quantum_burst", "symplectic_product",
                 "__mul__", "permute", "embed"):
        assert not hasattr(qinterleave.PauliString, name), name
    # BinaryVector is only the type of x_mask and z_mask
    vector = qinterleave.pauli.BinaryVector
    assert "BinaryVector" not in qinterleave.__all__
    assert not hasattr(qinterleave, "BinaryVector")
    for name in ("from_int", "from_string", "from_support", "bits", "support",
                 "burst_length", "__iter__", "__len__", "__getitem__"):
        assert not hasattr(vector, name), name
    assert [f.name for f in dataclasses.fields(vector)] == ["n", "as_int"]
    assert qinterleave.PauliString.from_label("XZI").x_mask.is_zero is False


def test_gate_and_permutation_extras_are_gone():
    # a circuit is its SWAP pairs and a permutation is its checked array; the
    # per-gate value lives in tests/oracles.py, and lowering to CNOTs is a
    # listing layout
    interleaver = importlib.import_module("qinterleave.interleaver")
    for owner in (qinterleave, interleaver):
        assert not hasattr(owner, "Gate")
    assert "Gate" not in qinterleave.__all__
    for name in ("_GATE_ARITY", "GATE_KINDS", "_H", "_CNOT", "_SWAP"):
        assert not hasattr(interleaver, name), name
    for name in ("gates", "expand_swaps", "columns"):
        assert not hasattr(qinterleave.Circuit, name), name
    # export is the one listing path: it joins grid_blocks itself
    for name in ("to_plain", "to_qasm", "_listing"):
        assert not hasattr(qinterleave.Circuit, name), name
    assert not hasattr(importlib.import_module("qinterleave.grid"), "grid_text")
    assert not hasattr(qinterleave.Permutation, "size")
    assert "__eq__" not in vars(qinterleave.Circuit)
    for name in ("images", "inverse", "identity", "is_identity", "__call__",
                 "__eq__", "__hash__"):
        assert name not in vars(qinterleave.Permutation), name
    assert not hasattr(qinterleave.PauliString, "weight")


def test_letter_grid_decoder_is_gone():
    # a burst's word is the XOR of its letters' leaf words, whether the window
    # tree folds it or _column_words gathers it from its number: no letter
    # grid is decoded or packed into lanes, and one mask leaf serves both
    pauli = importlib.import_module("qinterleave.pauli")
    for name in ("letter_rows", "_window_letters", "_decoded_rows", "_mask_words"):
        assert not hasattr(pauli, name), name
    assert callable(pauli._column_words) and callable(pauli._mask_leaf)
