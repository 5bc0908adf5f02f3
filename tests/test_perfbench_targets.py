"""The benchmark's span tracer (perfbench/spans.py) must still find every
function it wraps, so that renaming a traced function fails here instead of
breaking a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import qinterleave.cli
from qinterleave import PauliString
from oracles import basis_state
from test_perfbench_workloads import workloads

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,qualname",
                         [target[:2] for target in load_spans().TARGETS])
def test_target_resolves(module_name, qualname):
    owner = importlib.import_module(module_name)
    if "." in qualname:
        # methods are wrapped on their class, looked up in its __dict__
        class_name, attr = qualname.split(".")
        assert callable(vars(getattr(owner, class_name))[attr])
    else:
        assert callable(getattr(owner, qualname))


def test_apply_pauli_counter_reads_masks():
    spans = load_spans()
    counts = spans.OpCounts()
    state = basis_state(3, "000")
    spans._apply_pauli_bytes(counts, (state, PauliString.from_label("XZI")), {}, None)
    # one phase pass and one flip pass over 8 amplitudes
    assert counts["statevector.apply_pauli.bytes_computed"] == (
        2 * 8 * (2 * spans.AMP_BYTES + spans.INDEX_BYTES))


def traced_op(argv, capsys):
    """One traced cli.main(argv): its exit code, its stdout and op_metrics(0),
    which raises unless the op's spans form one tree under cli.main whose
    self times add up."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        exit_code = qinterleave.cli.main(argv)
    finally:
        tracer.uninstall()
    return exit_code, capsys.readouterr().out, tracer.op_metrics(0)


def test_tracer_counts_statevector_sweep_blocks(capsys):
    # The traced benchmark counts decoded blocks from block_decode's
    # (fixed, syndromes, corrections) return, one syndrome row a block.  The 67 bursts leave each of the 6 blocks
    # with one of III, ZII, IZI, IIZ, and each distinct block Pauli is
    # decoded once, all of them in one batched call: 24 blocks in 1 call.
    argv = next(workloads.WORKLOADS["statevector-sweep"].op_argvs(seed=1, stream=0))
    exit_code, _, metrics = traced_op(argv, capsys)
    assert exit_code == 0
    assert metrics["codes.blocks_decoded"] == 24
    assert metrics["codes.block_decode.calls"] == 1


def test_tracer_counts_synth_circuit_swaps(capsys):
    # The traced benchmark reads the SWAP count from the circuit that
    # synthesize_swap_network returns and the export size from the text of
    # Circuit.export: a 64 x 64 interleaver is 2016 SWAPs, 6048 cx lines.
    argv = next(workloads.WORKLOADS["synth-circuit"].op_argvs(seed=1, stream=0))
    assert list(argv[:5]) == ["synth", "64", "64", "--format", "qasm"]
    exit_code, text, metrics = traced_op(argv, capsys)
    assert exit_code == 0
    assert metrics["interleaver.swaps"] == 2016
    assert metrics["interleaver.synthesize_swap_network.calls"] == 1
    assert metrics["interleaver.interleave_permutation.calls"] == 1
    assert metrics["interleaver.export.calls"] == 1
    assert 0 < metrics["interleaver.export.bytes"] < len(text)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_is_one_tree_and_passes_its_check(name, capsys):
    # Every target is wrapped (install raises AttributeError when one is
    # gone), and the traced output still matches the workload's pin.
    workload = workloads.WORKLOADS[name]
    exit_code, stdout, metrics = traced_op(next(workload.op_argvs(seed=1, stream=0)),
                                           capsys)
    assert metrics["cli.main.calls"] == 1
    assert metrics["trace.root_s"] > 0
    assert workloads.check_output(workload.expected(), exit_code, stdout) == []
