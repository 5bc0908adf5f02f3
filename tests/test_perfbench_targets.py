"""The benchmark's span tracer (perfbench/spans.py) must still find every
function it wraps, so that renaming a traced function fails here instead of
breaking a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import qinterleave.cli
from qinterleave import PauliString, basis_state

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


def test_tracer_counts_statevector_sweep_blocks(capsys):
    # The traced benchmark counts decoded blocks from block_decode's
    # (states, records) return.  The 67 bursts leave each of the 6 blocks
    # with one of III, ZII, IZI, IIZ, and each distinct block Pauli is
    # decoded once, all of them in one batched call: 24 blocks in 1 call.
    from test_perfbench_workloads import workloads

    argv = next(workloads.WORKLOADS["statevector-sweep"].op_argvs(seed=1, stream=0))

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert qinterleave.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.op_metrics(0)
    assert metrics["codes.blocks_decoded"] == 24
    assert metrics["codes.block_decode.calls"] == 1


def test_tracer_counts_synth_circuit_swaps(capsys):
    # The traced benchmark reads the SWAP count from the circuit that
    # synthesize_swap_network returns and the export size from the text of
    # Circuit.export: a 64 x 64 interleaver is 2016 SWAPs, 6048 cx lines.
    from test_perfbench_workloads import workloads

    argv = next(workloads.WORKLOADS["synth-circuit"].op_argvs(seed=1, stream=0))
    assert list(argv[:5]) == ["synth", "64", "64", "--format", "qasm"]

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert qinterleave.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    text = capsys.readouterr().out
    metrics = tracer.op_metrics(0)
    assert metrics["interleaver.swaps"] == 2016
    assert metrics["interleaver.synthesize_swap_network.calls"] == 1
    assert metrics["interleaver.interleave_permutation.calls"] == 1
    assert metrics["interleaver.export.calls"] == 1
    assert 0 < metrics["interleaver.export.bytes"] < len(text)
