"""Every benchmark workload, run once through the CLI and checked against its
pinned output (perfbench/expected/), so that a drift in the stabilizer
witness, burst count, enumeration digest, circuit text, block syndromes,
corrected positions or fidelity fails here and not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import qinterleave.cli
from qinterleave import Circuit, interleave_permutation
from qinterleave.cli import main
from oracles import expand_swap_gates, plain_listing, swap_network_gates

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_pinned_output(name, capsys):
    workload = workloads.WORKLOADS[name]
    argv = next(workload.op_argvs(seed=1, stream=0))
    exit_code = main(argv)
    stdout = capsys.readouterr().out
    assert workloads.check_output(workload.expected(), exit_code, stdout) == []


def test_synth_builds_its_circuit_from_arrays(capsys, monkeypatch):
    # synth hands the permutation's array to the synthesis and builds its one
    # circuit from two whole operand arrays, never from a list of per-gate
    # values; --expand-swaps lowers each SWAP to CNOTs as the listing is
    # written and builds no second circuit
    built = []
    init = Circuit.__init__

    def recorded(self, width, pairs):
        built.append(pairs)
        init(self, width, pairs)

    monkeypatch.setattr(Circuit, "__init__", recorded)
    workload = workloads.WORKLOADS["synth-circuit"]
    argv = next(workload.op_argvs(seed=1, stream=0))
    assert argv[:5] == ["synth", "64", "64", "--format", "qasm"]
    exit_code = main(argv)
    stdout = capsys.readouterr().out
    assert workloads.check_output(workload.expected(), exit_code, stdout) == []
    assert len(built) == 1
    assert [(type(a), a.shape) for a in built[0]] == [(np.ndarray, (2016,))] * 2

    built.clear()
    assert main(["synth", "200", "50", "--expand-swaps"]) == 0
    stdout = capsys.readouterr().out
    assert len(built) == 1
    assert [(type(a), a.shape) for a in built[0]] == [(np.ndarray, (9936,))] * 2
    perm = interleave_permutation(200, 50)
    listing = plain_listing(len(perm.array), expand_swap_gates(swap_network_gates(perm)))
    assert stdout[:len(listing)] == listing
    assert stdout[len(listing):].startswith("command:")


def test_enumerate_reads_the_burst_lanes_unconverted(capsys, monkeypatch):
    # the lengths, the weights and the labels read the very arrays that
    # burst_masks returned: no other layout of the masks is built in between
    calls = {}

    def recorded(name, function):
        def wrapper(*args):
            calls[name] = args, function(*args)
            return calls[name][1]
        return wrapper

    for name in ("burst_masks", "row_length_weight", "row_labels"):
        monkeypatch.setattr(qinterleave.cli, name, recorded(name, getattr(qinterleave.cli, name)))
    workload = workloads.WORKLOADS["enumerate-render"]
    argv = next(workload.op_argvs(seed=1, stream=0))
    assert argv[:5] == ["enumerate", "25", "--burst", "5", "--kind"]
    exit_code = main(argv)
    stdout = capsys.readouterr().out
    assert workloads.check_output(workload.expected(), exit_code, stdout) == []
    halves = calls["burst_masks"][1]
    assert [(h.dtype, h.shape) for h in halves] == [(np.uint64, (1, 16383))] * 2
    for got in (calls["row_length_weight"][0], calls["row_labels"][0][1:]):
        assert len(got) == 2
        for lanes, half in zip(got, halves):
            assert np.shares_memory(lanes, half)
            assert (lanes.dtype, lanes.shape, lanes.strides) == (half.dtype, half.shape,
                                                                 half.strides)
