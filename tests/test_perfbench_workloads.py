"""The statevector-sweep benchmark workload, run once through the CLI and
checked against its pinned output (perfbench/expected/), so that a drift in
block syndromes, corrected positions or fidelity fails here and not only in
a benchmark run."""
import importlib.util
import sys
from pathlib import Path

from qinterleave.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_statevector_sweep_matches_pinned_output(capsys):
    workloads = load_workloads()
    workload = workloads.WORKLOADS["statevector-sweep"]
    argv = next(workload.op_argvs(seed=1, stream=0))
    exit_code = main(argv)
    stdout = capsys.readouterr().out
    assert workloads.check_output(workload.expected(), exit_code, stdout) == []
