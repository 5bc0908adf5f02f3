"""The CLI's traffic: one matrix of commands, run once in process through
cli.main, shows which of the package's functions the commands run and pins
what each command prints.

Every module-level function and method of the package's modules must be run
by some command, be a span target of the benchmark's tracer
(perfbench/spans.py TARGETS), or be on ALLOWED with its reason.  Each
command's exit code, stdout with the elapsed_seconds values stripped, and
stderr must hash to its pin in cli_transcript.json.

Run as a script to rewrite the pins from the program at hand:

    PYTHONPATH=src python tests/test_cli_traffic.py
"""
import ast
import contextlib
import hashlib
import importlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import qinterleave
import qinterleave.cli
from qinterleave import BURST_KINDS
from test_perfbench_targets import load_spans

PACKAGE = Path(qinterleave.__file__).parent
PINS = Path(__file__).with_name("cli_transcript.json")


def _commands() -> list[str]:
    commands = [f"enumerate {n} --burst {burst} --kind {kind} --output {fmt}"
                for n, burst in ((9, 3), (70, 2)) for kind in BURST_KINDS
                for fmt in ("text", "json")]
    commands += ["enumerate 9 --burst 20",  # clamped to the register
                 "enumerate 1000 --burst 64 --kind colocated",  # over the burst budget
                 "enumerate 0 --burst 1", "enumerate 9 --burst 0"]
    # the default burst length is m, one more reaches past every block's ability
    commands += [f"verify --code {code} --kind {kind} --method {method}{burst}"
                 for code in ("phase3", "five") for method in ("stabilizer", "statevector")
                 for kind in BURST_KINDS for burst in ("", " --burst 3", " --burst 4")]
    commands += [f"verify --code {code} --method {method} --output json"
                 for code in ("phase3", "five") for method in ("stabilizer", "statevector")]
    commands += ["verify --code phase3 --method statevector --seed 5",
                 "verify --code five --degree 2 --kind colocated --method statevector --seed 9",
                 # a failing syndrome that holds over 1/64 of the bursts: burst_rows gathers
                 "verify --code phase3 --degree 13 --kind bit --burst 18",
                 "verify --code five --degree 40 --kind colocated",  # over the burst budget
                 "verify --degree 0", "verify --burst 0", "verify --seed 3",
                 "verify --code phase3 --degree 9 --method statevector",
                 # n != m: the interleave gather is not its own inverse
                 "verify --code five --degree 2 --burst 2 --method statevector --seed 4 "
                 "--output json",
                 # the block decoder's collision row, with its reason
                 "verify --code phase3 --kind bit --burst 4 --method statevector --output json",
                 # a failing verdict and its witness list
                 "verify --code five --kind colocated --burst 4 --method stabilizer --output json",
                 # a witness decoded from its column numbers on two lanes (65 qubits)
                 "verify --code five --degree 13 --kind independent --burst 1"]
    commands += ["demo", "demo --output json", "demo --seed 7", "demo --seed 7 --output json",
                 "demo --coeffs 0.6,0.8,0.28,0.96,1,0",
                 "demo --bursts ZZZIIIIII,IIIIIZZZI,XIIIIIIII --output json",
                 "demo --bursts zzziiiiii,iiiiiyyyi --output json",  # labels upper-cased
                 "demo --bursts xiiiiiiii,IIIIIIIIY",
                 "demo --bursts ZZZZIIIII",  # longer than the interleaver spreads
                 "demo --seed 1 --coeffs 0.6,0.8,0.28,0.96,1,0", "demo --seed -1",
                 "demo --coeffs 1,2,3", "demo --coeffs 0.6,0.8,0.28,0.96,1,x",
                 "demo --coeffs 1,1,0.28,0.96,1,0", "demo --bursts ZZZ",
                 "demo --bursts ZZZIIIIII,ZZZIIIIII", "demo --bursts QZZIIIIII",
                 "demo --bursts ''"]
    commands += [f"synth {rows} {cols} --format {fmt}{expand}"
                 for rows, cols in ((1, 1), (3, 3), (2, 3), (4, 6), (5, 5))
                 for fmt in ("plain", "qasm") for expand in ("", " --expand-swaps")]
    # 1,200 qubits: operands cross 99/100 and 999/1000 within one listing
    commands += ["synth 40 30", "synth 40 30 --expand-swaps", "synth 40 30 --format qasm"]
    # 10,100 qubits: operands cross 9999/10000, the CNOT count has 5 digits
    commands += ["synth 101 100 --format qasm", "synth 101 100 --report json"]
    commands += ["synth 6 4 --report json", "synth 8 8 --format qasm --report json",
                 "synth 1 1 --report json",  # two labels of different widths
                 "synth 0 3", "synth 100000 100000",  # over the synth budget
                 "synth 2 2 --output /"]  # a directory: an I/O error
    return commands


COMMANDS = _commands()
PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}

# Names no command runs and no span target reads, each kept for its reason.
ALLOWED = {
    "pauli.BinaryVector.is_zero": "read by spans._apply_pauli_bytes",
    "pauli.PauliString.x_mask": "read by spans._apply_pauli_bytes",
    "pauli.PauliString.z_mask": "read by spans._apply_pauli_bytes",
    "report.report_schema": "the published report schema the tests validate against",
    "codes.CorrectabilityResult.__bool__": "a result reads as its verdict",
}


def run(command: str) -> tuple[int, str, str]:
    """cli.main on the command's words: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qinterleave.cli.main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: int, stdout: str, stderr: str) -> str:
    """SHA-256 of the exit code, stdout with its elapsed_seconds values cut,
    and stderr."""
    stdout = re.sub(r'(elapsed_seconds"?: )\S+', r"\1", stdout)
    return hashlib.sha256(f"{code}\n{stdout}\0{stderr}".encode()).hexdigest()


def defined_functions() -> dict[tuple[str, int], str]:
    """module.qualname of every module-level function and method of the
    package's modules, keyed by (module, first line): the line a function's
    code object starts on, its first decorator's when it has one."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner, body = ((f"{node.name}.", node.body) if isinstance(node, ast.ClassDef)
                           else ("", [node]))
            for item in body:
                if isinstance(item, ast.FunctionDef):
                    first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
                    names[path.stem, first] = f"{path.stem}.{owner}{item.name}"
    return names


DEFINED = defined_functions()


def _name(code) -> str | None:
    """module.qualname of a package function's code object, else None."""
    path = Path(code.co_filename)
    return DEFINED.get((path.stem, code.co_firstlineno)) if path.parent == PACKAGE else None


def span_targets() -> set[str]:
    """module.qualname of the functions perfbench/spans.py wraps, where
    they are defined."""
    names = set()
    for module, qualname, *_ in load_spans().TARGETS:
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = vars(target)[part] if isinstance(target, type) else getattr(target, part)
        names.add(_name(target.__code__))
    return names


@pytest.fixture(scope="module")
def traffic() -> tuple[dict, set[str]]:
    """Every command's output, and module.qualname of every package
    function some command ran, under sys.setprofile."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # a process builds its parser on its first command
    qinterleave.cli._parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outputs = {command: run(command) for command in COMMANDS}
    finally:
        sys.setprofile(previous)
    return outputs, set(map(_name, seen)) - {None}


def test_every_function_is_run_targeted_or_allowed(traffic):
    _, called = traffic
    unreached = sorted(set(DEFINED.values()) - called - span_targets() - set(ALLOWED))
    assert not unreached, f"no command runs these and no span target reads them: {unreached}"


def test_allowed_names_are_defined_and_unreached(traffic):
    _, called = traffic
    targets = span_targets()
    stale = sorted(name for name in ALLOWED
                   if name not in DEFINED.values() or name in called or name in targets)
    assert not stale, f"allowed without need: {stale}"


def test_every_command_is_pinned():
    assert list(PINNED) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_transcript_matches_pin(traffic, command):
    outputs, _ = traffic
    assert digest(*outputs[command]) == PINNED[command]


if __name__ == "__main__":
    PINS.write_text(json.dumps({command: digest(*run(command)) for command in COMMANDS},
                               indent=1) + "\n")
