"""One benchmark process: imports qinterleave, runs ops, checks every output.

Started by run.py, never by hand.  It prints one JSON line with its raw
samples; run.py turns them into metrics.  Modes:

  setup  import and generate inputs, then exit (a set-up sample only)
  cold   set up, then run one op in this fresh process
  main   set up, one cold op, then warm ops until --seconds have passed and
         at least --min-warm warm ops are done
  trace  set up, one cold op, then warm ops alternately untraced and traced
         until --seconds have passed and at least --min-warm of each are done
  check  set up, then one traced op of every workload
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402


def _import_cli():
    """Import the program from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    from qinterleave import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qinterleave was imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[float, int, str]:
    """One CLI request with stdout captured: (seconds, exit code, stdout)."""
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


class Runner:
    """Runs and checks the ops of one workload in this process."""

    def __init__(self, cli, workload, seed: int, stream: int) -> None:
        self.cli = cli
        self.workload = workload
        self.argvs = workload.op_argvs(seed, stream)
        self.expected = workload.expected()
        self.ops: list[dict] = []
        self.problems: list[str] = []

    def op(self, phase: str) -> float:
        argv = next(self.argvs)
        try:
            elapsed, code, stdout = run_op(self.cli, argv)
            problems = check_output(self.expected, code, stdout)
        except Exception as exc:  # an op that raises counts as failed
            elapsed, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            note = f"op {len(self.ops)} ({phase}, {' '.join(argv)}): {problems[0]}"
            print(note, file=sys.stderr)
            if len(self.problems) < 5:
                self.problems.append(note)
        self.ops.append({"phase": phase, "s": elapsed, "ok": not problems})
        return elapsed or 0.0

    def traced_metrics(self, tracer) -> list[dict]:
        """Per-layer metrics of every traced op; a broken span tree is a
        problem of the run."""
        per_op = []
        for op in range(tracer.op + 1):
            try:
                per_op.append(tracer.op_metrics(op))
            except ValueError as exc:
                self.problems.append(str(exc))
        return per_op

    def loop(self, seconds: float, min_ops: int, deadline: float,
             tracer=None) -> None:
        """Warm ops until `seconds` have passed and `min_ops` are done.  No op
        starts that would end after `deadline`, judging by the previous op.
        Without a tracer, the workload's reference kernel runs before the
        first op and after every op, and each op records the mean of the two
        kernel times around it as `ref_s`: load from other tenants slows the
        kernel and the op alike.  With a tracer, ops alternate untraced and
        traced, so that both kinds see the same drift in machine state; each
        traced op gets an op id."""
        start = time.monotonic()
        done, last = 0, 0.0
        ref = None
        if tracer is None:
            self.workload.reference_s()  # the first call of a process is slower
            ref = self.workload.reference_s()
        while time.monotonic() - start < seconds or done < min_ops:
            if time.monotonic() + last > deadline:
                break
            if tracer is not None and done % 2:
                tracer.begin_op()
                tracer.install()
                try:
                    last = self.op("traced")
                finally:
                    tracer.uninstall()
            else:
                last = self.op("warm")
                if ref is not None:
                    after = self.workload.reference_s()
                    self.ops[-1]["ref_s"] = (ref + after) / 2
                    ref = after
            done += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "cold", "main", "trace", "check"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-warm", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() by which this process must be done")
    parser.add_argument("--spans", default=None, help="file for the span dump")
    args = parser.parse_args()

    cli = _import_cli()
    names = list(WORKLOADS) if args.mode == "check" else [args.workload]
    runners = {name: Runner(cli, WORKLOADS[name], args.seed, args.stream)
               for name in names}
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "numpy": sys.modules["numpy"].__version__}

    if args.mode == "check":
        tracer = Tracer()
        tracer.install()
        checks = {}
        for name, runner in runners.items():
            tracer.begin_op()
            runner.op("traced")
            try:
                tracer.op_metrics(tracer.op)
            except ValueError as exc:
                runner.problems.append(str(exc))
            checks[name] = {"ops": runner.ops, "problems": runner.problems}
        tracer.uninstall()
        result["workloads"] = checks
        print(json.dumps(result))
        return

    runner = runners[args.workload]
    if args.mode in ("cold", "main", "trace"):
        runner.op("cold")
        # Peak memory of set-up and one op, taken before the warm loop's
        # reference kernel can add its own arrays.
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "main":
        runner.loop(args.seconds, args.min_warm, args.deadline)
    if args.mode == "trace":
        tracer = Tracer()
        runner.loop(args.seconds, 2 * args.min_warm, args.deadline, tracer)
        result["per_op"] = runner.traced_metrics(tracer)
        result["spans_written"] = tracer.write(args.spans) if args.spans else 0
    result["ops"] = runner.ops
    result["problems"] = runner.problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
