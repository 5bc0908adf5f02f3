"""qinterleave benchmark: whole CLI requests timed end to end, and a traced
run that splits them by layer.

    python3 perfbench/run.py --workload stabilizer-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload stabilizer-sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

Each workload is a closed loop with one client: one process sends a request
to `qinterleave.cli.main(argv)` in-process, with stdout captured, and sends
the next only when the previous has returned.  Every op's output is checked
against pinned values (workloads.py).  Child processes run single-threaded,
with BLAS pinned to one thread.  See README.md for the metric definitions.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The lines before it print every metric
by name with its unit, and the run conditions; perfbench/out/ keeps the full
result and, for --trace 1, every span.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up is sampled in fresh processes that only set up, and in every cold
# process, which also runs one op.  On a shared host, load from other tenants
# slows ops by up to 2x for seconds at a time, so these samples are spread
# over the run: SETUP_PER_SIDE set-up processes and one cold process run
# before the warm loop's process (itself the second cold sample), and as many
# after it.  The warm loop fills the rest of `--seconds`, so that most of a run
# goes to the warm ops that the gated verdict metric is taken from.
SETUP_PER_SIDE = 4
# The tail is the highest percentile with at least TAIL_BEYOND warm samples
# above it, so a run keeps going until it has TAIL_BEYOND + 1 warm ops.
TAIL_BEYOND = 10
# A traced run needs fewer samples: it reports medians only.
TRACE_MIN_OPS = 3
# Every process is done within this many seconds of the start of the run;
# the warm loop leaves POST_MAIN_S of that for the processes that follow it.
RUN_LIMIT_S = 170.0
POST_MAIN_S = 40.0
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# The end-to-end metrics of the JSON result, which BENCHMARK.json bounds.
# Load from other tenants of a shared host slows ops by up to 2x for seconds
# to minutes, which moves the op times of a run, even its fastest op, by
# 10-40 %.  It slows a fixed reference kernel timed around each op by about
# as much, so the op time in units of that kernel moves far less
# (README.md has the measurements).
END_TO_END = (("setup_s", "s"), ("verdict_ref.p50", "ratio"), ("peak_rss_mb", "MB"))
# Printed with them but not bounded: too noisy on a shared host, undefined
# for synth-circuit (bursts_per_s), or 0 by design (failed_op_ratio, which
# the result carries as `failed` over `attempted`).
REPORTED_ONLY = (
    ("cold_verdict_s", "s"), ("verdict_s.p50", "s"), ("verdict_s.tail", "s"),
    ("ref_kernel_s.p50", "s"), ("bursts_per_s", "1/s"), ("failed_op_ratio", "ratio"),
)

SELF_S = "s"
PER_LAYER = (
    ("pauli.enumerate_bursts.self_s", SELF_S), ("pauli.enumerate_bursts.calls", "count"),
    ("pauli.bursts", "count"), ("pauli.enumerate_bursts.ns_per_burst", "ns"),
    ("codes.syndrome_of.self_s", SELF_S), ("codes.syndrome_of.calls", "count"),
    ("codes.syndrome_of.ns_per_call", "ns"), ("codes.syndromes_distinct", "count"),
    ("codes.corrects_error_set.self_s", SELF_S),
    ("codes.in_stabilizer_group.calls", "count"),
    ("codes.in_stabilizer_group.self_s", SELF_S),
    ("codes.membership_useful_ratio", "ratio"),
    ("codes.interleaved_code.self_s", SELF_S), ("codes.build_syndrome_table.self_s", SELF_S),
    ("codes.encode.self_s", SELF_S),
    ("codes.block_decode.self_s", SELF_S), ("codes.blocks_decoded", "count"),
    ("statevector.apply_pauli.self_s", SELF_S), ("statevector.apply_pauli.calls", "count"),
    ("statevector.apply_pauli.bytes_computed", "B"),
    ("statevector.stabilizer_eigenvalue.self_s", SELF_S),
    ("statevector.stabilizer_eigenvalue.calls", "count"),
    ("statevector.permute_qubits.self_s", SELF_S),
    ("statevector.permute_qubits.calls", "count"),
    ("statevector.permute_qubits.bytes_computed", "B"),
    ("statevector.fidelity.self_s", SELF_S),
    ("interleaver.synthesize_swap_network.self_s", SELF_S), ("interleaver.swaps", "count"),
    ("interleaver.export.self_s", SELF_S), ("interleaver.export.bytes", "B"),
    ("interleaver.interleave_permutation.self_s", SELF_S),
    ("cli.main.self_s", SELF_S), ("cli.render.self_s", SELF_S), ("cli.render.bytes", "B"),
    ("trace.overhead_s", SELF_S), ("trace.coverage", "ratio"),
)


class RunFailed(Exception):
    """A worker process failed; the run prints no result."""


def spawn(mode: str, deadline: float, **options) -> dict:
    """Run one worker process to completion and return its JSON result."""
    argv = [sys.executable, "-s", str(HERE / "worker.py"), "--mode", mode,
            "--deadline", repr(deadline)]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD_ENV)
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned_at, 1.0) + 5.0)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} worker did not finish in time") from exc
    if done.returncode != 0:
        raise RunFailed(f"{mode} worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the highest percentile with
    at least TAIL_BEYOND samples above it; the lowest sample when there are
    fewer."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def conditions(workload: str, seed: int, seconds: float, trace: int,
               numpy_version: str) -> dict:
    """Machine facts and run conditions recorded with every result."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "workload": workload, "workload_seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": model,
        "l2_per_core": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
        "ram_gib": round(mem_kb / 2**20, 2),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_sha": _git_sha(),
        "blas_threads": "pinned to 1 in every worker (" + ", ".join(SINGLE_THREAD_ENV) + ")",
        "pythonhashseed": "0",
        "loop": "closed loop, one client, one process, single-threaded",
        "hardware_counters": "none taken: only this benchmark's own processes are "
                             "measured, so there is no cache-miss or counter data",
    }


def _timed(ops: list[dict], phase: str) -> list[float]:
    return [op["s"] for op in ops if op["phase"] == phase and op["s"] is not None]


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """End-to-end run: set-up and cold samples in fresh processes spread
    over the run, one of which goes on to the warm loop."""
    setups, colds, rss, ops, problems = [], [], [], [], []

    def record(result: dict) -> None:
        setups.append(result["setup_s"])
        if "rss_mb" in result:
            rss.append(result["rss_mb"])
        colds.extend(_timed(result["ops"], "cold"))
        ops.extend(result["ops"])
        problems.extend(result["problems"])

    def run(mode: str, stream: int) -> None:
        record(spawn(mode, deadline, workload=name, seed=seed, stream=stream))

    start = time.monotonic()
    for stream in range(SETUP_PER_SIDE):
        run("setup", stream)
    setups_done = time.monotonic()
    run("cold", SETUP_PER_SIDE)
    cold_process_s = time.monotonic() - setups_done
    # The warm loop gets what is left of `seconds` once the main process's
    # own set-up and cold op, and the processes after it, are allowed for.
    left = seconds - (time.monotonic() - start)
    main = spawn("main", deadline - POST_MAIN_S, workload=name, seed=seed,
                 stream=SETUP_PER_SIDE + 1, min_warm=TAIL_BEYOND + 1,
                 seconds=max(left - 2 * cold_process_s - (setups_done - start), 0.0))
    record(main)
    run("cold", SETUP_PER_SIDE + 2)
    for stream in range(SETUP_PER_SIDE + 3, 2 * SETUP_PER_SIDE + 3):
        run("setup", stream)
    warm = _timed(ops, "warm")
    refs = [op["ref_s"] for op in ops if op["phase"] == "warm" and op["s"] is not None]
    tail_value, tail_pct, beyond = tail(warm)
    bursts = WORKLOADS[name].bursts_per_op
    values = {
        "setup_s": statistics.median(setups),
        "cold_verdict_s": statistics.median(colds),
        "verdict_s.p50": statistics.median(warm),
        "verdict_s.tail": tail_value,
        "verdict_ref.p50": statistics.median(op / ref for op, ref in zip(warm, refs)),
        "ref_kernel_s.p50": statistics.median(refs),
        "peak_rss_mb": max(rss),
        "bursts_per_s": bursts * len(warm) / sum(warm) if bursts else None,
    }
    details = {
        "setup_samples_s": setups, "cold_samples_s": colds, "warm_samples_s": warm,
        "ref_kernel_samples_s": refs, "rss_samples_mb": rss,
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "bursts_per_op": bursts, "problems": problems, "numpy": main["numpy"],
    }
    return values, {"ops": ops, **details}


def measure_traced(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Traced run: per-layer medians over the traced ops of one process."""
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}.tsv.gz"
    result = spawn("trace", deadline, workload=name, seed=seed, stream=0,
                   seconds=seconds, min_warm=TRACE_MIN_OPS, spans=span_file)
    per_op = result["per_op"]

    def med(key: str) -> float:
        return statistics.median(op.get(key, 0) for op in per_op) if per_op else 0.0

    def ratio(part: str, base: str, scale: float = 1.0) -> float:
        values = [scale * op.get(part, 0) / op[base] for op in per_op if op.get(base)]
        return statistics.median(values) if values else 0.0

    values = {key: med(key) for key, _ in PER_LAYER}
    values["pauli.enumerate_bursts.ns_per_burst"] = ratio(
        "pauli.enumerate_bursts.self_s", "pauli.bursts", 1e9)
    values["codes.syndrome_of.ns_per_call"] = ratio(
        "codes.syndrome_of.self_s", "codes.syndrome_of.calls", 1e9)
    values["codes.membership_useful_ratio"] = ratio(
        "codes.in_stabilizer_group.true", "codes.in_stabilizer_group.calls")
    values["trace.coverage"] = 1.0 - ratio("cli.main.self_s", "trace.root_s")
    untraced, traced = _timed(result["ops"], "warm"), _timed(result["ops"], "traced")
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                  if untraced and traced else 0.0)
    max_qubits = int(max((op.get("statevector.max_qubits", 0) for op in per_op), default=0))
    details = {
        "ops": result["ops"], "problems": result["problems"], "numpy": result["numpy"],
        "traced_ops": len(per_op), "spans_written": result["spans_written"],
        "span_file": str(span_file.relative_to(ROOT)),
        "bases": {
            "pauli.enumerate_bursts.ns_per_burst": "self time / pauli.bursts",
            "codes.syndrome_of.ns_per_call": "self time / codes.syndrome_of.calls",
            "codes.membership_useful_ratio":
                "True returns / codes.in_stabilizer_group.calls",
            "trace.coverage": "1 - cli.main self time / cli.main span",
            "trace.overhead_s": "traced minus untraced median op time, same process",
        },
        "bytes_computed": "computed from array sizes, not measured: per pass "
                          "2^n amplitudes x 16 B read + 16 B written, plus 8 B of "
                          "int64 index per amplitude for apply_pauli passes (one "
                          "per non-zero Pauli mask); permute_qubits is one pass",
        "largest_vector": (f"{max_qubits} qubits = {(1 << max_qubits) * 16 / 2**20:g} MiB"
                           if max_qubits else "none"),
        "per_op": per_op,
    }
    return values, details


def self_check() -> int:
    """One traced op of every workload with all output checks; exit 1 on
    any problem."""
    start = time.monotonic()
    result = spawn("check", start + RUN_LIMIT_S)
    bad = 0
    for name, check in result["workloads"].items():
        op = check["ops"][0]
        status = "ok" if op["ok"] and not check["problems"] else "FAIL"
        bad += status != "ok"
        print(f"{name:18s} {status}  {op['s'] or 0:.3f} s traced")
        for problem in check["problems"]:
            print(f"  {problem}")
    print(f"self-check {'passed' if not bad else 'failed'} in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if bad else 0


def _print_metrics(values: dict, units: tuple) -> None:
    for key, unit in units:
        value = values.get(key)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:45s} {shown:>14s} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run one checked, traced op of every workload (< 10 s)")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        deadline = time.monotonic() + RUN_LIMIT_S
        run = measure_traced if args.trace else measure
        values, details = run(args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = len(details["ops"])
    failed = sum(not op["ok"] for op in details["ops"])
    correct = failed == 0 and not details["problems"]
    facts = conditions(args.workload, args.seed, args.seconds, args.trace,
                       details.pop("numpy"))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        metric_units = PER_LAYER
        _print_metrics(values, PER_LAYER)
        print(f"  traced ops: {details['traced_ops']}; spans: {details['spans_written']} "
              f"in {details['span_file']}")
        print(f"  largest state vector: {details['largest_vector']} "
              f"(L2 per core {facts['l2_per_core']}, L3 {facts['l3']})")
        print(f"  bytes_computed: {details['bytes_computed']}")
    else:
        metric_units = END_TO_END
        values["failed_op_ratio"] = failed / attempted
        print("  bounded in BENCHMARK.json:")
        _print_metrics(values, END_TO_END)
        print("  reported:")
        _print_metrics(values, REPORTED_ONLY)
        print(f"  tail = p{details['tail_percentile']:.1f} of "
              f"{len(details['warm_samples_s'])} warm ops "
              f"({details['tail_samples_beyond']} beyond); failed_op_ratio = "
              f"{failed} failed / {attempted} attempted")
    for problem in details["problems"]:
        print(f"  problem: {problem}")
    print("  conditions: " + "; ".join(f"{k}={v}" for k, v in facts.items()))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"conditions": facts, "values": values, **details}, indent=1) + "\n")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in metric_units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
