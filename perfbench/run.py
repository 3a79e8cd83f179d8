"""qschub benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload members --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --trace 1  # per-layer tables
    python3 perfbench/run.py --record-golden           # rewrite golden.json

Every pass of a workload is one fresh single-threaded Python process
(worker.py), because every `qschub` command pays for cold caches.  Passes run
one after another until the next one would overrun `--seconds`; the first
always runs.  Set-up is also timed in separate processes that only import
qschub and build the inputs.  Each reported value is the median over passes.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate and
it holds the per-layer metrics and the tracing overhead.  The process exits
with a non-zero code, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 6
MAX_PASSES = 100
WORKER_TIMEOUT_S = 150
# Largest yardstick drag (see _yardstick_drag) taken as host noise.
DRAG_LIMIT = 1.15


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(workload, seed, scale, *extra) -> dict:
    """Run one worker process and return its JSON report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--scale", scale, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = _now()
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["duration"] = _now() - spawned
    return report


def _op_median_sum(reports: list, key: str) -> float:
    """Sum over operations of each operation's median time across passes.

    Every pass runs the same operations in the same order, so an operation's
    times are comparable across passes.  Slow spells of the host that hit one
    pass drop out of the per-operation medians."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in reports)))


def _yardstick_drag(passes: list, processes: list) -> float:
    """Check the yardstick's premise: that the program leaves nothing behind
    after an operation (threads, processes, memory pressure) that slows the
    yardstick, which would lower the scale factor and hide the slowdown.

    Every process paces the host during set-up and right after it, before
    the program has run anything: clean readings.  The host switches between
    a fast and a slow state about 2x apart (on the 2-vCPU VM the benchmark
    was built on), so readings are compared by their fastest value, the fast
    state.  The drag is the fastest reading during or after the operations
    of `passes` over the median, across `processes`, of each process's
    fastest clean reading; the median, because a rare spell even faster than
    the fast state can catch one process's set-up.  The drag is about 1, or
    below, when the premise holds."""
    return (min(r["ops_fastest_s"] for r in passes)
            / statistics.median(r["clean_fastest_s"] for r in processes))


def measure(workload: str, seed: int, seconds: float, trace: bool = False,
            scale: str = "full", golden: bool = True) -> dict:
    """Run passes of one workload for `seconds` and aggregate them."""
    start = _now()
    _worker(workload, seed, scale, "--setup-only")  # compiles bytecode; not counted
    setups = [_worker(workload, seed, scale, "--setup-only") for _ in range(SETUP_PROBES)]
    flags = [] if golden else ["--no-golden"]
    plain, traced, done = [], [], []
    while True:
        done.append(_worker(workload, seed, scale, *flags))
        plain.append(done[-1])
        if trace:
            done.append(_worker(workload, seed, scale, *flags, "--trace", "1"))
            traced.append(done[-1])
        per_round = statistics.median(r["duration"] for r in done) * (2 if trace else 1)
        if _now() - start + per_round > seconds or len(plain) >= MAX_PASSES:
            break
    setups += done
    result = {
        "correct": all(r["failed"] == 0 for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "passes": len(plain),
        "digests": plain[0]["digests"],
        "drag": _yardstick_drag(plain, setups),
    }
    if not trace:
        metrics = {
            "wall_s": {"value": _op_median_sum(plain, "op_wall_ref_s"), "unit": "s"},
            "cpu_s": {"value": _op_median_sum(plain, "op_cpu_ref_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(r["setup_ref_s"] for r in setups),
                        "unit": "s"},
        }
    else:
        metrics = {name: {"value": statistics.median(r["layers"][name]["value"] for r in traced),
                          "unit": entry["unit"]}
                   for name, entry in traced[0]["layers"].items()}
        traced_wall = _op_median_sum(traced, "op_wall_ref_s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - _op_median_sum(plain, "op_wall_ref_s"), "unit": "s"}
        metrics["trace.spans"] = {"value": traced[-1]["spans"], "unit": "count"}
        metrics["yardstick.drag"] = {"value": result["drag"], "unit": "ratio"}
    result["metrics"] = metrics
    result["unscaled"] = {"wall_s": _op_median_sum(plain, "op_wall_s"),
                          "cpu_s": _op_median_sum(plain, "op_cpu_s"),
                          "setup_s": statistics.median(r["setup_s"] for r in setups)}
    return result


def _summary(workload: str, result: dict) -> list:
    lines = [f"{workload}: {result['passes']} passes, "
             f"fail_ratio {result['failed'] / result['attempted']:.4f} "
             f"({result['failed']}/{result['attempted']} operations)"]
    for name, entry in result["metrics"].items():
        lines.append(f"  {name:42s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result["unscaled"].items():
        lines.append(f"  {'unscaled ' + name:42s} {value:>16.6g} s")
    if "yardstick.drag" not in result["metrics"]:
        lines.append(f"  {'yardstick drag':42s} {result['drag']:>16.6g} ratio")
    if result["drag"] > DRAG_LIMIT:
        lines.append(f"  WARNING: the yardstick ran {result['drag']:.2f}x slower after operations "
                     "than after a clean set-up; the scaled times understate the program's cost")
    return lines


def _record_golden() -> int:
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for scale in ("tiny", "full"):
            result = measure(workload, DEFAULT_SEED, 0, scale=scale, golden=False)
            if not result["correct"]:
                raise BenchError(f"{workload} ({scale}) fails its second-route checks")
            golden[workload].update(result["digests"])
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {HERE / 'golden.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qschub" / "__init__.py").is_file():
        print(f"error: no qschub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            return _record_golden()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in names:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
            print("\n".join(_summary(workload, result)))
        if args.workload != "all":
            print(json.dumps({key: result[key]
                              for key in ("correct", "attempted", "failed", "metrics")}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
