"""One benchmark pass in a fresh process: import, plan, run, check, report.

    python3 perfbench/worker.py --workload members --seed 1 --spawned <t>

`--spawned` is the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time includes interpreter start.  Outputs are checked
against golden.json unless `--no-golden` is given.  With `--trace 1` the spans
go to out/spans-<workload>.jsonl.  The process prints one JSON object on its
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    sampler = yardstick.Sampler()
    sampler.start()  # paces set-up as well
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--no-golden", action="store_true",
                        help="check outputs by the second route only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qschub.cli  # noqa: F401  (imports every layer)

    import workloads

    package = sys.modules["qschub"]
    specs = workloads.plan(args.workload, args.seed, args.scale)
    set_up = time.perf_counter()
    sampler.stop()
    clean = yardstick.pace()
    spawned = args.spawned + time.perf_counter() - _now()  # on the perf_counter clock
    setup_s, setup_ref_s, _ = sampler.scaled(spawned, set_up, clean)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "yardstick_s": clean,
              "clean_fastest_s": min([clean] + [took for *_, took in sampler.samples])}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(package, sampler.clock)
        tracer.install()
    outputs, op_wall, op_cpu, op_yardstick, op_wall_ref, op_cpu_ref = [], [], [], [], [], []
    fastest = float("inf")
    for index, spec in enumerate(specs):
        if tracer:
            tracer.op = index + 1
        sampler.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs.append((True, workloads.run_op(spec, package)))
        except Exception:  # an operation that raises counts as failed
            outputs.append((False, traceback.format_exc()))
        wall1, cpu1 = time.perf_counter(), time.process_time()
        sampler.stop()
        op_yardstick.append(yardstick.pace())
        wall, wall_ref, sample_cpu = sampler.scaled(wall0, wall1, op_yardstick[-1])
        scale = wall_ref / wall
        op_wall.append(wall)
        op_cpu.append(cpu1 - cpu0 - sample_cpu)
        op_wall_ref.append(wall_ref)
        op_cpu_ref.append(op_cpu[-1] * scale)
        fastest = min([fastest, op_yardstick[-1]] + [took for *_, took in sampler.samples])
        if tracer:
            tracer.end_op(scale)
    result.update(op_wall_s=op_wall, op_cpu_s=op_cpu, op_yardstick_s=op_yardstick,
                  ops_fastest_s=fastest,
                  op_wall_ref_s=op_wall_ref, op_cpu_ref_s=op_cpu_ref,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}.jsonl",
                           [workloads.op_key(s) for s in specs])

    golden = {}
    if not args.no_golden:
        golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    failures, digests = [], {}
    for spec, (ok, out) in zip(specs, outputs):
        key = workloads.op_key(spec)
        if not ok:
            failures.append(f"{key}: raised\n{out}")
            continue
        try:
            digests[key], problem = workloads.verdict(spec, out, package, golden)
        except Exception:
            problem = "check raised\n" + traceback.format_exc()
        if problem:
            failures.append(f"{key}: {problem}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result.update(attempted=len(specs), failed=len(failures), digests=digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
