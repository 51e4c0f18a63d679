"""Benchmark of the adtypes command line, one workload per run.

    python3 perfbench/run.py --workload vcg-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  A run writes a fixed, seeded list of
instance files, makes one untimed warm-up call on an instance outside that
list, then times one in-process ``adtypes.cli.run([...])`` call per file:
read the JSON input, validate, compute, write the JSON output.  Times are
reported at a reference machine speed (see :func:`timed`).  After the timed
loop every output is checked against scipy (see ``checks.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans, see ``tracing.py``) with ``--trace 1``.
Exits 2 without a result when the program's source is missing.  See
``README.md`` for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
COLD_STARTS = 7
CAL_REF_S = 0.036  # calibrate()'s median on the machine the bounds were set on


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_to_current_cpu() -> None:
    """Keep this process and the interpreters it starts on the CPU it started
    on.  The two vCPUs of the machine the bounds were set on slow down
    independently, so a calibration says something about an op or a cold
    start only when both ran on the same CPU."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no /proc or no affinity control: measure unpinned


def calibrate() -> float:
    """Time a fixed pure-Python workload shaped like the program's hot loops
    (tuple-keyed dict updates, heap pushes and pops).  The garbage collector
    is off meanwhile: a full collection's cost grows with every object the
    program keeps alive, and the calibration must not depend on the
    program's heap.  Its objects are freed by reference counting, so the
    program's own collections are left as they were."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, heap = {}, []
        for i in range(15000):
            key = (i % 97, i % 13, i >> 4)
            table[key] = table.get(key, 0.0) + i * 0.5
            heapq.heappush(heap, (i * 7919 % 10007, i))
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def timed(fn, count: int) -> tuple[list[float], list[float]]:
    """Call ``fn(i)`` for i < count, with :func:`calibrate` before the first
    call and after every call.  Returns the wall time of each call and the
    machine's speed around it: CAL_REF_S over the mean of the calibrations
    just before and just after the call.

    On the 2-vCPU virtual machine the bounds were set on, speed drifts by up
    to 2x within seconds and by 10-20% from one run to the next.  The
    metrics report each call's time multiplied by its speed, that is, at
    the speed of the machine on which CAL_REF_S was measured, and then take
    medians and sums over the calls, which even out the noise of single
    calibrations."""
    times, calibrations = [], [calibrate()]
    for i in range(count):
        t0 = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
    speeds = [2.0 * CAL_REF_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    return times, speeds


def cold_start_s() -> float:
    """Median time, at reference speed, of a fresh interpreter importing
    ``adtypes.cli``, after one start that writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import adtypes.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times, speeds = timed(
        lambda _: subprocess.run(cmd, env=env, check=True, timeout=60), COLD_STARTS)
    return statistics.median(t * v for t, v in zip(times, speeds))


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_op(workload: str, op, rc) -> list[str]:
    """The problems of one op: its exit, or what the checks find in its
    output.  A missing or malformed output is a problem, not a crash."""
    import checks

    if rc != 0:
        return ["raised" if rc is None else f"exited {rc}"]
    try:
        inst, out = _load(op.instance), _load(op.output)
        if workload == "vcg-large":
            return checks.check_vcg(inst, out)
        if workload == "reserve-small":
            return checks.check_reserve(inst, _load(op.reserves), out)
        return checks.check_gap(inst, out)
    except Exception as exc:
        return [f"unreadable output: {exc!r}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import TIMED, WARMUP, WORKLOADS, make_op

    workload = WORKLOADS[name]
    pin_to_current_cpu()
    setup = None if trace else cold_start_s()

    from adtypes import cli

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        warmup = make_op(workload, seed, WARMUP, 0, workdir)
        ops = [make_op(workload, seed, TIMED, i, workdir)
               for i in range(workload.num_ops(seconds))]
        tracer = undo = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
        run = cli.run if tracer is None else \
            (lambda argv: tracer.call("op", cli.run, argv))
        codes = []

        def call(argv):
            try:
                codes.append(run(list(argv)))
            except Exception:  # an error that escapes the CLI's handler fails the op
                traceback.print_exc()
                codes.append(None)

        call(warmup.argv)
        warm_rc = codes.pop()

        def one(i):
            if tracer is not None:
                tracer.op = i
            call(ops[i].argv)

        gc.collect()
        times, speeds = timed(one, len(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if undo is not None:
            undo()

        # Any op that the program refuses, that raises or whose output is
        # wrong fails, and makes the run incorrect.
        problems = [f"warm-up op: {p}" for p in check_op(name, warmup, warm_rc)]
        completed = []
        for i, (op, rc) in enumerate(zip(ops, codes)):
            wrong = check_op(name, op, rc)
            problems += [f"op {i}: {p}" for p in wrong]
            if not wrong:
                completed.append(i)
        failed = len(ops) - len(completed)
        for p in problems:
            print(f"perfbench: failed op: {p}", file=sys.stderr)

        # Throughput counts completed ops only, over the time of every op;
        # the median is taken over completed ops (over all when none
        # completed, in a run that is reported incorrect anyway).
        scaled = [t * v for t, v in zip(times, speeds)]
        p50_of = completed or range(len(ops))
        print(f"wall time: op p50 {statistics.median(times[i] for i in p50_of) * 1000.0:.1f} ms, "
              f"{len(completed) / sum(times):.4f} ops/s; "
              f"machine speed {statistics.median(speeds):.3f}x reference")
        if tracer is None:
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "ops_per_s": {"value": len(completed) / sum(scaled), "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(scaled[i] for i in p50_of) * 1000.0,
                              "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            metrics = tracing.per_layer_metrics(tracer, speeds)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def _print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process, as the single-workload runs do."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_result(name, result)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "adtypes" / "cli.py").is_file():
        _fail(f"no adtypes source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import adtypes
    if SRC not in Path(adtypes.__file__).resolve().parents:
        _fail(f"imported adtypes from {adtypes.__file__}, not from {SRC}")

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_result(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
