#!/usr/bin/env python3
"""Benchmark for wpir: four workloads against the library in src/.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 22 --trace 0

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  Every output
is checked against perfbench/reference.json; any mismatch is a failed
operation and the exit code is 1.  Earlier stdout lines, and
perfbench/out/<workload>-trace<0|1>.json, give the environment, every
sample and the repetition drift; a traced run also writes its spans to
perfbench/out/<workload>-spans.csv.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import PATCHES, per_layer_metrics
from tracer import Tracer
from workloads import ORACLE_TARGETS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# one thread of our own: numpy's BLAS must not start a pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# operations are timed in CPU seconds of this process: the loop is
# single-threaded and CPU-bound, so that is its wall time without the
# time a shared host takes away (steal bursts of several seconds were
# seen on a shared 2-core virtual machine)
_cpu = time.process_time
_wall = time.perf_counter


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/wpir/*.py, which names the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wpir").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "threads": threads,
        "blas_threads": os.environ.get(THREAD_VARS[0]),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure(workload, seconds: float, min_ops: int):
    """Closed loop of at least `min_ops` ops that ends at the op boundary
    nearest `seconds` of wall time: another op starts only while its
    expected midpoint falls before that mark.  Ops of 10-30 s would
    otherwise overrun it by up to a whole op.  Garbage is collected
    between ops, outside their time.  Returns CPU and wall seconds per
    op and the loop's CPU seconds."""
    times, wall, failures = [], [], []
    start, cpu_start = _wall(), _cpu()
    i = 0
    while i < min_ops or (_wall() - start) * (1 + 0.5 / i) < seconds:
        t0, c0 = _wall(), _cpu()
        raised = None
        try:
            reason = workload.op(i)
        except Exception as exc:  # a broken op is a failed op, not a crash
            raised = reason = f"op {i} raised {type(exc).__name__}: {exc}"
        times.append(_cpu() - c0)
        wall.append(_wall() - t0)
        if reason:
            failures.append(reason)
        if raised:  # it would raise again at once, for the rest of the loop
            break
        if workload.collect_between_ops:
            gc.collect()
        i += 1
    return times, wall, failures, _cpu() - cpu_start


def drift(workload, setup_samples, times) -> dict:
    """First against last repetition, so a trend across them shows."""
    reps = setup_samples if workload.repeats_are_setups else times
    if not reps:
        return {"repetitions": 0}
    return {
        "repetitions": len(reps),
        "first_s": reps[0],
        "last_s": reps[-1],
        "drift_ratio": reps[-1] / reps[0] - 1,
    }


def end_to_end(setup_samples, times, loop_cpu_s) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile(times, 0.9) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(times) / loop_cpu_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


# the same numbers under the names each workload's users know them by
ALIASES = {
    "frontier": (("frontier_s", "op_p50_ms", 1e-3, "s"),),
    "endpoints-wide": (("frontier_s", "op_p50_ms", 1e-3, "s"),),
    "retrieve": (("retrievals_per_s", "ops_per_s", 1, "1/s"),
                 ("retrieval_p50_ms", "op_p50_ms", 1, "ms"),
                 ("retrieval_p90_ms", "op_p90_ms", 1, "ms")),
    "oracle": (("oracle_target_s", "op_p50_ms", 1e-3 / len(ORACLE_TARGETS), "s"),),
}


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import wpir

    if Path(wpir.__file__).resolve().parent != (SRC / "wpir").resolve():
        print(f"error: imported wpir from {wpir.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    workload = WORKLOADS[args.workload](reference, args.seed, str(SRC))
    tracer = Tracer(PATCHES) if args.trace else None

    if tracer:
        tracer.install()
    # a traced run takes no timing samples, but the in-process set-up
    # is traced once
    setup_samples = workload.setup(0 if tracer else workload.setup_repeats)
    threads = thread_count()
    if tracer:
        setup_phase = tracer.drain("setup")
        tracer.restore()
    failures = workload.gate()
    attempted = workload.gate_checks

    reference_times = []
    if tracer:
        # the same first ops, untraced then traced, give the overhead
        reference_times, _, ref_failures, _ = measure(workload, 0, workload.overhead_ops)
        failures += ref_failures
        attempted += len(reference_times)
        tracer.install()
    times, wall_times, op_failures, loop_cpu_s = measure(workload, args.seconds, workload.overhead_ops)
    threads = max(threads, thread_count())
    failures += op_failures
    attempted += len(times)

    env = environment(args.seed, threads)
    attempted += 1  # the thread-count check
    if threads > env["nproc"]:
        failures.append(f"{threads} threads exceed nproc={env['nproc']}")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_samples_s": setup_samples, "op_cpu_s": times, "op_wall_s": wall_times,
        "drift": drift(workload, setup_samples, times), "failures": failures,
    }
    if tracer:
        ops_phase = tracer.drain("ops")
        tracer.restore()
        k = workload.overhead_ops
        ratios = [t / r for t, r in zip(times[:k], reference_times)]
        metrics = per_layer_metrics(
            tracer, setup_phase, max(1, len(setup_samples)), ops_phase, len(times)
        )
        metrics["trace.coverage"] = {"value": ops_phase.self_total / sum(times), "unit": "ratio"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(ratios) - 1, "unit": "ratio"
        }
        metrics["trace.ops"] = {"value": len(times), "unit": "count"}
        record["untraced_reference_times_s"] = reference_times
        record["missing_targets"] = tracer.missing
        record["broken_counters"] = sorted(tracer.broken)
    else:
        metrics = end_to_end(setup_samples, times, loop_cpu_s)

    OUT.mkdir(exist_ok=True)
    record["metrics"] = metrics
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        spans = tracer.write_spans(OUT / f"{args.workload}-spans.csv")
        print(f"spans {spans} written to {OUT / (args.workload + '-spans.csv')}")
        for target in tracer.missing:
            print(f"missing trace target {target}: its metrics are left out")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    d = record["drift"]
    if d["repetitions"]:
        print(f"repetitions {d['repetitions']}: first {d['first_s']:.4f} s, "
              f"last {d['last_s']:.4f} s, drift {d['drift_ratio']:+.2%}")
    for reason in failures[:20]:
        print(f"FAIL {reason}")
    print(f"failed_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    if not tracer:
        for alias, metric, scale, unit in ALIASES[args.workload]:
            print(f"{alias} {metrics[metric]['value'] * scale:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wpir" / "__init__.py").is_file():
        print(f"error: no wpir source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
