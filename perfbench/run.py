#!/usr/bin/env python3
"""Host-performance benchmark for the aapm library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_jsq --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 4

It builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs
the workload through the aapm_perfbench driver in fresh processes, checks
the simulated outputs, and prints one JSON object as the last stdout
line:

  --trace 0  end-to-end metrics of the plain program: setup_s (median of
             several fresh processes), core_intervals_per_s,
             cpu_ns_per_ci and peak_rss_mb.
  --trace 1  per-layer metrics from an instrumented process, which wraps
             the library's extension points in timing decorators, plus
             the instrumentation overhead against a plain process run
             beside it. The two processes must produce the same
             simulated-output digest.

Exit status: 0 when every output check passed, 1 when a check failed
(the result is still printed), 2 when the benchmark could not run (no
result is printed). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "aapm_perfbench"
WORKLOADS = ("suite_sweep", "cluster_capped", "serve_jsq", "cluster_traced")
# The timed seconds are split over this many fresh processes, each
# starting on another CPU, and their reps pooled.
TIMED_PROCESSES = 3
# Fresh processes timed to their first simulated interval before each
# timed process, so set-up is sampled across the whole run (training
# is compute-bound and its speed moves with the host as throughput
# does); setup_s is their median.
SETUP_SAMPLES = 2
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "core_intervals_per_s": "1/s",
    "cpu_ns_per_ci": "ns",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "models.train_s": "s",
    "exp.build_s": "s",
    "exp.run_ms_p50": "ms",
    "exp.run_ms_p99": "ms",
    "exp.busy_frac": "frac",
    "platform.self_ns_per_ci": "ns",
    "platform.fast_frac": "frac",
    "platform.fast_intervals": "count",
    "platform.chunked_intervals": "count",
    "idle.sleep_intervals": "count",
    "mgmt.decide_ns": "ns",
    "mgmt.limit_deliveries_per_round": "count",
    "cluster.phase_a_share": "frac",
    "cluster.alloc_share": "frac",
    "cluster.other_share": "frac",
    "cluster.boot_share": "frac",
    "cluster.finish_share": "frac",
    "serve.hook_share": "frac",
    "serve.queue_depth_mean": "count",
    "obs.records_per_ci": "count",
    "obs.bytes_per_record": "B",
    "obs.flush_cpu_frac": "frac",
    "obs.close_share": "frac",
    "layers.coverage_frac": "frac",
    "layers.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; build output to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    command = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def clean_env(extra=None):
    """The CLI defaults: no model cache file, pool width from the host,
    glibc's own malloc tuning."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("AAPM_", "MALLOC_"))}
    env.update(extra or {})
    return env


def drive(workload, args, timeout, cpu, env=None):
    """Run the driver once, starting on the cpu-th CPU it may use;
    return its last stdout line as JSON.

    The driver keeps itself on one CPU at a time, and moves to the next
    one every rep; the pool keeps its default width. Unpinned, each pool
    barrier waits on idle vCPUs to wake, and on a shared host that wait
    set the wall rate: 22-54% spread across seeds on the clusters,
    7-47% on suite_sweep.
    """
    args = ["--workload", workload, "--cpu", str(cpu)] + args
    try:
        proc = subprocess.run([str(BINARY)] + args, env=clean_env(env),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"driver timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"driver exited {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def setup_seconds(workload, seed, tmp, cpu):
    """Seconds from process start to the first simulated interval, for
    each of SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        mark = drive(workload, ["--seed", str(seed), "--seconds", "1",
                                "--mode", "setup", "--tmp", tmp],
                     SETUP_TIMEOUT_S, cpu)
        samples.append(mark["first_interval_mono_s"] - start)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
    return samples


def timed(workload, seed, seconds, mode, tmp, spans=None, env=None,
          min_reps=3, cpu=0):
    args = ["--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
            "--tmp", tmp, "--min-reps", str(min_reps)]
    if spans:
        args += ["--spans", spans]
    return drive(workload, args, seconds + 120, cpu, env)


def fast_quartile(results, key, faster_is_higher):
    """The quartile on the fast side of the reps of every process.

    Interference from the rest of the host only ever adds slow reps, so
    the fast quartile moves with the program and far less with the
    neighbours than the median does. On a shared host a CPU runs
    compute-bound work ~1.8x slower for tens of seconds at a time, so
    the reps of a run are pooled: its fast quartile holds whenever a
    quarter of the run's reps met a CPU at full speed.
    """
    values = [key(r) for result in results for r in result["reps"]]
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] if faster_is_higher else quartiles[0]


def ci_per_s(result):
    return fast_quartile([result], lambda r: r["ci"] / r["wall_s"], True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result object, human summary)."""
    tmp = ROOT / ".bench_build" / "tmp" / f"{workload}-{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    try:
        if trace:
            plains = [timed(workload, seed, seconds / 2, "plain", str(tmp))]
            spans = ROOT / ".bench_build" / "spans" / f"{workload}-{seed}.jsonl"
            os.makedirs(spans.parent, exist_ok=True)
            layers = timed(workload, seed, seconds / 2, "layers", str(tmp),
                           str(spans))
            runs = plains + [layers]
        else:
            # Peak RSS from its own short process with one malloc arena:
            # with glibc's per-thread arenas the peak moves by 15% with
            # whichever pool threads happened to allocate.
            memory = timed(workload, seed, 0.01, "plain", str(tmp),
                           env={"MALLOC_ARENA_MAX": "1"}, min_reps=1)
            setups, plains = [], []
            for k in range(TIMED_PROCESSES):
                setups += setup_seconds(workload, seed, str(tmp), k)
                plains.append(timed(workload, seed,
                                    seconds / TIMED_PROCESSES, "plain",
                                    str(tmp), cpu=k))
            setup = statistics.median(setups)
            runs = [memory] + plains
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # Every process, instrumented or not, must simulate the same thing.
    digests = sorted({r["digest"] for r in runs})
    if len(digests) > 1:
        failures.append(f"processes disagree on the digest: {digests}")
        failed = attempted
    plain = plains[0]
    if not plain["host"]["comparable"]:
        log("warning: the driver was not built optimised; its times are "
            "not comparable")

    def across(key, faster_is_higher):
        return fast_quartile(plains, key, faster_is_higher)

    if trace:
        numbers = dict(layers["layers"])
        numbers["models.train_s"] = layers["train_s"]
        numbers["exp.build_s"] = layers["build_s"]
        numbers["layers.overhead_frac"] = ci_per_s(plain) / ci_per_s(layers) - 1
        metrics = {k: metric(numbers[k], u) for k, u in LAYER_UNITS.items()}
    else:
        numbers = {
            "setup_s": setup,
            "core_intervals_per_s": across(
                lambda r: r["ci"] / r["wall_s"], True),
            "cpu_ns_per_ci": across(
                lambda r: r["cpu_s"] * 1e9 / r["ci"], False),
            "peak_rss_mb": memory["peak_rss_mb"],
        }
        metrics = {k: metric(numbers[k], u)
                   for k, u in END_TO_END_UNITS.items()}

    summary = {
        "workload": workload,
        "seed": seed,
        "digest": plain["digest"],
        "sim": plain["sim"],
        "host": plain["host"],
        "reps": attempted,
        "failed_frac": failed / attempted,
        "failures": failures[:10],
    }
    if workload == "serve_jsq":
        summary["requests_per_s"] = across(
            lambda r: r["requests"] / r["wall_s"], True)
    if trace:
        summary["layers_detail"] = layers["layers_detail"]
        summary["spans"] = str(spans.relative_to(ROOT))
    result = {"correct": failed == 0 and not failures,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def print_summary(summary, metrics):
    print(f"{summary['workload']} seed {summary['seed']}: "
          f"{summary['reps']} reps, failed_frac {summary['failed_frac']:g}, "
          f"digest {summary['digest']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "requests_per_s" in summary:
        print(f"  {'requests_per_s':34s} {summary['requests_per_s']:.6g} 1/s")
    for key in ("sim", "layers_detail", "host"):
        if key in summary:
            print(f"  {key}: {json.dumps(summary[key])}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, summary = run_workload(name, args.seed, args.seconds,
                                           args.trace)
            print_summary(summary, result["metrics"])
            results[name] = result
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"perfbench: {exc}")
        return 2

    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
