#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/src) and the vf
libraries it links (src/) are built with CMake into .bench_build/perfbench;
the first run builds, later runs reuse the build. The harness's output is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, a correctness check fails, or the metric names do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vf_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure, then build incrementally (a no-op when nothing changed).
    Output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "vf_perfbench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


# Per-layer metrics a workload leaves idle: the layer does no work on that
# workload, so its traced run reports them as 0. Every other per-layer
# metric must be measured; one the harness does not report fails the run.
SERVE = ["serve.points_per_batch", "serve.shed", "serve.expired",
         "serve.self_s", "loadgen.lag_ms"]
REGISTRY = ["serve.registry.hits", "serve.registry.loads",
            "serve.registry.evictions", "serve.registry.hit_ratio",
            "serve.registry.swaps"]
FIELD = ["field.read_vtp_s", "field.read_vti_s", "field.write_vti_s",
         "field.write_mb_per_s", "field.self_s"]
CLASSICAL = ["geometry.delaunay_build_s", "interp.linear_query_s",
             "interp.natural_s"]
PIPELINE = ["pipeline.sample_s", "pipeline.train_s", "pipeline.score_s",
            "pipeline.steps_coalesced", "sampling.self_s", "core.self_s"]
IDLE = {
    "archive_grid": SERVE + REGISTRY + PIPELINE,
    "serve_live": FIELD + CLASSICAL + PIPELINE + ["api.self_s"],
    "serve_timesteps": FIELD + CLASSICAL + PIPELINE + ["api.self_s"],
    "insitu_stream": FIELD + CLASSICAL,
}


# OpenMP threads per workload (unset: the library default, one per core).
# The in-situ fine-tune gets two, leaving the other two cores to the serve
# tier's two workers and the probe stream. At four threads beside them its
# step time collapses whenever anything else wants a core (the libgomp
# contention of ROADMAP item 1; figures in README.md); at two it does not.
OMP_THREADS = {"insitu_stream": 2}


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode, or
    None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        return 1

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ)
    if args.workload in OMP_THREADS:
        env["OMP_NUM_THREADS"] = str(OMP_THREADS[args.workload])
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        log(f"{args.workload} printed no result (exit {done.returncode})")
        return 1

    declared = declared_metrics(bool(args.trace))
    metrics = result.setdefault("metrics", {})
    mismatch = False
    if declared is not None:
        idle = set(IDLE.get(args.workload, [])) if args.trace else set()
        expected = set(declared) - idle
        reported = set(metrics)
        mismatch = reported != expected
        if mismatch:
            log(f"metrics differ from BENCHMARK.json less the idle layers: "
                f"missing {sorted(expected - reported)}, "
                f"extra {sorted(reported - expected)}")
            result["correct"] = False
        for name in sorted(idle & set(declared)):
            metrics[name] = {"value": 0, "unit": declared[name]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 1 if done.returncode != 0 or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
