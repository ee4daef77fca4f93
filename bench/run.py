"""Benchmark runner for modhadamard.

    python3 bench/run.py --workload {refute,construct,classify,witness} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Every pass over the workload runs in a fresh
interpreter (bench/worker.py), one after another on one thread, so the
planner memo and the bundled-data caches start cold as for a CLI user.

A run makes passes until the next one would end after --seconds, and at
least two.  Task times are taken at reference speed (bench/worker.py,
SpeedProbe): on a shared host the CPU's speed swings by half or more for
seconds to minutes, so each task's wall time is rescaled by how long a
fixed piece of work, timed ten times a second around and inside it, took
against its reference time.  Each task's time is then its fastest over the run's
passes.  --trace 0 reports the end-to-end metrics:

  setup_s       median wall time of a fresh interpreter that imports the
                package and loads its bundled data, sampled before and
                after the passes (not rescaled)
  wall_s        sum of the task times: one pass over the task list
  task_p50_ms   median task time (nearest rank)
  task_p99_ms   99th-percentile task time (nearest rank)
  peak_rss_mib  median over passes of the worker's peak resident memory

The plain wall time of a pass, fastest task by task, is printed too.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the fastest traced pass (bench/layers.json lists them), with the
tracing overhead as traced minus untraced wall_s at reference speed.
Output checks run in every pass; failed tasks are counted in "failed".
The last line of standard output is the JSON result; exit code 2 means the
benchmark itself could not run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170  # the whole run, including set-up
MIN_PASSES = 2
SETUP_SAMPLES = 6  # before the passes and again after them
SETUP_CODE = (
    "import modhadamard\n"
    "from modhadamard import constructions\n"
    "constructions._load_json('catalog.json')\n"
    "constructions._load_json('two_circulant.json')\n"
)

with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["metrics"]}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 1:
        raise BenchError("run exceeded its %d s deadline" % DEADLINE_S)
    return left


def setup_samples(count, t_start):
    """Wall times of fresh interpreters importing the package and its data."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=_remaining(t_start)
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr.decode(errors="replace"))
    return samples


def run_pass(workload, seed, trace, t_start):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--workdir", WORKDIR,
    ]
    proc = subprocess.run(
        cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=_remaining(t_start)
    )
    if proc.returncode != 0:
        raise BenchError(
            "worker exited %d:\n%s" % (proc.returncode, proc.stderr.decode(errors="replace"))
        )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_passes(workload, seed, seconds, t_start, traces):
    """Passes cycling through `traces` until the next would end after `seconds`."""
    passes = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        trace = traces[len(passes) % len(traces)]
        passes.append(run_pass(workload, seed, trace, t_start))
        last = time.monotonic() - started
        if len(passes) >= MIN_PASSES and time.monotonic() - t0 + last > seconds:
            return passes


def fastest_tasks(passes, key="task_ms"):
    """Each task's fastest time over the passes, in ms."""
    return [min(times) for times in zip(*(p[key] for p in passes))]


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(workload, seed, seconds, t_start):
    setup_samples(1, t_start)  # may compile bytecode, which users pay once
    setup = setup_samples(SETUP_SAMPLES, t_start)
    passes = run_passes(workload, seed, seconds, t_start, (0,))
    setup += setup_samples(SETUP_SAMPLES, t_start)
    tasks = fastest_tasks(passes, "task_ref_ms")
    print("%s: %d passes of %d tasks; p50/p99 over %d task times; plain wall time %.3f s"
          % (workload, len(passes), len(tasks), len(tasks), sum(fastest_tasks(passes)) / 1e3))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(tasks) / 1e3, "s"),
        "task_p50_ms": (percentile(tasks, 0.50), "ms"),
        "task_p99_ms": (percentile(tasks, 0.99), "ms"),
        "peak_rss_mib": (statistics.median(p["rss_mib"] for p in passes), "MiB"),
    }
    return passes, metrics, []


def per_layer(workload, seed, seconds, t_start):
    passes = run_passes(workload, seed, seconds, t_start, (0, 1))
    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    best = min(traced, key=lambda p: p["wall_s"])
    for p in traced:
        if p is not best:
            os.remove(p["spans_file"])
    layers = dict(best["layers"])
    layers["trace.wall_s"] = best["wall_s"]
    layers["trace.overhead_s"] = (
        sum(fastest_tasks(traced, "task_ref_ms")) - sum(fastest_tasks(plain, "task_ref_ms"))
    ) / 1e3
    print("%s: %d untraced and %d traced passes; spans of the fastest traced pass in %s"
          % (workload, len(plain), len(traced), os.path.relpath(best["spans_file"], ROOT)))
    problems = []
    # the traced wall time is the task spans' total, so the self times add
    # up to it exactly unless a span was recorded outside every task
    gap = abs(best["wall_s"] - layers["trace.self_sum_s"])
    if gap > 1e-6:
        problems.append("self times miss the traced wall time by %.6f s" % gap)
    if set(layers) != set(LAYER_UNITS):
        problems.append("per-layer metrics differ from layers.json: %s"
                        % sorted(set(layers) ^ set(LAYER_UNITS)))
    metrics = {k: (v, LAYER_UNITS.get(k, "?")) for k, v in layers.items()}
    return passes, metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "modhadamard", "__init__.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        passes, metrics, problems = measure(args.workload, args.seed, args.seconds, t_start)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    failures = [f for p in passes for f in p["failures"]]
    for line in failures + problems:
        print("FAIL %s" % line)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-40s %16.6f %s" % (name, value, unit))
    result = {
        "correct": not failures and not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
