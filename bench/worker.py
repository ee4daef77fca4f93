"""One pass over one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR

Runs the workload's tasks one after another on one thread, timing each
call and nothing else; the output checks run between tasks, outside the
timed region.  Each task time is also given at reference speed (see
SpeedProbe).  With --trace 1 the package's public functions are wrapped
first (see tracer.py) and the spans are written to DIR.  The last line of
standard output is a JSON object for bench/run.py.
"""

import argparse
import bisect
import json
import os
import resource
import signal
import sys
import time

import tracer
import workloads


PROBE_INTERVAL_S = 0.1
PROBE_REF_NS = 2_000_000  # probe time at reference speed
PROBE_WINDOW_NS = 500_000_000  # a speed lasts about this long on either side
_PROBE_ROW = (1 << 2048) // 3
_PROBE_MOD = (1 << 521) - 1


def _probe():
    # the kinds of work the workloads do: xor and popcount of long rows,
    # small dict updates, and modular exponentiation of a big integer
    counts = {}
    for i in range(2500):
        c = (_PROBE_ROW ^ i).bit_count() & 15
        counts[c] = counts.get(c, 0) + 1
    return pow(3, _PROBE_MOD - 1, _PROBE_MOD)


class SpeedProbe:
    """Times a fixed piece of work ten times a second, to rescale task times.

    On a shared host a CPU's speed swings by half or more for seconds to
    minutes as other tenants load it, which no number of repeats within a
    run averages out.  A SIGALRM handler times _probe (about 2 ms) every
    PROBE_INTERVAL_S, in the middle of tasks too.  A task's time at
    reference speed is its time minus the probes in it, times PROBE_REF_NS
    over the mean probe time within PROBE_WINDOW_NS of the task.
    """

    def __init__(self):
        self.start_ns = []  # when each probe began
        self.took_ns = []  # how long it ran

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter_ns()
        _probe()
        self.start_ns.append(t0)
        self.took_ns.append(time.perf_counter_ns() - t0)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_ns(self, t0, t1):
        def at(t):
            return bisect.bisect_left(self.start_ns, t)

        spent = t1 - t0 - sum(self.took_ns[at(t0) : at(t1)])
        around = self.took_ns[at(t0 - PROBE_WINDOW_NS) : at(t1 + PROBE_WINDOW_NS)]
        return spent * PROBE_REF_NS * len(around) / sum(around)


def _describe(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import modhadamard as M
    import modhadamard.cli  # noqa: F401  (bound before tracing wraps cli.main)

    src = os.path.join(os.path.dirname(workloads.HERE), "src")
    if not os.path.abspath(M.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("modhadamard imported from %s, not from %s" % (M.__file__, src))

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install(M)
    tasks = workloads.WORKLOADS[args.workload](M, args.seed, args.workdir)

    clock = time.perf_counter_ns
    speed = SpeedProbe()
    spans = []  # (start, end) of each task
    task_ns = []
    failures = []
    delivered = 0
    speed.start()
    for i, task in enumerate(tasks):
        result = error = None
        t0 = clock()
        try:
            result = task.call() if tr is None else tr.task_span(i, task.call)
        except Exception as exc:  # a failed task is counted, not fatal
            error = exc
        t1 = clock()
        # a traced task's time is its root span, which its spans' self
        # times add up to exactly
        task_ns.append(t1 - t0 if tr is None else tr.task_ns[-1])
        spans.append((t0, t1))
        if error is None:
            try:
                problems, pairs = task.check(result)
            except Exception as exc:
                problems, pairs = [_describe(exc)], 0
            delivered += pairs
        else:
            problems = [_describe(error)]
        if problems:
            failures.append("%s: %s" % (task.label, "; ".join(problems)))

    speed.stop()
    out = {
        "wall_s": sum(task_ns) / 1e9,
        "task_ms": [t / 1e6 for t in task_ns],
        "task_ref_ms": [speed.reference_ns(t0, t1) / 1e6 for t0, t1 in spans],
        "attempted": len(tasks),
        "failures": failures,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr is not None:
        out["layers"] = tracer.summarize(tr.spans, delivered)
        path = os.path.join(
            args.workdir, "spans-%s-seed%d-%d.jsonl" % (args.workload, args.seed, os.getpid())
        )
        tr.write(path)
        out["spans_file"] = path
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
