"""What the package's records cost: to build, inside decide, and at import.

Three measurements, each the fastest of several repeats, as the host's
CPU speed drifts:

- records_us: the time in microseconds to build each record type once,
  from fixed arguments (best of 7 runs of a timeit loop);
- decide_us_per_call: decide(n, m) over the classify grid of the bench
  (orders 3..150 at m in 2, 3, 4, 5, 6, 7, 8, 12, and 3 <= n <= 8 at
  2 <= m <= 9), in grid order, one call each.  "cold" is the first pass
  of a fresh interpreter (planner memo and data caches empty), "warm"
  the fastest of the next passes in the same interpreter; each is the
  fastest of 5 interpreters, with the median call of that pass as p50;
- import: a fresh interpreter running `import modhadamard` (median wall
  time of 21, after one run that may compile bytecode), and the
  `-X importtime` self times in microseconds of modhadamard.* and of
  dataclasses and inspect (fastest of 7 runs; 0 when not imported).
  "as_called" runs in the caller's environment: with
  PYTHONDONTWRITEBYTECODE set no bytecode is cached, and every run
  compiles the package.  "bytecode_cached" points -X pycache_prefix at a
  temporary directory, so that every module is compiled once, there.

The results go into BENCH_records.json (see bench_file.py for the
options).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from fractions import Fraction

import bench_file

MODULI = (2, 3, 4, 5, 6, 7, 8, 12)
GRID = [(n, m) for m in MODULI for n in range(3, 151)]
GRID += [(n, m) for n in range(3, 9) for m in range(2, 10)]
INTERPRETERS = 5
WARM_PASSES = 5
IMPORT_SAMPLES = 21
IMPORTTIME_SAMPLES = 7
WATCHED = ("dataclasses", "inspect")
ABOUT = (
    "Costs of the package's records, written by tools/records_bench.py: the build "
    "time of each record type, decide over the bench's classify grid (cold and warm), "
    "and a fresh interpreter's import of the package with the -X importtime self "
    "times; each a fastest or median over repeats on the machine named in the run."
)

# one pass over GRID per line of output: the time of each call in ns
_DECIDE_CHILD = """
import json, sys, time
import modhadamard as M
grid = json.loads(sys.argv[1])
clock = time.perf_counter_ns
for _ in range(1 + %d):
    times = []
    for n, m in grid:
        t0 = clock()
        M.decide(n, m)
        times.append(clock() - t0)
    print(json.dumps(times))
""" % WARM_PASSES


def record_samples(M):
    """(record, arguments) pairs, one per record type."""
    from modhadamard.constructions import Family10Params, Family11Params, Recipe

    ones = Recipe("AllOnes", (3,), (), 3, 3, "mh")
    gram = {"modulus": 3, "diagonal_ok": True, "verdict": True, "rows": (0, 5, 6)}
    # a GramReport with no _fields is the earlier hand-written class, which
    # also took diagonal_ok and the rows, so --src can measure it as well
    fields = getattr(M.GramReport, "_fields", ("modulus", "diagonal_ok", "verdict", "rows"))
    return [
        (M.PrimePower, (3, 2, False)),
        (M.Condition1Witness, (3, 1, 7, 4, 400, 20, 2, False)),
        (M.SignMatrix, (4, (0, 10, 12, 6))),
        (M.IncidenceMatrix, (4, (1, 3, 7, 15))),
        (M.DesignParams, (7, 3, 1, 0)),
        (M.GramReport, tuple(gram[name] for name in fields)),
        (Family10Params, (3, 2, 1, 4, 13, 4, 1, True)),
        (Family11Params, (3, 1, 7, 3, 1)),
        (Recipe, ("Double", (), (ones,), 6, 6, "mh")),
        (M.Verdict, (3, 3, "Exists", "Constructed", ones, True, None)),
        (M.SmallCaseReport, (7, 3, 4, 2, Fraction(5, 2), Fraction(1, 2), True, None)),
        (M.SearchProblem, (13, 5, "restricted", "exhaust", True)),
        (M.SearchOutcome, (None, True, 12, 4, 0, {})),
    ]


def records_us(M):
    out = {}
    for cls, args in record_samples(M):
        timer = timeit.Timer("cls(*args)", globals={"cls": cls, "args": args})
        loops = 20000
        out[cls.__name__] = round(min(timer.repeat(7, loops)) / loops * 1e6, 3)
    return out


def _run(args, src, cache=None):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    if cache is not None:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        args = ["-X", "pycache_prefix=" + cache] + args
    return subprocess.run(
        [sys.executable] + args, env=env, capture_output=True, text=True, check=True
    )


def decide_us(src):
    best = {}
    for _ in range(INTERPRETERS):
        out = _run(["-c", _DECIDE_CHILD, json.dumps(GRID)], src).stdout.split("\n")
        passes = [json.loads(line) for line in out if line]
        for key, times in (("cold", passes[0]), ("warm", min(passes[1:], key=sum))):
            if key not in best or sum(times) < sum(best[key]):
                best[key] = times
    return {
        key: {
            "us_per_call": round(sum(times) / len(times) / 1e3, 3),
            "p50_us": round(statistics.median(times) / 1e3, 3),
        }
        for key, times in best.items()
    } | {"calls": len(GRID)}


def import_costs(src, cache=None):
    _run(["-c", "import modhadamard"], src, cache)  # may compile bytecode
    wall = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        _run(["-c", "import modhadamard"], src, cache)
        wall.append(time.perf_counter() - t0)
    self_us = {}
    for _ in range(IMPORTTIME_SAMPLES):
        err = _run(["-X", "importtime", "-c", "import modhadamard"], src, cache).stderr
        seen = dict.fromkeys(WATCHED, 0)
        for line in err.splitlines():
            # "import time:   self [us] |  cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in WATCHED or name.startswith("modhadamard"):
                seen[name] = int(parts[0].split(":")[1])
        for name, us in seen.items():
            self_us[name] = min(us, self_us.get(name, us))
    return {
        "wall_ms_median": round(statistics.median(wall) * 1e3, 2),
        "importtime_self_us": dict(sorted(self_us.items())),
        "modhadamard_self_us_total": sum(
            us for name, us in self_us.items() if name.startswith("modhadamard")
        ),
    }


def measure(M, src):
    results = {"records_us": records_us(M)}
    print("records", results["records_us"], flush=True)
    results["decide_us_per_call"] = decide_us(src)
    print("decide", results["decide_us_per_call"], flush=True)
    with tempfile.TemporaryDirectory() as cache:
        results["import"] = {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "as_called": import_costs(src),
            "bytecode_cached": import_costs(src, cache),
        }
    print("import", results["import"], flush=True)
    return results


if __name__ == "__main__":
    bench_file.main("records", ABOUT, measure)
