"""Print the ROADMAP baseline figures that the benchmark's instances cover.

    python3 bench/baseline.py

Run from the root of a source checkout (the package is imported from
./src).  Each figure is one call on one thread in this interpreter, timed
with perf_counter; takes about 30 s.  The same instances run inside the
construct and refute workloads of bench/run.py.

Two ROADMAP timings are test timings, not benchmark instances, and are not
reproduced here: the 79 s of test_03 (restricted exhaust of (15,7),
86,567,917 nodes) and the 44 s of test_05 (condition1_search at p = 11 for
every delta).  Both are too long for the repeated runs of a benchmark.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import modhadamard as M  # noqa: E402


def timed(label, fn):
    t0 = time.perf_counter()
    result = fn()
    print("%-44s %8.2f s" % (label, time.perf_counter() - t0), flush=True)
    return result


def main():
    timed("materialize(plan(1252, 5))", lambda: M.materialize(M.plan(1252, 5)))
    timed("materialize(plan(2048, 0))", lambda: M.materialize(M.plan(2048, 0)))
    timed("decide(4004, 7)", lambda: M.decide(4004, 7))
    out = timed(
        "run(SearchProblem(13, 5, restricted, exhaust))",
        lambda: M.run(M.SearchProblem(13, 5, "restricted", "exhaust")),
    )
    print("  nodes visited: %d (candidate rows %d)" % (out.nodes_visited, out.candidate_row_count))


if __name__ == "__main__":
    main()
