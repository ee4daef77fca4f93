"""Node counts of the restricted exhaustive search on fixed instances.

For each instance below this runs
run(SearchProblem(n, m, "restricted", "exhaust"), log_branches=True) once
and records the nodes visited, the candidate rows, the DFS starts (one log
entry each), whether a witness was found, and the wall time of
candidate_rows alone and of the whole run.  Node counts do not depend on
the machine; the times do, so the machine is recorded beside them.

The results go into BENCH_search.json under --label, next to the labels
already in the file, so that one file holds the numbers before and after
a change.  --src picks the package to measure, e.g. an export of the
parent commit:

    python tools/search_nodes.py --label after
    python tools/search_nodes.py --src /path/to/parent/src --label before
"""

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCES = ((13, 5), (15, 7), (17, 9), (19, 11), (21, 13), (23, 15), (23, 9), (23, 17))


def measure(n, m, M):
    t0 = time.perf_counter()
    M.candidate_rows(n, m, "restricted")
    t1 = time.perf_counter()
    out = M.run(M.SearchProblem(n, m, "restricted", "exhaust"), log_branches=True)
    t2 = time.perf_counter()
    return {
        "found": out.found is not None,
        "nodes": out.nodes_visited,
        "candidate_rows": out.candidate_row_count,
        "dfs_starts": len(out.log.get("branches", ())),
        "candidates_s": round(t1 - t0, 4),
        "run_s": round(t2 - t1, 4),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the modhadamard package")
    ap.add_argument("--label", required=True, help="key of this run in the output")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_search.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import modhadamard as M

    results = {}
    for n, m in INSTANCES:
        results["%d,%d" % (n, m)] = measure(n, m, M)
        print(n, m, results["%d,%d" % (n, m)], flush=True)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["about"] = (
        "Restricted exhaust on fixed instances, written by tools/search_nodes.py: "
        "nodes, candidate rows and DFS starts are exact; candidates_s (candidate_rows "
        "alone) and run_s (the whole run, candidate rows included) are one wall-clock "
        "sample each on the machine named in the run."
    )
    doc.setdefault("runs", {})[args.label] = {
        "machine": "%s, %d cores, Python %s"
        % (platform.machine(), os.cpu_count() or 0, platform.python_version()),
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
