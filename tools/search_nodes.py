"""Node counts of the restricted exhaustive search on fixed instances.

For each instance below this runs
run(SearchProblem(n, m, "restricted", "exhaust"), log_branches=True) once
and records the nodes visited, the candidate rows, the DFS starts (one log
entry each), whether a witness was found, and the wall time of
candidate_rows alone and of the whole run, which builds the candidate list
only where it reads it.  Node counts do not depend on the machine; the
times do, so the machine is recorded beside them.  The results go into
BENCH_search.json (see bench_file.py for the options).
"""

import time

import bench_file

INSTANCES = ((13, 5), (15, 7), (17, 9), (19, 11), (21, 13), (23, 15), (23, 9), (23, 17))
ABOUT = (
    "Restricted exhaust on fixed instances, written by tools/search_nodes.py: "
    "nodes, candidate rows and DFS starts are exact; candidates_s (candidate_rows "
    "alone) and run_s (the whole run, which builds the candidate list only where "
    "it reads it) are one wall-clock sample each on the machine named in the run."
)


def measure(M, src):
    results = {}
    for n, m in INSTANCES:
        t0 = time.perf_counter()
        M.candidate_rows(n, m, "restricted")
        t1 = time.perf_counter()
        out = M.run(M.SearchProblem(n, m, "restricted", "exhaust"), log_branches=True)
        t2 = time.perf_counter()
        key = "%d,%d" % (n, m)
        results[key] = {
            "found": out.found is not None,
            "nodes": out.nodes_visited,
            "candidate_rows": out.candidate_row_count,
            "dfs_starts": len(out.log.get("branches", ())),
            "candidates_s": round(t1 - t0, 4),
            "run_s": round(t2 - t1, 4),
        }
        print(n, m, results[key], flush=True)
    return results


if __name__ == "__main__":
    bench_file.main("search", ABOUT, measure)
