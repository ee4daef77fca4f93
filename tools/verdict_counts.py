"""Counts of decide's verdicts, by status and reason, on two fixed grids.

small: every (n, m) with 2 <= m <= 400 and 3 <= n < 4m, the range where
the paper's last section bounds MH(n, m) and the small-order gates act.
odd_m: every 3 <= n <= 3000 at m = 7, 9, 11 and 13.

Counts are exact and do not depend on the machine; the wall time of each
grid is one sample, so the machine is recorded beside it.  The results go
into BENCH_verdicts.json (see bench_file.py for the options).
"""

import time
from collections import Counter

import bench_file

GRIDS = {
    "small": lambda: ((n, m) for m in range(2, 401) for n in range(3, 4 * m)),
    "odd_m": lambda: ((n, m) for m in (7, 9, 11, 13) for n in range(3, 3001)),
}
ABOUT = (
    "decide(n, m) verdicts counted by status/reason, written by "
    "tools/verdict_counts.py: small is 2 <= m <= 400 with 3 <= n < 4m, odd_m is "
    "3 <= n <= 3000 at m = 7, 9, 11, 13.  Counts are exact; s is one wall-clock "
    "sample of the whole grid on the machine named in the run."
)


def measure(M, src):
    results = {}
    for name, pairs in GRIDS.items():
        t0 = time.perf_counter()
        counts = Counter()
        for n, m in pairs():
            v = M.decide(n, m)
            counts["%s/%s" % (v.status, v.reason)] += 1
        s = round(time.perf_counter() - t0, 3)
        results[name] = {"counts": dict(sorted(counts.items())), "s": s}
        print(name, results[name], flush=True)
    return results


if __name__ == "__main__":
    bench_file.main("verdicts", ABOUT, measure)
