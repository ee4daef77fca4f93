"""Counts of decide's verdicts, by status and reason, on two fixed grids.

small: every (n, m) with 2 <= m <= 400 and 3 <= n < 4m, the range where
the paper's last section bounds MH(n, m) and the small-order gates act.
odd_m: every 3 <= n <= 3000 at m = 7, 9, 11 and 13.

Counts are exact and do not depend on the machine; the wall time of each
grid is one sample, so the machine is recorded beside it.  The results go
into BENCH_verdicts.json under --label, next to the labels already in the
file, so that one file holds the counts before and after a change.  --src
picks the package to measure, e.g. an export of the parent commit:

    python tools/verdict_counts.py --label after
    python tools/verdict_counts.py --src /path/to/parent/src --label before
"""

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = {
    "small": lambda: ((n, m) for m in range(2, 401) for n in range(3, 4 * m)),
    "odd_m": lambda: ((n, m) for m in (7, 9, 11, 13) for n in range(3, 3001)),
}


def measure(pairs, M):
    t0 = time.perf_counter()
    counts = Counter()
    for n, m in pairs:
        v = M.decide(n, m)
        counts["%s/%s" % (v.status, v.reason)] += 1
    return {"counts": dict(sorted(counts.items())), "s": round(time.perf_counter() - t0, 3)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the modhadamard package")
    ap.add_argument("--label", required=True, help="key of this run in the output")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_verdicts.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import modhadamard as M

    results = {}
    for name, pairs in GRIDS.items():
        results[name] = measure(pairs(), M)
        print(name, results[name], flush=True)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["about"] = (
        "decide(n, m) verdicts counted by status/reason, written by "
        "tools/verdict_counts.py: small is 2 <= m <= 400 with 3 <= n < 4m, odd_m is "
        "3 <= n <= 3000 at m = 7, 9, 11, 13.  Counts are exact; s is one wall-clock "
        "sample of the whole grid on the machine named in the run."
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
