"""The BENCH_<topic>.json files and the command line of the scripts that
write them.

A script here defines measure(M, src), which measures the modhadamard
package M imported from the directory src and returns the results of one
run, and it ends in one call to main(topic, about, measure).  main writes
{"about": about, "runs": {label: {"machine", "date", "results"}}} into
BENCH_<topic>.json at the root, or --out.  The run goes under --label,
next to the labels already in the file, so that one file holds the
numbers before and after a change.  --src picks the package to measure,
e.g. an export of the parent commit:

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


def main(topic, about, measure, argv=None):
    """Parse argv, measure the package under --src and write its run."""
    ap = argparse.ArgumentParser(description="Write one run into BENCH_%s.json." % topic)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the modhadamard package")
    ap.add_argument("--label", required=True, help="key of this run in the output")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_%s.json" % topic))
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import modhadamard as M

    results = measure(M, src)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["about"] = about
    doc.setdefault("runs", {})[args.label] = {
        "machine": "%s, %d cores, Python %s"
        % (platform.machine(), os.cpu_count() or 0, platform.python_version()),
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
