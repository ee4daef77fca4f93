"""The four workloads: task lists, output checks and pinned answers.

A task is a label, a zero-argument call into the package's public API or
CLI (the timed part), and a check of its result (not timed).  A check
returns a list of problems, empty when the output is right, and the row
pairs of the matrices the task handed back to its caller.  Inputs depend on
the seed only where stated; the instance lists never do.
"""

import contextlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

REFUTE_EXHAUST = ((13, 5), (23, 17), (11, 5), (13, 7), (17, 11), (19, 13))
REFUTE_COUNT = ((9, 3), (10, 3), (10, 6))
# smaller than the ROADMAP baseline instances (plan(1252,5), plan(2048,0),
# decide(4004,7)), which bench/baseline.py times, so that a run holds
# several passes: (452,5) is the same Iterate recipe with 43 rounds instead
# of 124, (1024,0) the same Double chain one level shorter, (880,7) a
# Double of Paley-439 as (1720,7) is of Paley-859, and decide(1442,7) the
# same all-ones certificate, verified twice
CONSTRUCT_MATERIALIZE = ((452, 5), (1024, 0), (880, 7), (790, 7))
CONSTRUCT_DECIDE = (1442, 7)
CONSTRUCT_CLI = (1001, 7)
CLASSIFY_MODULI = (2, 3, 4, 5, 6, 7, 8, 12)
# n <= 150 rather than 250 keeps a pass short enough that a run holds
# several, which the per-task minimum needs to be steady for these
# microsecond-scale tasks
CLASSIFY_ORDERS = range(3, 151)
# p = 11 is left out: its delta = 1 class alone (the 1056-digit witness
# of test_05) takes twice as long as all the others together
WITNESS_CLASSES = tuple((p, d) for p in (3, 5, 7) for d in range(1, p))
WITNESS_Q_LIMIT = 3000
WITNESS_D_LIMIT = 400

NAMES = ("refute", "construct", "classify", "witness")


@dataclass
class Task:
    label: str
    call: Callable
    check: Callable  # result -> (problems, delivered row pairs)


def _pairs(n):
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# reference checks, independent of the package's own verifier


def gram_ok(rows, n, m):
    """Every pair of distinct +-1 rows (set bit = -1) has inner product = 0 mod m.

    Inner product n - 2 popcount(a ^ b); modulus 0 means exactly 0.  The
    admissible popcounts are tabulated once, so each pair is one lookup.
    """
    if len(rows) != n or any(not 0 <= r < (1 << n) for r in rows):
        return False
    allowed = frozenset(
        c for c in range(n + 1) if (n - 2 * c == 0 if m == 0 else (n - 2 * c) % m == 0)
    )
    ok = allowed.__contains__
    for i, ri in enumerate(rows):
        if not all(map(ok, map(int.bit_count, map(ri.__xor__, rows[i + 1 :])))):
            return False
    return True


def read_sign_text(text):
    """Parse 'n m' then n rows of +-; returns (n, m, rows) or raises ValueError."""
    lines = text.split()
    n, m = int(lines[0]), int(lines[1])
    body = lines[2:]
    if len(body) != n or any(len(ln) != n or set(ln) - {"+", "-"} for ln in body):
        raise ValueError("malformed matrix text")
    rows = [int(ln[::-1].replace("+", "0").replace("-", "1"), 2) for ln in body]
    return n, m, rows


def _matrix_problems(mat, n, m):
    if mat is None or getattr(mat, "n", None) != n:
        return ["order %r, expected %d" % (getattr(mat, "n", None), n)]
    if not gram_ok(list(mat.rows), n, m):
        return ["reference Gram check fails at modulus %d" % m]
    return []


def _certificate_problems(v, n, m):
    cert = v.certificate
    if cert is None:
        return ["Exists without a certificate"]
    if hasattr(cert, "node"):  # recipe
        if cert.order != n or not (cert.modulus == 0 or cert.modulus % m == 0):
            return ["recipe order %s modulus %s" % (cert.order, cert.modulus)]
        return []
    return _matrix_problems(cert, n, m)


# ---------------------------------------------------------------------------
# workloads


def _refuted(out):
    if not out.exhausted or out.found is not None or out.solutions:
        return ["not refuted: exhausted=%s found=%s" % (out.exhausted, out.found)], 0
    return [], 0


def refute(M, seed, workdir):
    tasks = []
    for n, m in REFUTE_EXHAUST:
        tasks.append(Task(
            "exhaust(%d,%d)" % (n, m),
            lambda n=n, m=m: M.run(M.SearchProblem(n, m, "restricted", "exhaust")),
            _refuted,
        ))
    pinned = EXPECTED["refute_count_solutions"]
    for n, m in REFUTE_COUNT:
        def check(out, want=pinned["%d,%d" % (n, m)]):
            bad = [] if out.solutions == want and out.exhausted else [
                "solutions %d, expected %d" % (out.solutions, want)]
            return bad, 0

        tasks.append(Task(
            "count(%d,%d)" % (n, m),
            lambda n=n, m=m: M.run(M.SearchProblem(n, m, "generic", "count")),
            check,
        ))
    return tasks


def construct(M, seed, workdir):
    from modhadamard import cli

    rng = random.Random(seed)
    tasks = []
    for n, m in CONSTRUCT_MATERIALIZE:
        tasks.append(Task(
            "materialize(plan(%d,%d))" % (n, m),
            lambda n=n, m=m: M.materialize(M.plan(n, m)),
            lambda mat, n=n, m=m: (_matrix_problems(mat, n, m), _pairs(n)),
        ))

    n, m = CONSTRUCT_DECIDE

    def check_decide(v, n=n, m=m):
        if v.status != "Exists":
            return ["status %s" % v.status], 0
        return _certificate_problems(v, n, m), _pairs(n)

    tasks.append(Task("decide(%d,%d)" % (n, m), lambda n=n, m=m: M.decide(n, m), check_decide))

    n, m = CONSTRUCT_CLI
    good = os.path.join(workdir, "h%d.txt" % n)
    bad = os.path.join(workdir, "h%d-flipped.txt" % n)

    def cli_call(argv, out_path=None):
        # the CLI writes to stdout, as a user redirects it to a file
        with open(out_path or os.devnull, "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                return cli.main(argv)

    def check_construct(rc):
        if rc != 0:
            return ["construct exit code %d" % rc], 0
        with open(good, encoding="utf-8") as fh:
            text = fh.read()
        try:
            got_n, got_m, rows = read_sign_text(text)
        except ValueError as exc:
            return ["construct output: %s" % exc], 0
        if (got_n, got_m) != (n, m) or not gram_ok(rows, n, m):
            return ["construct output fails the reference Gram check"], 0
        # one flipped entry changes an inner product by 2, never by a
        # multiple of 7, so the copy must be rejected
        lines = text.splitlines()
        i, j = rng.randrange(n), rng.randrange(n)
        row = lines[1 + i]
        lines[1 + i] = row[:j] + ("+" if row[j] == "-" else "-") + row[j + 1 :]
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return [], _pairs(n)

    tasks.append(Task(
        "cli construct %d %d" % (n, m),
        lambda: cli_call(["construct", str(n), str(m)], good),
        check_construct,
    ))
    tasks.append(Task(
        "cli verify",
        lambda: cli_call(["verify", good]),
        lambda rc: ([] if rc == 0 else ["verify exit code %d, expected 0" % rc], _pairs(n)),
    ))
    tasks.append(Task(
        "cli verify flipped",
        lambda: cli_call(["verify", bad]),
        lambda rc: ([] if rc == 1 else ["verify exit code %d, expected 1" % rc], _pairs(n)),
    ))
    return tasks


def _closed_form(n, m):
    """Existence for the moduli whose answer has a closed form.

    The same forms as tests/test_acceptance.py, which checks them to n = 200.
    """
    if m in (2, 6):
        return n % 2 == 0
    if m == 3:
        return n % 6 != 5
    if m in (4, 8, 12):
        return n % 4 == 0
    if m == 5:
        return n % 10 not in (3, 7) and n not in (6, 11)
    raise ValueError(m)


def classify(M, seed, workdir):
    m7 = EXPECTED["classify_m7"]
    grid = EXPECTED["classify_grid_search_cap_8"]
    specs = []
    for m in CLASSIFY_MODULI:
        for n in CLASSIFY_ORDERS:
            if m == 7:
                want = m7[str(n)]
            else:
                want = "Exists" if _closed_form(n, m) else "NotExists"
            specs.append((n, m, None, want))
    for n in range(3, 9):
        for m in range(2, 10):
            specs.append((n, m, 8, grid["%d,%d" % (n, m)]))
    random.Random(seed).shuffle(specs)

    tasks = []
    for n, m, cap, want in specs:
        def check(v, n=n, m=m, want=want):
            if v.status != want:
                return ["status %s, expected %s" % (v.status, want)], 0
            if v.status != "Exists":
                return [], 0
            return _certificate_problems(v, n, m), _pairs(n)

        if cap is None:
            call, label = (lambda n=n, m=m: M.decide(n, m)), "decide(%d,%d)" % (n, m)
        else:
            call = lambda n=n, m=m, cap=cap: M.decide(n, m, search_cap=cap)
            label = "decide(%d,%d,search_cap=%d)" % (n, m, cap)
        tasks.append(Task(label, call, check))
    return tasks


def witness(M, seed, workdir):
    pinned = EXPECTED["witness"]
    tasks = []
    for p, delta in WITNESS_CLASSES:
        def check(w, p=p, delta=delta, want=tuple(pinned["%d,%d" % (p, delta)])):
            if w is None:
                return ["no witness"], 0
            bad = []
            if (w.p, w.delta, w.q, w.d) != (p, delta) + want:
                bad.append("witness (q, d) = (%d, %d), expected %s" % (w.q, w.d, want))
            if w.r != (w.q ** w.d - 1) // (w.q - 1):
                bad.append("r is not repunit(q, d)")
            if w.r % 4 != 1:
                bad.append("r = %d mod 4" % (w.r % 4))
            return bad, 0

        tasks.append(Task(
            "condition1_search(%d,%d)" % (p, delta),
            lambda p=p, delta=delta: M.condition1_search(
                p, delta, WITNESS_Q_LIMIT, WITNESS_D_LIMIT),
            check,
        ))
    return tasks


WORKLOADS = {
    "refute": refute,
    "construct": construct,
    "classify": classify,
    "witness": witness,
}
