import os
import random
import subprocess
import sys
import time
from math import comb, gcd, isqrt

import pytest

from modhadamard import (
    LimitExceeded,
    SearchProblem,
    candidate_rows,
    decide,
    j_minus_2i,
    run,
    search,
    verify_mh,
)


def test_candidate_counts_restricted():
    # negatives per row are forced to (n-m)/2 or (n+m)/2 past the lead column
    assert len(candidate_rows(15, 7, "restricted")) == 1365
    assert len(candidate_rows(11, 5, "restricted")) == 165


def test_candidate_counts_generic():
    assert len(candidate_rows(4, 2, "generic")) == 8
    assert len(candidate_rows(6, 5, "generic")) == 10


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(12, 7, "restricted")  # n even
    with pytest.raises(ValueError):
        SearchProblem(11, 4, "restricted")  # m even
    with pytest.raises(ValueError):
        SearchProblem(21, 7, "restricted")  # n >= 3m, gcd > 1
    with pytest.raises(ValueError):
        SearchProblem(5, 5, "other")
    with pytest.raises(ValueError):
        SearchProblem(5, 5, goal="everything")
    # an order below 2 is no instance, not one to refute
    for n, m in ((1, 5), (0, 5), (-4, 3)):
        with pytest.raises(ValueError, match="order must be >= 2"):
            SearchProblem(n, m)


def test_modulus_below_two_is_an_error():
    # an invalid modulus is no instance, not one to refute
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            SearchProblem(7, m)
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            candidate_rows(7, m, "generic")
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            run(SearchProblem(7, m, goal="exhaust"))


def test_limits():
    with pytest.raises(LimitExceeded):
        run(SearchProblem(30, 5))
    with pytest.raises(LimitExceeded, match="outside the restricted regime"):
        run(SearchProblem(11, 6))
    # the cap follows the instance, not the mode
    with pytest.raises(LimitExceeded, match="limit 24 in the restricted regime"):
        run(SearchProblem(29, 11, "restricted"))
    with pytest.raises(LimitExceeded, match="limit 24 in the restricted regime"):
        run(SearchProblem(29, 11))
    generic = run(SearchProblem(11, 5, goal="exhaust"))
    restricted = run(SearchProblem(11, 5, "restricted", "exhaust"))
    assert generic == restricted and generic.exhausted
    # explicit override raises the bar
    out = run(SearchProblem(12, 5), max_n=12)
    assert out.found is not None


def test_exhaust_11_5():
    out = run(SearchProblem(11, 5, "restricted", "exhaust"))
    assert out.exhausted is True
    assert out.found is None
    assert out.solutions == 0
    assert out.candidate_row_count == 165


def test_exhaust_6_5_generic():
    out = run(SearchProblem(6, 5, "generic", "exhaust"))
    assert out.exhausted is True
    assert out.found is None


def test_first_4_2():
    out = run(SearchProblem(4, 2, "generic", "first"))
    assert out.found is not None
    assert verify_mh(out.found, 2).verdict
    assert out.exhausted is False


def test_first_11_7_restricted():
    out = run(SearchProblem(11, 7, "restricted", "first"))
    assert out.found is not None
    H = out.found
    assert verify_mh(H, 7).verdict
    # same Gram profile as J - 2I: every off-diagonal inner product is +-7
    for i in range(H.n):
        for j in range(i + 1, H.n):
            assert H.row_inner(i, j) in (7, -7)
    assert verify_mh(j_minus_2i(11), 7).verdict


def test_row_profile_of_witness():
    """Each witness row in the restricted regime carries one of two weights."""
    out = run(SearchProblem(11, 7, "restricted", "first"))
    H = out.found
    n, m = 11, 7
    for i in range(1, n):
        negs = bin(H.rows[i]).count("1")
        assert negs in ((n - m) // 2, (n + m) // 2)


def test_count_goal():
    out = run(SearchProblem(7, 3, "restricted", "count"))
    assert out.exhausted is True
    assert out.solutions >= 1
    out2 = run(SearchProblem(7, 3, "restricted", "count"))
    assert out2.solutions == out.solutions


def test_determinism_and_digest():
    a = run(SearchProblem(11, 5, "restricted", "exhaust"))
    b = run(SearchProblem(11, 5, "restricted", "exhaust"))
    assert a.nodes_visited == b.nodes_visited
    assert a.exhausted == b.exhausted
    # the switched search builds no candidate list, so it logs no digest
    assert "candidate_digest" not in a.log and "candidate_digest" not in b.log
    # a run that builds the list, here the reduced search outside the
    # regime, logs its digest
    a = run(SearchProblem(9, 3, "generic", "exhaust"))
    b = run(SearchProblem(9, 3, "generic", "exhaust"))
    want = search._candidate_digest(candidate_rows(9, 3, "generic"))
    assert a.log["candidate_digest"] == b.log["candidate_digest"] == want


def test_first_8_2_generic():
    out = run(SearchProblem(8, 2, "generic", "first"))
    assert out.found is not None
    assert verify_mh(out.found, 2).verdict


def _restricted_instances(max_n):
    # for m > n neither admissible weight lies in 0..n-1, so the candidate
    # set is empty; one such m per n is kept to cover that case
    return [
        (n, m)
        for n in range(3, max_n + 1, 2)
        for m in range(3, n + 3, 2)
        if n < 3 * m and gcd(n, m) == 1
    ]


def _brute_force_candidates(n, m):
    """The definition: every row below the leading +1, filtered by weight."""
    weights = ((n - m) // 2, (n + m) // 2)
    return [r << 1 for r in range(1 << (n - 1)) if r.bit_count() in weights]


def test_candidate_rows_match_brute_force():
    for n, m in _restricted_instances(15):
        want = _brute_force_candidates(n, m)
        assert candidate_rows(n, m, "restricted") == want, (n, m)


def test_regime_rows_are_the_generic_rows():
    # in the regime every inner product is +-m, so the generic rule
    # n - 2w = 0 (mod m) admits exactly the weights (n -+ m)/2
    for n, m in _restricted_instances(25):
        rows = candidate_rows(n, m, "generic")
        assert rows == candidate_rows(n, m, "restricted"), (n, m)
        weights = {(n - m) // 2, (n + m) // 2} & set(range(n))
        assert {r.bit_count() for r in rows} == weights, (n, m)


def test_symmetry_reduction_agrees_with_full_search():
    """The reduced exhaust settles existence as the full search does."""
    grid = [(n, m, "restricted") for n, m in _restricted_instances(11)]
    grid += [(n, m, "generic") for n in range(3, 9) for m in range(2, 10)]
    refuted = 0
    for n, m, mode in grid:
        on = run(SearchProblem(n, m, mode, "exhaust"))
        # the unreduced traversal of (8,2) and (8,4) does not finish in
        # seconds, so the unreduced first-witness search settles them
        off_goal = "first" if (n, m) in ((8, 2), (8, 4)) else "exhaust"
        off = run(SearchProblem(n, m, mode, off_goal, symmetry=False))
        assert on.exhausted and on.solutions in (0, 1)
        assert (on.found is None) == (off.found is None), (n, m, mode)
        for out in (on, off):
            assert out.found is None or verify_mh(out.found, m).verdict
        k = len(candidate_rows(n, m, mode))
        assert on.candidate_row_count == off.candidate_row_count == k, (n, m, mode)
        if "candidate_digest" in on.log:
            assert on.log["candidate_digest"] == off.log["candidate_digest"]
        if on.found is None and on.candidate_row_count:
            refuted += 1
            assert on.nodes_visited < off.nodes_visited, (n, m, mode)
    assert refuted


def test_two_level_reduction_agrees_at_orders_13_and_15():
    """The restricted instances past the n <= 11 grid above: the reduced
    exhaust against the unreduced one, and against decide's gates where
    the unreduced traversal visits tens of millions of nodes."""
    gates = {(13, 5): "QuadNonResidue", (15, 7): "Switching"}
    for n, m in _restricted_instances(15):
        if n < 13:
            continue
        on = run(SearchProblem(n, m, "restricted", "exhaust"))
        assert on.exhausted and on.solutions in (0, 1)
        assert on.found is None or verify_mh(on.found, m).verdict
        if (n, m) in gates:
            v = decide(n, m)
            assert (v.status, v.reason) == ("NotExists", gates[n, m])
            assert on.found is None, (n, m)
        else:
            off = run(SearchProblem(n, m, "restricted", "exhaust", symmetry=False))
            assert (on.found is None) == (off.found is None), (n, m)


def test_candidate_row_count_is_the_length_of_the_list():
    # the count is a closed form; the list is built only where it is read
    grid = [(n, m, mode) for n, m in _restricted_instances(15)
            for mode in ("restricted", "generic")]
    grid += [(n, m, "generic") for n in range(2, 9) for m in range(2, 10)]
    for n, m, mode in grid:
        k = len(candidate_rows(n, m, mode))
        for goal in ("first", "count", "exhaust"):
            out = run(SearchProblem(n, m, mode, goal))
            assert out.candidate_row_count == k, (n, m, mode, goal)


def test_switched_search_builds_no_candidate_list(monkeypatch):
    instances = _restricted_instances(15) + [(23, 9), (23, 17), (19, 13)]
    problems = [SearchProblem(n, m, "restricted", "exhaust") for n, m in instances]
    want = [run(p) for p in problems]

    def fail(*args):
        raise AssertionError("the switched search read the candidate list")

    monkeypatch.setattr(search, "candidate_rows", fail)
    monkeypatch.setattr(search, "_candidate_digest", fail)
    for p, w in zip(problems, want):
        out = run(p)
        got = (out.found, out.nodes_visited, out.solutions, out.candidate_row_count)
        assert got == (w.found, w.nodes_visited, w.solutions, w.candidate_row_count), p


def test_reduced_node_counts():
    # node counts are the machine-independent measure of the search
    three = [(0, 0), (0, 1), (0, 2)]
    pinned = {(11, 5): (0, []), (13, 5): (1203, three), (15, 7): (1934, three),
              (17, 9): (3057, three), (19, 11): (8298, three),
              (21, 13): (80781, three), (23, 15): (1261830, three)}
    for (n, m), (nodes, starts) in pinned.items():
        out = run(SearchProblem(n, m, "restricted", "exhaust"), log_branches=True)
        assert out.exhausted and out.found is None and out.solutions == 0
        assert out.nodes_visited == nodes, (n, m)
        # one branch per canonical third row of the switched search
        branches = out.log["branches"]
        assert [(b["rep"], b["start"]) for b in branches] == starts
        assert sum(b["nodes"] for b in branches) == nodes
    # the unreduced traversal is unchanged
    off = run(SearchProblem(11, 5, "restricted", "exhaust", symmetry=False))
    assert off.nodes_visited == 165


def test_unreduced_node_counts():
    # the unreduced count: node counts of the plain DFS that visits every
    # child, over whole trees rather than the pruned starts above
    for n, m, nodes, solutions in [(9, 3, 108872, 39873), (10, 3, 161359, 1270),
                                   (10, 6, 161359, 1270)]:
        out = run(SearchProblem(n, m, "generic", "count", symmetry=False))
        assert (out.nodes_visited, out.solutions) == (nodes, solutions), (n, m)
    # the lex-least witness over 8,192 candidate rows, without building
    # the compatibility mask of every child of each node on the way
    out = run(SearchProblem(14, 2), max_n=14)
    assert out.found is not None and out.nodes_visited == 25


def test_reduced_count_node_counts():
    # (nodes of the count's DFSs, nodes of the unreduced first-witness pass)
    pinned = {(9, 3): (301, 8, 39873), (10, 3): (6520, 11, 1270),
              (10, 6): (6520, 11, 1270)}
    for (n, m), (count_nodes, first_nodes, solutions) in pinned.items():
        out = run(SearchProblem(n, m, "generic", "count"), log_branches=True)
        off = run(SearchProblem(n, m, "generic", "first", symmetry=False))
        assert out.exhausted and out.solutions == solutions, (n, m)
        assert out.nodes_visited == count_nodes + first_nodes, (n, m)
        assert out.found is not None and out.found == off.found, (n, m)
        assert off.nodes_visited == first_nodes
        # one entry per DFS start of the count, then the witness pass's
        branches = out.log["branches"]
        counted = [b for b in branches if "s" in b]
        assert sum(b["nodes"] for b in counted) == count_nodes
        assert sum(b["nodes"] for b in branches) == out.nodes_visited
        for b in counted:
            assert set(b) == {"s", "rep", "class", "multiplier", "start",
                              "nodes", "solutions"}
            assert 3 <= b["s"] <= n - 1 and b["multiplier"] >= 1


def test_reduced_count_agrees_with_unreduced_count():
    # (8, 2) and (8, 4) are left out: every candidate row is compatible
    # with every other, and the unreduced count of (8, 4) alone visits
    # 1,329,890,704 nodes
    grid = [(n, m, "generic") for n in range(2, 10) for m in range(2, 14)
            if (n, m) not in ((8, 2), (8, 4))]
    grid += [(n, m, "restricted") for n, m in _restricted_instances(11)]
    for n, m, mode in grid:
        on = run(SearchProblem(n, m, mode, "count"))
        off = run(SearchProblem(n, m, mode, "count", symmetry=False))
        assert on.exhausted and off.exhausted
        assert on.solutions == off.solutions, (n, m, mode)
        assert on.found == off.found, (n, m, mode)
        assert on.nodes_visited <= off.nodes_visited, (n, m, mode)


def test_count_in_closed_form_when_every_pair_is_compatible():
    # every two candidate rows are compatible, so K_s = C(k, s): the count
    # runs no DFS, and only the first-witness pass visits nodes
    out = run(SearchProblem(6, 2, "generic", "count"))
    off = run(SearchProblem(6, 2, "generic", "count", symmetry=False))
    assert out.solutions == off.solutions == 376992
    assert out.found == off.found
    for n, m in ((8, 4), (8, 2)):
        k = len(candidate_rows(n, m, "generic"))
        expected = sum(comb(k, s) * comb(n - 2, s - 1) for s in range(1, n))
        t0 = time.perf_counter()
        out = run(SearchProblem(n, m, "generic", "count"))
        assert time.perf_counter() - t0 < 1.0, (n, m)
        first = run(SearchProblem(n, m, "generic", "first", symmetry=False))
        assert out.solutions == expected, (n, m)
        assert out.found == first.found and out.nodes_visited == first.nodes_visited


def test_restricted_count_vanishes_exactly_when_exhaust_refutes():
    # past the grid above the unreduced count does not finish in seconds;
    # (15, 7) visits 86.6 million nodes unreduced
    for n, m in _restricted_instances(15):
        if n < 13:
            continue
        count = run(SearchProblem(n, m, "restricted", "count"))
        exhaust = run(SearchProblem(n, m, "restricted", "exhaust"))
        assert (count.solutions == 0) == (exhaust.found is None), (n, m)
        assert (count.found is None) == (exhaust.found is None), (n, m)


def _reference_search(n, m, mode):
    """Row sets completing an all-ones first row to an MH(n, m), by plain
    recursion over +-1 vectors: multisets when a row may repeat (n % m == 0,
    so a row is orthogonal to itself modulo m), sets otherwise.  Returns
    their number and the lex-least one (None when there is none)."""
    rows = candidate_rows(n, m, mode)
    vecs = [[-1 if r >> j & 1 else 1 for j in range(n)] for r in rows]
    ok = [[sum(x * y for x, y in zip(a, b)) % m == 0 for b in vecs] for a in vecs]
    step = 0 if n % m == 0 else 1
    first = []

    def extend(chosen, lo):
        if len(chosen) == n - 1:
            if not first:
                first.extend(rows[i] for i in chosen)
            return 1
        return sum(extend(chosen + [i], i + step) for i in range(lo, len(vecs))
                   if all(ok[i][j] for j in chosen))

    return extend([], 0), first or None


def test_count_and_first_match_reference_search():
    grid = [(n, m, "generic") for n in range(2, 8) for m in range(2, 10)]
    grid += [(n, m, "restricted") for n, m in _restricted_instances(11)]
    for n, m, mode in grid:
        count, first = _reference_search(n, m, mode)
        assert run(SearchProblem(n, m, mode, "count")).solutions == count, (n, m, mode)
        for symmetry in (True, False):
            found = run(SearchProblem(n, m, mode, "first", symmetry=symmetry)).found
            got = None if found is None else list(found.rows)
            assert got == (None if first is None else [0] + first), (n, m, mode, symmetry)


MEMORY_CHECK = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from modhadamard import SearchProblem, run
out = run(SearchProblem(23, 9, "restricted", "exhaust"))
assert out.exhausted and out.found is None and out.nodes_visited == 0, out
"""


def test_large_candidate_set_within_memory_limit():
    # 245,157 candidate rows: no table of one k-bit mask per candidate may
    # be built up front, so the refutation fits in 1 GiB of address space
    pytest.importorskip("resource")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHECK],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_first_settles_refuted_instance_by_reduced_search():
    out = run(SearchProblem(13, 5, "restricted", "first"), log_branches=True)
    assert out.exhausted and out.found is None and out.solutions == 0
    assert out.nodes_visited == 1203  # the reduced exhaust's count
    assert [(b["rep"], b["start"]) for b in out.log["branches"]] == [
        (0, 0), (0, 1), (0, 2)
    ]


def test_first_with_symmetry_keeps_lex_least_witness():
    # with a witness the unreduced first-witness pass runs after the reduced one
    on = run(SearchProblem(11, 7, "restricted", "first"), log_branches=True)
    off = run(SearchProblem(11, 7, "restricted", "first", symmetry=False))
    assert on.found is not None and on.found == off.found
    assert on.exhausted is False and on.solutions == 1
    reduced = [b["nodes"] for b in on.log["branches"] if "rep" in b]
    assert on.nodes_visited == off.nodes_visited + sum(reduced)
    for n, m in _restricted_instances(11):
        on = run(SearchProblem(n, m, "restricted", "first"))
        off = run(SearchProblem(n, m, "restricted", "first", symmetry=False))
        assert on.found == off.found and on.exhausted == off.exhausted, (n, m)


def test_triangle_identity():
    # <u,v> + <u,x> + <v,x> = 3n (mod 4) for any three +-1 rows
    rng = random.Random(27)
    for _ in range(500):
        n = rng.randrange(1, 60, 2)
        u, v, x = (rng.getrandbits(n) for _ in range(3))
        inner = [n - 2 * (a ^ b).bit_count() for a, b in ((u, v), (u, x), (v, x))]
        assert (sum(inner) - 3 * n) % 4 == 0, (n, u, v, x)


def test_restricted_exhaust_agrees_with_switching_theory():
    """In the regime an MH(n, m) with n > m switches to a symmetric design,
    so it needs n = m (mod 4) and a square nm + n - m; at n <= 23 exactly
    those instances have a witness.  An instance with n != m (mod 4) is
    refuted with no DFS.  (19, 7) and (23, 11) take seconds to minutes."""
    t0 = time.perf_counter()
    for n, m in _restricted_instances(23):
        if (n, m) in ((19, 7), (23, 11)):
            continue
        out = run(SearchProblem(n, m, "restricted", "exhaust"), log_branches=True)
        r2 = n * m + n - m
        assert out.exhausted
        assert (out.found is not None) == ((n - m) % 4 == 0 and isqrt(r2) ** 2 == r2), (n, m)
        assert out.found is None or verify_mh(out.found, m).verdict
        if (n - m) % 4:
            assert out.nodes_visited == 0 and not out.log.get("branches"), (n, m)
    assert time.perf_counter() - t0 < 2.0
