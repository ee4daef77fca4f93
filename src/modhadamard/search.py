"""Exhaustive backtracking oracle for small modular Hadamard instances.

The search works over normalized matrices: the first row is all +1 and
every later row starts with +1 and has entry-sum divisible appropriately.
Row permutations preserve the property, so rows are explored in sorted
order; a completed exhaustive run over this space is a nonexistence proof
for all matrices of that order.

In the restricted regime (n odd, m odd, n < 3m, gcd(n, m) = 1) every
off-diagonal inner product must be exactly +m or -m, which pins the
number of -1 entries per row to (n-m)/2 or (n+m)/2 and shrinks the
candidate set to a few thousand rows.
"""

import hashlib
from dataclasses import dataclass, field
from math import gcd

from .matrices import SignMatrix, verify_mh

__all__ = [
    "LimitExceeded",
    "SearchProblem",
    "SearchOutcome",
    "candidate_rows",
    "run",
]

MAX_N_RESTRICTED = 24
MAX_N_GENERIC = 10


class LimitExceeded(ValueError):
    pass


def _restricted_regime(n, m):
    """Odd m, odd n < 3m and gcd(n, m) = 1: every off-diagonal inner
    product of an MH(n, m) is then exactly +m or -m."""
    return m % 2 == 1 and n % 2 == 1 and n < 3 * m and gcd(n, m) == 1


@dataclass(frozen=True)
class SearchProblem:
    n: int
    m: int
    mode: str = "generic"
    goal: str = "first"
    # column-symmetry reduction; the "first" and "exhaust" goals use it (see run)
    symmetry: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("order must be >= 2")
        if self.mode not in ("generic", "restricted"):
            raise ValueError("mode must be generic or restricted")
        if self.goal not in ("first", "count", "exhaust"):
            raise ValueError("goal must be first, count or exhaust")
        if self.mode == "restricted" and not _restricted_regime(self.n, self.m):
            raise ValueError("restricted mode needs odd n < 3m, odd m, gcd(n,m)=1")


@dataclass
class SearchOutcome:
    found: object
    exhausted: bool
    nodes_visited: int
    candidate_row_count: int
    solutions: int = 0
    log: dict = field(default_factory=dict)


def candidate_rows(n, m, mode):
    """Bit-packed rows admissible below an all-ones first row, ascending.

    Bit j set means -1 in column j; bit 0 is always clear (leading +1).
    A row of weight w (its number of -1 entries) is admitted when n - 2w,
    its inner product with the first row, vanishes modulo m.  Mode
    "restricted" only checks that (n, m) is in the regime.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if mode == "restricted":
        SearchProblem(n, m, mode="restricted")  # validate the regime
    elif mode != "generic":
        raise ValueError("unknown mode %r" % mode)
    weights = [w for w in range(n) if (n - 2 * w) % m == 0]
    return sorted(x << 1 for w in weights for x in _weight_rows(n - 1, w))


def _weight_rows(bits, w):
    """Every `bits`-bit value with w set bits, ascending, by Gosper's
    next-combination step: add the lowest set bit, which carries through
    the lowest run of ones, then put that run, one shorter, back at the
    bottom."""
    if w == 0:
        return [0]
    out = []
    x = (1 << w) - 1
    end = 1 << bits
    while x < end:
        out.append(x)
        c = x & -x
        r = x + c
        x = r | (r ^ x) >> (c.bit_length() + 1)
    return out


def _candidate_digest(cands):
    h = hashlib.sha256()
    for c in cands:
        h.update(c.to_bytes(8, "little"))
    return h.hexdigest()


def _compat_mask(order, n, m):
    """Return mask(i), the compatibility mask of order[i] over `order`.

    Bit j is set when order[i] and order[j] have inner product
    n - 2 popcount(order[i] ^ order[j]) divisible by m.  That depends on the
    popcount alone, so the admissible popcounts are tabulated once.
    """
    digit = ["1" if (n - 2 * c) % m == 0 else "0" for c in range(n + 1)]
    backwards = order[::-1]  # most significant bit first

    def mask(i):
        ci = order[i]
        return int("".join([digit[(ci ^ c).bit_count()] for c in backwards]), 2)

    return mask


def _solve_subtree(start, compat, mask, need, allow_repeat, goal):
    """DFS below first-level choice `start` for sets of `need` rows.

    Returns (witness_rows, solutions, nodes).  compat[i] is the
    compatibility mask of candidate i, or None until mask(i) builds it
    when candidate i is first visited.

    The DFS keeps one level per depth: the bitmask of the children not yet
    visited, the `allowed` mask of the chosen rows (`path`, indexed by
    depth) and the number of children left to visit.  Children are visited
    in place, lowest first.  A node's children are the candidates above it
    (from it on, when a row may repeat) that are compatible with every row
    on the path; a node with too few of them to complete the set is pruned.

    `nodes` is exactly the count of the plain DFS that pushes every child
    and pops the lowest first, counting pruned nodes and leaves, and that
    stops at its first leaf for goal "first".  Two shortcuts keep it so.
    The children of a node at depth need - 1 are leaves, one node and one
    solution each, so such a node is handled inline by its parent: one
    popcount counts its leaves, the lowest being the witness.  Without
    repeats, the last need - d - 1 children of a node at depth d have fewer
    than need - d - 1 candidates above them, so each is pruned as soon as
    the plain DFS pops it; they are counted in bulk when the level ends,
    where the plain DFS pops them.  Either way goal "first" counts no node
    after its witness: leaves are counted singly up to it, and a bulk count
    comes after every earlier sibling's subtree.
    """
    if need == 1:  # the start alone completes the set
        return [start], 1, 1
    shift = 0 if allow_repeat else 1
    best = None
    count = nodes = 0
    path = []
    levels = []
    # the level above the start (depth 0), with the start its only child
    todo, allowed, left, skip, depth = 1 << start, -1, 1, 0, 0
    while True:
        if not left:
            nodes += skip
            if not levels:
                return best, count, nodes
            todo, allowed, left, skip = levels.pop()
            path.pop()
            depth -= 1
            continue
        b = todo & -todo
        todo ^= b
        left -= 1
        idx = b.bit_length() - 1
        row = compat[idx]
        if row is None:
            row = compat[idx] = mask(idx)
        a2 = allowed & row
        r2 = a2 >> (idx + shift) << (idx + shift)
        c = r2.bit_count()
        nodes += 1
        if depth + 2 == need:  # the child's children are leaves
            if c:
                if best is None:
                    best = path + [idx, (r2 & -r2).bit_length() - 1]
                    if goal == "first":
                        return best, 1, nodes + 1
                nodes += c
                count += c
            continue
        # the child's bulk count; a child with no more candidates than
        # that cannot complete the set and is pruned
        child_skip = 0 if allow_repeat else need - depth - 2
        if c <= child_skip:
            continue
        levels.append((todo, allowed, left, skip))
        path.append(idx)
        depth += 1
        todo, allowed, left, skip = r2, a2, c - child_skip, child_skip


def _canonical_second(x, w):
    """The least row of x's class under the column stabilizer of the
    canonical row of weight w: the lowest a columns of block 1..w plus the
    lowest popcount(x) - a columns of block w+1..n-1, a = x's overlap with
    block 1..w."""
    a = (x & ((1 << w) - 1) << 1).bit_count()
    return ((1 << a) - 1) << 1 | ((1 << (x.bit_count() - a)) - 1) << (w + 1)


def run(problem, max_n=None, log_branches=False):
    """Execute the search.

    goal "first" returns the lex-least witness.  "count" traverses the
    whole space and counts labelled row sets.  "exhaust" settles existence.
    With symmetry off, "first" stops at the lex-least witness and "exhaust"
    traverses the whole space as "count" does.  With symmetry on (the
    default) both start with the reduced search below, which stops at its
    first witness: "exhaust" returns that, so `solutions` is 0 or 1, and
    "first" returns None when it finds none and otherwise runs the
    unreduced "first" as well, so the witness is still the lex-least one
    and nodes_visited counts both passes.  log_branches records one entry
    per DFS start of each pass: its start index, and in the reduced pass
    also `rep`, the index of its canonical first row.  Raises
    LimitExceeded when n is beyond max_n, which defaults to the instance's
    cap: MAX_N_RESTRICTED in the restricted regime, MAX_N_GENERIC outside.

    Soundness of the reduction.  A row is admitted by its weight alone,
    and two rows a, b are compatible exactly when
    n - 2 popcount(a ^ b) vanishes modulo m.  A permutation of columns
    1..n-1 keeps weights and popcount(a ^ b), so it maps candidates to
    candidates, compatible pairs to compatible pairs and solutions to
    solutions.  Any row of weight w is mapped by some such permutation to
    the canonical row ((1 << w) - 1) << 1.  Let reps be the canonical rows,
    one per weight present, in ascending order, and suppose a solution
    exists.  Take the smallest index j* such that some solution contains
    reps[j*]; no solution contains an earlier rep.  The stabilizer of
    c0 = reps[j*], of weight w, permutes columns 1..w and w+1..n-1
    separately, so it maps a row x to every row of the same class
    (a, popcount(x)), a = popcount(x & c0), and to none other.  Each
    class holds one canonical second row: the lowest a columns of the first
    block plus the lowest popcount(x) - a of the second.  Take a solution
    holding c0 and any other row x in it; a stabilizer element maps it to a
    solution holding c0 and x's canonical second row, and by the minimality
    of j* that solution holds no earlier rep.  With a row allowed to
    repeat, x may be a second copy of c0, which is its own class (w, w).
    The reduced search therefore runs, for each j, over the pool of
    candidates compatible with reps[j] that are not earlier reps, with
    reps[j] implicit: the pool's canonical second rows come first, then
    the other pool rows, and the DFS from start s enumerates exactly the
    pool sets whose smallest index in that order is s.  The starts over
    the canonical second rows together cover every set that holds one, each
    once, so the branch of j* finds a solution.
    """
    n, m = problem.n, problem.m
    regime = _restricted_regime(n, m)
    if max_n is None:
        max_n = MAX_N_RESTRICTED if regime else MAX_N_GENERIC
    if n > max_n:
        where = "in" if regime else "outside"
        msg = "n=%d exceeds limit %d %s the restricted regime" % (n, max_n, where)
        raise LimitExceeded(msg)
    cands = candidate_rows(n, m, problem.mode)
    k = len(cands)
    outcome_log = {"candidate_digest": _candidate_digest(cands)}
    if k == 0:
        return SearchOutcome(None, True, 0, 0, 0, outcome_log)
    # a row may repeat exactly when it is compatible with itself, i.e.
    # <r, r> = n vanishes at the modulus
    allow_repeat = n % m == 0
    branch_records = []

    def traverse(order, starts, goal, fixed=(), label=None):
        """DFS from each start over `order`, below the rows `fixed`:
        (sorted witness rows or None, nodes, solutions).  goal "first"
        stops at the first witness."""
        compat = [None] * k
        mask = _compat_mask(order, n, m)
        nodes = 0
        best = None
        total = 0
        for start in starts:
            rows, cnt, sub_nodes = _solve_subtree(
                start, compat, mask, n - 1 - len(fixed), allow_repeat, goal
            )
            nodes += sub_nodes
            total += cnt
            if log_branches:
                branch_records.append(
                    dict(label or {}, start=start, nodes=sub_nodes, solutions=cnt)
                )
            if rows is not None and best is None:
                best = sorted(list(fixed) + [order[i] for i in rows])
                if goal == "first":
                    break
        return best, nodes, total

    def reduced():
        reps = sorted({((1 << c.bit_count()) - 1) << 1 for c in cands})
        rest = set(cands).difference(reps)
        order = reps + [c for c in cands if c in rest]
        if n == 2:  # a first row alone completes the matrix
            return reps[:1], 0, 1
        nodes = 0
        for j, c0 in enumerate(reps):
            w = c0.bit_count()
            pool = [x for x in order[j:] if (n - 2 * (x ^ c0).bit_count()) % m == 0]
            classes = {_canonical_second(x, w) for x in pool}
            seconds = sorted(classes.intersection(pool))
            order2 = seconds + [x for x in pool if x not in classes]
            best, sub_nodes, total = traverse(
                order2, range(len(seconds)), "first", (c0,), {"rep": j}
            )
            nodes += sub_nodes
            if best is not None:
                return best, nodes, total
        return None, nodes, 0

    if problem.symmetry and problem.goal != "count":
        best, nodes, total = reduced()
        if best is not None and problem.goal == "first":
            best, full_nodes, total = traverse(cands, range(k), "first")
            nodes += full_nodes
    else:
        best, nodes, total = traverse(cands, range(k), problem.goal)
    if log_branches:
        outcome_log["branches"] = branch_records
    found = None
    if best is not None:
        found = SignMatrix(n, (0,) + tuple(best))
        if not verify_mh(found, m).verdict:
            raise AssertionError("search produced an invalid witness")
    exhausted = problem.goal != "first" or found is None
    return SearchOutcome(found, exhausted, nodes, k, total, outcome_log)
