"""Exhaustive backtracking oracle for small modular Hadamard instances.

The search works over normalized matrices: the first row is all +1 and
every later row starts with +1 and has entry-sum divisible appropriately.
Row permutations preserve the property, so rows are explored in sorted
order; a completed exhaustive run over this space is a nonexistence proof
for all matrices of that order.

In the restricted regime (n odd, m odd, n < 3m, gcd(n, m) = 1) every
off-diagonal inner product must be exactly +m or -m, which pins the
number of -1 entries per row to (n-m)/2 or (n+m)/2.  The reduced search
goes further there: negating rows makes every inner product the same, so
it searches switched rows, all of one weight w over all n columns and
every two at distance w, and fixes three of them up to a permutation of
the columns (see run).
"""

import hashlib
from collections import Counter, namedtuple
from itertools import product
from math import comb, gcd

from ._record import Record
from .matrices import SignMatrix, _orthogonal_popcounts, verify_mh

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


class SearchProblem(
    Record,
    namedtuple(
        "SearchProblem",
        "n m mode goal symmetry",
        defaults=("generic", "first", True),
    ),
):
    """One search instance.  symmetry turns on the column-symmetry
    reduction, for every goal (see run)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise ValueError("order must be >= 2")
        if self.m < 2:
            raise ValueError("modulus must be >= 2")
        if self.mode not in ("generic", "restricted"):
            raise ValueError("mode must be generic or restricted")
        if self.goal not in ("first", "count", "exhaust"):
            raise ValueError("goal must be first, count or exhaust")
        if self.mode == "restricted" and not _restricted_regime(self.n, self.m):
            raise ValueError("restricted mode needs odd n < 3m, odd m, gcd(n,m)=1")
        return self


class SearchOutcome(
    Record,
    namedtuple(
        "SearchOutcome", "found exhausted nodes_visited candidate_row_count solutions log"
    ),
):
    """What run found (a SignMatrix or None), whether the space was
    exhausted, the work done, and run's log (a new dict by default)."""

    __slots__ = ()

    def __new__(cls, found, exhausted, nodes_visited, candidate_row_count, solutions=0, log=None):
        return tuple.__new__(
            cls,
            (
                found,
                exhausted,
                nodes_visited,
                candidate_row_count,
                solutions,
                {} if log is None else log,
            ),
        )


def candidate_rows(n, m, mode):
    """Bit-packed rows admissible below an all-ones first row, ascending.

    Bit j set means -1 in column j; bit 0 is always clear (leading +1).
    A row of weight w (its number of -1 entries) is admitted when n - 2w,
    its inner product with the first row, vanishes modulo m.  Mode
    "restricted" only checks that (n, m) is in the regime.  run reads this
    list only in the unreduced traversal, the count, the generic reduced
    search and the first-witness pass after a witness; the switched search
    of the restricted regime never does.
    """
    SearchProblem(n, m, mode)  # validate the order, modulus, mode and regime
    # weight n, when admitted, has no row with bit 0 clear
    weights = _orthogonal_popcounts(n, m)
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


def _compat_mask(order, n, ok):
    """Return mask(i), the compatibility mask of order[i] over `order`.

    Bit j is set when popcount(order[i] ^ order[j]) is in `ok`, the
    popcounts at which two rows of length n are orthogonal.  The digit of
    each popcount is tabulated once.
    """
    digit = ["1" if c in ok else "0" for c in range(n + 1)]
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


def _canonical(x, bounds):
    """The least row of x's class under the permutations of columns that
    keep each block [bounds[i], bounds[i + 1]): the lowest popcount(x & block)
    columns of every block.  x has no set bit outside the blocks."""
    y = 0
    for lo, hi in zip(bounds, bounds[1:]):
        y |= ((1 << (x >> lo & ((1 << (hi - lo)) - 1)).bit_count()) - 1) << lo
    return y


def _switched_pool(bounds):
    """Every row with b, h - b, h - b and b columns in the blocks of
    bounds = (0, h, 2h, 3h, n), over all b, ascending.  These are the rows
    of weight w = 2h at distance w from c0 = (1 << w) - 1 and from
    c1 = (1 << h) - 1 | ((1 << h) - 1) << w (see run)."""
    h, n = bounds[1], bounds[4]
    pool = []
    for b in range(min(h, n - 3 * h) + 1):
        parts = [
            [x << lo for x in _weight_rows(hi - lo, c)]
            for lo, hi, c in zip(bounds, bounds[1:], (b, h - b, h - b, b))
        ]
        pool.extend(map(sum, product(*parts)))
    return sorted(pool)


def _exact_quotient(a, b):
    q, r = divmod(a, b)
    if r:
        raise AssertionError("double count %d is not divisible by %d" % (a, b))
    return q


def run(problem, max_n=None, log_branches=False):
    """Execute the search.

    goal "first" returns the lex-least witness.  "count" counts labelled
    row sets.  "exhaust" settles existence.  With symmetry off, "first"
    stops at the lex-least witness, and "count" and "exhaust" traverse the
    whole space.  With symmetry on (the default) "first" and "exhaust"
    start with the reduced search below, which stops at its first witness:
    "exhaust" returns that, so `solutions` is 0 or 1, and "first" returns
    None when it finds none.  In the restricted regime that witness is made
    of switched rows (see "Switching" below), so it need not be normalized.
    "count" double counts over the column permutations, as set out under
    "Counting" below.  When a witness exists, "first" and "count" then run
    the unreduced "first" as well, so the witness is still the lex-least
    one and nodes_visited counts both passes.  log_branches records one
    entry per DFS start of each pass: its start index, nodes and
    solutions, and in the reduced passes also `rep`, the index of its
    canonical first row (always 0 in the restricted regime).  A count
    entry adds the set size `s`, the `class` (a, weight) of its canonical
    second row and the class's `multiplier`.  Raises LimitExceeded when n
    is beyond max_n, which defaults to the instance's cap:
    MAX_N_RESTRICTED in the restricted regime, MAX_N_GENERIC outside.

    candidate_row_count is the number of candidate_rows(n, m, mode), the
    sum of C(n - 1, w) over the admitted weights w.  The list itself is
    built only by the paths that read it: the unreduced traversal, the
    count, the reduced search outside the restricted regime and the
    unreduced "first" pass after a witness.  The switched search reads no
    list, so a restricted "exhaust", or a "first" that finds no witness,
    builds none.  The log holds "candidate_digest", a SHA-256 of the list,
    exactly when the run built it.

    Soundness of the two-level reduction, which "first" and "exhaust" use
    outside the restricted regime and "count" everywhere.  A row is
    admitted by its weight alone, and two rows a, b are compatible exactly
    when
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
    class holds one canonical second row, _canonical(x, (1, w + 1, n)):
    the lowest a columns of the first block plus the lowest
    popcount(x) - a of the second.  Take a solution holding c0 and any
    other row x in it; a stabilizer element maps it to a solution holding
    c0 and x's canonical second row, and by the minimality of j* that
    solution holds no earlier rep.  With a row allowed to repeat, x may be
    a second copy of c0, which is its own class (w, w).  The reduced
    search therefore runs, for each j, over the pool of candidates
    compatible with reps[j] that are not earlier reps, with reps[j]
    implicit: the pool's canonical second rows come first, then the other
    pool rows, and the DFS from start s enumerates exactly the pool sets
    whose smallest index in that order is s.  The starts over the
    canonical second rows together cover every set that holds one, each
    once, so the branch of j* finds a solution.

    Switching, in the restricted regime.  By the switching lemma, in the
    docstring of existence._switching, an MH(n, m) there exists exactly
    when n - 1 rows of weight w = (n - sigma m)/2 over all n columns are
    pairwise at distance w, where sigma = +1 when n = m (mod 4) and -1
    otherwise; w is even.  The search looks for such rows.
    - The canonical rows.  Every permutation of the n columns keeps
      weights and distances.  Any row of weight w maps to
      c0 = (1 << w) - 1.  The stabilizer of c0 permutes [0, w) and [w, n)
      separately, and a row at distance w from c0 has w/2 columns in each,
      so it maps to c1, the lowest w/2 columns of [0, w) plus the lowest
      w/2 of [w, n).  The stabilizer of c0 and c1 permutes the blocks
      [0, w/2), [w/2, w), [w, 3w/2) and [3w/2, n) separately.  A row x at
      distance w from both has w/2 columns in c0 and w/2 in c1, so it has
      b, w/2 - b, w/2 - b and b columns in those blocks, and it maps to its
      class's canonical third row _canonical(x, bounds): the lowest
      columns of each block.  When n != m (mod 4) no row is at distance
      w from c0 (the lemma's step "n = m (mod 4)"): the pool is empty and
      the instance is refuted with no DFS.
    - Coverage.  A solution maps to one holding c0, then c1, then a
      canonical third row, so its other n - 3 rows are a pairwise
      compatible set of the pool (the rows at distance w from c0 and c1,
      built block by block by _switched_pool) that holds a canonical third
      row.  The search runs over the pool with c0 and c1 implicit, the
      canonical third rows first, and one DFS start per canonical third
      row; as above, the starts together cover every set that holds one,
      each once.

    Counting.  Let N = n - 1 and let K_s(P) be the number of pairwise
    compatible s-sets of distinct rows of P, K_s = K_s(candidates) and
    K_0 = 1.  A row may repeat exactly when m divides n, and then every
    row is compatible with itself, so a multiset of N rows is a solution
    exactly when its support is a compatible set; an s-set is the support
    of C(N - 1, s - 1) such multisets, so the count is the sum of
    K_s C(N - 1, s - 1) over s = 1..N.  Otherwise it is K_N.  Counting
    the pairs (set, member in it) gives s K_s = sum over candidates c of
    K_{s-1}(pool(c)), where pool(c) is the candidates other than c that
    are compatible with c.  A column permutation maps c to the canonical
    row c_w of its weight and pool(c) onto pool(c_w), so that sum is the
    sum over w of C(n - 1, w) K_{s-1}(pool(c_w)), C(n - 1, w) being the
    number of candidates of weight w.  Likewise (s - 1) K_{s-1}(pool(c))
    is the sum over x in pool(c) of K_{s-2}(pool(c) & pool(x)), and the
    stabilizer of c fixes pool(c) and maps x to the canonical second row
    of its class; so it is the sum over the classes in pool(c) of the
    class size C(w, a) C(n - 1 - w, popcount(x) - a) times K_{s-2} over
    the pool of c and of the class's canonical second row.  K_t for
    t >= 1 is the count of the DFS for t-sets without repeats from every
    start.  Each division is exact, and is checked.  Once some K_s is 0 so
    is every larger one, as each larger set holds an s-set, so the sum
    stops there.  When every two of the k candidates are compatible,
    K_s = C(k, s) and no DFS runs.
    """
    n, m = problem.n, problem.m
    regime = _restricted_regime(n, m)
    if max_n is None:
        max_n = MAX_N_RESTRICTED if regime else MAX_N_GENERIC
    if n > max_n:
        where = "in" if regime else "outside"
        msg = "n=%d exceeds limit %d %s the restricted regime" % (n, max_n, where)
        raise LimitExceeded(msg)
    ok = _orthogonal_popcounts(n, m)
    k = sum(comb(n - 1, w) for w in ok)  # weight n adds 0
    outcome_log = {}
    if k == 0:
        return SearchOutcome(None, True, 0, 0, 0, outcome_log)
    # a row may repeat exactly when it is compatible with itself, i.e.
    # <r, r> = n vanishes at the modulus
    allow_repeat = 0 in ok
    branch_records = []

    def listed():
        """The candidate list, its digest logged."""
        cands = candidate_rows(n, m, problem.mode)
        outcome_log["candidate_digest"] = _candidate_digest(cands)
        return cands

    def traverse(order, starts, goal, need, repeat, fixed=(), label=None, dist=ok):
        """DFS from each start over `order` for sets of `need` rows, below
        the rows `fixed`, two rows being compatible when the popcount of
        their xor is in `dist`: (sorted witness rows or None, nodes,
        solutions).  goal "first" stops at the first witness."""
        compat = [None] * len(order)
        mask = _compat_mask(order, n, dist)
        nodes = 0
        best = None
        total = 0
        for start in starts:
            rows, cnt, sub_nodes = _solve_subtree(
                start, compat, mask, need, repeat, goal
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

    def canonical_first(pool, bounds, need, repeat, fixed, label, dist=ok):
        """traverse "first" below the rows `fixed` over `pool`, its canonical
        rows under `bounds` (_canonical) first, one DFS start at each."""
        canon = {_canonical(x, bounds) for x in pool}
        heads = sorted(canon.intersection(pool))
        order = heads + [x for x in pool if x not in canon]
        return traverse(
            order, range(len(heads)), "first", need, repeat, fixed, label, dist
        )

    def full(cands, goal):
        return traverse(cands, range(k), goal, n - 1, allow_repeat)

    def compatible(c, rows):
        """The rows of `rows` compatible with c, in their order."""
        return [x for x in rows if (x ^ c).bit_count() in ok]

    def canonical_firsts():
        """The canonical first rows, one per weight w of a candidate
        (w < n), ascending, each with C(n - 1, w), its weight's number of
        candidates."""
        return [(((1 << w) - 1) << 1, comb(n - 1, w)) for w in sorted(ok) if w < n]

    def switched():
        w = (n - m if (n - m) % 4 == 0 else n + m) // 2
        h = w // 2
        c0, c1 = (1 << w) - 1, (1 << h) - 1 | ((1 << h) - 1) << w
        bounds = (0, h, w, w + h, n)
        return canonical_first(
            _switched_pool(bounds), bounds, n - 3, False, (c0, c1), {"rep": 0},
            frozenset([w]),
        )

    def reduced(cands):
        reps = [c0 for c0, _ in canonical_firsts()]
        if n == 2:  # a first row alone completes the matrix
            return reps[:1], 0, 1
        rest = set(cands).difference(reps)
        order = reps + [c for c in cands if c in rest]
        nodes = 0
        for j, c0 in enumerate(reps):
            w = c0.bit_count()
            best, sub_nodes, total = canonical_first(
                compatible(c0, order[j:]), (1, w + 1, n), n - 2, allow_repeat,
                (c0,), {"rep": j},
            )
            nodes += sub_nodes
            if best is not None:
                return best, nodes, total
        return None, nodes, 0

    def count(cands):
        set_sizes = range(1, n) if allow_repeat else (n - 1,)
        # every two candidates compatible (checked up to the first pair that
        # is not): K_s = C(k, s), with no DFS
        if all(
            (cands[i] ^ cands[j]).bit_count() in ok
            for i in range(k) for j in range(i + 1, k)
        ):
            return sum(comb(k, s) * comb(n - 2, s - 1) for s in set_sizes), 0
        # per canonical first row: its index, the row, the number of
        # candidates of its weight, and per class in its pool the class's
        # canonical second row, size and the pool of both
        pools = []
        for j, (c0, first_size) in enumerate(canonical_firsts()):
            w = c0.bit_count()
            pool = [x for x in compatible(c0, cands) if x != c0]
            sizes = Counter(_canonical(x, (1, w + 1, n)) for x in pool)
            classes = [
                (rep, size, [x for x in compatible(rep, pool) if x != rep])
                for rep, size in sorted(sizes.items())
            ]
            pools.append((j, c0, first_size, classes))
        total = nodes = 0
        for s in set_sizes:
            s_k = 0  # s K_s
            for j, c0, first_size, classes in pools:
                inner = 0  # (s - 1) K_{s-1}(pool(c0))
                for rep, size, order in classes:
                    k_t = 1  # K_0
                    if s > 2:
                        cls = [(rep & c0).bit_count(), rep.bit_count()]
                        label = {"s": s, "rep": j, "class": cls, "multiplier": size}
                        _, sub_nodes, k_t = traverse(
                            order, range(len(order)), "count", s - 2, False, label=label
                        )
                        nodes += sub_nodes
                    inner += size * k_t
                s_k += first_size * (_exact_quotient(inner, s - 1) if s > 1 else 1)
            k_s = _exact_quotient(s_k, s)
            if not k_s:  # no larger set either
                break
            total += k_s * comb(n - 2, s - 1)
        return total, nodes

    cands = None
    if not problem.symmetry:
        cands = listed()
        best, nodes, total = full(cands, problem.goal)
    else:
        if problem.goal == "count":
            cands = listed()
            total, nodes = count(cands)
            best, witness = None, total > 0
        else:
            if regime:  # reads no candidate list
                best, nodes, total = switched()
            else:
                cands = listed()
                best, nodes, total = reduced(cands)
            witness = best is not None and problem.goal == "first"
        if witness:  # the lex-least witness, by the unreduced first pass
            if cands is None:
                cands = listed()
            best, first_nodes, _ = full(cands, "first")
            nodes += first_nodes
    if log_branches:
        outcome_log["branches"] = branch_records
    found = None
    if best is not None:
        found = SignMatrix(n, (0,) + tuple(best))
        if not verify_mh(found, m).verdict:
            raise AssertionError("search produced an invalid witness")
    exhausted = problem.goal != "first" or found is None
    return SearchOutcome(found, exhausted, nodes, k, total, outcome_log)
