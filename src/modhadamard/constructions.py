"""Construction recipes for modular Hadamard matrices.

A Recipe is a small tree of seed and combinator nodes.  Every node knows
the order and natural modulus of the matrix (or design) it denotes, both
computed bottom-up without building anything, so recipes for
astronomically large orders stay cheap to handle.  materialize() builds
the actual matrix and verifies it, once.  plan() picks a recipe for a
requested (order, modulus) pair whenever one of the known construction
chains covers it.
"""

import itertools
import json
from collections import namedtuple
from functools import lru_cache
from importlib import resources
from math import gcd, isqrt, prod
from operator import and_

from ._record import Record, _jint
from .matrices import (
    DesignParams,
    IncidenceMatrix,
    SignMatrix,
    _every_pair,
    _iterate_built,
    _kron_built,
    _kron_modulus,
    _read_rows,
    _rotation,
    all_ones,
    design_to_mh,
    j_minus_2i,
    mh_modulus_of_exact_design,
    verify_design,
    verify_mh,
)
from .numtheory import half_pow_coeff, is_prime, is_prime_power, repunit

__all__ = [
    "CapExceeded",
    "Family10Params",
    "Family11Params",
    "MaterializeError",
    "Recipe",
    "catalog_design",
    "catalog_names",
    "check_constraints_1_to_4",
    "double",
    "family10_params",
    "family11_params",
    "find_difference_set",
    "iterate",
    "kron",
    "materialize",
    "materialize_design",
    "paley_design",
    "paley_hadamard",
    "plan",
    "recipe_design_params",
    "recipe_from_json",
    "recipe_to_json",
    "seed_all_ones",
    "seed_catalog",
    "seed_j_minus_2i",
    "seed_paley",
    "seed_paley_design",
    "seed_param_design",
    "seed_two_circulant",
    "two_circulant",
]

DEFAULT_MATERIALIZE_CAP = 64 * 1024 * 1024


class MaterializeError(Exception):
    """The recipe cannot be built: a design in it is known only by its
    parameters, or (CapExceeded) the matrix is too big.  It stays usable."""


class CapExceeded(MaterializeError):
    """Materializing would exceed the byte budget.  The recipe stays usable."""

    def __init__(self, order, cap):
        self.order = order
        self.cap = cap
        super().__init__(
            "materialization cap exceeded: order %s needs about %s packed bytes, cap is %d"
            % (order, (order * order + 7) // 8, cap)
        )


# ---------------------------------------------------------------------------
# bundled data


@lru_cache(maxsize=None)
def _load_json(name):
    path = resources.files("modhadamard.data").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _group_elements(mods):
    return list(itertools.product(*[range(x) for x in mods]))


def _develop(mods, subset):
    """Incidence matrix of the translates of subset in prod Z_mods.

    subset holds element indices in _group_elements order, where the last
    factor varies fastest; row e marks the translate e + subset.  Adding the
    generator of a factor is one of the column rotations of
    _develop_rotations(mods), a few big-int operations per row.
    """
    v = prod(mods)
    row = 0
    for j in subset:
        row |= 1 << j
    rows = [row]
    for rotation in _develop_rotations(mods):
        block, s = rotation[:2]
        turn = _rotation(rotation, v)
        translates = [rows]
        for _ in range(block // s - 1):
            translates.append(list(map(turn, translates[-1])))
        rows = [r for column in zip(*translates) for r in column]
    return IncidenceMatrix(v, tuple(rows))


def _develop_rotations(mods):
    """The column rotations of every _develop(mods, S), one per factor of
    order m_i > 1: adding its generator moves every index by one sub-block
    of s = m_(i+1) ... m_(r-1) places, cyclically within its block of
    m_i * s indices, so it turns each such block by s."""
    v = prod(mods)
    out = []
    block = v
    for m in mods:
        s = block // m
        if m > 1:
            out.append((block, s, tuple(range(0, v, block))))
        block = s
    return tuple(out)


def _development_ok(D, params):
    """verify_design(D, params) for a development D = _develop(mods, S)
    with exact params.

    Row e of D is row 0 translated by e, so every row and every column
    has |S| ones, and the overlap of rows g and h is that of rows 0 and
    h - g.  Row 0's weight and its overlaps with the other rows are the
    whole check: O(v) big-int operations in place of O(v^2).
    """
    rows = D.rows
    return (
        D.v == params.v
        and rows[0].bit_count() == params.k
        and _every_pair(rows[:1], rows, (1,), and_, {params.lam})
    )


def catalog_names():
    return sorted(_load_json("catalog.json"))


def catalog_design(name):
    """Load one bundled design, verify it, return (IncidenceMatrix, DesignParams).

    Parameters come back with modulus 0: the incidence matrix satisfies its
    equations exactly, hence at every modulus.
    """
    return _catalog(name)[:2]


@lru_cache(maxsize=None)
def _catalog(name):
    """catalog_design(name) and the column rotations of its group's
    development, none for a design given by its rows."""
    table = _load_json("catalog.json")
    if name not in table:
        raise ValueError("unknown catalog design %r" % name)
    entry = table[name]
    v, k, lam = entry["v"], entry["k"], entry["lambda"]
    group = entry["group"]
    rotations = ()
    if group is None:
        mat = IncidenceMatrix(v, _read_rows(entry["elements"], v, "01"))
    else:
        mods = tuple(group)
        index = {e: i for i, e in enumerate(_group_elements(mods))}
        subset = []
        for e in entry["elements"]:
            t = (e,) if isinstance(e, int) else tuple(e)
            if t not in index:
                raise ValueError("catalog %s: %r is not in the group" % (name, e))
            subset.append(index[t])
        mat = _develop(mods, subset)
        rotations = _develop_rotations(mods)
    params = DesignParams(v, k, lam, 0)
    check = verify_design if group is None else _development_ok
    if not check(mat, params):
        raise ValueError("catalog design %s fails verification" % name)
    return mat, params, rotations


@lru_cache(maxsize=None)
def two_circulant(name):
    """Sign matrix [[A, B], [B^T, -A^T]] from bundled circulant first rows.

    Returns (SignMatrix, modulus); the matrix is verified at that modulus
    on load, by the rotation of both halves (_two_circulant_rotations), and
    corrupt data is a hard error.
    """
    table = _load_json("two_circulant.json")
    if name not in table:
        raise ValueError("unknown two-circulant entry %r" % name)
    entry = table[name]
    b = entry["block_size"]
    m = entry["modulus"]
    # the first rows of A and B, read as the catalog's rows are: a set bit is a -1
    firsts = _read_rows(entry["first_rows"], b, "+-", count=2)
    mat = _two_circulant(b, *({j for j in range(b) if row >> j & 1} for row in firsts))
    if not verify_mh(mat, m, _two_circulant_rotations(b)).verdict:
        raise ValueError("two-circulant %s fails verification" % name)
    return mat, m


def _two_circulant(b, a_minus, b_minus):
    """[[A, B], [B^T, -A^T]] for circulants A and B of order b whose first
    rows have -1 at a_minus and b_minus, unchecked."""
    # each block is developed from the -1 positions of its first row: those
    # of B^T are the negated ones of B, those of -A^T the negated +1s of A
    firsts = (
        a_minus,
        b_minus,
        {-j % b for j in b_minus},
        {-j % b for j in range(b) if j not in a_minus},
    )
    blocks = [_develop((b,), first).rows for first in firsts]
    top = [x | y << b for x, y in zip(blocks[0], blocks[1])]
    bottom = [x | y << b for x, y in zip(blocks[2], blocks[3])]
    return SignMatrix(2 * b, tuple(top + bottom))


def _two_circulant_rotations(b):
    """Turning both halves of the columns by one maps row i of each
    circulant block row to row i + 1: the symmetry of a two-circulant
    matrix of block size b."""
    return ((b, 1, (0, b)),)


# ---------------------------------------------------------------------------
# Paley constructions


def _paley_field(q, prime):
    """(p, k) with q = p^k, when q = 3 mod 4 is a prime power (with k = 1 if
    prime is true): the one precondition of the Paley constructions."""
    pp = is_prime_power(q) if q % 4 == 3 else None
    if pp is None or (prime and pp.exponent != 1):
        kind = "prime" if prime else "prime power"
        raise ValueError("need a %s q with q %% 4 == 3, got %r" % (kind, q))
    return pp.base, pp.exponent


def _nonzero_squares(q):
    """Indices of the nonzero squares of GF(q) in _group_elements((p,) * k),
    where q = p^k.

    A prime field is the integers mod q.  For k >= 2, GF(q) is Z_p[x]/(f),
    where f is the first monic polynomial of degree k, in the product order
    of its coefficients with the constant term first, whose root x has
    order q - 1: q - 1 distinct
    powers of x are q - 1 units, so the quotient is a field and f is
    irreducible.  The squares are the even powers of x.  An element is its
    coefficient tuple, constant term first, read as base-p digits.
    """
    pp = is_prime_power(q)
    p, k = pp.base, pp.exponent
    if k == 1:
        return {x * x % q for x in range(1, q)}
    one = (1,) + (0,) * (k - 1)
    weights = [p ** (k - 1 - j) for j in range(k)]
    for tail in itertools.product(range(p), repeat=k):
        if tail[0] == 0:
            continue  # x divides f, so x is not a unit
        powers = []
        e = one
        while len(powers) < q - 1:
            powers.append(e)
            top = e[-1]
            # x * e, with x^k reduced to -tail
            e = tuple((a - top * c) % p for a, c in zip((0,) + e[:-1], tail))
            if e == one:
                break
        if e == one and len(powers) == q - 1:
            return {sum(a * w for a, w in zip(x, weights)) for x in powers[::2]}
    raise RuntimeError("no primitive polynomial found for GF(%d)" % q)


@lru_cache(maxsize=None)
def paley_hadamard(q):
    """Hadamard matrix of order q + 1 from the quadratic character mod q.

    q must be a prime with q % 4 == 3.  The result is exact (modulus 0)
    and already normalized: first row and column all +1.
    """
    _paley_field(q, prime=True)
    mat = _bordered(_develop((q,), _nonzero_squares(q)))
    if not verify_mh(mat, 0, _core_rotations(q + 1)).verdict:
        raise RuntimeError("paley matrix failed self-check at q=%d" % q)
    return mat


def _bordered(design):
    """The sign matrix [[1, 1], [1, C]] whose core C has entry (i, j) -1
    exactly when i = j or design row i has entry j.  For the quadratic
    residues mod q = 3 mod 4 (-1 is a non-square) this is Paley's matrix."""
    rows = [0] + [(d | 1 << i) << 1 for i, d in enumerate(design.rows)]
    return SignMatrix(design.v + 1, tuple(rows))


def _core_rotations(n):
    """Turning columns 1..n-1 by one maps row i of J - 2I, and row i of a
    bordered cyclic development such as Paley's matrix, to row i + 1 for
    i >= 1 and fixes row 0: their symmetry at order n >= 3."""
    return ((n - 1, 1, (1,)),) if n >= 3 else ()


@lru_cache(maxsize=None)
def paley_design(q):
    """Quadratic-residue design on GF(q): (q, (q-1)/2, (q-3)/4), q = 4t + 3.

    q may be any prime power in the right residue class.  Returns
    (IncidenceMatrix, DesignParams) with modulus 0.
    """
    p, k = _paley_field(q, prime=False)
    mat = _develop((p,) * k, _nonzero_squares(q))
    params = recipe_design_params(seed_paley_design(q))
    if not _development_ok(mat, params):
        raise RuntimeError("paley design failed self-check at q=%d" % q)
    return mat, params


# ---------------------------------------------------------------------------
# difference set search


def find_difference_set(group, k, lam):
    """Exhaustive search for a (v, k, lam) difference set.

    group lists cyclic factor orders, e.g. (7,) or (6, 6); v is their
    product and is capped at 40.  The identity is forced into the set,
    which loses no generality up to translation.  Returns
    (subset, IncidenceMatrix) for the first set found in lexicographic
    order, or None.
    """
    mods = tuple(int(x) for x in group)
    if not mods or any(x < 1 for x in mods):
        raise ValueError("group factors must be positive")
    v = prod(mods)
    if v > 40:
        raise ValueError("group order %d exceeds the search cap of 40" % v)
    if not 0 < k <= v:
        raise ValueError("need 0 < k <= v")
    if k * (k - 1) != lam * (v - 1):
        raise ValueError("k(k-1) != lam(v-1)")

    elements = _group_elements(mods)
    index = {e: i for i, e in enumerate(elements)}
    sub = [
        [index[tuple((a - b) % m for a, b, m in zip(x, y, mods))] for y in elements]
        for x in elements
    ]
    counts = [0] * v
    chosen = [0]

    def place(x, undo):
        for s in chosen:
            for d in (sub[x][s], sub[s][x]):
                if counts[d] == lam:
                    for e in undo:
                        counts[e] -= 1
                    return False
                counts[d] += 1
                undo.append(d)
        return True

    def extend(start):
        if len(chosen) == k:
            return True
        for x in range(start, v - (k - len(chosen)) + 1):
            undo = []
            if place(x, undo):
                chosen.append(x)
                if extend(x + 1):
                    return True
                chosen.pop()
                for e in undo:
                    counts[e] -= 1
        return False

    if not extend(1):
        return None
    # every pairwise difference landed without exceeding lam and their
    # total is lam (v - 1), so each difference count is exactly lam
    mat = _develop(mods, chosen)
    if not _development_ok(mat, DesignParams(v, k, lam, 0)):
        raise RuntimeError("difference set development failed verification")
    if len(mods) == 1:
        subset = tuple(elements[i][0] for i in chosen)
    else:
        subset = tuple(elements[i] for i in chosen)
    return subset, mat


# ---------------------------------------------------------------------------
# parameter families


class Family10Params(
    Record, namedtuple("Family10Params", "q d e r v k lam r_is_prime_power")
):
    """(v, k, lam) of family10_params(q, d, e), with its repunit r."""

    __slots__ = ()


class Family11Params(Record, namedtuple("Family11Params", "q e v k lam")):
    """(v, k, lam) of family11_params(q, e)."""

    __slots__ = ()


def family10_params(q, d, e):
    """Menon-type parameter triple built from the repunit r = (q^d-1)/(q-1).

    Needs q a prime power and d >= 2 (d = 1 degenerates to r = 1).  The
    r_is_prime_power flag records whether the construction behind the
    parameters is actually available.
    """
    if q < 2 or is_prime_power(q) is None:
        raise ValueError("q must be a prime power, got %r" % (q,))
    if d < 2 or e < 1:
        raise ValueError("need d >= 2 and e >= 1")
    r = repunit(q, d)
    v = 1 + q * r * repunit(r, e)
    k = r**e
    lam_num = r ** (e - 1) * (r - 1)
    if lam_num % q:
        raise RuntimeError("q does not divide r^(e-1)(r-1)")
    return Family10Params(q, d, e, r, v, k, lam_num // q, is_prime_power(r) is not None)


def family11_params(q, e):
    """Parameter triple (1 + 2q(q^e-1)/(q-1), q^e, q^(e-1)(q-1)/2) for odd q."""
    if q < 3 or q % 2 == 0 or is_prime_power(q) is None:
        raise ValueError("q must be an odd prime power, got %r" % (q,))
    if e < 1:
        raise ValueError("need e >= 1")
    v = 1 + 2 * q * repunit(q, e)
    k = q**e
    return Family11Params(q, e, v, k, q ** (e - 1) * (q - 1) // 2)


def check_constraints_1_to_4(params, p, n, parity=(4, 3)):
    """Residue conditions a companion design must meet to extend an MH(n, p).

    parity is a (modulus, residue) pair for the v congruence; the three
    modular conditions ask v = 1, k = 1 and lam = 2^(phi(p)-2) (4 - n),
    all mod p.  Returns a dict of four booleans.

    p must be odd and at least 3, where 4 is invertible, and the parity
    modulus at least 1; anything else raises ValueError.
    """
    pm, pr = parity
    if p < 3 or p % 2 == 0:
        raise ValueError("the residue conditions need an odd modulus p >= 3, got %r" % p)
    if pm < 1:
        raise ValueError("the parity modulus must be >= 1, got %r" % pm)
    c = half_pow_coeff(p)
    return {
        "parity": params.v % pm == pr % pm,
        "v_mod_p": params.v % p == 1,
        "k_mod_p": params.k % p == 1,
        "lambda_mod_p": (params.lam - c * (4 - n)) % p == 0,
    }


# ---------------------------------------------------------------------------
# recipes


class Recipe(Record, namedtuple("Recipe", "node args children order modulus kind")):
    """One node of a construction tree.

    kind is "mh" for matrix-valued nodes and "design" for design-valued
    ones.  order is the matrix order (or v), modulus the natural modulus
    (0 = exact) computed from the children, both without materializing.
    """

    __slots__ = ()


def seed_all_ones(n):
    if n < 1:
        raise ValueError("need n >= 1")
    return Recipe("AllOnes", (n,), (), n, 0 if n == 1 else n, "mh")


def seed_j_minus_2i(n):
    if n < 2:
        raise ValueError("need n >= 2")
    if n in (3, 5):
        raise ValueError("order %d gives modulus 1, which is useless" % n)
    return Recipe("JMinus2I", (n,), (), n, abs(n - 4), "mh")


def seed_paley(q):
    _paley_field(q, prime=True)
    return Recipe("PaleyHadamard", (q,), (), q + 1, 0, "mh")


def seed_paley_design(q):
    _paley_field(q, prime=False)
    return Recipe("PaleyDesign", (q,), (), q, 0, "design")


def seed_catalog(name, kind="mh"):
    _, params = catalog_design(name)
    if kind == "design":
        return Recipe("CatalogDesign", (name,), (), params.v, 0, "design")
    if kind != "mh":
        raise ValueError("kind must be 'mh' or 'design'")
    mod = mh_modulus_of_exact_design(params)
    if mod == 1:
        raise ValueError("catalog design %s has no useful matrix reading" % name)
    return Recipe("CatalogDesign", (name,), (), params.v, mod, "mh")


def seed_two_circulant(name):
    mat, m = two_circulant(name)
    return Recipe("TwoCirculant", (name,), (), mat.n, m, "mh")


def seed_param_design(v, k, lam):
    """Design known only at parameter level; it cannot be materialized."""
    if v < 2 or not 0 <= k <= v or lam < 0:
        raise ValueError("bad design parameters")
    if k * (k - 1) != lam * (v - 1):
        raise ValueError("k(k-1) != lam(v-1)")
    return Recipe("ParamDesign", (v, k, lam), (), v, 0, "design")


def recipe_design_params(recipe):
    if recipe.kind != "design":
        raise ValueError("not a design recipe")
    if recipe.node == "CatalogDesign":
        return catalog_design(recipe.args[0])[1]
    if recipe.node == "PaleyDesign":
        q = recipe.args[0]
        return DesignParams(q, (q - 1) // 2, (q - 3) // 4, 0)
    if recipe.node == "ParamDesign":
        v, k, lam = recipe.args
        return DesignParams(v, k, lam, 0)
    raise ValueError("unknown design node %r" % recipe.node)


def _require_mh(recipe, who):
    if recipe.kind != "mh":
        raise ValueError("%s needs a matrix recipe, got %s" % (who, recipe.node))
    if recipe.modulus == 1:
        raise ValueError("%s cannot use a modulus-1 child" % who)


def kron(r1, r2):
    """Kronecker product; the modulus follows matrices._kron_modulus."""
    _require_mh(r1, "kron")
    _require_mh(r2, "kron")
    m = _kron_modulus(r1.order, r1.modulus, r2.order, r2.modulus)
    return Recipe("Kron", (), (r1, r2), r1.order * r2.order, m, "mh")


def double(recipe):
    """Kronecker with the exact order-2 matrix; doubles order and modulus."""
    _require_mh(recipe, "double")
    m = _kron_modulus(recipe.order, recipe.modulus, 2, 0)
    return Recipe("Double", (), (recipe,), 2 * recipe.order, m, "mh")


def iterate(base, design, l, modulus):
    """Extend base l times by a companion design at an odd modulus >= 3.

    Each round takes the core of the normalized matrix, adds the design's
    incidence matrix as a direct summand and reads the result as a sign
    matrix, so the order grows by v - 1.  l = 0 returns base unchanged.
    """
    if isinstance(design, str):
        design = seed_catalog(design, kind="design")
    if not isinstance(l, int) or l < 0:
        raise ValueError("need an integer l >= 0")
    if l == 0:
        return base
    _require_mh(base, "iterate")
    if design.kind != "design":
        raise ValueError("iterate needs a design recipe as companion")
    dp = recipe_design_params(design)
    # v = 1 mod m keeps the base order residue fixed, so one residue
    # check covers every round
    residues = check_constraints_1_to_4(dp, modulus, base.order)
    if base.modulus != 0 and base.modulus % modulus:
        raise ValueError("base modulus %d is not divisible by %d" % (base.modulus, modulus))
    if base.order < 3:
        raise ValueError("base order %d is too small to take a core" % base.order)
    if gcd(base.order, modulus) != 1:
        raise ValueError("base order shares a factor with the modulus")
    if not all(residues[key] for key in ("v_mod_p", "k_mod_p", "lambda_mod_p")):
        raise ValueError("companion design fails the residue conditions")
    order = base.order + l * (dp.v - 1)
    return Recipe("Iterate", (l,), (base, design), order, modulus, "mh")


# ---------------------------------------------------------------------------
# serialization


# a recipe deeper than this is refused with ValueError, before Python's
# recursion limit (1,000 frames) raises RecursionError.  Recipe JSON is read
# and written by one Python frame per tree level (map, not a list
# comprehension, which is a frame of its own before Python 3.12), and
# json.dumps spends two levels of that limit per tree level (the node and
# its children list), so a verdict that holds a recipe at the bound leaves
# about 180 frames to its caller.  plan's recipes are about log2(n) levels
# deep, a Double per halving of n
_MAX_RECIPE_DEPTH = 400


def _check_depth(depth):
    if depth > _MAX_RECIPE_DEPTH:
        raise ValueError("recipe is more than %d levels deep" % _MAX_RECIPE_DEPTH)


def recipe_to_json(recipe):
    """The recipe as a JSON object (recipe.schema.json).  A recipe more than
    400 levels deep raises ValueError."""
    return _to_json(recipe, 1)


def _to_json(recipe, depth):
    _check_depth(depth)
    return {
        "node": recipe.node,
        "kind": recipe.kind,
        "args": [_jint(a) if isinstance(a, int) else a for a in recipe.args],
        "order": str(recipe.order),
        "modulus": recipe.modulus,
        "children": list(map(_to_json, recipe.children, itertools.repeat(depth + 1))),
    }


# each node of recipe JSON: its numbers of args and children, and its
# constructor, called with the args, the children's recipes and the object
_FROM_JSON = {
    "AllOnes": (1, 0, lambda a, c, obj: seed_all_ones(int(a[0]))),
    "JMinus2I": (1, 0, lambda a, c, obj: seed_j_minus_2i(int(a[0]))),
    "PaleyHadamard": (1, 0, lambda a, c, obj: seed_paley(int(a[0]))),
    "PaleyDesign": (1, 0, lambda a, c, obj: seed_paley_design(int(a[0]))),
    "CatalogDesign": (1, 0, lambda a, c, obj: seed_catalog(str(a[0]), kind=obj["kind"])),
    "TwoCirculant": (1, 0, lambda a, c, obj: seed_two_circulant(str(a[0]))),
    "ParamDesign": (3, 0, lambda a, c, obj: seed_param_design(*map(int, a))),
    "Kron": (0, 2, lambda a, c, obj: kron(*c)),
    "Double": (0, 1, lambda a, c, obj: double(*c)),
    "Iterate": (1, 2, lambda a, c, obj: iterate(*c, int(a[0]), obj["modulus"])),
}


def recipe_from_json(obj):
    """The recipe of a recipe_to_json object, rebuilt by its constructors.
    A missing key, a value of the wrong JSON type (recipe.schema.json), an
    unknown node, a wrong number of args or children or a tree more than
    400 levels deep raises ValueError, naming what is wrong."""
    return _from_json(obj, 1)


def _from_json(obj, depth):
    _check_depth(depth)
    if not isinstance(obj, dict):
        raise ValueError("recipe node must be a JSON object, got %r" % (obj,))
    missing = [key for key in ("node", "kind", "order", "modulus") if key not in obj]
    if missing:
        raise ValueError("recipe node has no %s" % ", ".join(map(repr, missing)))
    node, order, modulus = obj["node"], obj["order"], obj["modulus"]
    args, ch = obj.get("args", []), obj.get("children", [])
    if type(node) is not str or node not in _FROM_JSON:
        raise ValueError("unknown recipe node %r" % (node,))
    for key, ok in (
        ("order", type(order) is str and order.isascii() and order.isdigit()),
        ("modulus", type(modulus) is int and modulus >= 0),
        ("args", type(args) is list and all(type(a) in (int, str) for a in args)),
        ("children", type(ch) is list),
    ):
        if not ok:
            bad = (node, key, obj.get(key))
            raise ValueError("%s node: %s %r does not match recipe.schema.json" % bad)
    n_args, n_children, build = _FROM_JSON[node]
    for what, want, got in (("args", n_args, args), ("children", n_children, ch)):
        if len(got) != want:
            raise ValueError("%s node needs %d %s, got %d" % (node, want, what, len(got)))
    r = build(args, list(map(_from_json, ch, itertools.repeat(depth + 1))), obj)
    if r.kind != obj["kind"] or r.order != int(order) or r.modulus != modulus:
        raise ValueError("stored kind/order/modulus disagree with the reconstruction")
    return r


# ---------------------------------------------------------------------------
# materialization


def _check_cap(order, size_cap=None):
    cap = DEFAULT_MATERIALIZE_CAP if size_cap is None else int(size_cap)
    if (order * order + 7) // 8 > cap:
        raise CapExceeded(order, cap)


def materialize(recipe, size_cap=None):
    """Build the sign matrix for an mh recipe and verify it.

    This is the one Gram check of the built matrix: no recipe node checks
    its intermediate results, and a failure raises RuntimeError.  The
    check is given the column rotations that the recipe proposes (see
    _build) and keeps those that map the rows onto themselves.

    Raises CapExceeded when the packed matrix would not fit in size_cap
    bytes (default 64 MiB), and MaterializeError when the tree contains a
    parameter-level design.
    """
    if recipe.kind != "mh":
        raise ValueError("not a matrix recipe; use materialize_design")
    _check_cap(recipe.order, size_cap)
    mat, rotations = _build(recipe)
    if mat.n != recipe.order:
        raise RuntimeError("materialized order %d, expected %d" % (mat.n, recipe.order))
    if recipe.modulus != 1 and not verify_mh(mat, recipe.modulus, rotations).verdict:
        raise RuntimeError(
            "materialized matrix fails verification at modulus %d" % recipe.modulus
        )
    return mat


def materialize_design(recipe):
    """Incidence matrix and exact parameters for a design recipe, under
    materialize's default cap; see materialize for what it raises."""
    if recipe.kind != "design":
        raise ValueError("not a design recipe")
    _check_cap(recipe.order)
    return _build(recipe)[0], recipe_design_params(recipe)


def _build(recipe):
    """The recipe's matrix, unchecked, and the column rotations (L, s,
    starts) that it proposes for the Gram check: materialize() verifies
    the result, and verify_mh keeps a rotation only if it maps the rows
    onto themselves.  A design recipe gives its incidence matrix (checked
    by its seed); one known only by its parameters raises.

    Each seed proposes its group's rotations.  A Kronecker product turns
    the right factor's blocks inside each of its n1 blocks of n2 columns,
    and the left factor's whole blocks of n2 columns.  Iterate keeps those
    that fix the rows and columns its rounds drop, in the order they
    arrived (_iterate_built).
    """
    node, args = recipe.node, recipe.args
    if node == "AllOnes":
        return all_ones(args[0]), ()
    if node == "JMinus2I":
        return j_minus_2i(args[0]), _core_rotations(args[0])
    if node == "PaleyHadamard":
        return paley_hadamard(args[0]), _core_rotations(args[0] + 1)
    if node == "TwoCirculant":
        mat = two_circulant(args[0])[0]
        return mat, _two_circulant_rotations(mat.n // 2)
    if node == "CatalogDesign":
        D, _, rotations = _catalog(args[0])
        return (D if recipe.kind == "design" else design_to_mh(D)), rotations
    if node == "PaleyDesign":
        p, k = _paley_field(args[0], prime=False)
        return paley_design(args[0])[0], _develop_rotations((p,) * k)
    if node == "ParamDesign":
        raise MaterializeError("design %s is known at parameter level only" % (args,))
    if node in ("Kron", "Double"):
        # (A x B) x C and A x (B x C) have the same rows and rotations, in
        # the same order: take the left spine's small right factors first,
        # so that the big left factor's rows are spread once
        right = None
        while recipe.node in ("Kron", "Double"):
            if recipe.node == "Kron":
                recipe, b = recipe.children
                factor = _build(b)
            else:
                (recipe,) = recipe.children
                factor = (SignMatrix(2, (0, 2)), ())
            right = factor if right is None else _kron_built(factor, right)
        return _kron_built(_build(recipe), right)
    if node == "Iterate":
        base, design = recipe.children
        # the design first: one known only by its parameters raises
        # MaterializeError before any of the base is built
        comp, rotations = _build(design)
        return _iterate_built(_build(base), comp, rotations, args[0])
    raise ValueError("unknown recipe node %r" % node)


# ---------------------------------------------------------------------------
# planning

_REACH_LIMIT = 10**8


@lru_cache(maxsize=None)
def _exact_order_recipe(n):
    """A modulus-0 recipe of order n from the bundled seeds, if one is known.

    Known pool: Paley orders q + 1 for prime q = 4t + 3, the bundled
    order-36 design, and closure under doubling and Kronecker products.
    plan serves order 4 as J - 2I, at every modulus, before it asks here.
    Misses some orders (28, 52, ...) whose Hadamard matrices need other
    methods.
    """
    if n < 4 or n % 4 or n > _REACH_LIMIT:
        return None
    if is_prime(n - 1)[0]:
        return seed_paley(n - 1)
    if n == 36:
        return seed_catalog("menon_36_15_6", kind="mh")
    if n % 8 == 0:
        half = _exact_order_recipe(n // 2)
        if half is not None:
            return double(half)
    for d in range(8, isqrt(n) + 1, 4):
        if n % d == 0:
            a = _exact_order_recipe(d)
            b = _exact_order_recipe(n // d) if a is not None else None
            if b is not None:
                return kron(a, b)
    return None


@lru_cache(maxsize=None)
def _family10_giant():
    return family10_params(29, 5, 6)


_FAMILY12_PARAMS = (52480, 5832, 648)


def plan(n, m):
    """A construction recipe for an MH(n, m), or None when no chain applies.

    The result's modulus is divisible by m (or is 0); it is not
    necessarily equal to m.  Raises on n < 3 and on modulus 1.  When no
    chain reaches n itself, the halves of n are tried in turn, largest
    first, each doubled back up by Sylvester's step: an MH(n / 2, m')
    doubles to an MH(n, 2 m'), with m' = m for odd m and m / 2 for even
    m.  Halving stops at an odd order, an order below 3 or at m = 2.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if m < 0 or m == 1:
        raise ValueError("modulus must be 0 (exact) or >= 2")
    r = _plan_once(n, m)
    doublings = 0
    while r is None and n % 2 == 0 and n >= 6 and m != 2:
        n, m = n // 2, m if m % 2 else m // 2
        doublings += 1
        r = _plan_once(n, m)
    if r is None:
        return None
    for _ in range(doublings):
        r = double(r)
    return r


def _plan_once(n, m):
    """plan(n, m) without its closing Double."""

    def hits(x):
        return x == 0 if m == 0 else x % m == 0

    if hits(n):
        return seed_all_ones(n)
    if hits(n - 4):
        return seed_j_minus_2i(n)
    if n % 2 == 0 and hits(n - 8):
        return double(seed_j_minus_2i(n // 2))
    if n % 4 == 0:
        r = _exact_order_recipe(n)
        if r is not None:
            return r
    chain = _chain(n, m)
    if chain is None or n < chain[2]:
        return None
    return chain[3]()


@lru_cache(maxsize=None)
def _mod5_chains():
    """The m = 5 chains as (base, companion): each extends its base by
    rounds of the companion, so it serves the orders b (mod v - 1) from b
    on, b being the base's order."""
    comp21 = seed_catalog("comp_21_16_12", kind="design")
    b16 = double(double(seed_j_minus_2i(4)))
    return (
        (seed_catalog("pp_21_5_1", kind="mh"), comp21),
        (iterate(b16, "biplane_16_6_2", 1, modulus=5), comp21),
        (seed_paley(11), seed_catalog("comp_11_6_3", kind="design")),
        (seed_two_circulant("two_circ_26_5"), comp21),
    )


@lru_cache(maxsize=None)
def _least_reached(c, M):
    """The least order n >= 3, n = c (mod M), that plan reaches at m = 7;
    _one_round asks only for reached classes (8 mod 14; 2, 12, 16 mod 28)."""
    n = c
    while n < 3 or plan(n, 7) is None:
        n += M
    return n


def _one_round(n, c, M, design):
    """The chain of one round of design over plan(n - (v - 1), 7), for
    n = c (mod M); it starts where the base's class is first reached."""
    step = design.order - 1

    def build():
        base = plan(n - step, 7)
        return None if base is None else iterate(base, design, 1, modulus=7)

    return c, M, step + _least_reached((c - step) % M, M), build


def _chain(n, m):
    """The extension chain that serves n's class at modulus m, as
    (c, M, start, build): it covers n = c (mod M) from order start on, and
    build() returns its recipe for n, or None where its base is missing.
    None when no chain serves the class.  _plan_once builds from it and
    existence.threshold_note quotes it."""
    if m == 5:
        for base, comp in _mod5_chains():
            b, step = base.order, comp.order - 1
            if n % step == b % step:
                l = (n - b) // step
                return b % step, step, b, lambda: iterate(base, comp, l, modulus=5)
        # odd n = 3, 7 (mod 10) are quadratic nonresidues of 5
        return None
    if m != 7:
        return None
    r14 = n % 14
    if r14 == 1:
        return _one_round(n, 1, 14, seed_catalog("menon_36_15_6", kind="design"))
    if r14 == 6:
        # J - 2I times the Paley matrix of order 12, then l rounds of the
        # (71, 15, 3) design; each round adds 70 = -14 (mod 84)
        l = (48 - n) // 14 % 6
        start = 48 + 70 * l

        def build():
            base = kron(seed_j_minus_2i(7 * ((n - start) // 84) + 4), seed_paley(11))
            return iterate(base, "ds_71_15_3", l, modulus=7)

        return 6, 14, start, build
    if r14 == 9:
        return _one_round(n, n % 28, 28, seed_param_design(*_FAMILY12_PARAMS))
    if r14 == 10:
        # plan(t, 7) times the Paley matrix of order 12, then a rounds of
        # the q = 9 and b of the q = 23 design of family11_params(q, 3)
        def build():
            shifts = {0: (0, 0), 42: (1, 0), 70: (0, 1), 28: (1, 1), 56: (0, 2), 14: (1, 2)}
            a, b = shifts[(n - 24) % 84]
            f9 = family11_params(9, 3)
            f23 = family11_params(23, 3)
            sub = plan((n - a * (f9.v - 1) - b * (f23.v - 1)) // 12, 7)
            if sub is None:
                return None
            r = kron(sub, seed_paley(11))
            r = iterate(r, seed_param_design(f9.v, f9.k, f9.lam), a, modulus=7)
            return iterate(r, seed_param_design(f23.v, f23.k, f23.lam), b, modulus=7)

        return 10, 14, 683294, build
    if n % 28 == 26:
        giant = _family10_giant()
        return _one_round(n, 26, 28, seed_param_design(giant.v, giant.k, giant.lam))
    # 2 (mod 14) and 12 (mod 28) are reached by plan's Double of n / 2;
    # 0, 4, 7, 8, 11 mod 14 are handled by the generic rules in _plan_once;
    # 3, 5, 13 mod 14 are quadratic nonresidues of 7
    return None
