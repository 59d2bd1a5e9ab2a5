"""Seeded inputs for the benchmark: group files for `analyze` and argument
lists for the sweep commands.

Every certified group is a signed-permutation group in a hidden position:
over the scalar form c I it is generated by signed permutation matrices g,
and the file holds the Gram matrix T^t (c I) T and the generators T^-1 g T
for a seeded invertible T.  The shapes of the op lists are fixed; the seed
chooses T, c and the order of the ops.  The random generating sets and the
reflections generating O_3(q) are drawn from a stream of their own template
instead, the same for every seed: what orthomono's recursion does with a
generating set (how many lines its irreducibility tests spin, at every
level) does not change under conjugation, and one unlucky set can double an
op's time, so seeding them would make seeds differ in cost.  Each input is validated here, with gf.py's own
arithmetic, before it is written.
"""

import functools
import itertools
import random

import numpy as np

from gf import Field


# -- signed permutations ---------------------------------------------------
# A signed permutation of n points is a tuple s with g e_i = sign(s[i])
# e_{|s[i]|-1}.

def sp_identity(n):
    return tuple(range(1, n + 1))


def sp_compose(a, b):
    """a after b."""
    return tuple(a[x - 1] if x > 0 else -a[-x - 1] for x in b)


def sp_flip(n, i):
    return tuple(-(j + 1) if j == i else j + 1 for j in range(n))


def sp_perm(perm):
    """The unsigned permutation i -> perm[i]."""
    return tuple(j + 1 for j in perm)


def sp_closure(gens, n):
    """Sorted element list of the group the signed permutations generate."""
    ident = sp_identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = sp_compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def sp_matrix(F, s):
    n = len(s)
    m = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(s):
        m[abs(x) - 1, i] = 1 if x > 0 else F.minus_one
    return m


def cyclic(n):
    return [tuple((i + 1) % n for i in range(n))]


def dihedral(n):
    return cyclic(n) + [tuple((-i) % n for i in range(n))]


def agl1(p):
    a = next(a for a in range(2, p)
             if len({pow(a, e, p) for e in range(1, p)}) == p - 1)
    return cyclic(p) + [tuple((a * i) % p for i in range(p))]


K_FAMILIES = {
    "C": (cyclic, lambda n: n),
    "D": (dihedral, lambda n: 2 * n),
    "AGL": (agl1, lambda n: n * (n - 1)),
}


def wreath_gens(n, kgens):
    """Sign flips and K's permutations, padded with -I and products of
    adjacent flips to more than six generators."""
    gens = [sp_flip(n, i) for i in range(n)] + [sp_perm(k) for k in kgens]
    extra = [tuple(-x for x in sp_identity(n))]
    extra += [sp_compose(sp_flip(n, i), sp_flip(n, i + 1))
              for i in range(n - 1)]
    while len(gens) < 7:
        gens.append(extra.pop(0))
    return gens


def block_gens():
    """Like tests' deep_block_group: three 3-dimensional blocks carrying
    diagonal copies of the signed permutations of 3 points, the block
    shift, and a sign flip of block 0.  Order 8 * 3 * 48 / 2 = 576."""
    small = [sp_flip(3, i) for i in range(3)] + [sp_perm((1, 2, 0)),
                                                   sp_perm((1, 0, 2))]
    gens = [tuple(b * 3 + x if x > 0 else -(b * 3 - x)
                  for b in range(3) for x in h) for h in small]
    gens.append(sp_perm([(b + 1) % 3 * 3 + i for b in range(3)
                         for i in range(3)]))
    gens.append(tuple(-(i + 1) if i < 3 else i + 1 for i in range(9)))
    return gens


# -- hidden position ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _field(p, k):
    return Field(p, k)


def _random_invertible(F, n, rng):
    while True:
        T = np.array([[rng.randrange(F.q) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64)
        T_inv = F.inverse(T)
        if T_inv is not None:
            return T, T_inv


def _matrix_closure_order(F, mats):
    ident = np.eye(mats[0].shape[0], dtype=np.int64)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in mats:
                y = F.matmul(g, x)
                key = y.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _orthogonal_reflections(F, rng):
    """Three or more reflections generating O_3(q) for the form I."""
    target = 2 * F.q * (F.q * F.q - 1)
    eye = np.eye(3, dtype=np.int64)
    while True:
        mats = []
        while len(mats) < 4:
            v = np.array([[rng.randrange(F.q)] for _ in range(3)],
                         dtype=np.int64)
            qv = int(F.matmul(v.T, v)[0, 0])
            if qv == 0:
                continue
            c = F.mul_t[F.elem(2), F.inv_t[qv]]
            outer = F.scale(F.neg_t[c], F.matmul(v, v.T))
            mats.append(F.add_t[eye, outer])
            if len(mats) >= 3 and _matrix_closure_order(F, mats) == target:
                return mats, target


def _write_group(F, gram, gens, header):
    out = [f"# {h}" for h in header]
    out += [f"field p={F.p} k={F.k}", f"dim {gram.shape[0]}", "gram"]
    out += [" ".join(F.fmt(e) for e in row) for row in gram]
    for g in gens:
        out.append("gen")
        out += [" ".join(F.fmt(e) for e in row) for row in g]
    return "\n".join(out) + "\n"


def make_group_op(spec, rng):
    """One `analyze` input from a template; returns the file text and a
    record of n, q, |G|, the generator count, the expected outcome, and the
    field, Gram matrix and generators the checker needs.

    spec keys: family (wreath | block | orthogonal | intransitive), n, q
    (p, k), K (for wreath), gens (natural | random), and optionally breaks
    (nonisometry | singular)."""
    F = _field(*spec["q"])
    family = spec["family"]
    template = random.Random(repr(sorted(
        (k, v) for k, v in spec.items() if k != "label")))
    n = spec.get("n", 9 if family == "block" else 3)
    expect, reason = "cert", None
    if family == "orthogonal":
        base, order = _orthogonal_reflections(F, template)
        expect, reason = "refuse", "not solvable"
    else:
        if family == "block":
            sps, order = block_gens(), 576
        elif family == "intransitive":
            # C_3 on the first three of n points: reducible
            sps = wreath_gens(n, [(1, 2, 0) + tuple(range(3, n))])
            order = 2 ** n * 3
            expect, reason = "refuse", "not irreducible"
        else:
            kgen, korder = K_FAMILIES[spec["K"]]
            sps = wreath_gens(n, kgen(n))
            order = 2 ** n * korder(n)
            if n % 2 == 0:
                expect, reason = "refuse", "dimension even"
        elements = sp_closure(sps, n)
        if len(elements) != order:
            raise AssertionError(f"{spec}: order {len(elements)} != {order}")
        if spec["gens"] == "random":
            sps = _random_generators(F, elements, n, spec.get("count", 2),
                                     spec.get("fallback", False), template)
        base = [sp_matrix(F, s) for s in sps]
    c = rng.randrange(1, F.q)
    T, T_inv = _random_invertible(F, n, rng)
    gram = F.scale(c, F.matmul(T.T, T))
    gens = [F.matmul(F.matmul(T_inv, g), T) for g in base]
    for g, h in zip(base, gens):
        if not np.array_equal(F.matmul(T, h), F.matmul(g, T)):
            raise AssertionError("conjugation is wrong")
        if not F.is_isometry(h, gram):
            raise AssertionError(f"{spec}: generator is not an isometry")
    breaks = spec.get("breaks")
    if breaks:
        d = np.eye(n, dtype=np.int64)
        if breaks == "nonisometry":
            d[0, 0] = next(a for a in range(2, F.q)
                           if F.mul_t[a, a] != 1)
            expect, reason = "refuse", "not isometries"
        else:
            d[0, 0] = 0
            expect, reason = "handled", None
        gens[0] = F.matmul(F.matmul(T_inv, F.matmul(base[0], d)), T)
        singular = F.inverse(gens[0]) is None
        if singular != (breaks == "singular") or \
                F.is_isometry(gens[0], gram):
            raise AssertionError(f"{spec}: broken generator is wrong")
    record = {"label": spec["label"], "n": n, "q": F.q, "order": order,
              "ngens": len(gens), "expect": expect, "reason": reason}
    header = [f"{record['label']}: |G| = {order}, {len(gens)} generators, "
              f"expected {expect}" + (f" ({reason})" if reason else "")]
    record.update(field=F, gram=gram, gens=gens)
    return _write_group(F, gram, gens, header), record


def nullity_one_sum(F, mats):
    """True iff a sum of two or three distinct matrices has nullity one.

    Group elements and their products are invertible, so these sums are the
    only candidates in orthomono's irreducibility word search that can have
    nullity one; without one, that search spins all (q^n - 1)/(q - 1)
    lines.  Nullity is invariant under conjugation, so the unconjugated
    matrices decide it."""
    n = mats[0].shape[0]
    for r in (2, 3):
        for combo in itertools.combinations(mats, r):
            total = combo[0]
            for m in combo[1:]:
                total = F.add_t[total, m]
            if F.rank(total) == n - 1:
                return True
    return False


def _random_generators(F, elements, n, count, fallback, rng):
    """`count` uniformly drawn elements that generate the group and have a
    nullity-one sum exactly when `fallback` is false, so that each template
    either always or never takes the exhaustive line search."""
    order = len(elements)
    ident = sp_identity(n)
    for _ in range(2000):
        pick = rng.sample(elements, count)
        if ident in pick:
            continue
        if nullity_one_sum(F, [sp_matrix(F, s) for s in pick]) == fallback:
            continue
        if len(sp_closure(pick, n)) == order:
            return pick
    raise AssertionError("no generating set of the requested kind found")
