"""Finite matrix group engine at desk scale.

Groups are given by generators and enumerated in full by one batched
breadth-first closure (with a size bound) that serves every field; the
element list is sorted by a canonical byte encoding, so element indices are
reproducible across runs and independent of the closure strategy.  Derived
series, normal closures, stabilizers and permutation images all work on the
enumerated elements.
"""

import numpy as np

from .errors import (
    AlgebraError,
    BoundExceeded,
    HypothesisViolated,
    NotIsometry,
    TrivialGroup,
)
from .form import anisotropic_lines, is_isometry, validate_decomposition
from .linalg import Matrix, kernel

DEFAULT_BOUND = 10 ** 6
# Most products one closure step forms at once: each generation's frontier
# is multiplied in slices, so the transient product arrays stay small
# however large the group.
BLOCK = 1 << 12


def closure(gens, bound=DEFAULT_BOUND):
    """Every element of <gens> (square Matrix generators over one field) as
    a dict from entry bytes to entry array, identity first.

    Breadth-first: each generation lays its frontier's columns side by side
    and multiplies that block by all the generators stacked, in one
    FieldSpec.mat_mul per slice of at most BLOCK products."""
    F, n = gens[0].field, gens[0].rows
    stacked = np.concatenate([g.a for g in gens])
    eye = np.eye(n, dtype=np.int32)
    seen = {eye.tobytes(): eye}
    frontier = eye[None]
    step = max(1, BLOCK // len(gens))
    while len(frontier):
        found = []
        for lo in range(0, len(frontier), step):
            part = frontier[lo:lo + step]
            f = len(part)
            flat = part.transpose(1, 0, 2).reshape(n, f * n)
            prods = np.ascontiguousarray(
                F.mat_mul(stacked, flat).reshape(-1, n, f, n)
                .transpose(0, 2, 1, 3), dtype=np.int32).reshape(-1, n, n)
            fresh = {}
            for i, m in enumerate(prods):
                key = m.tobytes()
                if key not in seen:
                    fresh.setdefault(key, i)
            if len(seen) + len(fresh) > bound:
                raise BoundExceeded(f"group exceeds bound {bound}")
            new = prods[list(fresh.values())]  # a copy: prods is freed
            seen.update(zip(fresh, new))
            found.append(new)
        frontier = np.concatenate(found)
    return seen


# perfbench/spans.py counts materialized elements by wrapping this older
# name; drop it once the benchmark wraps `closure` itself.
_mulclose_prime = closure


class MatrixGroup:
    """A finite subgroup of GL(n, F) given by generators, with cached full
    enumeration.  An attached QuadraticSpace forces all generators to be
    isometries."""

    def __init__(self, gens, space=None, bound=DEFAULT_BOUND, name=""):
        gens = list(gens)
        if not gens:
            raise AlgebraError("need at least one generator (use trivial())")
        field = gens[0].field
        n = gens[0].rows
        uniq = []
        seen = set()
        for g in gens:
            if g.field != field or g.rows != n or g.cols != n:
                raise AlgebraError("generators of mixed shape or field")
            if g.det().idx == 0:
                raise HypothesisViolated("generator is singular")
            if space is not None and not is_isometry(g, space):
                raise NotIsometry("generator does not preserve the form")
            if g not in seen and not g.is_identity():
                uniq.append(g)
                seen.add(g)
        if not uniq:
            uniq = [Matrix.identity(field, n)]
        self.field = field
        self.dim = n
        self.gens = uniq
        self.space = space
        self.bound = bound
        self.name = name
        self._elements = None
        self._index = None

    @classmethod
    def trivial(cls, field, n, space=None):
        return cls([Matrix.identity(field, n)], space=space)

    @property
    def identity(self):
        return Matrix.identity(self.field, self.dim)

    def enumerate(self):
        """Sorted tuple of all elements (identity first)."""
        if self._elements is None:
            eye, *rest = (Matrix(self.field, m)
                          for m in closure(self.gens, self.bound).values())
            self._elements = (eye,) + tuple(sorted(rest,
                                                   key=lambda m: m._key))
            self._index = {m: i for i, m in enumerate(self._elements)}
        return self._elements

    @property
    def elements(self):
        return self.enumerate()

    @property
    def order(self):
        return len(self.enumerate())

    def __contains__(self, m):
        self.enumerate()
        return m in self._index

    def index_of(self, m):
        self.enumerate()
        return self._index[m]

    def __repr__(self):
        known = "?" if self._elements is None else str(self.order)
        label = f" {self.name!r}" if self.name else ""
        return f"MatrixGroup(dim={self.dim}, {self.field}, " \
               f"gens={len(self.gens)}, order={known}{label})"


def element_order(g, bound=DEFAULT_BOUND):
    eye = Matrix.identity(g.field, g.rows)
    x = g
    n = 1
    while x != eye:
        x = x @ g
        n += 1
        if n > bound:
            raise BoundExceeded("element order exceeds bound")
    return n


def commutator(a, b):
    return a.inverse() @ b.inverse() @ a @ b


def reduce_generators(elements, identity):
    """Greedy small generating set drawn from a sorted element list."""
    gens = []
    span = {identity._key[2]}
    for x in elements:
        if x._key[2] not in span:
            gens.append(x)
            span = closure(gens)
            if len(span) == len(elements):
                break
    return gens


def normal_closure_gens(group_gens, seeds, identity):
    """Conjugation closure of the seed set under the group generators (and
    their inverses); the subgroup generated by the result is the normal
    closure of the seeds."""
    conj_by = []
    for g in group_gens:
        gi = g.inverse()
        conj_by.append((g, gi))
        conj_by.append((gi, g))
    out = []
    seen = set()
    frontier = []
    for s in seeds:
        if s not in seen and s != identity:
            seen.add(s)
            out.append(s)
            frontier.append(s)
    while frontier:
        nxt = []
        for s in frontier:
            for g, gi in conj_by:
                t = g @ s @ gi
                if t not in seen and t != identity:
                    seen.add(t)
                    out.append(t)
                    nxt.append(t)
        frontier = nxt
    return out


def derived_series(G):
    """G = G(0) > G(1) > ... with G(i+1) the normal closure in G(i) of the
    generator commutators; stops at the trivial group or when the series
    stabilizes (then G is not solvable)."""
    terms = [G]
    while True:
        cur = terms[-1]
        if cur.order == 1:
            break
        gens = cur.gens
        seeds = []
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                c = commutator(a, b)
                if not c.is_identity():
                    seeds.append(c)
        if not seeds:
            terms.append(MatrixGroup.trivial(G.field, G.dim, space=G.space))
            break
        closure = normal_closure_gens(gens, seeds, cur.identity)
        small = reduce_generators(
            sorted(set(closure), key=lambda m: m._key), cur.identity)
        nxt = MatrixGroup(small, space=G.space, bound=G.bound)
        if nxt.order == cur.order:
            break  # stabilized above the trivial group
        terms.append(nxt)
    return terms


def is_solvable(G):
    return derived_series(G)[-1].order == 1


def is_abelian(G):
    gens = G.gens
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if a @ b != b @ a:
                return False
    return True


def center(G):
    els = G.enumerate()
    central = [x for x in els
               if all(x @ g == g @ x for g in G.gens)]
    return MatrixGroup(central, space=G.space, bound=G.bound)


def abelian_normal_term(G, series=None):
    """Last nontrivial derived-series term L: abelian, normal in G, and
    contained in [G, G] whenever G is non-abelian.  L is read from
    `series`, the derived series of G, when the caller has it."""
    if G.order == 1:
        raise TrivialGroup("the trivial group has no abelian normal term")
    if series is None:
        series = derived_series(G)
    if series[-1].order != 1:
        raise HypothesisViolated("not solvable",
                                 "derived series does not reach 1")
    L = series[-2]
    if not is_abelian(L):
        raise AlgebraError("last derived term is not abelian")  # impossible
    return L


def fixed_space(P):
    """Common fixed space of the group: the intersection of ker(g - I) over
    the generators."""
    n = P.dim
    eye = Matrix.identity(P.field, n)
    rows = np.concatenate([(g - eye).a for g in P.gens], axis=0)
    return kernel(Matrix(P.field, rows))


def setwise_stabilizer(G, decomposition, part_index):
    """{g in G : g(W_i) = W_i} as a MatrixGroup; requires the decomposition
    to be G-invariant."""
    validate_decomposition(decomposition, G)
    part = decomposition.parts[part_index]
    stab = [g for g in G.enumerate() if part.image(g) == part]
    small = reduce_generators(stab, G.identity)
    H = MatrixGroup(small or [G.identity], space=G.space, bound=G.bound)
    if H.order != len(stab):
        raise AlgebraError("stabilizer reduction lost elements")  # impossible
    return H


class PermGroup:
    """Permutations of {0..n-1} as tuples of images, with p acting by
    i -> p[i]; composition (p * q)(i) = p[q[i]]."""

    def __init__(self, degree, gens, name=""):
        self.degree = degree
        clean = []
        seen = set()
        ident = tuple(range(degree))
        for g in gens:
            t = tuple(int(i) for i in g)
            if sorted(t) != list(range(degree)):
                raise AlgebraError(f"not a permutation of 0..{degree - 1}")
            if t != ident and t not in seen:
                clean.append(t)
                seen.add(t)
        self.gens = tuple(clean) if clean else (ident,)
        self.name = name
        self._elements = None

    @classmethod
    def symmetric(cls, n):
        if n == 1:
            return cls(1, [(0,)], name="S1")
        gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
        return cls(n, gens, name=f"S{n}")

    @classmethod
    def cyclic(cls, n):
        return cls(n, [tuple(range(1, n)) + (0,)], name=f"C{n}")

    @classmethod
    def dihedral(cls, n):
        rot = tuple(range(1, n)) + (0,)
        refl = tuple((n - i) % n for i in range(n))
        return cls(n, [rot, refl], name=f"D{n}")

    @staticmethod
    def compose(p, q):
        return tuple(p[i] for i in q)

    @staticmethod
    def invert(p):
        out = [0] * len(p)
        for i, j in enumerate(p):
            out[j] = i
        return tuple(out)

    @property
    def identity(self):
        return tuple(range(self.degree))

    def enumerate(self, bound=DEFAULT_BOUND):
        if self._elements is None:
            seen = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.gens:
                        y = self.compose(g, x)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                            if len(seen) > bound:
                                raise BoundExceeded("permutation group too big")
                frontier = nxt
            self._elements = tuple(sorted(seen))
        return self._elements

    @property
    def order(self):
        return len(self.enumerate())

    @property
    def is_transitive(self):
        orbit = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for g in self.gens:
                    j = g[i]
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(j)
            frontier = nxt
        return len(orbit) == self.degree

    def is_solvable(self):
        """Derived series on permutations."""
        cur = list(self.gens)
        cur_set = set(self.enumerate())
        while True:
            if cur_set == {self.identity}:
                return True
            seeds = set()
            for i, a in enumerate(cur):
                for b in cur[i + 1:]:
                    c = self.compose(self.invert(a),
                                     self.compose(self.invert(b),
                                                  self.compose(a, b)))
                    if c != self.identity:
                        seeds.add(c)
            if not seeds:
                return True
            closure = set(seeds)
            frontier = list(seeds)
            conj_by = list(cur) + [self.invert(g) for g in cur]
            while frontier:
                nxt = []
                for s in frontier:
                    for g in conj_by:
                        t = self.compose(g, self.compose(s, self.invert(g)))
                        if t not in closure:
                            closure.add(t)
                            nxt.append(t)
                frontier = nxt
            sub = PermGroup(self.degree, sorted(closure))
            sub_set = set(sub.enumerate())
            if sub_set == cur_set:
                return False
            cur = list(sub.gens)
            cur_set = sub_set

    def __contains__(self, p):
        return tuple(p) in set(self.enumerate())

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        return f"PermGroup({label}, gens={len(self.gens)})"


def perm_image(G, decomposition):
    """Image of G in the symmetric group on the decomposition's parts."""
    action = validate_decomposition(decomposition, G)
    return PermGroup(decomposition.k, action.gen_perms)


def perm_matrix(field, perm):
    """Matrix sending e_i to e_{perm[i]}."""
    n = len(perm)
    a = np.zeros((n, n), dtype=np.int32)
    for i, j in enumerate(perm):
        a[j, i] = 1
    return Matrix(field, a)


def reflection(space, v):
    """The reflection x -> x - (2 b(x,v)/Q(v)) v in an anisotropic vector."""
    F = space.field
    qv = space.q_value(v)
    w = F.mat_vec(space.gram.a, np.asarray(v))
    outer = F.vmul(np.asarray(v).reshape(-1, 1), w.reshape(1, -1))
    c = F.div(2 % F.p, qv)
    eye = np.eye(space.n, dtype=np.int32)
    return Matrix(F, F.vsub(eye, F.vscale(c, outer)))


def orthogonal_group(space, bound=DEFAULT_BOUND):
    """The full isometry group O(V, Q), generated by all reflections in
    anisotropic vectors (Cartan-Dieudonne) and enumerated."""
    gens = [reflection(space, v) for v in anisotropic_lines(space)]
    G = MatrixGroup(gens, space=space, bound=bound,
                    name=f"O{space.n}({space.field.q})")
    G.enumerate()
    return G
