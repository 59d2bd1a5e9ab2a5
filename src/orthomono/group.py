"""Finite matrix group engine at desk scale.

Groups are given by generators and closed by one batched Dimino closure
(with a size bound) that serves every field: the group closed so far is
extended by one generator at a time, a whole right coset at a time, so
closing G forms about |G| products.  A group closes itself only when its
order, its membership or its element list is asked for; triviality is read
from the generators.  The element list sorted by a canonical byte encoding,
whose indices are reproducible across runs and independent of the closure
strategy, is built only when asked for (Cayley tables, maximality sweeps).
Each derived term is a normal closure built by membership in the closure so
far, which each kept generator extends.  The setwise stabilizer of a part
never enumerates G: Schreier generators from a transversal of the part's
orbit give the stabilizer, which alone is enumerated.  The certificate
reads |G| without closing G either: G acts on it as signed permutations,
and a permutation group's order and membership come from a base and strong
generating set (deterministic Schreier-Sims).
"""

import itertools
import math

import numpy as np

from .errors import (
    AlgebraError,
    BoundExceeded,
    HypothesisViolated,
    NotIsometry,
    TrivialGroup,
)
from .field import GF
from .form import anisotropic_lines, is_isometry, validate_decomposition
from .linalg import Matrix, kernel

DEFAULT_BOUND = 10 ** 6
# Most products one closure step forms at once: candidate representatives
# and cosets are multiplied in slices, so the transient product arrays stay
# small however large the group.
BLOCK = 1 << 12


def _products(F, A, B):
    """P[j, i] = A[i] B[j] for stacks A and B of n x n entry arrays, as a
    C-contiguous int32 stack, in one FieldSpec.mat_mul: A's elements stacked
    as rows times B's elements laid side by side."""
    (a, n, _), b = A.shape, len(B)
    P = F.mat_mul(A.reshape(a * n, n), B.transpose(1, 0, 2).reshape(n, b * n))
    return np.ascontiguousarray(P.reshape(a, n, b, n).transpose(2, 0, 1, 3),
                                dtype=np.int32)


def _keys(stack):
    """The entry bytes of each matrix of a C-contiguous int32 stack, in one
    pass."""
    n = stack.shape[-1]
    return stack.reshape(-1, n * n).view(f"V{4 * n * n}").ravel().tolist()


class _Closure:
    """A matrix group closed so far, grown one generator at a time by
    Dimino's coset algorithm.

    Each element is stored once: `parts` are int32 stacks whose
    concatenation lists the elements in the order of `keys` (their entry
    bytes), identity first.  Extending the group H closed so far by g adds
    right cosets H r of <H, g>.  The set closed so far is a union of right
    cosets of H, so a candidate r = r' s (r' a representative found in the
    previous generation, s a generator) either lies in it or starts a coset
    that is new as a whole: only candidates are looked up, and the elements
    of a new coset are keyed without a lookup."""

    def __init__(self, F, n, bound):
        eye = np.eye(n, dtype=np.int32)
        self.field, self.bound = F, bound
        self.keys = {eye.tobytes(): None}
        self.parts = [eye[None]]
        self.gens = self.parts[0][:0]

    def __len__(self):
        return len(self.keys)

    def __contains__(self, key):
        return key in self.keys

    def extend(self, g):
        """Close the set under one more generator, the entry array g; a
        generator already in the set costs one lookup."""
        if g.tobytes() in self.keys:
            return
        H = np.concatenate(self.parts) if len(self.parts) > 1 \
            else self.parts[0]
        self.parts = [H]
        self.gens = np.concatenate([self.gens, g[None]])
        n = H.shape[1]
        step = max(1, BLOCK // len(self.gens))
        reps = self._add_cosets(H, g[None])  # the identity's new candidate
        while len(reps):
            reps = np.concatenate([self._add_cosets(H, _products(
                self.field, reps[lo:lo + step], self.gens).reshape(-1, n, n))
                for lo in range(0, len(reps), step)])

    def _add_cosets(self, H, cand):
        """Add the new cosets H r for r in the stack cand of candidate
        representatives, and return their representatives.  The candidates
        are keyed in one pass; those outside the set make cosets in batches
        of about BLOCK / |H|, keyed in one pass per batch.  Two cosets of a
        batch are equal or disjoint, so a coset is kept when none before it
        in its batch holds its representative."""
        keys, h = self.keys, len(H)
        n = H.shape[1]
        fresh = {}
        for i, key in enumerate(_keys(cand)):
            if key not in keys:
                fresh.setdefault(key, i)
        todo = list(fresh.items())
        per = max(1, BLOCK // h)
        found = [H[:0]]
        for lo in range(0, len(todo), per):
            batch = [i for key, i in todo[lo:lo + per] if key not in keys]
            if not batch:
                continue
            cosets = self._cosets(H, cand[batch])
            got = _keys(cosets)
            new = dict.fromkeys(got)  # in order of first occurrence
            if len(new) < len(got):
                first = dict(zip(reversed(got), range(len(got) - 1, -1, -1)))
                cosets = cosets[[b for b in range(len(batch))
                                 if first[got[b * h]] == b * h]]
            if len(keys) + len(new) > self.bound:
                raise BoundExceeded(f"group exceeds bound {self.bound}")
            keys.update(new)
            self.parts.append(cosets.reshape(-1, n, n))
            found.append(cosets[:, 0])
        return np.concatenate(found)

    def _cosets(self, H, Y):
        """The cosets H y for y in Y as one (len(Y), |H|, n, n) stack, in
        slices of at most BLOCK products; H y starts with y."""
        out = np.empty((len(Y),) + H.shape, np.int32)
        out[:, 0] = Y
        step = max(1, BLOCK // len(Y))
        for lo in range(1, len(H), step):
            out[:, lo:lo + step] = _products(self.field, H[lo:lo + step], Y)
        return out

    def span(self):
        """The set as a dict from entry bytes to entry array, identity
        first; the arrays are views of the stored stacks."""
        return dict(zip(self.keys, itertools.chain.from_iterable(self.parts)))


def closure(gens, bound=DEFAULT_BOUND):
    """Every element of <gens> (square Matrix generators over one field) as
    a dict from entry bytes to entry array, identity first.

    Dimino's closure: the group is extended by one generator at a time, a
    whole right coset of the group closed so far at a time (_Closure).  A
    coset of the group H closed so far is one FieldSpec.mat_mul of H's
    stacked elements by its representative, so closing G forms about |G|
    products plus one per candidate representative."""
    c = _Closure(gens[0].field, gens[0].rows, bound)
    for g in gens:
        c.extend(g.a)
    return c.span()


# perfbench/spans.py counts materialized elements by wrapping this older
# name; drop it once the benchmark wraps `closure` itself.
_mulclose_prime = closure


def sorted_elements(F, span):
    """The elements of a closure over F as a tuple of Matrix: the identity
    first, then the rest sorted by their canonical key."""
    eye, *rest = (Matrix(F, m) for m in span.values())
    return (eye,) + tuple(sorted(rest, key=lambda m: m._key))


class MatrixGroup:
    """A finite subgroup of GL(n, F) given by generators, with its closure
    cached unsorted and its sorted element list built on demand.  An
    attached QuadraticSpace forces all generators to be isometries."""

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
        self._fill(uniq or [Matrix.identity(field, n)], space, bound, name)

    def _fill(self, gens, space, bound, name, span=None):
        self.field = gens[0].field
        self.dim = gens[0].rows
        self.gens = gens
        self.space = space
        self.bound = bound
        self.name = name
        self._closure = span
        self._elements = None
        self._index = None

    @classmethod
    def closed(cls, gens, span, space=None, bound=DEFAULT_BOUND):
        """The group of `gens` with its closure `span` (entry bytes -> entry
        array) already built.  The generators are taken as they are: they
        must be distinct non-identity products of a checked group's
        generators (or the identity alone), so shape, invertibility and
        isometry hold without a check."""
        G = cls.__new__(cls)
        G._fill(list(gens), space, bound, "", span)
        return G

    @classmethod
    def trivial(cls, field, n, space=None):
        return cls([Matrix.identity(field, n)], space=space)

    @property
    def identity(self):
        return Matrix.identity(self.field, self.dim)

    def _span(self):
        """The closure of the generators, entry bytes -> entry array."""
        if self._closure is None:
            self._closure = closure(self.gens, self.bound)
        return self._closure

    def enumerate(self):
        """Sorted tuple of all elements (identity first)."""
        if self._elements is None:
            self._elements = sorted_elements(self.field, self._span())
            self._index = {m: i for i, m in enumerate(self._elements)}
        return self._elements

    @property
    def elements(self):
        return self.enumerate()

    @property
    def order(self):
        return len(self._span())

    @property
    def is_trivial(self):
        """Read from the generators: the identity is a generator of the
        trivial group only."""
        return self.gens[0].is_identity()

    def __contains__(self, m):
        return isinstance(m, Matrix) \
            and m._key[:2] == (self.field.key, (self.dim, self.dim)) \
            and m._key[2] in self._span()

    def index_of(self, m):
        self.enumerate()
        return self._index[m]

    def __repr__(self):
        known = "?" if self._closure is None else str(self.order)
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


def reduce_generators(elements, identity):
    """Greedy small generating set drawn from a sorted element list."""
    return _reduce(identity.field, identity.rows,
                   ((m._key[2], m.a) for m in elements), len(elements))[0]


def _reduce(F, n, keyed, size):
    """The greedy reduction over (entry bytes, entry array) pairs of a group
    of `size` elements in canonical order: the kept generators, as Matrix,
    and their closure."""
    gens = []
    span = _Closure(F, n, DEFAULT_BOUND)
    for key, a in keyed:
        if key not in span:
            gens.append(Matrix(F, a))
            span.extend(a)
            if len(span) == size:
                break
    return gens, span.span()


# Pairwise products X[t] Y[t] are read off the diagonal of X x Y product
# blocks of at most PAIRS x PAIRS elements.
PAIRS = 16


def _pairwise(F, X, Y):
    """X[t] Y[t] for stacks X and Y of equal length, as an int32 stack."""
    out = np.empty(X.shape, np.int32)
    for lo in range(0, len(X), PAIRS):
        P = _products(F, X[lo:lo + PAIRS], Y[lo:lo + PAIRS])
        out[lo:lo + PAIRS] = P[np.arange(len(P)), np.arange(len(P))]
    return out


def _inverses(G, A):
    """The inverses of the stack A of G's elements.  With a nondegenerate
    form of Gram matrix B, an isometry g has g^-1 = B^-1 g^T B, so one
    inverse per space (B's) serves every stack; without a form each element
    takes its own."""
    F = G.field
    binv = None if G.space is None else G.space.gram_inverse
    if binv is None:
        return np.stack([Matrix(F, a).inverse().a for a in A])
    left = _products(F, binv[None], A.transpose(0, 2, 1))[:, 0]
    return _products(F, left, G.space.gram.a[None])[0]


def derived_series(G):
    """G = G(0) > G(1) > ... with G(i+1) the normal closure in G(i) of the
    commutators of its generators; stops at the trivial group or when the
    series stabilizes (then G is not solvable).

    A term is built by membership: a commutator, or a conjugate g^-1 n g
    of a newly kept generator n by a generator g of G(i), is kept as a
    generator only when it lies outside the closure of those kept so far,
    and that closure is then extended by it.  The candidates are read in
    generations: the commutators, then the conjugates of the generators
    kept from the generation before, each generation formed in product
    blocks.  Each term caches the closure it was built with, no element
    list is sorted, and G itself is never closed."""
    F, n = G.field, G.dim
    terms = [G]
    while not terms[-1].is_trivial:
        cur = terms[-1]
        gens = cur.gens
        A = np.stack([g.a for g in gens])
        inv = _inverses(G, A)
        i, j = np.triu_indices(len(gens), 1)
        # [a_i, a_j] = a_i^-1 a_j^-1 a_i a_j for i < j, i major
        batch = _pairwise(F, _products(F, inv, inv)[j, i],
                          _products(F, A, A)[j, i])
        kept = []
        span = _Closure(F, n, G.bound)
        while len(batch):
            fresh = []
            for x, key in zip(batch, _keys(batch)):
                if key not in span:
                    kept.append(Matrix(F, x))
                    span.extend(x)
                    fresh.append(x)
            if not fresh:
                break
            # g^-1 x g for each fresh x, then each generator g of G(i)
            xg = _products(F, np.stack(fresh), A).transpose(1, 0, 2, 3)
            batch = _pairwise(F, np.tile(inv, (len(fresh), 1, 1)),
                              xg.reshape(-1, n, n))
        if all(g._key[2] in span for g in gens):
            break  # stabilized above the trivial group
        terms.append(MatrixGroup.closed(kept or [cur.identity], span.span(),
                                        G.space, G.bound))
    return terms


def is_solvable(G):
    return derived_series(G)[-1].is_trivial


def is_abelian(G):
    gens = G.gens
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if a @ b != b @ a:
                return False
    return True


def abelian_normal_term(G, series=None):
    """Last nontrivial derived-series term L: abelian, normal in G, and
    contained in [G, G] whenever G is non-abelian.  L is read from
    `series`, the derived series of G, when the caller has it."""
    if G.is_trivial:
        raise TrivialGroup("the trivial group has no abelian normal term")
    if series is None:
        series = derived_series(G)
    if not series[-1].is_trivial:
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


def setwise_stabilizer(G, action, part_index):
    """{g in G : g(W_i) = W_i} as a MatrixGroup, for the part W_i of a
    G-invariant decomposition; `action` is the PermutationAction of G.gens
    on its parts (`validate_decomposition`).

    Reads generators only: a breadth-first walk of the orbit of part i
    under G.gens gives a transversal t_j (t_j W_i = W_j), and by Schreier's
    lemma the elements t_{s(j)}^-1 s t_j, for s in G.gens and j in the
    orbit, generate the stabilizer.  Its |G|/k elements are enumerated and
    reduced greedily in canonical order (their sorted entry bytes, with no
    Matrix per element), so the generators returned are the same as a
    filter of G's sorted elements would give; H keeps the closure of those
    generators.  That no stabilizer element is missed (|H| k = |G|) is
    checked by `monomialize`, which reads |G| from the certificate."""
    perms = action.gen_perms
    transversal = {part_index: G.identity}
    orbit = [part_index]
    for j in orbit:
        for s, perm in zip(G.gens, perms):
            if perm[j] not in transversal:
                transversal[perm[j]] = s @ transversal[j]
                orbit.append(perm[j])
    inverses = {j: t.inverse() for j, t in transversal.items()}
    schreier = {}  # insertion-ordered set
    for j in orbit:
        for s, perm in zip(G.gens, perms):
            h = inverses[perm[j]] @ s @ transversal[j]
            if not h.is_identity():
                schreier[h] = None
    stab = closure(list(schreier) or [G.identity], G.bound)
    eye, *rest = stab  # entry bytes; within one group, the _key order
    small, span = _reduce(G.field, G.dim, ((key, stab[key]) for key in
                                           [eye] + sorted(rest)), len(stab))
    if len(span) != len(stab):
        raise AlgebraError("stabilizer reduction lost elements")  # impossible
    return MatrixGroup.closed(small or [G.identity], span, G.space, G.bound)


def _invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class _StabilizerChain:
    """A base and strong generating set (BSGS) of the group that
    permutations of {0..degree-1} (tuples of images) generate, by the
    deterministic Schreier-Sims algorithm (Sims 1970; Handbook of
    Computational Group Theory, ch. 4), with nothing drawn at random.

    Level i has the base point b_i, the strong generators that fix b_0 ..
    b_(i-1), and a transversal of the orbit of b_i under them: for each
    orbit point c, the pair (u, u^-1) of a product u of those generators
    with u(b_i) = c.  Each new base point is the least point moved by the
    permutation that needs it.  A Schreier generator u_(s(c))^-1 s u_c that
    does not sift to the identity through the levels below becomes a
    strong generator there, and the test resumes at the deepest level it
    changed.  The levels below only grow, so a level resumes after the
    Schreier generators it has tested until its own generators change.
    The order is the product of the orbit lengths, and a
    permutation lies in the group iff it sifts to the identity.  The
    transversals hold the sum of the orbit lengths in permutations, at most
    `bound` of them."""

    def __init__(self, degree, gens, bound=DEFAULT_BOUND):
        self.identity = tuple(range(degree))
        self.bound = bound
        self.base, self.strong, self.orbits, self.tested = [], [], [], []
        gens = [g for g in gens if g != self.identity]
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._add_level(g)
        for i in range(len(self.base)):
            self.strong[i] = [g for g in gens
                              if all(g[c] == c for c in self.base[:i])]
            self._orbit(i)
        i = len(self.base) - 1
        while i >= 0:
            changed = self._schreier_test(i)
            i = i - 1 if changed is None else changed

    def _add_level(self, g):
        b = next(x for x, y in enumerate(g) if x != y)
        self.base.append(b)
        self.strong.append([])
        self.orbits.append({b: (self.identity, self.identity)})
        self.tested.append(0)

    def _orbit(self, i):
        orbit = {self.base[i]: (self.identity, self.identity)}
        queue = [self.base[i]]
        for c in queue:  # grows while it is read: breadth-first
            u = orbit[c][0]
            for s in self.strong[i]:
                if s[c] not in orbit:
                    v = tuple(s[x] for x in u)
                    orbit[s[c]] = (v, _invert(v))
                    queue.append(s[c])
        self.orbits[i] = orbit
        self.tested[i] = 0
        if sum(map(len, self.orbits)) > self.bound:
            raise BoundExceeded(f"group exceeds bound {self.bound}")

    def _schreier_test(self, i):
        """Sift level i's Schreier generators not tested yet; the first that
        leaves a nontrivial residue becomes a strong generator, and the
        deepest level it joined is returned (None when all sift to the
        identity)."""
        orbit, b = self.orbits[i], self.base[i]
        pairs = [(u, s) for u, _ in orbit.values() for s in self.strong[i]]
        for t in range(self.tested[i], len(pairs)):
            u, s = pairs[t]
            w = orbit[s[u[b]]][1]
            h = tuple(w[s[x]] for x in u)
            if h == self.identity:
                continue
            h, j = self.sift(h, i + 1)
            if h != self.identity:
                self.tested[i] = t + 1
                if j == len(self.base):
                    self._add_level(h)
                for level in range(i + 1, j + 1):
                    self.strong[level].append(h)
                    self._orbit(level)
                return j
        self.tested[i] = len(pairs)
        return None

    def sift(self, g, start=0):
        """(residue, level): g stripped by the transversals from level
        `start` on, and the level where it left an orbit (len(base) when it
        passed every level)."""
        for level in range(start, len(self.base)):
            c = g[self.base[level]]
            if c not in self.orbits[level]:
                return g, level
            w = self.orbits[level][c][1]
            g = tuple(w[x] for x in g)
        return g, len(self.base)

    @property
    def order(self):
        return math.prod(len(orbit) for orbit in self.orbits)

    def __contains__(self, g):
        return self.sift(g)[0] == self.identity


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
        self._chain = None

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

    @classmethod
    def signed(cls, images):
        """The signed permutations `images`, (perm, signs) pairs with
        g w_i = signs[i] w_(perm[i]), as permutations of the 2n points
        +-w_i: +w_i is 2i and -w_i is 2i + 1."""
        return cls(2 * len(images[0][0]), [
            [2 * perm[i] + (neg ^ (sign < 0))
             for i, sign in enumerate(signs) for neg in (0, 1)]
            for perm, signs in images])

    @staticmethod
    def compose(p, q):
        return tuple(p[i] for i in q)

    @property
    def identity(self):
        return tuple(range(self.degree))

    def bsgs(self, bound=DEFAULT_BOUND):
        """The group's base and strong generating set, built once."""
        if self._chain is None:
            self._chain = _StabilizerChain(self.degree, self.gens, bound)
        return self._chain

    def enumerate(self, bound=DEFAULT_BOUND):
        """Every element, sorted, for the Cayley-table classification; order
        and membership read the BSGS instead."""
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
        return self.bsgs().order

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
        """Solvability of the permutation matrices over GF(3), a faithful
        image of the group."""
        return is_solvable(
            MatrixGroup([perm_matrix(GF(3), g) for g in self.gens]))

    def __contains__(self, p):
        p = tuple(p)
        return sorted(p) == list(range(self.degree)) and p in self.bsgs()

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


def orthogonal_order(n, q):
    """|O_n(q)| for odd n = 2m + 1, the same for every nondegenerate form:
    2 q^(m^2) prod_{i <= m} (q^(2i) - 1)."""
    m = n // 2
    return 2 * q ** (m * m) * math.prod(q ** (2 * i) - 1
                                        for i in range(1, m + 1))


def orthogonal_group(space, bound=DEFAULT_BOUND):
    """The full isometry group O(V, Q), generated by all reflections in
    anisotropic vectors (Cartan-Dieudonne) and enumerated.  In odd
    dimension its order is known in advance, so a group over the bound is
    refused before any reflection is built."""
    if space.n % 2 and space.is_nondegenerate \
            and orthogonal_order(space.n, space.field.q) > bound:
        raise BoundExceeded(f"group exceeds bound {bound}")
    gens = [reflection(space, v) for v in anisotropic_lines(space)]
    G = MatrixGroup(gens, space=space, bound=bound,
                    name=f"O{space.n}({space.field.q})")
    G.enumerate()
    return G
