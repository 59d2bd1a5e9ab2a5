"""Representation analysis for the decomposition engine.

Two independent routes compute the isotypic (homogeneous) components of the
natural module restricted to an abelian normal subgroup:

* homogeneous_components: entirely over the base field, by refining along
  the Frobenius-fixed subalgebra of the enveloping algebra (whose fixed
  points are spanned by the primitive idempotents), the algebra spun from
  the generators of the group;
* homogeneous_components_split: over a splitting field, by joint eigenspace
  refinement and Galois descent of orbit sums.

Both read only the generators of the group, never its element list.  They
must agree; the test suite holds them against each other.  The module
also carries spinning and irreducibility (the Holt-Rees criterion over a
deterministic word list, Norton's nullity-one case first, with an
exhaustive line spin only for groups where no word qualifies), the table
of which elements of a list fix which projective line, single-
element eigenspace analysis with Galois orbits, the inverse-eigenvalue
pairing check, and the dichotomy filter that turns components into an
orthogonal decomposition.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    NoSuitableWord,
    NotAbelian,
    NotCoprime,
    NotIsometry,
    NotSemisimple,
    ParityViolation,
    ZeroVector,
)
from .field import FieldElem, frobenius_orbit_idx, poly_factor, splitting_field
from .form import OrthoDecomposition, QuadraticSpace, is_isometry
from .group import MatrixGroup, element_order, fixed_space, is_abelian
from .linalg import (
    Matrix,
    Subspace,
    charpoly,
    eval_poly,
    extend_scalars,
    kernel,
    minpoly,
    projective_lines,
    rational_form,
    restrict_matrix,
)


def spin(v, G):
    """Smallest G-invariant subspace containing v."""
    v = np.asarray(v, dtype=np.int32)
    if not v.any():
        raise ZeroVector("cannot spin the zero vector")
    rows = _spin_rows(G.field, v, [g.a for g in G.gens])
    return Subspace(G.field, G.dim, np.stack(rows))


def _spin_rows(F, v, maps):
    """Echelon rows spanning the smallest subspace that contains the
    nonzero vector v and is closed under w -> m w for each array m in
    `maps`: close {v} under the maps, reducing incrementally against the
    growing basis."""
    n = len(v)
    rows = []       # (pivot, normalized row)
    queue = []

    def insert(w):
        w = w.copy()
        for pc, row in rows:
            if w[pc] != 0:
                w = F.vsub(w, F.vscale(int(w[pc]), row))
        if not w.any():
            return None
        pc = int(np.argmax(w != 0))
        inv = F.inv(int(w[pc]))
        if inv != 1:
            w = F.vscale(inv, w)
        rows.append((pc, w))
        return w

    first = insert(v)
    queue.append(first)
    while queue and len(rows) < n:
        w = queue.pop(0)
        for m in maps:
            u = insert(F.mat_vec(m, w))
            if u is not None:
                queue.append(u)
    return [r for _, r in rows]


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    witness: Subspace | None = None

    def __bool__(self):
        return self.irreducible


def _word_candidates(gens):
    """Deterministic algebra elements to probe: generators, ordered
    pairwise products, then 0/1-coefficient sums of two and three
    generators."""
    for g in gens:
        yield g
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j:
                yield g @ h
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            yield gens[i] + gens[j]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for l in range(j + 1, len(gens)):
                yield gens[i] + gens[j] + gens[l]


def _two_spins(G, m, nullsp):
    """Decide irreducibility from m = f(theta), theta an algebra element
    and f irreducible with nullity deg f, so that ker m is one simple
    F[theta]-module.

    Every nonzero vector of ker m generates all of it, so one spin under G
    finds any submodule meeting it; a proper submodule that misses it has
    an annihilator meeting ker m^T, found by one spin under the transposed
    generators."""
    n = G.dim
    F = G.field
    U = spin(nullsp.basis[0], G)
    if U.dim < n:
        return IrreducibilityResult(False, U)
    w = kernel(m.T).basis[0]
    rows = _spin_rows(F, w, [g.a.T for g in G.gens])
    if len(rows) < n:
        return IrreducibilityResult(False, kernel(Matrix(F, np.stack(rows))))
    return IrreducibilityResult(True)


def is_irreducible(G, line_bound=10 ** 6):
    """Irreducibility of the natural module, with a witness on failure.

    The Holt-Rees criterion (Holt and Rees, "Testing modules for
    irreducibility", J. Austral. Math. Soc. A 57, 1994): if an irreducible
    factor f of the characteristic polynomial of an algebra element theta
    has dim ker f(theta) = deg f, two spins decide (`_two_spins`).  The
    deterministic word list is first scanned for nullity one, Norton's
    case f = x; then, word by word, every factor of the characteristic
    polynomial in sorted order is tried.  Only when no word has such a
    factor (scalar groups such as <-I>) is every line spun; past
    `line_bound` lines that raises NoSuitableWord.
    """
    n = G.dim
    F = G.field
    if n == 1:
        return IrreducibilityResult(True)
    for a in _word_candidates(G.gens):
        nullsp = kernel(a)
        if nullsp.dim == 1:
            return _two_spins(G, a, nullsp)
    for a in _word_candidates(G.gens):
        for f, _ in poly_factor(charpoly(a)):
            m = eval_poly(f, a)
            nullsp = kernel(m)
            if nullsp.dim == f.degree:
                return _two_spins(G, m, nullsp)
    n_lines = (F.q ** n - 1) // (F.q - 1)
    if n_lines > line_bound:
        raise NoSuitableWord(
            f"no nullity-one word and {n_lines} lines exceed the bound")
    for v in projective_lines(F, n):
        U = spin(v, G)
        if U.dim < n:
            return IrreducibilityResult(False, U)
    return IrreducibilityResult(True)


_LINE_TABLE_CHUNK = 128   # elements per product, to bound the temporaries


def fixed_line_table(F, n, matrices):
    """Boolean array `fixes` with fixes[l, g] true when matrices[g] fixes
    line l of projective_lines(F, n).

    Lines common to a set of elements are invariant subspaces, so a
    subgroup H with fixes[:, H].all(axis=1).any() is reducible.  A line is
    a proper subspace only for n > 1; for n = 1 the table has no rows, and
    no subgroup has a common fixed line.
    """
    N = len(matrices)
    if n == 1:
        return np.zeros((0, N), dtype=bool)
    lines = np.stack(projective_lines(F, n), axis=1)    # n x lines
    lead = np.argmax(lines != 0, axis=0)    # each line's leading 1
    cols = np.arange(lines.shape[1])
    fixes = np.empty((lines.shape[1], N), dtype=bool)
    for start in range(0, N, _LINE_TABLE_CHUNK):
        chunk = matrices[start:start + _LINE_TABLE_CHUNK]
        img = F.mat_mul(np.concatenate([m.a for m in chunk]), lines) \
            .reshape(len(chunk), n, -1)
        # g fixes the line of v iff g v = c v, with c the leading entry of g v
        scaled = F.vmul(img[:, lead, cols][:, None, :], lines)
        fixes[:, start:start + len(chunk)] = (img == scaled).all(axis=1).T
    return fixes


class AlgebraSpan:
    """F-span of a family of n x n matrices that is closed under products
    (e.g. the image of a group); keeps an RREF basis of the flattened
    matrices for coordinate solving."""

    def __init__(self, field, n, matrices):
        self.field = field
        self.n = n
        flat = np.stack([m.a.reshape(-1) for m in matrices])
        span = Subspace(field, n * n, flat)
        self.rows = span.basis
        self.pivots = span.pivots
        self.basis = [Matrix(field, row.reshape(n, n)) for row in self.rows]

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, m):
        coords = m.a.reshape(-1)[list(self.pivots)].astype(np.int32)
        lift = self.field.mat_mul(coords.reshape(1, -1), self.rows)[0]
        if not np.array_equal(lift, m.a.reshape(-1)):
            raise InvariantViolation("matrix outside the algebra span")
        return coords

    def structure_constants(self):
        """c[i][j] = coordinates of basis[i] @ basis[j]; existence of all of
        them certifies multiplicative closure."""
        return [[self.coords(a @ b) for b in self.basis]
                for a in self.basis]


def _frobenius_fixed_basis(algebra):
    """Basis of the subalgebra fixed by x -> x^q, as matrices.  On a
    commutative semisimple algebra this is the span of the primitive
    idempotents, so its dimension counts the isotypic components."""
    F = algebra.field
    rows = []
    for b in algebra.basis:
        rows.append(algebra.coords(b.pow(F.q)))
    M = np.stack(rows).astype(np.int32)
    delta = F.vsub(M, np.eye(algebra.dim, dtype=np.int32))
    fixed_coords = kernel(Matrix(F, delta.T.copy()))
    out = []
    for coords in fixed_coords.basis:
        flat = F.mat_mul(coords.reshape(1, -1), algebra.rows)[0]
        out.append(Matrix(F, flat.reshape(algebra.n, algebra.n)))
    return out


def _coprimality_guard(L):
    """NotCoprime unless p = char F is prime to |L|.  For abelian L, |L|
    and the orders of its generators have the same prime divisors, so the
    generators decide it; L is enumerated only to explain a failure."""
    p = L.field.p
    if all(element_order(g, L.bound) % p for g in L.gens):
        return
    pelems = [g for g in L.enumerate()
              if not g.is_identity() and element_order(g) % p == 0]
    psyl = [g.pow(element_order(g) // (p ** _pval(element_order(g), p)))
            for g in pelems]
    psyl = [g for g in psyl if not g.is_identity()]
    detail = ""
    if psyl:
        fs = fixed_space(MatrixGroup(psyl, bound=L.bound))
        detail = f"; its Sylow-{p} part fixes only a {fs.dim}-dimensional " \
                 "subspace"
    raise NotCoprime(
        f"characteristic {p} divides the group order {L.order}{detail}")


def _pval(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def homogeneous_components(L):
    """Isotypic components of F^n restricted to the abelian group L,
    computed over the base field by idempotent refinement.

    L's enveloping algebra is spun once from its generators, and its
    Frobenius-fixed basis is taken once.  Restriction to an L-invariant
    block is an algebra map that commutes with x -> x^q, so the restricted
    fixed basis spans the fixed subalgebra of the block's algebra.  Blocks
    on which it is scalar are single components; otherwise the first
    non-scalar restricted element has a squarefree totally-split minimal
    polynomial, and its eigenspaces refine the block.
    """
    if not is_abelian(L):
        raise NotAbelian("homogeneous components need an abelian group")
    _coprimality_guard(L)
    F = L.field
    n = L.dim
    fixed = _frobenius_fixed_basis(
        AlgebraSpan(F, n, _enveloping_algebra(F, n, L.gens)))
    work = [Subspace.whole(F, n)]
    final = []
    while work:
        block = work.pop(0)
        nonscalar = _first_nonscalar(
            F, (restrict_matrix(x, block) for x in fixed))
        if nonscalar is None:
            final.append(block)
            continue
        mp = minpoly(nonscalar)
        roots = []
        for g, e in poly_factor(mp):
            if g.degree != 1 or e != 1:
                raise NotSemisimple(
                    "fixed-algebra element has a non-split or repeated "
                    "factor; coprimality promised otherwise")
            roots.append(F.neg(g.coeffs[0]))
        if len(roots) < 2:
            raise InvariantViolation(
                "non-scalar element with a single eigenvalue")
        for root in roots:
            eig = kernel(nonscalar - Matrix.diag(F, [root] * block.dim))
            if eig.dim == 0:
                raise InvariantViolation("empty eigenspace for a root")
            work.append(Subspace(F, n, block.lift_rows(eig.basis)))
    final.sort(key=lambda s: s.sort_key())
    if sum(s.dim for s in final) != n:
        raise InvariantViolation("components do not fill the space")
    return final


def _enveloping_algebra(F, d, gens):
    """A spanning set of the F-algebra that the d x d matrices `gens`
    generate: the identity spun under right multiplication by each
    generator, in d^2-space.  For the image of a finite group this is the
    span of all its elements."""
    # right[s] maps the row-major vec(x) to vec(x g_s): d diagonal blocks
    # g_s^T
    i = np.arange(d)
    right = np.zeros((len(gens), d, d, d, d), dtype=np.int32)
    right[:, i, :, i, :] = [g.a.T for g in gens]
    right = right.reshape(len(gens), d * d, d * d)
    eye = np.eye(d, dtype=np.int32).reshape(-1)
    return [Matrix(F, row.reshape(d, d))
            for row in _spin_rows(F, eye, right)]


def _first_nonscalar(F, matrices):
    for m in matrices:
        d = int(m.a[0, 0])
        if not np.array_equal(
                m.a, Matrix.diag(F, [d] * m.rows).a):
            return m
    return None


def homogeneous_components_split(L):
    """Independent computation of the isotypic components: refine over a
    common splitting field into joint eigenspaces of the generators, group
    the character tuples into Galois orbits, and descend each orbit sum back
    to the base field."""
    if not is_abelian(L):
        raise NotAbelian("homogeneous components need an abelian group")
    _coprimality_guard(L)
    F = L.field
    n = L.dim
    gens = L.gens
    cp = charpoly(gens[0])
    for g in gens[1:]:
        cp = cp * charpoly(g)
    K = splitting_field(cp)
    blocks = [(Subspace.whole(K, n), ())]
    for g in gens:
        gK = extend_scalars(g, K)
        refined = []
        for Z, label in blocks:
            R = restrict_matrix(gK, Z)
            covered = 0
            rp = charpoly(R)
            for alpha in sorted(set(
                    a for a in range(K.q) if rp.eval_idx(a) == 0)):
                eig = kernel(R - Matrix.diag(K, [alpha] * Z.dim))
                if eig.dim:
                    covered += eig.dim
                    refined.append(
                        (Subspace(K, n, Z.lift_rows(eig.basis)),
                         label + (alpha,)))
            if covered != Z.dim:
                raise NotSemisimple("generator not diagonalizable over the "
                                    "splitting field")
        blocks = refined
    by_label = {label: Z for Z, label in blocks}
    seen = set()
    out = []
    for label in sorted(by_label):
        if label in seen:
            continue
        orbit = []
        cur = label
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = tuple(K.pow(a, F.q) for a in cur)
        total = by_label[orbit[0]]
        for other in orbit[1:]:
            total = total.sum_with(by_label[other])
        out.append(rational_form(total, F))
    out.sort(key=lambda s: s.sort_key())
    return out


@dataclass(frozen=True)
class EigenData:
    """Eigenvalue data of one semisimple element over its splitting field."""
    element: Matrix
    base_field: object
    split_field: object
    eigenvalues: tuple            # K-indices, sorted
    eigenspaces: dict             # K-index -> Subspace over K
    orbits: tuple                 # tuples of K-indices under x -> x^|F|
    orbit_sums: dict              # orbit -> Subspace over K
    rational_components: dict     # orbit -> Subspace over F


def eigen_analysis(f, space):
    """Diagonalize f over the splitting field of its characteristic
    polynomial: eigenspaces, Galois orbits of eigenvalues, orbit sums and
    their rational forms over the base field."""
    F = f.field
    n = f.rows
    if f.det().idx == 0:
        raise InvariantViolation("eigen analysis needs an invertible element")
    mp = minpoly(f)
    if any(e > 1 for _, e in poly_factor(mp)):
        raise NotSemisimple(
            "minimal polynomial is not squarefree; the element order is "
            "divisible by the characteristic")
    cp = charpoly(f)
    K = splitting_field(cp)
    fK = extend_scalars(f, K)
    cpK = charpoly(fK)
    eigenvalues = sorted(a for a in range(K.q) if cpK.eval_idx(a) == 0)
    eigenspaces = {}
    total = 0
    for a in eigenvalues:
        eig = kernel(fK - Matrix.diag(K, [a] * n))
        eigenspaces[a] = eig
        total += eig.dim
    if total != n:
        raise NotSemisimple("eigenspaces do not fill the extended space")
    seen = set()
    orbits = []
    for a in eigenvalues:
        if a in seen:
            continue
        orb = tuple(frobenius_orbit_idx(K, a, F.q))
        seen.update(orb)
        dims = {eigenspaces[b].dim for b in orb}
        if len(dims) != 1:
            raise InvariantViolation(
                "Galois-conjugate eigenvalues with unequal eigenspace dims")
        orbits.append(orb)
    orbit_sums = {}
    rational = {}
    for orb in orbits:
        total_sub = eigenspaces[orb[0]]
        for b in orb[1:]:
            total_sub = total_sub.sum_with(eigenspaces[b])
        orbit_sums[orb] = total_sub
        rational[orb] = rational_form(total_sub, F)
    return EigenData(
        element=f, base_field=F, split_field=K,
        eigenvalues=tuple(eigenvalues), eigenspaces=eigenspaces,
        orbits=tuple(orbits), orbit_sums=orbit_sums,
        rational_components=rational)


def pairing_check(eigendata, space):
    """Pairs (alpha, beta) with b(W_alpha, W_beta) != 0.

    Verifies the inverse-pairing law on the way: every nonzero pairing has
    alpha * beta = 1 and is then a perfect pairing, and every pair with
    alpha * beta != 1 pairs to exactly zero.  Violations are impossible for
    an isometry and raise InvariantViolation.
    """
    E = eigendata
    if not is_isometry(E.element, space):
        raise NotIsometry("pairing analysis needs an isometry")
    K = E.split_field
    gramK = extend_scalars(space.gram, K)
    spaceK = QuadraticSpace(K, gramK)
    evs = list(E.eigenvalues)
    pairs = []
    for i, a in enumerate(evs):
        for b in evs[i:]:
            block = spaceK.gram_block(E.eigenspaces[a].basis,
                                      E.eigenspaces[b].basis)
            nonzero = bool(block.any())
            inverse_pair = K.mul(a, b) == 1
            if nonzero and not inverse_pair:
                raise InvariantViolation(
                    "nonzero pairing between eigenvalues with product != 1")
            if inverse_pair:
                if not nonzero:
                    raise InvariantViolation(
                        "inverse eigenvalue pair with zero pairing")
                da = E.eigenspaces[a].dim
                db = E.eigenspaces[b].dim
                if da != db or Matrix(K, block).rank() != da:
                    raise InvariantViolation(
                        "pairing between inverse eigenvalues is not perfect")
                pairs.append((FieldElem(K, a), FieldElem(K, b)))
    return pairs


def zalesski_dichotomy_check(components, space):
    """Turn isotypic components into an orthogonal decomposition.

    A single component is the trivial decomposition.  For several, each must
    be nondegenerate and the components pairwise orthogonal; failure means
    the components pair isotropically across each other, which cannot happen
    in odd dimension, so it raises ParityViolation.
    """
    if not components:
        raise InvariantViolation("no components given")
    if len(components) == 1:
        if components[0].dim != space.n:
            raise InvariantViolation("single component must be everything")
        return OrthoDecomposition(space, components)
    for i, u in enumerate(components):
        if space.restricted_gram(u).det().idx == 0:
            raise ParityViolation(
                f"component {i} is degenerate for the form: components pair "
                "off isotropically, impossible in odd dimension")
        for j in range(i + 1, len(components)):
            if space.gram_block(u.basis, components[j].basis).any():
                raise ParityViolation(
                    f"components {i} and {j} are not orthogonal")
    return OrthoDecomposition(space, components)
