"""Signed-permutation wreath groups, the classification of maximal
transitive solvable permutation groups at desk scale, maximality sweeps,
the uniqueness oracle, and the boundary fixtures.

The stabilizer of an orthogonal decomposition into lines is the group of
signed permutation matrices over the chosen scalar form; a subgroup is
maximal among finite irreducible solvable isometry groups exactly when its
permutation part is maximal transitive solvable, and the sweeps here verify
both directions exhaustively for small n and q.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraError,
    BoundExceeded,
    CharacteristicTwo,
    HypothesisViolated,
    InvariantViolation,
    NonScalarForm,
    NotInvariant,
)
from .field import GF
from .form import (
    QuadraticSpace,
    all_ortho_line_decompositions,
    validate_decomposition,
)
from .group import (
    MatrixGroup,
    PermGroup,
    is_solvable,
    orthogonal_group,
    perm_matrix,
    reduce_generators,
)
from .linalg import Matrix, kernel
from .modrep import is_irreducible
from .monomial import monomialize
from .tablegrp import CayleyTable

DEFAULT_BOUND = 10 ** 6


@dataclass(frozen=True)
class WreathSpec:
    """A signed-permutation group: diagonal sign changes extended by the
    permutation matrices of K, attached to a scalar form c I_n."""
    space: QuadraticSpace
    perm_group: PermGroup
    group: MatrixGroup


def _scalar_of(space):
    c = int(space.gram.a[0, 0])
    target = np.zeros((space.n, space.n), dtype=np.int32)
    np.fill_diagonal(target, c)
    if c == 0 or not np.array_equal(space.gram.a, target):
        raise NonScalarForm("wreath construction needs a Gram matrix c I")
    return c


def wreath_construct(K, space):
    """The wreath group over K: all diagonal sign changes together with K's
    permutation matrices, enumerated and checked to have order 2^n |K|."""
    _scalar_of(space)
    F = space.field
    n = space.n
    if K.degree != n:
        raise AlgebraError("permutation degree differs from the dimension")
    gens = []
    for i in range(n):
        d = [1] * n
        d[i] = -1
        gens.append(Matrix.diag(F, d))
    for p in K.gens:
        gens.append(perm_matrix(F, p))
    group = MatrixGroup(gens, space=space, name=f"O1wr{K.name or 'K'}")
    expected = (2 ** n) * K.order
    if group.order != expected:
        raise InvariantViolation(
            f"wreath order {group.order} differs from 2^{n} |K| = {expected}")
    return WreathSpec(space=space, perm_group=K, group=group)


@dataclass(frozen=True)
class TransitiveClass:
    group: PermGroup
    order: int
    maximal: bool


def _transitive_indices(perms, H, degree):
    orbit = {0}
    frontier = [0]
    sub = perms[np.asarray(H)]
    while frontier:
        nxt = []
        for i in frontier:
            for row in sub:
                j = int(row[i])
                if j not in orbit:
                    orbit.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(orbit) == degree


def transitive_solvable_subgroups(n, mode="exhaustive"):
    """All conjugacy classes of transitive solvable subgroups of S_n, with
    the maximal ones flagged (not contained in any other listed class up to
    conjugacy).  Exhaustive cyclic-extension enumeration; n in {1, 3, 5, 7}."""
    if mode != "exhaustive":
        raise AlgebraError(f"unsupported mode {mode!r}")
    if n not in (1, 3, 5, 7):
        raise BoundExceeded("exhaustive mode supports n in {1, 3, 5, 7}")
    if n == 1:
        return [TransitiveClass(PermGroup(1, [(0,)], name="S1"), 1, True)]
    S = PermGroup.symmetric(n)
    els = S.enumerate()
    perms = np.array(els, dtype=np.int64)
    ct = CayleyTable.from_perm_group(S)
    classes = ct.solvable_subgroup_classes()
    transitive = [H for H in classes if _transitive_indices(perms, H, n)]
    out = []
    for H in transitive:
        maximal = not any(
            len(H2) > len(H) and ct.contained_up_to_conjugacy(H, H2)
            for H2 in transitive)
        gens = [els[i] for i in ct.subgroup_generators(H)]
        out.append(TransitiveClass(
            group=PermGroup(n, gens), order=len(H), maximal=maximal))
    out.sort(key=lambda t: t.order)
    return out


def conjugate_into_wreath(G, space):
    """Base change P from the monomial certificate and the permutation image
    K; P^-1 G P is verified element-by-element to lie inside the wreath
    group over K."""
    cert = monomialize(G, space)
    P = cert.basis_change()
    K = PermGroup(cert.n, [perm for perm, _ in cert.generator_images])
    F = space.field
    wspace = QuadraticSpace(F, Matrix.diag(F, [cert.scalar.idx] * cert.n))
    W = wreath_construct(K, wspace)
    P_inv = P.inverse()
    for g in G.enumerate():
        if (P_inv @ g @ P) not in W.group:
            raise InvariantViolation(
                "conjugated element escapes the wreath group")
    return P, K


@dataclass(frozen=True)
class MaximalityResult:
    maximal: bool
    counterexample: MatrixGroup | None = None

    def __bool__(self):
        return self.maximal


def maximality_check(W, bound=DEFAULT_BOUND):
    """Exhaustive single-element extension sweep: W is maximal among finite
    irreducible solvable subgroups of O(V, Q) iff no <W, x> with x outside W
    is both solvable and irreducible.  Any strictly larger solvable
    irreducible overgroup contains such an extension, so the sweep decides
    maximality; a violating overgroup is returned as the counterexample.
    x runs in increasing order, taking the least element of each double
    coset W x W."""
    ambient = orthogonal_group(W.space, bound=bound)
    ct = CayleyTable.from_matrix_group(ambient)
    els = ambient.enumerate()
    w_idx = np.array([ambient.index_of(g) for g in W.group.enumerate()])
    member = np.zeros(ct.n, dtype=bool)
    member[w_idx] = True
    wgen_idx = [ambient.index_of(g) for g in W.group.gens]
    seen_closures = set()
    for x in range(ct.n):
        if member[x]:
            continue
        # <W, x> = <W, w x w'>: the whole double coset W x W is tried here
        member[ct.table[np.ix_(ct.table[w_idx, x], w_idx)]] = True
        K = ct.closure(wgen_idx + [x])
        key = (len(K), K.tobytes())
        if key in seen_closures:
            continue
        seen_closures.add(key)
        if not ct.is_solvable_set(K):
            continue
        gens = [els[i] for i in ct.subgroup_generators(K)]
        overgroup = MatrixGroup(gens, space=W.space, bound=bound)
        if is_irreducible(overgroup):
            return MaximalityResult(False, overgroup)
    return MaximalityResult(True)


def maximality_check_big(W, bound=DEFAULT_BOUND):
    """Table-free variant of maximality_check for ambient groups too large
    for a Cayley table (the long-running n = 5 sweep).

    <W, x> = <W, w x w'> for w, w' in W, so one representative per double
    coset W x W covers every single-element extension; candidates whose
    closure is the whole ambient group reuse one ambient solvability
    computation."""
    F = W.space.field
    p = F.p
    if F.k != 1:
        raise BoundExceeded("long maximality sweep supports prime fields")
    ambient = orthogonal_group(W.space, bound=bound)
    els = ambient.enumerate()
    n = W.space.n
    wstack = np.stack([g.a for g in W.group.enumerate()]).astype(np.int64)
    covered = {g._key[2] for g in W.group.enumerate()}
    ambient_solvable = None
    for x in els:
        key = x._key[2]
        if key in covered:
            continue
        # mark the whole double coset W x W
        left = np.einsum("aij,jk->aik", wstack, x.a.astype(np.int64)) % p
        prods = np.einsum("aij,bjk->abik", left, wstack) % p
        prods = prods.reshape(-1, n, n).astype(np.int32)
        for m in prods:
            covered.add(m.tobytes())
        K = MatrixGroup(W.group.gens + [x], space=W.space, bound=bound)
        if K.order == ambient.order:
            if ambient_solvable is None:
                ambient_solvable = is_solvable(
                    MatrixGroup(reduce_generators(
                        list(ambient.gens), ambient.identity),
                        space=W.space, bound=bound))
            solvable = ambient_solvable
        else:
            solvable = is_solvable(K)
        if solvable and is_irreducible(K):
            return MaximalityResult(False, K)
    return MaximalityResult(True)


def uniqueness_oracle(G, space, bound=DEFAULT_BOUND):
    """Number of orthogonal line decompositions stabilized by G, counted by
    brute force over all of them.  For irreducible G stabilizing at least
    one, the count is predicted to be exactly 1."""
    if space.n % 2 == 0:
        raise HypothesisViolated("dimension even")
    if not is_irreducible(G):
        raise HypothesisViolated("not irreducible",
                                 "uniqueness count needs irreducibility")
    count = 0
    for D in all_ortho_line_decompositions(space, bound=bound):
        try:
            validate_decomposition(D, G)
        except NotInvariant:
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# boundary fixtures


@dataclass(frozen=True)
class O2MinusFixture:
    space: QuadraticSpace
    group: MatrixGroup
    order: int
    solvable: bool
    irreducible: bool
    invariant_line_decompositions: int


def o2minus(q):
    """Isometry group of the 2-dimensional anisotropic form x^2 - s y^2
    (s the least non-square), enumerated by brute force over all 2x2
    matrices; solvable, irreducible, and stabilizing no orthogonal line
    decomposition."""
    F = GF(q)
    s = next(a for a in range(2, q) if not F.is_square(a))
    space = QuadraticSpace(F, Matrix.diag(F, [1, F.neg(s)]))
    members = []
    B = space.gram.a
    for entries in itertools.product(range(q), repeat=4):
        g = np.array(entries, dtype=np.int32).reshape(2, 2)
        if np.array_equal(F.mat_mul(F.mat_mul(g.T, B), g), B):
            members.append(Matrix(F, g))
    G = MatrixGroup(reduce_generators(members, Matrix.identity(F, 2)),
                    space=space)
    if G.order != len(members):
        raise InvariantViolation("generator reduction lost isometries")
    invariant = 0
    for D in all_ortho_line_decompositions(space):
        try:
            validate_decomposition(D, G)
            invariant += 1
        except NotInvariant:
            pass
    return O2MinusFixture(
        space=space, group=G, order=G.order,
        solvable=is_solvable(G), irreducible=bool(is_irreducible(G)),
        invariant_line_decompositions=invariant)


@dataclass(frozen=True)
class GammaL1Fixture:
    group: MatrixGroup
    order: int
    solvable: bool
    irreducible: bool
    invariant_symmetric_forms: tuple
    has_nondegenerate_invariant_form: bool


def gamma_l1(q, n):
    """The semilinear group of GF(q^n) over GF(q) (q prime here):
    multiplication by a generator of the multiplicative group together with
    the q-power Frobenius, as GF(q)-linear maps in the power basis.

    Solves g^T B g = B for ALL invariant symmetric bilinear forms and
    records whether any solution is nondegenerate; the group lives in GL_n,
    not necessarily in any orthogonal group.
    """
    F = GF(q)
    if F.k != 1:
        raise AlgebraError("fixture built over prime fields only")
    K = GF(q, n)
    omega = next(a for a in range(2, K.q)
                 if _mult_order(K, a) == K.q - 1)
    mul_mat = np.zeros((n, n), dtype=np.int32)
    frob_mat = np.zeros((n, n), dtype=np.int32)
    for j in range(n):
        basis_j = K.encode([0] * j + [1] + [0] * (n - j - 1))
        mul_mat[:, j] = K.coeffs(K.mul(omega, basis_j))
        frob_mat[:, j] = K.coeffs(K.pow(basis_j, q))
    G = MatrixGroup([Matrix(F, mul_mat), Matrix(F, frob_mat)])
    expected = (q ** n - 1) * n
    if G.order != expected:
        raise InvariantViolation(
            f"semilinear group order {G.order} != (q^n - 1) n = {expected}")
    forms = _invariant_symmetric_forms(G)
    nondeg = _contains_nondegenerate(F, forms, n)
    return GammaL1Fixture(
        group=G, order=G.order, solvable=is_solvable(G),
        irreducible=bool(is_irreducible(G)),
        invariant_symmetric_forms=tuple(forms),
        has_nondegenerate_invariant_form=nondeg)


def _mult_order(K, a):
    m = 1
    x = a
    while x != 1:
        x = K.mul(x, a)
        m += 1
    return m


def _invariant_symmetric_forms(G):
    """Basis of {B symmetric : g^T B g = B for all generators}."""
    F = G.field
    n = G.dim
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {u: t for t, u in enumerate(unknowns)}
    rows = []
    for g in G.gens:
        a = g.a
        for r in range(n):
            for s_ in range(r, n):
                row = [0] * len(unknowns)
                for (i, j) in unknowns:
                    coef = F.mul(int(a[i, r]), int(a[j, s_]))
                    if i != j:
                        coef = F.add(coef,
                                     F.mul(int(a[j, r]), int(a[i, s_])))
                    row[pos[(i, j)]] = coef
                row[pos[(r, s_)]] = F.sub(row[pos[(r, s_)]], 1)
                rows.append(row)
    sol = kernel(Matrix(F, rows))
    forms = []
    for coords in sol.basis:
        B = np.zeros((n, n), dtype=np.int32)
        for (i, j), t in pos.items():
            B[i, j] = coords[t]
            B[j, i] = coords[t]
        forms.append(Matrix(F, B))
    return forms


def _contains_nondegenerate(F, forms, n, combo_bound=10 ** 5):
    if not forms:
        return False
    d = len(forms)
    if F.q ** d > combo_bound:
        raise BoundExceeded("invariant form space too large to sweep")
    for coeffs in itertools.product(range(F.q), repeat=d):
        if all(c == 0 for c in coeffs):
            continue
        B = np.zeros((n, n), dtype=np.int32)
        for c, form in zip(coeffs, forms):
            B = F.vadd(B, F.vscale(c, form.a))
        if Matrix(F, B).det().idx != 0:
            return True
    return False


def char2_rejection():
    """Characteristic 2 is refused at construction; returns the exception
    raised, for inspection."""
    try:
        GF(2)
    except CharacteristicTwo as exc:
        return exc
    raise AssertionError("characteristic 2 was not rejected")


def fixtures(q=5, gamma_q=3, gamma_n=3):
    """The three boundary fixtures in one bundle: the even-dimension
    isometry group, the semilinear group, and the characteristic-2
    rejection."""
    return {
        "o2minus": o2minus(q),
        "gamma_l1": gamma_l1(gamma_q, gamma_n),
        "char2_rejection": char2_rejection(),
    }
