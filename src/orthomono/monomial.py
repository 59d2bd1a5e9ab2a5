"""The main decomposition engine.

For a finite solvable irreducible group of isometries in odd dimension,
produce an orthogonal decomposition into lines permuted by the group and a
basis in which every element is monomial with entries +-1, packaged as a
machine-checkable certificate.

The recursion mirrors the existence proof: the last nontrivial derived term
is abelian and normal and avoids -I (its determinants are 1), so its
isotypic components give an invariant orthogonal decomposition with more
than one part; the setwise stabilizer of the first part acts irreducibly on
it (asserted at runtime, not assumed), the recursion solves that smaller
problem, and coset representatives transport the solution to the other
parts.  Transport preserves Q-values, so all basis lines share one scalar c
and every permuting coefficient squares to 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraError,
    CertificateCheckFailed,
    DimensionMismatch,
    HypothesisViolated,
    InvariantViolation,
)
from .field import FieldElem
from .form import QuadraticSpace, is_isometry, validate_decomposition
from .group import MatrixGroup, PermGroup, abelian_normal_term, \
    derived_series, is_abelian, setwise_stabilizer
from .linalg import Matrix, restrict_matrix
from .modrep import homogeneous_components, is_irreducible, \
    zalesski_dichotomy_check


@dataclass(frozen=True)
class MonomialCertificate:
    """Basis w_1..w_n of pairwise-orthogonal anisotropic lines with all
    Q(w_i) = c, plus each generator's action g w_i = sign_i w_{perm[i]} and
    the coset-representative words used for transport (outermost recursion
    level first; words index into the generator list)."""

    space: QuadraticSpace
    basis: np.ndarray
    scalar: FieldElem
    generator_images: tuple   # per generator: (perm, signs)
    transport: tuple          # per level: tuple of generator-index words

    @property
    def n(self):
        return self.basis.shape[0]

    def basis_change(self):
        """Matrix P whose columns are the basis vectors."""
        return Matrix(self.space.field, self.basis.T.copy())


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failure: str = ""

    def __bool__(self):
        return self.ok


def _check_hypotheses(G, space):
    """Check every hypothesis of the main result and return the derived
    series of G that the solvability check built."""
    if G.dim != space.n:
        raise DimensionMismatch("group dimension differs from the space")
    if space.n % 2 == 0:
        raise HypothesisViolated("dimension even", f"n = {space.n}")
    for g in G.gens:
        if not is_isometry(g, space):
            raise HypothesisViolated(
                "not isometries", "a generator moves the form")
    series = derived_series(G)
    if not series[-1].is_trivial:
        raise HypothesisViolated("not solvable")
    res = is_irreducible(G)
    if not res:
        raise HypothesisViolated(
            "not irreducible",
            f"invariant subspace of dimension {res.witness.dim}")
    return series


def find_invariant_decomposition(G, space, series=None):
    """An invariant orthogonal decomposition with more than one part, from
    the isotypic components of the last nontrivial derived term.

    `series` is the derived series of G from a caller that has already
    established the hypotheses; without it they are checked here.  The
    parts are invariant because the term is normal in G; `monomialize`
    checks that once per level with `validate_decomposition`.

    A single homogeneous component would force that term to be <-I> (whose
    determinant is -1), contradicting its containment in the derived
    subgroup; such an outcome is therefore reported as InvariantViolation,
    never retried.
    """
    if series is None:
        series = _check_hypotheses(G, space)
    if space.n == 1:
        raise HypothesisViolated("dimension one",
                                 "nothing to decompose for n = 1")
    if is_abelian(G):
        raise InvariantViolation(
            "abelian yet irreducible on odd dimension > 1 inside an "
            "orthogonal group: impossible, input is corrupted")
    L = abelian_normal_term(G, series)
    comps = homogeneous_components(L)
    if len(comps) == 1:
        raise InvariantViolation(
            "homogeneous abelian term in the derived subgroup: it would "
            "have to be <-I> with determinant -1, impossible; preserve "
            "this input as a fixture")
    return zalesski_dichotomy_check(comps, space)


def _coset_representatives(G, action):
    """(word, element) for each part i of the decomposition that `action`
    (a PermutationAction of G.gens) permutes: the shortlex-least
    generator-index word whose element maps the first part onto part i,
    the rightmost letter acting first.

    Read from the generators' permutations of the parts: with d(i) the
    distance of part i from part 0, word(i) = (j,) + word(pi_j^-1(i)) for
    the least j with d(pi_j^-1(i)) = d(i) - 1."""
    perms = action.gen_perms
    k = action.decomposition.k
    dist = {0: 0}
    orbit = [0]
    for i in orbit:  # grows while it is read: breadth-first
        for perm in perms:
            if perm[i] not in dist:
                dist[perm[i]] = dist[i] + 1
                orbit.append(perm[i])
    if len(orbit) < k:
        raise InvariantViolation(
            "group is not transitive on the parts despite irreducibility")
    inverses = [{t: s for s, t in enumerate(perm)} for perm in perms]
    found = {0: ((), G.identity)}
    for i in orbit[1:]:
        j, src = next((j, inv[i]) for j, inv in enumerate(inverses)
                      if dist[inv[i]] == dist[i] - 1)
        word, m = found[src]
        found[i] = ((j,) + word, G.gens[j] @ m)
    return [found[i] for i in range(k)]


def _line_key(F, row):
    pc = int(np.argmax(row != 0))
    inv = F.inv(int(row[pc]))
    return F.vscale(inv, row).astype(np.int32).tobytes() if inv != 1 \
        else row.astype(np.int32).tobytes()


def _generator_images(gens, rows, space):
    F = space.field
    n = rows.shape[0]
    index = {_line_key(F, rows[i]): i for i in range(n)}
    out = []
    minus_one = F.neg(1)
    for g in gens:
        perm = [0] * n
        signs = [0] * n
        for i in range(n):
            img = F.mat_vec(g.a, rows[i])
            j = index.get(_line_key(F, img))
            if j is None:
                raise CertificateCheckFailed(
                    "generator maps a basis line outside the line set")
            pc = int(np.argmax(rows[j] != 0))
            lam = F.div(int(img[pc]), int(rows[j][pc]))
            if not np.array_equal(img, F.vscale(lam, rows[j])):
                raise CertificateCheckFailed(
                    "generator image is not proportional to a basis line")
            if lam == 1:
                signs[i] = 1
            elif lam == minus_one:
                signs[i] = -1
            else:
                raise CertificateCheckFailed(
                    "monomial coefficient is not +-1")
            perm[i] = j
        out.append((tuple(perm), tuple(signs)))
    return tuple(out)


def monomialize(G, space, series=None):
    """Monomial certificate for a finite solvable irreducible isometry
    group in odd dimension.

    The hypotheses are checked once, at the public entry (no `series`).
    Each recursion level passes down the derived series of the restricted
    stabilizer instead: a subgroup of a solvable group and its restriction
    to an invariant part are solvable, restrictions of isometries to an
    orthogonal part are isometries of the restricted form, and a part of
    an odd-dimensional space split into equal parts has odd dimension.
    Only irreducibility does not pass down; it is checked explicitly on
    the restricted stabilizer.  No level closes its group: triviality is
    read from generators, and the orbit-stabilizer check of the stabilizer
    reads |G| from the level's certificate.
    """
    if series is None:
        series = _check_hypotheses(G, space)
    F = space.field
    n = space.n
    if n == 1:
        c = int(space.gram.a[0, 0])
        rows = np.eye(1, dtype=np.int32)
        images = _generator_images(G.gens, rows, space)
        cert = MonomialCertificate(
            space=space, basis=rows, scalar=FieldElem(F, c),
            generator_images=images, transport=())
        _verify_internal(cert)
        return cert

    D = find_invariant_decomposition(G, space, series)
    action = validate_decomposition(D, G)
    Z1 = D.parts[0]
    H = setwise_stabilizer(G, action, 0)
    sub_space = QuadraticSpace(F, space.restricted_gram(Z1))
    restricted = [restrict_matrix(h, Z1) for h in H.gens]
    H_res = MatrixGroup(restricted, space=sub_space, bound=G.bound)
    if not is_irreducible(H_res):
        raise InvariantViolation(
            "stabilizer acts reducibly on its part; impossible for an "
            "irreducible group acting on an orthogonal decomposition")
    rec = monomialize(H_res, sub_space, derived_series(H_res))
    lines1 = Z1.lift_rows(rec.basis)
    reps = _coset_representatives(G, action)
    blocks = []
    for word, m in reps:
        blocks.append(F.mat_mul(lines1, m.a.T))
    rows = np.concatenate(blocks, axis=0).astype(np.int32)
    c = space.q_value(rows[0])
    images = _generator_images(G.gens, rows, space)
    cert = MonomialCertificate(
        space=space, basis=rows, scalar=FieldElem(F, c),
        generator_images=images,
        transport=(tuple(word for word, _ in reps),) + rec.transport)
    _verify_internal(cert)
    _check_orbit_stabilizer(H, D.k, images)
    return cert


def _check_orbit_stabilizer(H, k, images):
    """|H| k = |G| for the stabilizer H of one of the k parts, with |G|
    read from the certificate instead of a closure of G: G acts faithfully
    on the 2n points +-w_i of the verified basis as the signed permutations
    `images`, whose BSGS gives their order."""
    if H.order * k != PermGroup.signed(images).bsgs(H.bound).order:
        raise AlgebraError("Schreier generators miss stabilizer elements")


def _verify_internal(cert):
    """Producer-side verification: orthogonality and the common scalar.
    The generator images were computed from the basis just before, so
    they are not recomputed here; check_certificate does that."""
    space = cert.space
    rows = cert.basis
    n = cert.n
    c = cert.scalar.idx
    if c == 0:
        raise CertificateCheckFailed("certificate scalar is zero")
    gram = space.gram_block(rows, rows)
    target = np.zeros((n, n), dtype=np.int32)
    np.fill_diagonal(target, c)
    if not np.array_equal(gram, target):
        raise CertificateCheckFailed(
            "basis is not orthogonal with constant Q-value")


def check_certificate(cert, G):
    """Independent verifier with no trust in the producer.

    Re-checks that the basis is invertible, orthogonal and of one common
    scalar, recomputes every generator image against the recorded ones, and
    conjugates every generator g of G into the certificate basis, requiring
    P^-1 g P to be exactly monomial with entries +-1.  That suffices for all
    of G: the signed permutation matrices form a group, so they contain the
    product of any of them, and every element of the finite group G is a
    product of generators; hence P^-1 h P is signed monomial for each h in
    G.  Returns a CheckReport; never raises for content failures.
    """
    space = cert.space
    F = space.field
    rows = cert.basis
    n = cert.n

    def fail(msg):
        return CheckReport(False, msg)

    if rows.shape != (n, space.n) or n != space.n:
        return fail("basis shape mismatch")
    P = cert.basis_change()
    try:
        P_inv = P.inverse()
    except Exception:
        return fail("basis vectors are linearly dependent")
    c = cert.scalar.idx
    if c == 0:
        return fail("scalar c is zero")
    gram = space.gram_block(rows, rows)
    for i in range(n):
        for j in range(n):
            want = c if i == j else 0
            if int(gram[i, j]) != want:
                return fail(f"gram of basis at ({i},{j}) is {int(gram[i, j])},"
                            f" expected {want}")
    if len(cert.generator_images) != len(G.gens):
        return fail("generator image count mismatch")
    try:
        recomputed = _generator_images(G.gens, rows, space)
    except CertificateCheckFailed as e:
        return fail(str(e))
    if recomputed != cert.generator_images:
        return fail("recorded generator images do not match recomputation")
    signs = (1, F.neg(1))
    for g in G.gens:
        M = (P_inv @ g @ P).a
        nonzero = M != 0
        if not ((nonzero.sum(axis=0) == 1).all()
                and (nonzero.sum(axis=1) == 1).all()):
            return fail("conjugated element is not monomial")
        if not np.isin(M[nonzero], signs).all():
            return fail("monomial entry is not +-1")
    return CheckReport(True)
