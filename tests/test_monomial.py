import numpy as np
import pytest

from orthomono.errors import AlgebraError, CertificateCheckFailed, \
    HypothesisViolated
from orthomono.field import GF, FieldElem
from orthomono.form import QuadraticSpace
from orthomono.group import (
    MatrixGroup,
    PermGroup,
    orthogonal_group,
    perm_matrix,
    reduce_generators,
)
from orthomono.linalg import Matrix, Subspace
import orthomono.group as group_mod
import orthomono.monomial as monomial_mod
from orthomono.monomial import (
    CheckReport,
    MonomialCertificate,
    _generator_images,
    check_certificate,
    find_invariant_decomposition,
    monomialize,
)

F3, F5, F7 = GF(3), GF(5), GF(7)


def unit_space(F, n):
    return QuadraticSpace(F, Matrix.identity(F, n))


def test_monomialize_dim1():
    s = QuadraticSpace(F5, [[1]])
    G = MatrixGroup([Matrix(F5, [[4]])], space=s)
    cert = monomialize(G, s)
    assert cert.basis.tolist() == [[1]]
    assert cert.scalar.idx == 1
    assert cert.generator_images == (((0,), (-1,)),)
    assert check_certificate(cert, G)


def test_monomialize_o33():
    s = unit_space(F3, 3)
    G = orthogonal_group(s)
    cert = monomialize(G, s)
    assert cert.scalar.idx == 1
    lines = {tuple(map(int, r)) for r in cert.basis}
    # the three coordinate axes, up to sign of the representative
    normalized = set()
    for r in cert.basis:
        pc = int(np.argmax(r != 0))
        normalized.add(tuple(map(int, F3.vscale(F3.inv(int(r[pc])), r))))
    assert normalized == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    report = check_certificate(cert, G)
    assert report.ok, report.failure


def test_find_invariant_decomposition_o33():
    s = unit_space(F3, 3)
    G = orthogonal_group(s)
    D = find_invariant_decomposition(G, s)
    assert D.k == 3 and D.part_dim == 1
    axes = {Subspace(F3, 3, [row.reshape(1, -1)][0])
            for row in np.eye(3, dtype=np.int32)}
    assert set(D.parts) == axes


def test_find_invariant_decomposition_rejects_reducible():
    s = unit_space(F3, 3)
    G = MatrixGroup([Matrix.diag(F3, [2, 2, 2])], space=s)
    with pytest.raises(HypothesisViolated) as exc:
        find_invariant_decomposition(G, s)
    assert exc.value.reason == "not irreducible"


def test_monomialize_rejects_even_dimension():
    s = QuadraticSpace(F5, [[1, 0], [0, 3]])
    G = MatrixGroup([Matrix.diag(F5, [4, 4])], space=s)
    with pytest.raises(HypothesisViolated) as exc:
        monomialize(G, s)
    assert exc.value.reason == "dimension even"


def test_monomialize_rejects_nonsolvable():
    s = unit_space(F5, 3)
    G = orthogonal_group(s)
    with pytest.raises(HypothesisViolated) as exc:
        monomialize(G, s)
    assert exc.value.reason == "not solvable"


def test_not_solvable_refusal_does_not_close_g(monkeypatch):
    # O_3(7) from all its reflections: the derived series stops at Omega_3(7)
    # and the refusal is read from generators, so G is never closed
    from orthomono.form import anisotropic_lines
    from orthomono.group import reflection
    s = unit_space(F7, 3)
    G = MatrixGroup([reflection(s, v) for v in anisotropic_lines(s)],
                    space=s)
    calls = []
    real = group_mod.closure

    def counting(gens, bound=group_mod.DEFAULT_BOUND):
        calls.append(len(gens))
        return real(gens, bound)

    monkeypatch.setattr(group_mod, "closure", counting)
    with pytest.raises(HypothesisViolated) as exc:
        monomialize(G, s)
    assert exc.value.reason == "not solvable"
    assert calls == [] and G._closure is None


def wreath_c5_group():
    F = F5
    s = unit_space(F, 5)
    cyc = perm_matrix(F, (1, 2, 3, 4, 0))
    sign = Matrix.diag(F, [4, 1, 1, 1, 1])
    return MatrixGroup([cyc, sign], space=s), s


def test_monomialize_wreath_c5():
    G, s = wreath_c5_group()
    assert G.order == 160  # 2^5 * 5
    cert = monomialize(G, s)
    assert cert.n == 5
    report = check_certificate(cert, G)
    assert report.ok, report.failure
    # transitive line permutation: the 5-cycle's image is a 5-cycle
    perm, signs = cert.generator_images[0]
    seen = {0}
    i = 0
    for _ in range(4):
        i = perm[i]
        seen.add(i)
    assert len(seen) == 5


def deep_block_group():
    """Order-1152 irreducible solvable subgroup of O_9(3) built from three
    3-dimensional blocks: diagonal copies of O_3(3), the block shift, and a
    single-block sign flip.  Its abelian term has three 3-dimensional
    isotypic components, so the recursion needs two levels."""
    F = F3
    s = unit_space(F, 9)
    o33 = orthogonal_group(unit_space(F, 3))
    small = reduce_generators(list(o33.enumerate()), o33.identity)
    gens = []
    for h in small:
        a = np.zeros((9, 9), dtype=np.int32)
        for b in range(3):
            a[b * 3:(b + 1) * 3, b * 3:(b + 1) * 3] = h.a
        gens.append(Matrix(F, a))
    shift = np.zeros((9, 9), dtype=np.int32)
    for b in range(3):
        tgt = (b + 1) % 3
        shift[tgt * 3:(tgt + 1) * 3, b * 3:(b + 1) * 3] = np.eye(3)
    gens.append(Matrix(F, shift))
    sign = np.eye(9, dtype=np.int32)
    sign[0, 0] = sign[1, 1] = sign[2, 2] = 2
    gens.append(Matrix(F, sign))
    return MatrixGroup(gens, space=s), s


def test_monomialize_deep_recursion():
    from orthomono.modrep import is_irreducible
    G, s = deep_block_group()
    # 8 * 3 * 48 / 2: block signs, shift, diagonal O_3(3), overlap -I
    assert G.order == 576
    assert is_irreducible(G)
    D = find_invariant_decomposition(G, s)
    assert (D.k, D.part_dim) == (3, 3)
    cert = monomialize(G, s)
    assert cert.n == 9
    assert len(cert.transport) == 2  # two recursion levels
    assert len(cert.transport[0]) == 3 and len(cert.transport[1]) == 3
    report = check_certificate(cert, G)
    assert report.ok, report.failure


def test_check_certificate_rejects_flipped_sign():
    G, s = wreath_c5_group()
    cert = monomialize(G, s)
    perm, signs = cert.generator_images[0]
    bad_signs = (-signs[0],) + signs[1:]
    tampered = MonomialCertificate(
        space=cert.space, basis=cert.basis, scalar=cert.scalar,
        generator_images=((perm, bad_signs),) + cert.generator_images[1:],
        transport=cert.transport)
    report = check_certificate(tampered, G)
    assert not report.ok
    assert "images" in report.failure


def test_check_certificate_rejects_non_orthogonal_basis():
    G, s = wreath_c5_group()
    cert = monomialize(G, s)
    bad = cert.basis.copy()
    bad[0] = F5.vadd(bad[0], bad[1])
    tampered = MonomialCertificate(
        space=cert.space, basis=bad, scalar=cert.scalar,
        generator_images=cert.generator_images, transport=cert.transport)
    assert not check_certificate(tampered, G)


def test_check_certificate_rejects_wrong_scalar():
    G, s = wreath_c5_group()
    cert = monomialize(G, s)
    tampered = MonomialCertificate(
        space=cert.space, basis=cert.basis, scalar=FieldElem(F5, 2),
        generator_images=cert.generator_images, transport=cert.transport)
    assert not check_certificate(tampered, G)


def test_transport_words_reproduce_parts():
    G, s = wreath_c5_group()
    D = find_invariant_decomposition(G, s)
    cert = monomialize(G, s)
    words = cert.transport[0]
    Z1 = D.parts[0]
    for i, word in enumerate(words):
        m = G.identity
        for j in word:
            m = m @ G.gens[j]
        assert Z1.image(m) == D.parts[i]


def test_certificate_q_values_constant():
    for build in (wreath_c5_group,):
        G, s = build()
        cert = monomialize(G, s)
        qs = {s.q_value(r) for r in cert.basis}
        assert qs == {cert.scalar.idx}


def test_monomialize_deterministic():
    G, s = wreath_c5_group()
    a = monomialize(G, s)
    b = monomialize(G, s)
    assert np.array_equal(a.basis, b.basis)
    assert a.scalar == b.scalar
    assert a.generator_images == b.generator_images
    assert a.transport == b.transport


def _conjugated(G, s, T):
    """T^-1 G T preserves the transported form T^T B T."""
    F = s.field
    Ti = T.inverse()
    gram = Matrix(F, F.mat_mul(F.mat_mul(T.a.T, s.gram.a), T.a))
    s2 = QuadraticSpace(F, gram)
    gens = [Ti @ g @ T for g in G.gens]
    return MatrixGroup(gens, space=s2, bound=G.bound), s2


def random_invertible(F, n, rng):
    while True:
        m = Matrix(F, rng.randint(0, F.p, size=(n, n)))
        if m.det().idx != 0:
            return m


def test_monomialize_conjugated_inputs():
    # nothing may silently assume the Gram matrix is the identity: conjugate
    # known-good groups by seeded invertible matrices and rerun end to end
    rng = np.random.RandomState(99)
    cases = []
    for q in (3, 5, 7):
        F = GF(q)
        s = unit_space(F, 3)
        W = orthogonal_group(s) if q == 3 else None
        from orthomono.group import perm_matrix
        cyc = perm_matrix(F, (1, 2, 0))
        sign = Matrix.diag(F, [-1, 1, 1])
        cases.append((MatrixGroup([cyc, sign], space=s), s))
        if W is not None:
            cases.append((W, s))
    for G, s in cases:
        for _ in range(2):
            T = random_invertible(s.field, s.n, rng)
            G2, s2 = _conjugated(G, s, T)
            cert = monomialize(G2, s2)
            report = check_certificate(cert, G2)
            assert report.ok, report.failure
            qs = {s2.q_value(r) for r in cert.basis}
            assert qs == {cert.scalar.idx}


def test_monomialize_extension_base_field():
    # base field GF(9): the whole pipeline through table-driven arithmetic
    F9 = GF(3, 2)
    s = unit_space(F9, 3)
    from orthomono.group import perm_matrix
    cyc = perm_matrix(F9, (1, 2, 0))
    sign = Matrix.diag(F9, [F9.neg(1), 1, 1])
    G = MatrixGroup([cyc, sign], space=s)
    assert G.order == 24
    cert = monomialize(G, s)
    report = check_certificate(cert, G)
    assert report.ok, report.failure


def test_monomialize_wreath_f20_gf5():
    # the order-640 wreath over the degree-5 affine group
    from orthomono.group import perm_matrix
    F = F5
    s = unit_space(F, 5)
    G = MatrixGroup([perm_matrix(F, (1, 2, 3, 4, 0)),
                     perm_matrix(F, (0, 2, 4, 1, 3)),
                     Matrix.diag(F, [4, 1, 1, 1, 1])], space=s)
    assert G.order == 640
    cert = monomialize(G, s)
    report = check_certificate(cert, G)
    assert report.ok, report.failure


def test_find_invariant_decomposition_rejects_nonsolvable():
    s = unit_space(F5, 3)
    with pytest.raises(HypothesisViolated) as exc:
        find_invariant_decomposition(orthogonal_group(s), s)
    assert exc.value.reason == "not solvable"


def test_hypotheses_once_and_one_derived_series_per_level(monkeypatch):
    # the recursion re-proves nothing that passes to subgroups: the
    # hypotheses are checked at the public entry only, and each level
    # builds the derived series of its group once
    calls = {"hypotheses": 0, "series": 0, "levels": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(monomial_mod, "_check_hypotheses", counting(
        "hypotheses", monomial_mod._check_hypotheses))
    series = counting("series", group_mod.derived_series)
    monkeypatch.setattr(monomial_mod, "derived_series", series)
    monkeypatch.setattr(group_mod, "derived_series", series)
    monkeypatch.setattr(monomial_mod, "monomialize", counting(
        "levels", monomial_mod.monomialize))
    for build, levels in ((deep_block_group, 3), (wreath_c5_group, 2)):
        calls.update(hypotheses=0, series=0, levels=0)
        G, s = build()
        cert = monomial_mod.monomialize(G, s)
        assert len(cert.transport) == levels - 1
        assert calls == {"hypotheses": 1, "series": levels,
                         "levels": levels}
    # a direct call still checks the hypotheses itself
    calls.update(hypotheses=0, series=0)
    G, s = wreath_c5_group()
    find_invariant_decomposition(G, s)
    assert calls["hypotheses"] == 1 and calls["series"] == 1


def test_derived_terms_and_stabilizers_check_no_generator(monkeypatch):
    # generators of derived terms and stabilizers are products of checked
    # generators: they come with their closure through MatrixGroup.closed,
    # and only each lower level's restricted stabilizer H_res is built
    # (and its generators checked) by the constructor
    G, s = deep_block_group()
    real_init, real_det = MatrixGroup.__init__, Matrix.det
    inits, dets, depth = [], [0, 0], [0]

    def init(self, gens, *args, **kwargs):
        gens = list(gens)
        inits.append(len(gens))
        depth[0] += 1
        try:
            real_init(self, gens, *args, **kwargs)
        finally:
            depth[0] -= 1

    def det(self):
        dets[depth[0] > 0] += 1
        return real_det(self)

    monkeypatch.setattr(MatrixGroup, "__init__", init)
    monkeypatch.setattr(Matrix, "det", det)
    cert = monomialize(G, s)
    assert len(cert.transport) == 2  # three levels: G and two H_res
    assert len(inits) == 2
    assert dets[1] == sum(inits)
    assert check_certificate(cert, G)


def check_certificate_every_element(cert, G):
    """Reference verifier: the every-element sweep that check_certificate
    replaced by the same test on the generators alone."""
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
    minus_one = F.neg(1)
    for g in G.enumerate():
        M = (P_inv @ g @ P).a
        for i in range(n):
            row_nz = np.flatnonzero(M[i])
            col_nz = np.flatnonzero(M[:, i])
            if len(row_nz) != 1 or len(col_nz) != 1:
                return fail("conjugated element is not monomial")
            val = int(M[i, row_nz[0]])
            if val != 1 and val != minus_one:
                return fail("monomial entry is not +-1")
    return CheckReport(True)


def _tampered(cert, **changes):
    fields = dict(space=cert.space, basis=cert.basis, scalar=cert.scalar,
                  generator_images=cert.generator_images,
                  transport=cert.transport)
    fields.update(changes)
    return MonomialCertificate(**fields)


def _tamperings(cert):
    """(name, certificate) for each way of spoiling a genuine one."""
    F = cert.space.field
    images = cert.generator_images
    perm, signs = images[0]
    out = [("flipped sign", _tampered(
        cert, generator_images=((perm, (-signs[0],) + signs[1:]),)
        + images[1:]))]
    if cert.n > 1:
        bad = cert.basis.copy()
        bad[0] = F.vadd(bad[0], bad[1])
        out.append(("non-orthogonal basis", _tampered(cert, basis=bad)))
    wrong = next(c for c in range(1, F.q) if c != cert.scalar.idx)
    out.append(("wrong scalar",
                _tampered(cert, scalar=FieldElem(F, wrong))))
    if len(images) > 1 and images[0][0] != images[1][0]:
        out.append(("swapped image permutations", _tampered(
            cert, generator_images=((images[1][0], images[0][1]),
                                    (images[0][0], images[1][1]))
            + images[2:])))
    if F.q > 3:
        unit = next(u for u in range(2, F.q) if u != F.neg(1))
        scaled = cert.basis.copy()
        scaled[0] = F.vscale(unit, scaled[0])
        out.append(("line scaled by a non-+-1 unit",
                    _tampered(cert, basis=scaled)))
    return out


def test_generator_check_agrees_with_every_element_sweep():
    from orthomono.group import perm_matrix
    F9 = GF(3, 2)
    s9 = unit_space(F9, 3)
    ext = MatrixGroup([perm_matrix(F9, (1, 2, 0)),
                       Matrix.diag(F9, [F9.neg(1), 1, 1])], space=s9)
    s1 = QuadraticSpace(F5, [[1]])
    cases = [(MatrixGroup([Matrix(F5, [[4]])], space=s1), s1),
             (orthogonal_group(unit_space(F3, 3)), unit_space(F3, 3)),
             wreath_c5_group(), deep_block_group(), (ext, s9)]
    names = set()
    for G, s in cases:
        cert = monomialize(G, s)
        want = check_certificate_every_element(cert, G)
        assert want.ok
        assert check_certificate(cert, G) == want
        for name, bad in _tamperings(cert):
            names.add(name)
            want = check_certificate_every_element(bad, G)
            assert not want.ok, name
            assert check_certificate(bad, G) == want, name
    assert len(names) == 5


def element_bfs_coset_representatives(G, decomposition):
    """Reference: the breadth-first search over group elements that part
    permutations replaced, kept verbatim.  Generator-index order; the first
    word whose element maps the first part onto part i wins."""
    from orthomono.errors import InvariantViolation
    Z1 = decomposition.parts[0]
    found = {}
    queue = [((), G.identity)]
    seen = {G.identity}
    while queue and len(found) < decomposition.k:
        word, m = queue.pop(0)
        idx = decomposition.index_of(Z1.image(m))
        if idx is not None and idx not in found:
            found[idx] = (word, m)
        for j, g in enumerate(G.gens):
            nm = m @ g
            if nm not in seen:
                seen.add(nm)
                queue.append((word + (j,), nm))
    if len(found) < decomposition.k:
        raise InvariantViolation(
            "group is not transitive on the parts despite irreducibility")
    return [found[i] for i in range(decomposition.k)]


def wreath_groups():
    from orthomono.group import PermGroup
    from orthomono.wreath import wreath_construct
    agl = {5: [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],
           7: [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)]}
    for F in (F3, F5, GF(3, 2)):
        for n in (5, 7):
            for K in (PermGroup.cyclic(n), PermGroup.dihedral(n),
                      PermGroup(n, agl[n])):
                space = unit_space(F, n)
                yield MatrixGroup(wreath_construct(K, space).group.gens,
                                  space=space), space
    # the block groups again, with their generators in another order
    for build in (deep_block_group, wreath_c5_group):
        G, space = build()
        yield MatrixGroup(G.gens[::-1], space=space), space


def test_coset_representatives_match_element_bfs(monkeypatch):
    calls = []
    real = monomial_mod._coset_representatives

    def compare(G, action):
        got = real(G, action)
        D = action.decomposition
        assert got == element_bfs_coset_representatives(G, D)
        calls.append(D.k)
        return got

    monkeypatch.setattr(monomial_mod, "_coset_representatives", compare)
    for build in (deep_block_group, wreath_c5_group):
        monomialize(*build())
    assert calls == [3, 3, 5]
    for G, space in wreath_groups():
        cert = monomialize(G, space)
        assert check_certificate(cert, G)
    assert len(calls) == 3 + 18 + 3


def test_orbit_stabilizer_check_runs_at_every_level(monkeypatch):
    # monomialize checks |H| k = |G| at every level, with |G| read from the
    # signed permutations of the level's certificate; it equals the order
    # of the level's closure, which no level builds
    checked = []
    levels_seen = []
    real_check = monomial_mod._check_orbit_stabilizer
    real_stab = monomial_mod.setwise_stabilizer

    def spy_check(H, k, images):
        checked.append((H.order * k, PermGroup.signed(images).order))
        return real_check(H, k, images)

    def spy_stab(G, action, i):
        levels_seen.append(G)
        return real_stab(G, action, i)

    monkeypatch.setattr(monomial_mod, "_check_orbit_stabilizer", spy_check)
    monkeypatch.setattr(monomial_mod, "setwise_stabilizer", spy_stab)
    for build, levels in ((deep_block_group, 2), (wreath_c5_group, 1)):
        checked.clear()
        levels_seen.clear()
        monomialize(*build())
        assert len(checked) == len(levels_seen) == levels
        assert all(G._closure is None for G in levels_seen)
        # innermost level first: the check runs once its images exist
        want = [G.order for G in reversed(levels_seen)]
        assert checked == [(order, order) for order in want]

    # a corrupted generator image (the sign change read as the identity)
    # fails the check
    real_images = monomial_mod._generator_images

    def corrupt(gens, rows, space):
        images = real_images(gens, rows, space)
        if len(rows) < 5:
            return images  # the lines of the level below
        perm, signs = images[1]
        return (images[0], (perm, (1,) * len(signs)))

    monkeypatch.setattr(monomial_mod, "_generator_images", corrupt)
    with pytest.raises(AlgebraError, match="Schreier generators"):
        monomialize(*wreath_c5_group())


def test_one_permutation_action_per_level(monkeypatch):
    # monomialize validates each level's decomposition once and hands the
    # action to setwise_stabilizer and _coset_representatives
    import orthomono.form as form_mod
    parts = []
    real = form_mod.validate_decomposition

    def counting(D, G):
        parts.append(D.k)
        return real(D, G)

    for mod in (form_mod, group_mod, monomial_mod):
        monkeypatch.setattr(mod, "validate_decomposition", counting)
    for build, levels in ((deep_block_group, [3, 3]), (wreath_c5_group, [5])):
        parts.clear()
        monomialize(*build())
        assert parts == levels
