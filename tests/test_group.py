import itertools
import random

import numpy as np
import pytest

from orthomono.errors import BoundExceeded, NotIsometry, TrivialGroup
from orthomono.field import GF
from orthomono import group
from orthomono.form import (
    OrthoDecomposition,
    QuadraticSpace,
    anisotropic_lines,
    is_isometry,
    validate_decomposition,
)
from orthomono.group import (
    DEFAULT_BOUND,
    MatrixGroup,
    PermGroup,
    abelian_normal_term,
    closure,
    derived_series,
    element_order,
    fixed_space,
    is_abelian,
    is_solvable,
    orthogonal_group,
    perm_image,
    perm_matrix,
    reduce_generators,
    reflection,
    setwise_stabilizer,
)
from orthomono.linalg import Matrix, Subspace
from orthomono.wreath import wreath_construct

F3, F5, F7 = GF(3), GF(5), GF(7)
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def unit_space(F, n):
    return QuadraticSpace(F, Matrix.identity(F, n))


def axes_decomposition(F, n):
    s = unit_space(F, n)
    eye = np.eye(n, dtype=np.int32)
    parts = [Subspace(F, n, eye[i].reshape(1, -1)) for i in range(n)]
    return s, OrthoDecomposition(s, parts)


def brute_force_o3_gf3():
    """Oracle: all of GL_3(3) filtered by g^T g = I."""
    eye = np.eye(3, dtype=np.int64)
    out = []
    for entries in itertools.product(range(3), repeat=9):
        m = np.array(entries, dtype=np.int64).reshape(3, 3)
        if np.array_equal((m.T @ m) % 3, eye):
            out.append(m)
    return out


def test_enumerate_small_groups():
    g = MatrixGroup([Matrix.diag(F5, [4, 4, 4])])
    assert g.order == 2
    c = MatrixGroup([Matrix(F5, CYCLE3)])
    assert c.order == 3


def test_enumerate_o33_against_brute_force():
    space = unit_space(F3, 3)
    G = orthogonal_group(space)
    oracle = brute_force_o3_gf3()
    assert G.order == len(oracle) == 48
    keys = {m.tobytes() for m in
            (np.array([e.a for e in G.enumerate()], dtype=np.int64))}
    assert keys == {m.astype(np.int64).tobytes() for m in oracle}


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        MatrixGroup([Matrix(F7, CYCLE3)], bound=2).enumerate()


def test_attached_space_forces_isometries():
    space = unit_space(F7, 3)
    with pytest.raises(NotIsometry):
        MatrixGroup([Matrix.diag(F7, [2, 1, 1])], space=space)


def test_every_enumerated_element_is_isometry():
    space = unit_space(F5, 3)
    G = orthogonal_group(space)
    assert all(is_isometry(g, space) for g in G.enumerate())


def s3_matrix_group(F):
    return MatrixGroup([Matrix(F, CYCLE3),
                        perm_matrix(F, (1, 0, 2))])


def test_derived_series_s3():
    G = s3_matrix_group(F5)
    orders = [t.order for t in derived_series(G)]
    assert orders == [6, 3, 1]
    assert is_solvable(G)


def test_derived_series_abelian():
    G = MatrixGroup([Matrix.diag(F5, [4, 4, 4]), Matrix.diag(F5, [1, 4, 4])])
    assert is_abelian(G)
    assert [t.order for t in derived_series(G)] == [G.order, 1]


def test_so35_not_solvable():
    # derived series of SO_3(5), enumerated via O_3(5) and the det-1 filter
    space = unit_space(F5, 3)
    O = orthogonal_group(space)
    assert O.order == 240
    so = [g for g in O.enumerate() if g.det().idx == 1]
    assert len(so) == 120
    G = MatrixGroup(reduce_generators(so, O.identity), space=space)
    assert G.order == 120
    assert not is_solvable(G)


def test_derived_series_terms_normal():
    G = s3_matrix_group(F7)
    for term in derived_series(G):
        for g in G.gens:
            gi = g.inverse()
            for t in term.gens:
                assert (g @ t @ gi) in term


def test_det_and_element_order():
    assert Matrix.diag(F7, [6, 6, 6]).det().idx == 6  # det(-I) = -1, n odd
    assert element_order(Matrix(F7, CYCLE3)) == 3
    assert is_solvable(orthogonal_group(unit_space(F3, 3)))


def test_abelian_normal_term_s3():
    G = s3_matrix_group(F5)
    L = abelian_normal_term(G)
    assert L.order == 3
    assert is_abelian(L)


def test_abelian_normal_term_abelian_group():
    G = MatrixGroup([Matrix.diag(F5, [4, 1, 1])])
    assert abelian_normal_term(G).order == G.order


def test_abelian_normal_term_o33_determinants():
    G = orthogonal_group(unit_space(F3, 3))
    L = abelian_normal_term(G)
    assert L.order > 1
    assert all(g.det().idx == 1 for g in L.enumerate())
    # conjugation-normality inside G
    for g in G.gens:
        gi = g.inverse()
        for t in L.gens:
            assert (g @ t @ gi) in L


def test_abelian_normal_term_trivial_rejected():
    with pytest.raises(TrivialGroup):
        abelian_normal_term(MatrixGroup.trivial(F5, 2))


def test_fixed_space_cases():
    triv = MatrixGroup.trivial(F5, 3)
    assert fixed_space(triv).dim == 3
    minus = MatrixGroup([Matrix.diag(F5, [4, 4, 4])])
    assert fixed_space(minus).is_zero
    unip = MatrixGroup([Matrix(F3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])
    assert fixed_space(unip).dim >= 1


def test_setwise_stabilizer_o33():
    space, D = axes_decomposition(F3, 3)
    G = orthogonal_group(space)
    H = setwise_stabilizer(G, validate_decomposition(D, G), 0)
    assert H.order == 16  # 48 / 3 by orbit-stabilizer
    part = D.parts[0]
    assert all(part.image(g) == part for g in H.enumerate())


def test_orbit_stabilizer_property():
    # O_3(3) preserves the axes decomposition; over GF(5) use the
    # signed-permutation subgroup (the full O_3(5) moves the axes around)
    cases = []
    space3, D3 = axes_decomposition(F3, 3)
    cases.append((orthogonal_group(space3), D3))
    space5, D5 = axes_decomposition(F5, 3)
    wreathish = MatrixGroup(
        [Matrix(F5, CYCLE3), Matrix.diag(F5, [4, 1, 1])], space=space5)
    cases.append((wreathish, D5))
    for G, D in cases:
        for i in range(D.k):
            H = setwise_stabilizer(G, validate_decomposition(D, G), i)
            orbit = {D.parts[i].image(g) for g in G.enumerate()}
            assert G.order == len(orbit) * H.order


def every_element_stabilizer(G, D, i):
    """Reference: the stabilizer of part i filtered from every element of
    G, as (greedy generators, order); the enumerating path that the
    Schreier generators replaced."""
    part = D.parts[i]
    stab = [g for g in G.enumerate() if part.image(g) == part]
    return reduce_generators(stab, G.identity) or [G.identity], len(stab)


# AGL(1, p) on Z/p: x -> x + 1 and x -> a x, a a primitive root
AGL = {5: [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],
       7: [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)]}
WREATH_FIELDS = [F3, F5, GF(3, 2)]


def wreath_on_axes(F, n, kind):
    """The signed permutations over C_n, D_n or AGL(1, n), as a fresh
    (not yet enumerated) MatrixGroup, with the axes decomposition."""
    K = {"C": PermGroup.cyclic(n), "D": PermGroup.dihedral(n),
         "AGL": PermGroup(n, AGL[n])}[kind]
    space, D = axes_decomposition(F, n)
    gens = wreath_construct(K, space).group.gens
    return MatrixGroup(gens, space=space), D


def stabilizer_cases():
    cases = []
    space3, D3 = axes_decomposition(F3, 3)
    cases.append((orthogonal_group(space3), D3))
    space5, D5 = axes_decomposition(F5, 3)
    cases.append((MatrixGroup([Matrix(F5, CYCLE3), Matrix.diag(F5, [4, 1, 1])],
                              space=space5), D5))
    cases.append((MatrixGroup([Matrix(F7, CYCLE3)], space=unit_space(F7, 3)),
                  axes_decomposition(F7, 3)[1]))
    return cases


def test_stabilizer_matches_every_element_filter_on_test_groups():
    for G, D in stabilizer_cases():
        for i in range(D.k):
            gens, order = every_element_stabilizer(G, D, i)
            H = setwise_stabilizer(G, validate_decomposition(D, G), i)
            assert H.gens == gens
            assert H.order == order


@pytest.mark.parametrize("F", WREATH_FIELDS, ids=str)
@pytest.mark.parametrize("n, kind", [(5, "C"), (5, "D"), (5, "AGL"),
                                     (7, "C"), (7, "D"), (7, "AGL")])
def test_stabilizer_matches_every_element_filter_on_wreaths(F, n, kind):
    G, D = wreath_on_axes(F, n, kind)
    for i in (0, n - 1):
        gens, order = every_element_stabilizer(G, D, i)
        H = setwise_stabilizer(G, validate_decomposition(D, G), i)
        assert H.gens == gens
        assert H.order == order == G.order // n


def test_stabilizer_reads_generators_only(monkeypatch):
    G, D = wreath_on_axes(F5, 5, "AGL")
    want = every_element_stabilizer(*wreath_on_axes(F5, 5, "AGL"), 2)[0]

    def refuse():
        raise AssertionError("setwise_stabilizer enumerated G")

    monkeypatch.setattr(G, "enumerate", refuse)
    action = validate_decomposition(D, G)
    assert setwise_stabilizer(G, action, 2).gens == want


def test_setwise_stabilizer_rejects_non_invariant():
    from orthomono.errors import NotInvariant
    space, D = axes_decomposition(F5, 3)
    G = orthogonal_group(space)
    # the stabilizer reads the parts' permutations, which exist only for
    # an invariant decomposition
    with pytest.raises(NotInvariant):
        setwise_stabilizer(G, validate_decomposition(D, G), 0)


def test_perm_image_examples():
    space, D = axes_decomposition(F5, 3)
    minus = MatrixGroup([Matrix.diag(F5, [4, 4, 4])], space=space)
    img = perm_image(minus, D)
    assert img.order == 1 and not img.is_transitive
    cyc = MatrixGroup([Matrix(F5, CYCLE3)], space=space)
    img = perm_image(cyc, D)
    assert img.order == 3 and img.is_transitive
    G = orthogonal_group(unit_space(F3, 3))
    space3, D3 = axes_decomposition(F3, 3)
    img = perm_image(G, D3)
    assert img.order == 6 and img.is_transitive


def test_perm_group_basics():
    s5 = PermGroup.symmetric(5)
    assert s5.order == 120
    assert not s5.is_solvable()
    s3 = PermGroup.symmetric(3)
    assert s3.order == 6 and s3.is_solvable()
    c7 = PermGroup.cyclic(7)
    assert c7.order == 7 and c7.is_transitive and c7.is_solvable()
    d5 = PermGroup.dihedral(5)
    assert d5.order == 10 and d5.is_solvable()
    assert not PermGroup(4, [(1, 0, 2, 3)]).is_transitive
    assert PermGroup.symmetric(1).is_solvable()
    assert PermGroup.symmetric(4).is_solvable()
    a5 = PermGroup(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert a5.order == 60 and not a5.is_solvable()
    assert not PermGroup.symmetric(6).is_solvable()


# -- reference: Dimino's coset closure one element at a time, the matrix
# closure this package used before the batched ones, kept verbatim ---------

def dimino(gens, identity, bound=DEFAULT_BOUND):
    """Full element list of <gens> by Dimino's inductive coset algorithm.

    Elements must be hashable and support @ for the group operation.
    """
    elements = [identity]
    index = {identity}

    def push(x):
        elements.append(x)
        index.add(x)
        if len(elements) > bound:
            raise BoundExceeded(f"group exceeds bound {bound}")

    if not gens:
        return elements
    g = gens[0]
    x = g
    while x != identity:
        push(x)
        x = x @ g
    for i in range(1, len(gens)):
        s = gens[i]
        if s in index:
            continue
        # right cosets H y of the previous subgroup H: testing the leader's
        # products y t suffices since (h y) t = h (y t) stays in H (y t)
        prev_order = len(elements)
        push(s)
        for j in range(1, prev_order):
            push(elements[j] @ s)
        rep_pos = prev_order
        while rep_pos < len(elements):
            rep = elements[rep_pos]
            for t in gens[:i + 1]:
                y = rep @ t
                if y not in index:
                    push(y)
                    for j in range(1, prev_order):
                        push(elements[j] @ y)
            rep_pos += prev_order
    return elements


def closure_cases():
    """(field, generator list) pairs: the cyclic group of the rotation of
    largest order among R_0 R_i (i <= 81), the dihedral group <R_0, R_i>,
    three reflections, three reflections generating all of O_3(q) except for
    q = 7, and every reflection (all 625 over GF(25) would take tens of
    seconds)."""
    for F in (F5, F7, GF(3, 2), GF(5, 2)):
        R = [reflection(unit_space(F, 3), v)
             for v in anisotropic_lines(unit_space(F, 3))]
        i = max(range(1, min(len(R), 82)),
                key=lambda i: element_order(R[0] @ R[i]))
        yield F, [R[0] @ R[i]]
        yield F, [R[0], R[i]]
        yield F, R[:3]
        yield F, [R[0], R[i], R[-1]]
        if F.q < 25:
            yield F, R


def test_closure_matches_dimino(monkeypatch):
    blocks = (group.BLOCK, 64)
    orders = []
    for F, gens in closure_cases():
        eye = Matrix.identity(F, 3)
        ref = dimino(gens, eye)
        orders.append(len(ref))
        # a block of 64 products slices every generation of more than 64
        # products (O_3(25) is sliced at the full block size too)
        for block in blocks:
            monkeypatch.setattr(group, "BLOCK", block)
            G = MatrixGroup(gens, bound=len(ref))
            assert G.elements == (eye,) + tuple(
                sorted(ref[1:], key=lambda m: m._key))
            seen = closure(gens, bound=len(ref))
            assert set(seen) == {m._key[2] for m in ref}
            assert all(key == m.tobytes() for key, m in seen.items())
            assert next(iter(seen)) == eye._key[2]
            # the element set does not depend on the generator order
            for order in (gens[::-1], gens[1:] + gens[:1]):
                assert set(closure(order, bound=len(ref))) == set(seen)
            with pytest.raises(BoundExceeded):
                closure(gens, bound=len(ref) - 1)
    # the cases reach cyclic, dihedral and whole orthogonal groups
    assert orders[:5] == [6, 12, 8, 240, 240]
    assert 31200 in orders


def test_orthogonal_order_matches_enumeration():
    for F, gram in ((F3, [1, 1, 1]), (F3, [1, 1, 2]), (F5, [1, 1, 1]),
                    (F5, [2, 1, 1]), (F7, [1, 1, 1]), (GF(3, 2), [1, 1, 1]),
                    (F5, [3])):
        space = QuadraticSpace(F, Matrix.diag(F, gram))
        order = group.orthogonal_order(space.n, F.q)
        assert orthogonal_group(space).order == order
        assert orthogonal_group(space, bound=order).order == order


def test_orthogonal_group_over_the_bound_builds_no_reflection(monkeypatch):
    def refuse(space, v):
        raise AssertionError("a reflection was built")

    monkeypatch.setattr(group, "reflection", refuse)
    with pytest.raises(BoundExceeded, match="^group exceeds bound 254$"):
        orthogonal_group(unit_space(GF(3, 2), 5), bound=254)
    with pytest.raises(BoundExceeded, match="^group exceeds bound 47$"):
        orthogonal_group(unit_space(F3, 3), bound=47)


# -- reference: the enumerating derived series that membership replaced,
# kept verbatim: each term is the conjugation closure of the generator
# commutators, reduced greedily over its sorted elements ---------------------

def commutator(a, b):
    return a.inverse() @ b.inverse() @ a @ b


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


def enumerating_derived_series(G):
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


def series_cases():
    space3 = unit_space(F3, 3)
    yield s3_matrix_group(F5)
    yield s3_matrix_group(F7)
    yield MatrixGroup([Matrix.diag(F5, [4, 4, 4]), Matrix.diag(F5, [1, 4, 4])])
    yield MatrixGroup([Matrix(F7, CYCLE3)], space=unit_space(F7, 3))
    yield MatrixGroup.trivial(F5, 3)
    yield MatrixGroup(orthogonal_group(space3).gens, space=space3)
    for G, _ in stabilizer_cases():
        yield MatrixGroup(G.gens, space=G.space)
    # not solvable: S_5 on coordinates, and SO_3(5) (both stop at A_5)
    yield MatrixGroup([perm_matrix(F3, g)
                       for g in PermGroup.symmetric(5).gens])
    O = orthogonal_group(unit_space(F5, 3))
    so = [g for g in O.enumerate() if g.det().idx == 1]
    yield MatrixGroup(reduce_generators(so, O.identity))


def assert_same_series(G):
    ref = enumerating_derived_series(MatrixGroup(G.gens, space=G.space))
    got = derived_series(G)
    assert len(got) == len(ref)
    for term, want in zip(got, ref):
        assert set(term.elements) == set(want.elements)
    return got


def test_derived_series_matches_enumerating_series_on_test_groups():
    stopped = []
    for G in series_cases():
        series = assert_same_series(G)
        stopped.append(series[-1].order)
    assert stopped[-2:] == [60, 60]  # stabilized at A_5
    assert stopped[:-2] == [1] * (len(stopped) - 2)


@pytest.mark.parametrize("F", WREATH_FIELDS, ids=str)
@pytest.mark.parametrize("n, kind", [(5, "C"), (5, "D"), (5, "AGL"),
                                     (7, "C"), (7, "D"), (7, "AGL")])
def test_derived_series_matches_enumerating_series_on_wreaths(F, n, kind):
    series = assert_same_series(wreath_on_axes(F, n, kind)[0])
    assert series[-1].order == 1


def test_derived_series_sorts_no_element_list(monkeypatch):
    G, _ = wreath_on_axes(GF(3, 2), 5, "AGL")
    want = [t.order for t in enumerating_derived_series(
        wreath_on_axes(GF(3, 2), 5, "AGL")[0])]

    def refuse(*args):
        raise AssertionError("a sorted element list was built")

    monkeypatch.setattr(MatrixGroup, "enumerate", refuse)
    series = derived_series(G)
    assert [t.order for t in series] == want
    # each term keeps the closure it was built with
    monkeypatch.setattr(group, "closure", refuse)
    assert [t.order for t in series] == want


def test_membership_checks_field_and_shape():
    G = s3_matrix_group(F7)
    m = Matrix(F7, CYCLE3)
    assert m in G
    assert Matrix(F5, CYCLE3) not in G
    assert Matrix.identity(F7, 2) not in G
    assert CYCLE3 not in G
    assert Matrix(F7, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]) not in G


def test_stabilizer_keeps_the_closure_of_its_reduction(monkeypatch):
    G, D = wreath_on_axes(F5, 5, "AGL")
    H = setwise_stabilizer(G, validate_decomposition(D, G), 1)

    def refuse(*args, **kwargs):
        raise AssertionError("H was closed again")

    monkeypatch.setattr(group, "closure", refuse)
    assert H.order == 2 ** 5 * 20 // 5


def test_orbit_stabilizer_check_reads_the_closure_of_g(monkeypatch):
    # |H| k = |G| is checked against the |G| that the certificate's signed
    # permutations give, not against a closure of G: a stabilizer closure
    # one element short fails it, and G is closed by nobody
    import orthomono.monomial as monomial_mod
    G, D = wreath_on_axes(F3, 5, "C")
    action = validate_decomposition(D, G)
    assert setwise_stabilizer(G, action, 0).order == 2 ** 5 * 5 // 5
    real = monomial_mod.setwise_stabilizer

    def short(G, action, i):
        H = real(G, action, i)
        H._closure = dict(list(H._closure.items())[:-1])
        return H

    monkeypatch.setattr(monomial_mod, "setwise_stabilizer", short)
    with pytest.raises(group.AlgebraError, match="Schreier generators"):
        monomial_mod.monomialize(G, G.space)
    monkeypatch.setattr(monomial_mod, "setwise_stabilizer", real)
    assert monomial_mod.monomialize(G, G.space).n == 5
    assert G._closure is None
    assert G.order == 2 ** 5 * 5


def random_generator_lists(F, rng, lists=3, length=4):
    """Lists of reflections and products of two reflections of the unit
    form on F^3, drawn by `rng`."""
    R = [reflection(unit_space(F, 3), v)
         for v in anisotropic_lines(unit_space(F, 3))]
    for _ in range(lists):
        yield [rng.choice(R) @ rng.choice(R) if rng.random() < 0.5
               else rng.choice(R) for _ in range(length)]


@pytest.mark.parametrize("F", [F3, GF(3, 2), GF(5, 2)], ids=str)
def test_extension_matches_closure_from_scratch(F):
    # extending the closure of a prefix by the next generator gives the
    # closure of the longer prefix, closed from scratch in reverse order
    rng = random.Random(f"extend {F}")
    for gens in random_generator_lists(F, rng):
        c = group._Closure(F, 3, DEFAULT_BOUND)
        for k, g in enumerate(gens, 1):
            c.extend(g.a)
            span = c.span()
            want = closure(gens[:k][::-1])
            assert set(span) == set(want)
            assert all(key == m.tobytes() for key, m in span.items())
            assert all(g._key[2] in c for g in gens[:k])


def test_bound_is_crossed_inside_an_extension():
    # <R_0, R_i> is closed within the bound; extending it by a third
    # reflection would add its cosets past the bound, and the set never
    # exceeds the bound
    F = F5
    R = [reflection(unit_space(F, 3), v)
         for v in anisotropic_lines(unit_space(F, 3))]
    i = max(range(1, len(R)), key=lambda i: element_order(R[0] @ R[i]))
    a, b, c = R[0], R[i], R[-1]
    h = len(closure([a, b]))
    assert h < len(closure([a, b, c])) == 240
    bound = 2 * h + 1  # room for one coset of <a, b> besides itself
    grown = group._Closure(F, 3, bound)
    grown.extend(a.a)
    grown.extend(b.a)
    assert len(grown) == h
    with pytest.raises(BoundExceeded, match=f"^group exceeds bound {bound}$"):
        grown.extend(c.a)
    assert len(grown) == 2 * h  # the coset <a, b> c went in first
    with pytest.raises(BoundExceeded, match=f"^group exceeds bound {bound}$"):
        closure([a, b, c], bound=bound)


def test_reduction_and_derived_series_extend_one_closed_set(monkeypatch):
    # each kept generator extends the closure so far; closure() runs for
    # no group, G included: triviality is read from the generators
    G, _ = wreath_on_axes(F5, 5, "AGL")
    elements = list(G.enumerate())
    calls = []
    real = group.closure

    def counting(gens, bound=DEFAULT_BOUND):
        calls.append(len(gens))
        return real(gens, bound)

    monkeypatch.setattr(group, "closure", counting)
    small = reduce_generators(elements, G.identity)
    assert len(small) > 1 and calls == []
    fresh = MatrixGroup(G.gens, space=G.space)
    series = derived_series(fresh)
    assert calls == [] and fresh._closure is None
    assert sum(len(t.gens) for t in series[1:]) > len(series) - 1
    assert series[-1].is_trivial and series[-1].order == 1
    assert [t.order for t in series[1:]] == \
        [len(real(t.gens)) for t in series[1:]]


def test_o53_from_all_reflections():
    space = unit_space(F3, 5)
    R = [reflection(space, v) for v in anisotropic_lines(space)]
    assert len(R) == 81
    assert len(closure(R)) == group.orthogonal_order(5, 3) == 103680
