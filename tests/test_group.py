import itertools

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
)
from orthomono.group import (
    DEFAULT_BOUND,
    MatrixGroup,
    PermGroup,
    abelian_normal_term,
    center,
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


def test_center():
    G = orthogonal_group(unit_space(F3, 3))
    Z = center(G)
    assert Z.order == 2  # {I, -I}


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
    H = setwise_stabilizer(G, D, 0)
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
            H = setwise_stabilizer(G, D, i)
            orbit = {D.parts[i].image(g) for g in G.enumerate()}
            assert G.order == len(orbit) * H.order


def test_setwise_stabilizer_rejects_non_invariant():
    from orthomono.errors import NotInvariant
    space, D = axes_decomposition(F5, 3)
    G = orthogonal_group(space)
    with pytest.raises(NotInvariant):
        setwise_stabilizer(G, D, 0)


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


# -- reference: Dimino's coset closure, the matrix closure this package used
# before the batched breadth-first one, kept verbatim ---------------------

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
            with pytest.raises(BoundExceeded):
                closure(gens, bound=len(ref) - 1)
    # the cases reach cyclic, dihedral and whole orthogonal groups
    assert orders[:5] == [6, 12, 8, 240, 240]
    assert 31200 in orders
