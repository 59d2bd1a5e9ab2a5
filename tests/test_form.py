import itertools

import numpy as np
import pytest

from orthomono.errors import (
    CharacteristicTwo,
    DegenerateForm,
    EvenDimension,
    NotInvariant,
    TooLarge,
)
from orthomono.field import GF
from orthomono.form import (
    OrthoDecomposition,
    QuadraticSpace,
    all_ortho_line_decompositions,
    anisotropic_lines,
    diagonalize_scalar,
    is_isometry,
    radical,
    validate_decomposition,
)
from orthomono.linalg import Matrix, Subspace, vec

F3, F5, F7 = GF(3), GF(5), GF(7)


def unit_space(F, n):
    return QuadraticSpace(F, Matrix.identity(F, n))


class Gens:
    """Tiny stand-in for a matrix group: just carries generators."""

    def __init__(self, gens):
        self.gens = gens


CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_space_construction_guards():
    with pytest.raises(DegenerateForm):
        QuadraticSpace(F5, [[1, 0], [0, 0]])
    with pytest.raises(DegenerateForm):
        QuadraticSpace(F5, [[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(CharacteristicTwo):
        GF(2)  # char-2 fields cannot even be built
    s = QuadraticSpace(F5, [[1, 0], [0, 0]], allow_degenerate=True)
    assert radical(s).dim == 1


def test_radical_examples():
    assert radical(unit_space(F5, 3)).is_zero
    s = QuadraticSpace(F3, [[1, 0], [0, 0]], allow_degenerate=True)
    assert radical(s).dim == 1


def test_polarization_identity():
    # b(u,v) = (Q(u+v) - Q(u) - Q(v)) / 2 for the Gram convention
    s = QuadraticSpace(F5, [[1, 2], [2, 3]])
    F = F5
    inv2 = F.inv(2)
    for u in itertools.product(range(5), repeat=2):
        for v in itertools.product(range(5), repeat=2):
            uu, vv = vec(F, u), vec(F, v)
            lhs = s.bil(uu, vv)
            rhs = F.mul(inv2, F.sub(s.q_value(F.vadd(uu, vv)),
                                    F.add(s.q_value(uu), s.q_value(vv))))
            assert lhs == rhs


def test_is_isometry_basics():
    s = unit_space(F7, 3)
    assert is_isometry(Matrix.identity(F7, 3), s)
    assert is_isometry(Matrix.diag(F7, [6, 6, 6]), s)
    assert not is_isometry(Matrix.diag(F7, [2, 1, 1]), s)
    # over GF(3) the analogous diag(2,1,1) IS an isometry since 4 = 1
    assert is_isometry(Matrix.diag(F3, [2, 1, 1]), unit_space(F3, 3))


def test_isometry_group_property_sample():
    s = unit_space(F5, 3)
    perms = [Matrix(F5, CYCLE3), Matrix.diag(F5, [4, 1, 1])]
    for g in perms:
        assert is_isometry(g, s)
    for g in perms:
        for h in perms:
            assert is_isometry(g @ h, s)
        assert is_isometry(g.inverse(), s)


def test_diagonalize_scalar_identity():
    s = unit_space(F3, 3)
    P, c = diagonalize_scalar(s)
    assert P == Matrix.identity(F3, 3) and c.idx == 1


def test_diagonalize_scalar_nonsquare_class():
    # disc of diag(1,1,2) over GF(3) is the non-square class, so c = 2
    s = QuadraticSpace(F3, Matrix.diag(F3, [1, 1, 2]))
    P, c = diagonalize_scalar(s)
    assert c.idx == 2
    lhs = F3.mat_mul(F3.mat_mul(P.a.T, s.gram.a), P.a)
    assert np.array_equal(lhs, Matrix.diag(F3, [2, 2, 2]).a)
    assert P.det().idx != 0


def test_diagonalize_scalar_square_class():
    s = QuadraticSpace(F5, Matrix.diag(F5, [1, 4, 1]))
    P, c = diagonalize_scalar(s)
    assert c.idx == 1
    lhs = F5.mat_mul(F5.mat_mul(P.a.T, s.gram.a), P.a)
    assert np.array_equal(lhs, np.eye(3, dtype=np.int32))


def test_diagonalize_scalar_brute_force_oracle():
    # independent oracle at tiny size: some P in GL_3(3) with P^T B P scalar
    s = QuadraticSpace(F3, Matrix.diag(F3, [1, 1, 2]))
    found = None
    for entries in itertools.product(range(3), repeat=9):
        P = np.array(entries, dtype=np.int32).reshape(3, 3)
        lhs = F3.mat_mul(F3.mat_mul(P.T, s.gram.a), P)
        if np.array_equal(lhs, Matrix.diag(F3, [2, 2, 2]).a):
            found = P
            break
    assert found is not None  # oracle agrees a scalar form exists with c = 2


def test_diagonalize_scalar_general_gram():
    gram = Matrix(F7, [[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    s = QuadraticSpace(F7, gram)
    P, c = diagonalize_scalar(s)
    lhs = F7.mat_mul(F7.mat_mul(P.a.T, s.gram.a), P.a)
    assert np.array_equal(lhs, Matrix.diag(F7, [c.idx] * 3).a)


def test_diagonalize_scalar_even_dimension_rejected():
    with pytest.raises(EvenDimension):
        diagonalize_scalar(unit_space(F5, 2))


def test_validate_decomposition_trivial_action():
    s = unit_space(F5, 3)
    axes = [Subspace(F5, 3, [[1, 0, 0]]),
            Subspace(F5, 3, [[0, 1, 0]]),
            Subspace(F5, 3, [[0, 0, 1]])]
    D = OrthoDecomposition(s, axes)
    act = validate_decomposition(D, Gens([Matrix.diag(F5, [4, 4, 4])]))
    assert act.gen_perms == ((0, 1, 2),)


def test_validate_decomposition_cycle():
    s = unit_space(F5, 3)
    axes = [Subspace(F5, 3, [[1, 0, 0]]),
            Subspace(F5, 3, [[0, 1, 0]]),
            Subspace(F5, 3, [[0, 0, 1]])]
    D = OrthoDecomposition(s, axes)
    act = validate_decomposition(D, Gens([Matrix(F5, CYCLE3)]))
    (perm,) = act.gen_perms
    assert sorted(perm) == [0, 1, 2] and perm != (0, 1, 2)


def test_permutation_action_is_homomorphism():
    # pi_{gh} = pi_g composed after pi_h on all generator pairs
    from orthomono.group import orthogonal_group
    s = unit_space(F3, 3)
    G = orthogonal_group(s)
    axes = [Subspace(F3, 3, [[1, 0, 0]]),
            Subspace(F3, 3, [[0, 1, 0]]),
            Subspace(F3, 3, [[0, 0, 1]])]
    D = OrthoDecomposition(s, axes)
    for g in G.gens:
        for h in G.gens:
            pg, ph, pgh = validate_decomposition(D, Gens([g, h, g @ h])) \
                .gen_perms
            assert pgh == tuple(pg[ph[i]] for i in range(3))


def test_validate_decomposition_not_invariant():
    s = unit_space(F5, 3)
    axes = [Subspace(F5, 3, [[1, 0, 0]]),
            Subspace(F5, 3, [[0, 1, 0]]),
            Subspace(F5, 3, [[0, 0, 1]])]
    D = OrthoDecomposition(s, axes)
    shear = Matrix(F5, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInvariant):
        validate_decomposition(D, Gens([shear]))


def test_line_decompositions_dim1():
    s = QuadraticSpace(F5, [[2]])
    decs = all_ortho_line_decompositions(s)
    assert len(decs) == 1 and decs[0].k == 1


def brute_force_decompositions(space):
    """Independent oracle: choose n lines from the projective points,
    keep anisotropic pairwise-orthogonal spanning sets."""
    F = space.field
    n = space.n
    pts = []
    for v in itertools.product(range(F.q), repeat=n):
        w = vec(F, v)
        if not w.any():
            continue
        lead = next(int(x) for x in w if x != 0)
        if lead != 1:
            continue
        pts.append(w)
    good = [w for w in pts if space.q_value(w) != 0]
    out = []
    for combo in itertools.combinations(range(len(good)), n):
        ok = all(space.bil(good[i], good[j]) == 0
                 for i, j in itertools.combinations(combo, 2))
        if ok:
            rows = np.stack([good[i] for i in combo])
            if Subspace(F, n, rows).dim == n:
                out.append(frozenset(tuple(map(int, good[i]))
                                     for i in combo))
    return out


def test_line_decompositions_gf3_oracle():
    # 13 projective points of PG(2,3); the oracle finds the anisotropic
    # lines and the orthogonal triples among them
    s = unit_space(F3, 3)
    assert len(anisotropic_lines(s)) == 9
    oracle = brute_force_decompositions(s)
    assert len(oracle) == 4
    decs = all_ortho_line_decompositions(s)
    assert len(decs) == 4
    got = {frozenset(tuple(map(int, p.basis[0])) for p in D.parts)
           for D in decs}
    assert got == set(oracle)


def test_line_decompositions_gf5_oracle():
    s = unit_space(F5, 3)
    oracle = brute_force_decompositions(s)
    decs = all_ortho_line_decompositions(s)
    assert len(decs) == len(oracle)
    got = {frozenset(tuple(map(int, p.basis[0])) for p in D.parts)
           for D in decs}
    assert got == set(oracle)


def test_line_decompositions_validity_properties():
    s = unit_space(F5, 3)
    for D in all_ortho_line_decompositions(s):
        for i, p in enumerate(D.parts):
            assert s.q_value(p.basis[0]) != 0
            for q in D.parts[i + 1:]:
                assert s.bil(p.basis[0], q.basis[0]) == 0
        total = D.parts[0]
        for p in D.parts[1:]:
            total = total.sum_with(p)
        assert total.dim == 3


def test_line_decompositions_bound():
    with pytest.raises(TooLarge):
        all_ortho_line_decompositions(unit_space(F7, 3), bound=10)
