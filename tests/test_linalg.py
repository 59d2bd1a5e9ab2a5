import itertools

import numpy as np
import pytest

from orthomono.errors import NonSquare, NotGaloisStable
from orthomono.field import GF, Poly
from orthomono.linalg import (
    Matrix,
    Subspace,
    charpoly,
    eval_poly,
    extend_scalars,
    kernel,
    minpoly,
    primary_components,
    rational_form,
    rref,
    rref_array,
    vec,
)

F3, F5, F7 = GF(3), GF(5), GF(7)
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]  # e1 -> e2 -> e3 -> e1


def test_rref_identity():
    m, rank, piv = rref(Matrix.identity(F3, 3))
    assert m == Matrix.identity(F3, 3) and rank == 3 and piv == (0, 1, 2)


def test_rref_zero():
    m, rank, _ = rref(Matrix.zeros(F5, 2, 2))
    assert rank == 0 and m == Matrix.zeros(F5, 2, 2)


def test_rref_dependent_rows():
    m, rank, _ = rref(Matrix(F5, [[1, 2], [2, 4]]))
    assert rank == 1
    assert m.a.tolist() == [[1, 2], [0, 0]]


def row_at_a_time_rref(F, a):
    """Reference: Gauss-Jordan that clears each pivot column one row at a
    time (the elimination loop that rref_array replaced)."""
    a = a.astype(np.int32).copy()
    nrows, ncols = a.shape
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = F.inv(int(a[r, c]))
        if inv != 1:
            a[r] = F.vscale(inv, a[r])
        for i in range(nrows):
            if i != r and a[i, c] != 0:
                a[i] = F.vsub(a[i], F.vscale(int(a[i, c]), a[r]))
        piv.append(c)
        r += 1
        if r == nrows:
            break
    return a, r, tuple(piv)


@pytest.mark.parametrize("F", [F3, GF(3, 2), GF(3, 3)], ids=str)
def test_rref_array_matches_row_at_a_time_elimination(F):
    rng = np.random.default_rng(F.q)
    cases = [np.zeros((3, 4), dtype=np.int32), np.zeros((0, 3), np.int32)]
    for rows, cols in ((1, 1), (3, 3), (4, 7), (9, 9), (12, 5), (9, 81)):
        for _ in range(4):
            cases.append(rng.integers(0, F.q, (rows, cols)))
            # rank deficient: a product through a narrow middle, then a
            # zero column and a repeated row
            rank = int(rng.integers(0, min(rows, cols) + 1))
            low = F.mat_mul(rng.integers(0, F.q, (rows, rank)),
                            rng.integers(0, F.q, (rank, cols)))
            low[:, cols // 2] = 0
            cases.append(np.concatenate([low, low[:1]]))
    for a in cases:
        red, rank, piv = rref_array(F, a)
        want, want_rank, want_piv = row_at_a_time_rref(F, a)
        assert red.dtype == want.dtype
        assert np.array_equal(red, want)
        assert (rank, piv) == (want_rank, want_piv)


def test_rref_idempotent():
    rng = np.random.RandomState(7)
    for _ in range(20):
        m = Matrix(F7, rng.randint(0, 7, size=(4, 5)))
        r1 = rref(m)[0]
        assert rref(r1)[0] == r1


def test_rank_nullity():
    rng = np.random.RandomState(11)
    for F in (F3, F7):
        for _ in range(15):
            m = Matrix(F, rng.randint(0, F.p, size=(3, 4)))
            assert m.rank() + kernel(m).dim == m.cols


def test_kernel_trivial_cases():
    eye = Matrix.identity(F5, 3)
    assert kernel(eye - eye) == Subspace.whole(F5, 3)
    assert kernel(eye).is_zero


def test_kernel_eigenspace_oracle():
    # eigenspace of the 3-cycle for eigenvalue 2 over GF(7), checked against
    # brute force over all 343 vectors
    m = Matrix(F7, CYCLE3) - Matrix.diag(F7, [2, 2, 2])
    ker = kernel(m)
    brute = [v for v in itertools.product(range(7), repeat=3)
             if not m.apply(vec(F7, v)).any()]
    assert len(brute) == 7 ** ker.dim
    assert all(ker.contains_vec(vec(F7, v)) for v in brute)
    assert ker.dim == 1
    assert ker.basis.tolist() == [[1, 4, 2]]


def test_charpoly_companion():
    # companion matrix of x^3 - 1
    comp = Matrix(F7, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert charpoly(comp) == Poly(F7, (6, 0, 0, 1))


def test_charpoly_minpoly_minus_identity():
    m = Matrix.diag(F5, [4, 4, 4])  # -I
    assert charpoly(m) == Poly(F5, (1, 1)) * Poly(F5, (1, 1)) * Poly(F5, (1, 1))
    assert minpoly(m) == Poly(F5, (1, 1))


def test_charpoly_rotation():
    rot = Matrix(F3, [[0, 1], [-1, 0]])
    assert charpoly(rot) == Poly(F3, (1, 0, 1))


def test_cayley_hamilton_and_minpoly_divides():
    rng = np.random.RandomState(3)
    for F in (F3, F5):
        for _ in range(10):
            m = Matrix(F, rng.randint(0, F.p, size=(4, 4)))
            cp = charpoly(m)
            assert cp.degree == 4 and cp.is_monic
            assert eval_poly(cp, m) == Matrix.zeros(F, 4, 4)
            mp = minpoly(m)
            assert eval_poly(mp, m) == Matrix.zeros(F, 4, 4)
            assert (cp % mp).is_zero


def test_charpoly_nonsquare_rejected():
    with pytest.raises(NonSquare):
        charpoly(Matrix.zeros(F3, 2, 3))
    with pytest.raises(NonSquare):
        minpoly(Matrix.zeros(F3, 2, 3))
    with pytest.raises(NonSquare):
        primary_components(Matrix.zeros(F3, 2, 3))


def test_primary_components_cycle_mod7():
    comps = primary_components(Matrix(F7, CYCLE3))
    assert len(comps) == 3
    assert all(s.dim == 1 for _, s in comps)
    assert sorted(g.coeffs for g, _ in comps) == [(3, 1), (5, 1), (6, 1)]


def test_primary_components_cycle_mod5():
    m = Matrix(F5, CYCLE3)
    comps = primary_components(m)
    by_deg = sorted((g.degree, s.dim) for g, s in comps)
    assert by_deg == [(1, 1), (2, 2)]
    # the linear factor is x - 1 with fixed vector (1,1,1)
    lin = [s for g, s in comps if g.degree == 1][0]
    assert lin.basis.tolist() == [[1, 1, 1]]
    # invariance, independence, and full sum
    total = Subspace.zero(F5, 3)
    for _, s in comps:
        assert s.image(m) == s
        assert total.sum_with(s).dim == total.dim + s.dim
        total = total.sum_with(s)
    assert total == Subspace.whole(F5, 3)


def test_primary_components_identity():
    comps = primary_components(Matrix.identity(F5, 4))
    assert len(comps) == 1
    g, s = comps[0]
    assert g.coeffs == (4, 1) and s == Subspace.whole(F5, 4)


def test_extend_scalars_identity_and_charpoly():
    F9 = GF(3, 2)
    eye = Matrix.identity(F3, 3)
    assert extend_scalars(eye, F9) == Matrix.identity(F9, 3)
    rng = np.random.RandomState(5)
    for _ in range(5):
        m = Matrix(F3, rng.randint(0, 3, size=(3, 3)))
        cp_up = charpoly(extend_scalars(m, F9))
        cp = charpoly(m)
        assert cp_up == Poly(F9, cp.coeffs)  # coefficients are residues


def test_extend_scalars_dimension_preserved():
    F9 = GF(3, 2)
    s = Subspace(F3, 3, [[1, 2, 0]])
    up = extend_scalars(s, F9)
    assert up.dim == 1 and up.field == F9


def test_rational_form_full_space():
    F9 = GF(3, 2)
    s = Subspace.whole(F9, 2)
    down = rational_form(s, F3)
    assert down == Subspace.whole(F3, 2)
    assert extend_scalars(down, F9) == s


def test_rational_form_eigenpair_sum():
    F9 = GF(3, 2)
    rot = extend_scalars(Matrix(F3, [[0, 1], [-1, 0]]), F9)
    r = F9.encode((0, 1))
    wr = kernel(rot - Matrix.diag(F9, [r, r]))
    wmr = kernel(rot - Matrix.diag(F9, [F9.neg(r), F9.neg(r)]))
    assert wr.dim == wmr.dim == 1
    s = wr.sum_with(wmr)
    assert rational_form(s, F3) == Subspace.whole(F3, 2)


def test_rational_form_unstable_line_rejected():
    F9 = GF(3, 2)
    r = F9.encode((0, 1))
    s = Subspace(F9, 2, [[1, r]])
    with pytest.raises(NotGaloisStable):
        rational_form(s, F3)


def test_rational_form_round_trip_random():
    F9 = GF(3, 2)
    rng = np.random.RandomState(2)
    for _ in range(10):
        down = Subspace(F3, 4, rng.randint(0, 3, size=(2, 4)))
        up = extend_scalars(down, F9)
        assert rational_form(up, F3) == down


def test_rational_form_relative_extension():
    # descent from GF(81) to the intermediate field GF(9)
    F9, F81 = GF(3, 2), GF(3, 4)
    rng = np.random.RandomState(8)
    for _ in range(10):
        down = Subspace(F9, 3, rng.randint(0, 9, size=(2, 3)))
        up = extend_scalars(down, F81)
        back = rational_form(up, F9)
        assert back == down
    # a GF(81)-line outside GF(9) must be rejected
    moved = next(a for a in range(F81.q)
                 if F81.pow(a, 9) != a)
    s = Subspace(F81, 2, [[1, moved]])
    with pytest.raises(NotGaloisStable):
        rational_form(s, F9)


def test_matrix_inverse_and_det():
    m = Matrix(F7, [[1, 2, 0], [0, 1, 3], [1, 0, 2]])
    mi = m.inverse()
    assert (m @ mi).is_identity()
    assert m.det().idx != 0
    assert (m @ mi).det().idx == 1
    assert Matrix.diag(F7, [6, 6, 6]).det().idx == 6  # det(-I) = -1
