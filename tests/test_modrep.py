import contextlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthomono.errors import (
    NotAbelian,
    NotCoprime,
    NotSemisimple,
    ParityViolation,
    ZeroVector,
)
from orthomono.field import GF, poly_factor
from orthomono.form import QuadraticSpace
from orthomono import modrep
from orthomono.group import MatrixGroup, PermGroup, closure, \
    derived_series, is_abelian, orthogonal_group, perm_matrix, sorted_elements
from orthomono.linalg import (
    Matrix,
    Subspace,
    charpoly,
    eval_poly,
    extend_scalars,
    kernel,
    minpoly,
    primary_components,
    projective_lines,
    restrict_matrix,
    vec,
)
from orthomono.modrep import (
    AlgebraSpan,
    eigen_analysis,
    fixed_line_table,
    homogeneous_components,
    homogeneous_components_split,
    is_irreducible,
    pairing_check,
    spin,
    zalesski_dichotomy_check,
)
from orthomono.tablegrp import CayleyTable
from orthomono.wreath import wreath_construct

F3, F5, F7 = GF(3), GF(5), GF(7)
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def unit_space(F, n):
    return QuadraticSpace(F, Matrix.identity(F, n))


def diag_sign_group(F, n):
    gens = []
    for i in range(n):
        d = [1] * n
        d[i] = -1
        gens.append(Matrix.diag(F, d))
    return MatrixGroup(gens)


# --- spin -----------------------------------------------------------------


def test_spin_irreducible_gives_whole():
    G = orthogonal_group(unit_space(F3, 3))
    for v in ([1, 0, 0], [1, 1, 0], [1, 2, 2]):
        assert spin(vec(F3, v), G).dim == 3


def test_spin_diagonal_group_fixes_axis():
    G = diag_sign_group(F5, 3)
    s = spin(vec(F5, [1, 0, 0]), G)
    assert s == Subspace(F5, 3, [[1, 0, 0]])


def test_spin_fixed_vector():
    G = MatrixGroup([Matrix(F5, CYCLE3)])
    s = spin(vec(F5, [1, 1, 1]), G)
    assert s.dim == 1


def test_spin_zero_vector_rejected():
    G = MatrixGroup([Matrix(F5, CYCLE3)])
    with pytest.raises(ZeroVector):
        spin(vec(F5, [0, 0, 0]), G)


def test_spin_minimality_exhaustive():
    # every invariant subspace containing v contains spin(v): check against
    # the full lattice of invariant subspaces of a small reducible action
    G = MatrixGroup([Matrix(F3, CYCLE3)])
    from orthomono.linalg import projective_lines
    all_lines = projective_lines(F3, 3)
    spins = {tuple(map(int, v)): spin(v, G) for v in all_lines}
    for v, sv in spins.items():
        for g in G.gens:
            assert sv.image(g) == sv
        for w, sw in spins.items():
            if sw.contains_vec(vec(F3, list(v))):
                assert sw.contains(sv)


# --- irreducibility -----------------------------------------------------------


def test_is_irreducible_plus_minus_identity():
    G = MatrixGroup([Matrix.diag(F3, [2, 2, 2])])
    res = is_irreducible(G)
    assert not res
    assert res.witness == Subspace(F3, 3, [[1, 0, 0]])


def test_is_irreducible_o33():
    assert is_irreducible(orthogonal_group(unit_space(F3, 3)))


def test_is_irreducible_cycle_witness():
    G = MatrixGroup([Matrix(F5, CYCLE3)])
    res = is_irreducible(G)
    assert not res
    # the deterministic line sweep finds the 2-dim invariant complement of
    # span((1,1,1)) first; any proper invariant witness is valid
    assert 0 < res.witness.dim < 3
    fixed = Subspace(F5, 3, [[1, 1, 1]])
    assert res.witness == fixed or res.witness.dim == 2


def test_is_irreducible_witness_is_invariant():
    for G in (MatrixGroup([Matrix(F5, CYCLE3)]),
              diag_sign_group(F5, 3),
              MatrixGroup([Matrix.diag(F3, [2, 2, 2])])):
        res = is_irreducible(G)
        assert not res
        for g in G.gens:
            assert res.witness.image(g) == res.witness


def test_is_irreducible_dim1():
    assert is_irreducible(MatrixGroup([Matrix(F5, [[4]])]))


def _exhaustive_irreducible(G):
    """Reference verdict: spin every line of the module."""
    from orthomono.linalg import projective_lines
    return all(spin(v, G).dim == G.dim
               for v in projective_lines(G.field, G.dim))


def test_is_irreducible_matches_exhaustive_reference():
    from orthomono.group import perm_matrix
    catalog = [
        orthogonal_group(unit_space(F3, 3)),
        MatrixGroup([Matrix(F5, CYCLE3)]),
        MatrixGroup([Matrix(F5, CYCLE3), perm_matrix(F5, (1, 0, 2))]),
        MatrixGroup([Matrix(F5, CYCLE3), Matrix.diag(F5, [4, 1, 1])]),
        diag_sign_group(F5, 3),
        diag_sign_group(F7, 3),
        MatrixGroup([Matrix(F7, CYCLE3), Matrix.diag(F7, [6, 1, 1])]),
        MatrixGroup([Matrix.diag(F3, [2, 2, 2])]),
        MatrixGroup([Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 1]])]),
        MatrixGroup([perm_matrix(F5, (1, 2, 3, 4, 0)),
                     Matrix.diag(F5, [4, 1, 1, 1, 1])]),
    ]
    for G in catalog:
        assert bool(is_irreducible(G)) == _exhaustive_irreducible(G)


# --- the Holt-Rees pass -----------------------------------------------------


def has_nullity_one_word(G):
    return any(kernel(a).dim == 1 for a in modrep._word_candidates(G.gens))


def decisive_null_space(G):
    """The null space that `is_irreducible` spins: of the first nullity-one
    word, else of the first word and irreducible characteristic factor f
    with nullity deg f.  None when no word has one, and only the line
    sweep decides."""
    for a in modrep._word_candidates(G.gens):
        if kernel(a).dim == 1:
            return kernel(a)
    for a in modrep._word_candidates(G.gens):
        for f, _ in poly_factor(charpoly(a)):
            if kernel(eval_poly(f, a)).dim == f.degree:
                return kernel(eval_poly(f, a))
    return None


def signed_perm(F, perm, signs):
    """The matrix e_i -> signs[i] e_perm[i]."""
    return perm_matrix(F, perm) @ Matrix.diag(F, [s % F.p for s in signs])


def wreath_pair(F, K, seed):
    """A fixed search for two elements of 2^n:K that generate it and have
    no nullity-one word, like the benchmark's random generator pairs."""
    W = wreath_construct(K, unit_space(F, K.degree)).group
    elements = W.enumerate()
    rng = random.Random(seed)
    while True:
        G = MatrixGroup(rng.sample(elements, 2))
        if not has_nullity_one_word(G) and G.order == W.order:
            return G


def signed_pairs(F, n, seed, irreducible):
    """Signed-permutation pairs with no nullity-one word and the given
    verdict of the exhaustive reference, by a fixed search."""
    rng = random.Random(seed)
    while True:
        G = MatrixGroup([
            signed_perm(F, rng.sample(range(n), n),
                        [rng.choice((1, -1)) for _ in range(n)])
            for _ in range(2)])
        if not has_nullity_one_word(G) and \
                _exhaustive_irreducible(G) == irreducible:
            yield G


def doubled(F, blocks):
    """diag(b, b) for each block b.  For every word theta and irreducible
    f, ker f(theta) is a doubled sum of copies of an F[x]/(f)-module, so
    its dimension is never deg f."""
    d = len(blocks[0])
    out = []
    for b in blocks:
        a = np.zeros((2 * d, 2 * d), dtype=np.int32)
        a[:d, :d] = a[d:, d:] = b
        out.append(Matrix(F, a))
    return MatrixGroup(out)


def holt_rees_catalog():
    """(group, irreducible) pairs, none with a nullity-one word."""
    F9 = GF(3, 2)
    irreducible = [wreath_pair(F5, PermGroup.dihedral(5), 1),
                   wreath_pair(F9, PermGroup.symmetric(3), 1),
                   wreath_pair(F9, PermGroup.cyclic(3), 2)]
    irreducible += [next(signed_pairs(F, n, 3, True))
                    for F, n in ((F3, 5), (F9, 3))]
    reducible = [next(signed_pairs(F, n, 4, False))
                 for F, n in ((F3, 5), (F5, 3), (F5, 5), (F9, 3))]
    return [(G, True) for G in irreducible] + \
        [(G, False) for G in reducible]


@pytest.fixture(scope="module")
def catalog():
    return holt_rees_catalog()


def test_holt_rees_matches_exhaustive_reference(catalog):
    assert len(catalog) == 9
    for G, irreducible in catalog:
        assert not has_nullity_one_word(G)
        assert decisive_null_space(G) is not None
        assert _exhaustive_irreducible(G) == irreducible
        res = is_irreducible(G)
        assert bool(res) == irreducible
        if not irreducible:
            assert 0 < res.witness.dim < G.dim
            for g in G.gens:
                assert res.witness.image(g) == res.witness


def test_irreducible_inputs_decide_without_the_line_sweep(monkeypatch,
                                                         catalog):
    def refuse(*args):
        raise AssertionError("the line sweep ran")

    monkeypatch.setattr(modrep, "projective_lines", refuse)
    for G, irreducible in catalog:
        assert bool(is_irreducible(G)) == irreducible


def test_transposed_spin_finds_what_the_first_spin_misses():
    # non-split extensions whose decisive null vector generates everything:
    # only the annihilator of the submodule, spun under the transposed
    # generators, shows the reducibility
    cases = [
        # upper triangular over GF(5): Norton's case f = x, from g + h
        (MatrixGroup([Matrix(F5, [[3, 1], [0, 1]]),
                      Matrix(F5, [[1, 4], [0, 4]])]), True),
        # 1 + 2 block triangular over GF(3): f of degree one
        (MatrixGroup([Matrix(F3, [[1, 2, 1], [0, 1, 0], [0, 0, 2]]),
                      Matrix(F3, [[1, 0, 0], [0, 0, 1], [0, 2, 2]])]), False),
        # 2 + 2 block triangular over GF(3): f = x^2 + 2x + 2
        (MatrixGroup([Matrix(F3, [[1, 0, 1, 2], [0, 1, 2, 0],
                                  [0, 0, 0, 1], [0, 0, 1, 1]]),
                      Matrix(F3, [[2, 2, 0, 1], [2, 1, 1, 0],
                                  [0, 0, 2, 2], [0, 0, 0, 1]])]), False),
    ]
    for G, nullity_one in cases:
        assert has_nullity_one_word(G) == nullity_one
        assert spin(decisive_null_space(G).basis[0], G).dim == G.dim
        assert not _exhaustive_irreducible(G)
        res = is_irreducible(G)
        assert not res
        assert 0 < res.witness.dim < G.dim
        for g in G.gens:
            assert res.witness.image(g) == res.witness
    assert is_irreducible(cases[0][0]).witness == Subspace(F5, 2, [[1, 0]])


@contextlib.contextmanager
def counted_sweeps():
    """Records each call of the line sweep's `projective_lines`."""
    calls = []
    real = modrep.projective_lines

    def counting(*args):
        calls.append(args)
        return real(*args)

    modrep.projective_lines = counting
    try:
        yield calls
    finally:
        modrep.projective_lines = real


def test_line_sweep_runs_only_without_a_holt_rees_factor(catalog):
    rotation = [[0, 1], [2, 0]]
    no_factor = [
        MatrixGroup([Matrix.diag(F3, [2, 2, 2])]),
        MatrixGroup([Matrix.diag(F5, [2] * 5), Matrix.diag(F5, [4] * 5)]),
        doubled(F3, [rotation, [[1, 0], [0, 2]]]),
        doubled(F5, [CYCLE3, [[4, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    ]
    for G in no_factor + [G for G, _ in catalog]:
        with counted_sweeps() as calls:
            res = is_irreducible(G)
        assert bool(calls) == (decisive_null_space(G) is None)
        assert bool(res) == _exhaustive_irreducible(G)
    assert all(decisive_null_space(G) is None for G in no_factor)


def line_orbit_representatives(G):
    """One line from each orbit of G on the lines of F^n.  spin(g v) is
    g spin(v), so spinning these decides what spinning every line does."""
    F, n = G.field, G.dim
    lines = np.stack(projective_lines(F, n))
    place = F.q ** np.arange(n, dtype=np.int64)

    def keys(rows):  # the least code among the nonzero multiples
        return np.min([F.vscale(c, rows).astype(np.int64) @ place
                       for c in range(1, F.q)], axis=0)

    index = {k: i for i, k in enumerate(keys(lines).tolist())}
    images = [[index[k] for k in keys(F.mat_mul(lines, g.a.T)).tolist()]
              for g in G.gens]
    seen = set()
    reps = []
    for start in range(len(lines)):
        if start in seen:
            continue
        reps.append(lines[start])
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for image in images:
                if image[i] not in seen:
                    seen.add(image[i])
                    stack.append(image[i])
    return reps


def test_line_orbit_reference_matches_every_line(catalog):
    for G, irreducible in catalog:
        if G.field.q ** G.dim <= 3125:
            assert all(spin(v, G).dim == G.dim
                       for v in line_orbit_representatives(G)) == irreducible


SIGNED_PAIRS = st.tuples(
    st.sampled_from([F3, F5, GF(3, 2)]), st.sampled_from([3, 5])).flatmap(
    lambda fn: st.tuples(
        st.just(fn[0]),
        st.lists(st.tuples(st.permutations(range(fn[1])),
                           st.lists(st.sampled_from([1, -1]),
                                    min_size=fn[1], max_size=fn[1])),
                 min_size=2, max_size=2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(SIGNED_PAIRS)
def test_holt_rees_property_on_signed_permutation_pairs(case):
    F, pairs = case
    G = MatrixGroup([signed_perm(F, perm, signs) for perm, signs in pairs])
    want = all(spin(v, G).dim == G.dim
               for v in line_orbit_representatives(G))
    with counted_sweeps() as calls:
        res = is_irreducible(G)
    assert bool(res) == want
    assert bool(calls) == (decisive_null_space(G) is None)
    if not want:
        assert 0 < res.witness.dim < G.dim
        for g in G.gens:
            assert res.witness.image(g) == res.witness


# --- the fixed-line screen ---------------------------------------------------


def fixes_line(g, v):
    """Reference: g v lies on the line of v."""
    F = g.field
    return Subspace(F, len(v), np.stack([v, F.mat_vec(g.a, v)])).dim == 1


@pytest.mark.parametrize("F, n, count", [
    (F3, 3, None), (F5, 3, None), (GF(3, 2), 3, 200), (F3, 5, None)])
def test_fixed_line_table_matches_per_element_reference(F, n, count):
    # O_3(5) (240 elements) and the first 200 elements of O_3(9) span
    # more than one product chunk; the signed C_5 over GF(3) has 121 lines
    if n == 3:
        els = orthogonal_group(unit_space(F, 3)).enumerate()[:count]
    else:
        els = wreath_construct(PermGroup.cyclic(5),
                               unit_space(F, 5)).group.enumerate()
    fixes = fixed_line_table(F, n, els)
    lines = projective_lines(F, n)
    assert fixes.shape == (len(lines), len(els))
    assert fixes.any() and not fixes.all()
    for l, v in enumerate(lines):
        assert list(fixes[l]) == [fixes_line(g, v) for g in els]


def test_fixed_line_table_has_no_rows_in_dimension_one():
    # the only line of F^1 is the whole space, never a proper subspace
    els = orthogonal_group(unit_space(F5, 1)).enumerate()
    assert fixed_line_table(F5, 1, els).shape == (0, len(els))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_fixed_line_screen_matches_is_irreducible(q):
    # in dimension 3 an invariant subspace W of an isometry group comes
    # with the invariant W-perp, and one of the two is a line: the screen
    # is exact on every solvable class of O_3(q)
    F = GF(3, 2) if q == 9 else GF(q)
    ambient = orthogonal_group(unit_space(F, 3))
    els = ambient.enumerate()
    ct = CayleyTable.from_matrix_group(ambient)
    fixes = fixed_line_table(F, 3, els)
    classes = ct.solvable_subgroup_classes()
    assert len(classes) == {3: 33, 5: 52, 7: 65, 9: 71}[q]
    for H in classes:
        G = MatrixGroup([els[i] for i in ct.subgroup_generators(H)]
                        or [ambient.identity])
        assert fixes[:, H].all(axis=1).any() == (not is_irreducible(G))


# --- algebra span -----------------------------------------------------------


def test_algebra_span_closure():
    L = MatrixGroup([Matrix(F5, CYCLE3)])
    A = AlgebraSpan(F5, 3, list(L.enumerate()))
    assert A.dim == 3
    A.structure_constants()  # raises if not multiplicatively closed
    eye_flat = np.eye(3, dtype=np.int32)
    assert A.coords(Matrix(F5, eye_flat)) is not None


# --- homogeneous components ----------------------------------------------------


def test_components_scalar_group():
    L = MatrixGroup([Matrix.diag(F3, [2, 2, 2])])
    comps = homogeneous_components(L)
    assert comps == [Subspace.whole(F3, 3)]


def test_components_diagonal_group_axes():
    L = diag_sign_group(F5, 3)
    comps = homogeneous_components(L)
    assert len(comps) == 3
    assert all(c.dim == 1 for c in comps)
    got = {tuple(map(int, c.basis[0])) for c in comps}
    assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_components_cycle_gf5_against_primary_oracle():
    # independent oracle for cyclic L: primary components of the generator
    L = MatrixGroup([Matrix(F5, CYCLE3)])
    comps = homogeneous_components(L)
    oracle = sorted((s for _, s in primary_components(Matrix(F5, CYCLE3))),
                    key=lambda s: s.sort_key())
    assert comps == oracle
    assert sorted(c.dim for c in comps) == [1, 2]


def test_components_invariance_and_sum():
    for L in (diag_sign_group(F5, 3),
              MatrixGroup([Matrix(F7, CYCLE3)]),
              MatrixGroup([Matrix.diag(F7, [6, 6, 1]),
                           Matrix.diag(F7, [1, 6, 6])])):
        comps = homogeneous_components(L)
        total = Subspace.zero(L.field, L.dim)
        for c in comps:
            for g in L.enumerate():
                assert c.image(g) == c
            assert total.sum_with(c).dim == total.dim + c.dim
            total = total.sum_with(c)
        assert total.dim == L.dim


def every_element_algebra(F, d, gens):
    """Reference for modrep._enveloping_algebra: every element of the group
    the restricted generators generate, i.e. of the restricted L (the
    all-elements span that the generator spin replaced)."""
    return list(sorted_elements(F, closure(gens)))


# AGL(1, p) on Z/p: x -> x + 1 and x -> a x, a a primitive root
AGL = {5: [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],
       7: [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)]}


def wreath_group(F, n, kind):
    """The signed permutations over C_n, D_n or AGL(1, n) over F."""
    K = {"C": PermGroup.cyclic(n), "D": PermGroup.dihedral(n),
         "AGL": PermGroup(n, AGL[n])}[kind]
    return wreath_construct(K, unit_space(F, n)).group


@pytest.fixture(scope="module")
def abelian_terms():
    """The abelian derived-series terms L that the recursion splits, for
    the C/D/AGL wreaths of degree 5 and 7 over GF(3), GF(5) and GF(9), and
    the test groups of this file."""
    Ls = [diag_sign_group(F5, 3), MatrixGroup([Matrix(F5, CYCLE3)]),
          MatrixGroup([Matrix(F7, CYCLE3)]),
          MatrixGroup([Matrix.diag(F5, [4, 4, 1]),
                       Matrix.diag(F5, [1, 4, 4])]),
          MatrixGroup([Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 2]])])]
    for F in (F3, F5, GF(3, 2)):
        for n, kind in ((5, "C"), (5, "D"), (5, "AGL"),
                        (7, "C"), (7, "D"), (7, "AGL")):
            Ls.append(derived_series(wreath_group(F, n, kind))[-2])
    return Ls


def test_components_match_the_every_element_algebra(monkeypatch,
                                                   abelian_terms):
    got = [homogeneous_components(L) for L in abelian_terms]
    monkeypatch.setattr(modrep, "_enveloping_algebra", every_element_algebra)
    assert got == [homogeneous_components(L) for L in abelian_terms]


def test_enveloping_algebra_spin_spans_every_element(abelian_terms):
    for L in abelian_terms:
        F, n = L.field, L.dim
        spun = AlgebraSpan(F, n, modrep._enveloping_algebra(F, n, L.gens))
        full = AlgebraSpan(F, n, list(L.enumerate()))
        assert np.array_equal(spun.rows, full.rows)
        assert spun.pivots == full.pivots


def per_block_components(L):
    """Reference for homogeneous_components: spin each block's own
    enveloping algebra from the restricted generators and take its own
    Frobenius-fixed basis (the per-block refinement that one fixed basis
    of L's algebra, restricted to each block, replaced)."""
    F = L.field
    work = [Subspace.whole(F, L.dim)]
    final = []
    while work:
        block = work.pop(0)
        restricted = [restrict_matrix(g, block) for g in L.gens]
        fixed = modrep._frobenius_fixed_basis(AlgebraSpan(
            F, block.dim,
            modrep._enveloping_algebra(F, block.dim, restricted)))
        x = modrep._first_nonscalar(F, fixed)
        if x is None:
            final.append(block)
            continue
        for g, _ in poly_factor(minpoly(x)):
            eig = kernel(eval_poly(g, x))
            work.append(Subspace(F, L.dim, block.lift_rows(eig.basis)))
    return sorted(final, key=lambda c: c.sort_key())


def test_components_match_the_per_block_algebras(abelian_terms):
    for L in abelian_terms:
        assert homogeneous_components(L) == per_block_components(L)


def test_components_spin_one_algebra_per_group(monkeypatch, abelian_terms):
    calls = []
    real = modrep._enveloping_algebra

    def counting(F, d, gens):
        calls.append(d)
        return real(F, d, gens)

    monkeypatch.setattr(modrep, "_enveloping_algebra", counting)
    for L in abelian_terms:
        calls.clear()
        homogeneous_components(L)
        assert calls == [L.dim]


def test_components_never_enumerate_l():
    L = derived_series(wreath_group(GF(3, 2), 7, "AGL"))[-2]
    want = homogeneous_components(L)
    fresh = MatrixGroup(L.gens)

    def refuse():
        raise AssertionError("homogeneous_components enumerated L")

    fresh.enumerate = refuse
    assert homogeneous_components(fresh) == want


def test_components_not_abelian_rejected():
    G = MatrixGroup([Matrix(F5, CYCLE3), perm_matrix(F5, (1, 0, 2))])
    with pytest.raises(NotAbelian):
        homogeneous_components(G)


def test_components_coprimality_rejected():
    L = MatrixGroup([Matrix(F3, [[1, 1], [0, 1]])])  # order 3 = p
    with pytest.raises(NotCoprime):
        homogeneous_components(L)


def test_coprimality_is_decided_by_generator_orders():
    # p divides |L| although the generator that carries p is not first
    unip = Matrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    L = MatrixGroup([Matrix.diag(F3, [2, 2, 1]), unip])
    with pytest.raises(NotCoprime, match="^characteristic 3 divides the "
                       "group order 6; its Sylow-3 part fixes only a "
                       "2-dimensional subspace$"):
        homogeneous_components(L)
    # an element of order 6 = 2 * 3 as the only generator
    L = MatrixGroup([Matrix(F3, [[2, 2, 0], [0, 2, 0], [0, 0, 1]])])
    with pytest.raises(NotCoprime, match="group order 6;"):
        homogeneous_components_split(L)


def test_components_unequal_dims_and_repeated_characters():
    # components of different sizes: two sign-pair characters tie axes
    # together, one axis stays alone
    F = F3
    L = MatrixGroup([Matrix.diag(F, [2, 2, 1, 1, 1]),
                     Matrix.diag(F, [1, 1, 2, 2, 1])])
    comps = homogeneous_components(L)
    assert sorted(c.dim for c in comps) == [1, 2, 2]
    assert comps == homogeneous_components_split(L)


def test_components_entangled_characters():
    # the trap case for per-generator refinements: a = rot + rot and
    # b = rot + rot^-1 give every generator the same minimal polynomial on
    # both planes (x^2 + 1), yet the planes carry distinct characters and
    # are separate isotypic components
    F = F3
    rot = [[0, 1], [2, 0]]
    rot_inv = [[0, 2], [1, 0]]
    a = np.zeros((4, 4), dtype=np.int32)
    b = np.zeros((4, 4), dtype=np.int32)
    a[:2, :2] = rot
    a[2:, 2:] = rot
    b[:2, :2] = rot
    b[2:, 2:] = rot_inv
    L = MatrixGroup([Matrix(F, a), Matrix(F, b)])
    assert is_abelian(L) and L.order == 8
    from orthomono.linalg import minpoly
    assert minpoly(L.gens[0]) == minpoly(L.gens[1])  # the trap
    comps = homogeneous_components(L)
    plane1 = Subspace(F, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    plane2 = Subspace(F, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert set(comps) == {plane1, plane2}
    assert comps == homogeneous_components_split(L)


def test_split_route_agrees():
    cases = [
        MatrixGroup([Matrix.diag(F3, [2, 2, 2])]),
        diag_sign_group(F5, 3),
        MatrixGroup([Matrix(F5, CYCLE3)]),
        MatrixGroup([Matrix(F7, CYCLE3)]),
        # non-cyclic: even sign changes in dim 3
        MatrixGroup([Matrix.diag(F5, [4, 4, 1]), Matrix.diag(F5, [1, 4, 4])]),
        # a rotation block plus a fixed axis
        MatrixGroup([Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 1]])]),
        # rotation block with a sign on the fixed axis (order 4 times 2)
        MatrixGroup([Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 2]])]),
    ]
    for L in cases:
        assert homogeneous_components(L) == homogeneous_components_split(L)


# --- eigen analysis -----------------------------------------------------------


def test_eigen_minus_identity():
    s = unit_space(F3, 3)
    E = eigen_analysis(Matrix.diag(F3, [2, 2, 2]), s)
    assert E.split_field is F3
    assert E.eigenvalues == (2,)
    assert E.eigenspaces[2].dim == 3


def test_eigen_rotation_plus_axis():
    s = unit_space(F3, 3)
    f = Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 1]])
    E = eigen_analysis(f, s)
    K = E.split_field
    assert (K.p, K.k) == (3, 2)
    r = K.encode((0, 1))
    assert set(E.eigenvalues) == {1, r, K.neg(r)}
    assert sorted(map(len, E.orbits)) == [1, 2]
    # orbit sums descend to the expected rational components
    rats = sorted(E.rational_components.values(),
                  key=lambda s_: s_.sort_key())
    assert rats[0] == Subspace(F3, 3, [[0, 0, 1]])
    assert rats[1] == Subspace(F3, 3, [[1, 0, 0], [0, 1, 0]])
    for orb, Z in E.rational_components.items():
        assert extend_scalars(Z, K) == E.orbit_sums[orb]


def test_eigen_cycle_gf7():
    s = unit_space(F7, 3)
    E = eigen_analysis(Matrix(F7, CYCLE3), s)
    assert E.split_field is F7
    assert E.eigenvalues == (1, 2, 4)
    assert all(len(o) == 1 for o in E.orbits)


def test_eigen_single_orbit_for_homogeneous_restriction():
    # an irreducible characteristic polynomial means the module is
    # homogeneous under <f>, and then all eigenvalues are one Galois orbit
    from orthomono.field import Poly, poly_factor
    from orthomono.linalg import charpoly
    s = unit_space(F3, 3)
    f = Matrix(F3, [[0, 0, 2], [1, 0, 1], [0, 1, 0]])  # companion matrix
    cp = charpoly(f)
    assert len(poly_factor(cp)) == 1 and poly_factor(cp)[0][0].degree == 3
    E = eigen_analysis(f, s)
    assert len(E.orbits) == 1 and len(E.orbits[0]) == 3
    assert (E.split_field.p, E.split_field.k) == (3, 3)


def test_eigen_rejects_unipotent():
    s = unit_space(F3, 2)
    with pytest.raises(NotSemisimple):
        eigen_analysis(Matrix(F3, [[1, 1], [0, 1]]), s)


def test_eigen_analysis_relative_base_field():
    # base field GF(9): splitting happens in GF(81) and descent lands back
    # in GF(9)
    from orthomono.field import Poly, poly_factor
    F9 = GF(3, 2)
    s = unit_space(F9, 3)
    irr = None
    for c0 in range(1, 9):
        for c1 in range(9):
            f = Poly(F9, (c0, c1, 1))
            if len(poly_factor(f)) == 1 and poly_factor(f)[0][0].degree == 2:
                irr = f
                break
        if irr:
            break
    # companion block of the irreducible quadratic, plus a fixed axis;
    # made an isometry of a suitable diagonal form only if lucky, so attach
    # no form requirement here and call the analysis directly
    comp = Matrix(F9, [[0, F9.neg(irr.coeffs[0]), 0],
                       [1, F9.neg(irr.coeffs[1]), 0],
                       [0, 0, 1]])
    E = eigen_analysis(comp, s)
    K = E.split_field
    assert (K.p, K.k) == (3, 4)
    assert sorted(len(o) for o in E.orbits) == [1, 2]
    two = next(o for o in E.orbits if len(o) == 2)
    Z = E.rational_components[two]
    assert Z.field == F9 and Z.dim == 2
    from orthomono.linalg import extend_scalars
    assert extend_scalars(Z, K) == E.orbit_sums[two]


# --- pairing --------------------------------------------------------------------


def test_pairing_identity():
    s = unit_space(F5, 3)
    pairs = pairing_check(eigen_analysis(Matrix.identity(F5, 3), s), s)
    assert [(a.idx, b.idx) for a, b in pairs] == [(1, 1)]


def test_pairing_rotation():
    s = unit_space(F3, 3)
    f = Matrix(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 1]])
    E = eigen_analysis(f, s)
    K = E.split_field
    pairs = {(a.idx, b.idx) for a, b in pairing_check(E, s)}
    r = K.encode((0, 1))
    assert pairs == {(1, 1), (min(r, K.neg(r)), max(r, K.neg(r)))}
    assert K.mul(r, K.neg(r)) == 1


def test_pairing_involution():
    s = unit_space(F5, 3)
    f = Matrix.diag(F5, [4, 1, 1])
    pairs = {(a.idx, b.idx) for a, b in pairing_check(eigen_analysis(f, s), s)}
    assert pairs == {(1, 1), (4, 4)}


# --- dichotomy ---------------------------------------------------------------------


def test_dichotomy_single_component():
    s = unit_space(F5, 3)
    D = zalesski_dichotomy_check([Subspace.whole(F5, 3)], s)
    assert D.k == 1


def test_dichotomy_axes():
    s = unit_space(F5, 3)
    comps = homogeneous_components(diag_sign_group(F5, 3))
    D = zalesski_dichotomy_check(comps, s)
    assert D.k == 3 and D.part_dim == 1


def test_dichotomy_hyperbolic_parity_violation():
    # n even: f = diag(2, 1/2) preserves the antidiagonal form and its
    # eigenlines are isotropic, exercising the forbidden branch
    s = QuadraticSpace(F5, [[0, 1], [1, 0]])
    f = Matrix.diag(F5, [2, F5.inv(2)])
    from orthomono.form import is_isometry
    assert is_isometry(f, s)
    comps = [Subspace(F5, 2, [[1, 0]]), Subspace(F5, 2, [[0, 1]])]
    with pytest.raises(ParityViolation):
        zalesski_dichotomy_check(comps, s)
