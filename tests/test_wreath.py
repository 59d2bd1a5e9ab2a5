import numpy as np
import pytest

from orthomono.errors import (
    CharacteristicTwo,
    HypothesisViolated,
    NonScalarForm,
)
from orthomono.field import GF
from orthomono.form import QuadraticSpace
from orthomono.group import (
    DEFAULT_BOUND,
    MatrixGroup,
    PermGroup,
    orthogonal_group,
)
from orthomono.linalg import Matrix
from orthomono.modrep import is_irreducible
from orthomono.tablegrp import CayleyTable
from orthomono.wreath import (
    MaximalityResult,
    char2_rejection,
    conjugate_into_wreath,
    gamma_l1,
    maximality_check,
    o2minus,
    transitive_solvable_subgroups,
    uniqueness_oracle,
    wreath_construct,
)

F3, F5, F7 = GF(3), GF(5), GF(7)


def unit_space(F, n):
    return QuadraticSpace(F, Matrix.identity(F, n))


def test_wreath_trivial_n1():
    W = wreath_construct(PermGroup(1, [(0,)]), unit_space(F5, 1))
    assert W.group.order == 2


def test_wreath_s3_gf3_equals_o33():
    W = wreath_construct(PermGroup.symmetric(3), unit_space(F3, 3))
    assert W.group.order == 48
    O = orthogonal_group(unit_space(F3, 3))
    assert set(W.group.enumerate()) == set(O.enumerate())


def test_wreath_c3_gf5_irreducible():
    W = wreath_construct(PermGroup.cyclic(3), unit_space(F5, 3))
    assert W.group.order == 24
    assert is_irreducible(W.group)


def test_wreath_needs_scalar_form():
    s = QuadraticSpace(F5, Matrix.diag(F5, [1, 1, 2]))
    with pytest.raises(NonScalarForm):
        wreath_construct(PermGroup.symmetric(3), s)


def test_wreath_irreducible_iff_transitive():
    # n = 3 and n = 5, both directions
    cases = [
        (PermGroup.cyclic(3), unit_space(F5, 3), True),
        (PermGroup.symmetric(3), unit_space(F5, 3), True),
        (PermGroup(3, [(0, 2, 1)]), unit_space(F5, 3), False),
        (PermGroup.cyclic(5), unit_space(F3, 5), True),
        (PermGroup(5, [(1, 0, 2, 3, 4)]), unit_space(F3, 5), False),
    ]
    for K, s, expect in cases:
        W = wreath_construct(K, s)
        assert K.is_transitive == expect
        assert bool(is_irreducible(W.group)) == expect


def test_transitive_solvable_n1():
    classes = transitive_solvable_subgroups(1)
    assert len(classes) == 1 and classes[0].maximal


def test_transitive_solvable_n3():
    classes = transitive_solvable_subgroups(3)
    assert [(t.order, t.maximal) for t in classes] == [(3, False), (6, True)]


def test_transitive_solvable_n5():
    classes = transitive_solvable_subgroups(5)
    assert [t.order for t in classes] == [5, 10, 20]
    assert [t.maximal for t in classes] == [False, False, True]
    for t in classes:
        assert t.group.is_transitive and t.group.is_solvable()


def test_transitive_solvable_n5_against_brute_force():
    # independent oracle: brute-force subgroup enumeration of S5
    S = PermGroup.symmetric(5)
    ct = CayleyTable.from_perm_group(S)
    els = S.enumerate()
    perms = np.array(els, dtype=np.int64)
    oracle = []
    from orthomono.wreath import _transitive_indices
    for H in ct.all_subgroup_classes():
        if _transitive_indices(perms, H, 5) and ct.is_solvable_set(H):
            oracle.append(len(H))
    assert sorted(oracle) == [5, 10, 20]


def test_conjugate_into_wreath_o33():
    s = unit_space(F3, 3)
    G = orthogonal_group(s)
    P, K = conjugate_into_wreath(G, s)
    assert K.order == 6  # full S3 image
    W = wreath_construct(K, s)
    assert W.group.order == G.order  # containment is equality here


def test_conjugate_into_wreath_n1():
    s = QuadraticSpace(F5, [[1]])
    G = MatrixGroup([Matrix(F5, [[4]])], space=s)
    P, K = conjugate_into_wreath(G, s)
    assert K.order == 1


def test_conjugate_into_wreath_c5():
    from orthomono.group import perm_matrix
    s = unit_space(F5, 5)
    G = MatrixGroup([perm_matrix(F5, (1, 2, 3, 4, 0)),
                     Matrix.diag(F5, [4, 1, 1, 1, 1])], space=s)
    P, K = conjugate_into_wreath(G, s)
    assert K.order == 5 and K.is_transitive


def test_maximality_s3_gf5():
    W = wreath_construct(PermGroup.symmetric(3), unit_space(F5, 3))
    assert maximality_check(W).maximal


def test_maximality_c3_gf5_counterexample():
    W = wreath_construct(PermGroup.cyclic(3), unit_space(F5, 3))
    res = maximality_check(W)
    assert not res.maximal
    over = res.counterexample
    assert over.order > W.group.order
    from orthomono.group import is_solvable
    assert is_solvable(over) and is_irreducible(over)
    assert all(g in over for g in W.group.gens)


def test_maximality_s3_gf3_vacuous():
    W = wreath_construct(PermGroup.symmetric(3), unit_space(F3, 3))
    assert maximality_check(W).maximal  # W is the whole orthogonal group


def test_maximality_big_path_agrees_at_small_scale():
    # the table-free sweep used for the long n = 5 run, exercised at n = 3
    from orthomono.wreath import maximality_check_big
    W = wreath_construct(PermGroup.symmetric(3), unit_space(F5, 3))
    assert maximality_check_big(W).maximal
    Wc3 = wreath_construct(PermGroup.cyclic(3), unit_space(F5, 3))
    res = maximality_check_big(Wc3)
    assert not res.maximal and res.counterexample.order == 48


def maximality_check_every_x(W, bound=DEFAULT_BOUND):
    """Reference sweep: closes <W, x> for every x outside W in increasing
    order, with no double-coset skip."""
    ambient = orthogonal_group(W.space, bound=bound)
    ct = CayleyTable.from_matrix_group(ambient)
    els = ambient.enumerate()
    member = np.zeros(ct.n, dtype=bool)
    for g in W.group.enumerate():
        member[ambient.index_of(g)] = True
    wgen_idx = [ambient.index_of(g) for g in W.group.gens]
    seen_closures = set()
    for x in range(ct.n):
        if member[x]:
            continue
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


def sweep_with_closures(monkeypatch, sweep, W):
    """(result, set of distinct subgroups the sweep closed in the table)."""
    closed = set()
    original = CayleyTable.closure

    def spy(self, seeds):
        K = original(self, seeds)
        closed.add(K.tobytes())
        return K

    with monkeypatch.context() as m:
        m.setattr(CayleyTable, "closure", spy)
        return sweep(W), closed


@pytest.mark.parametrize("F", [F5, F7, GF(3, 2)], ids=str)
def test_double_coset_sweep_matches_every_x_sweep(monkeypatch, F):
    verdicts = []
    for K in (PermGroup.symmetric(3), PermGroup.cyclic(3)):
        W = wreath_construct(K, unit_space(F, 3))
        fast, fast_closed = sweep_with_closures(
            monkeypatch, maximality_check, W)
        ref, ref_closed = sweep_with_closures(
            monkeypatch, maximality_check_every_x, W)
        assert fast.maximal == ref.maximal
        if not ref.maximal:
            assert set(fast.counterexample.enumerate()) == \
                set(ref.counterexample.enumerate())
        # a skipped x closes to a subgroup an earlier x already gave
        assert fast_closed == ref_closed
        verdicts.append(ref.maximal)
    assert verdicts == [True, False]  # S_3 maximal, C_3 not


def test_uniqueness_oracle_counts():
    W3 = wreath_construct(PermGroup.symmetric(3), unit_space(F3, 3))
    assert uniqueness_oracle(W3.group, W3.space) == 1
    W5 = wreath_construct(PermGroup.cyclic(3), unit_space(F5, 3))
    assert uniqueness_oracle(W5.group, W5.space) == 1


def test_uniqueness_oracle_rejects_reducible():
    s = unit_space(F5, 3)
    G = MatrixGroup([Matrix.diag(F5, [4, 4, 4])], space=s)
    with pytest.raises(HypothesisViolated):
        uniqueness_oracle(G, s)


def test_o2minus_fixture():
    fx = o2minus(5)
    assert fx.order == 12  # 2 (q + 1)
    assert fx.solvable and fx.irreducible
    assert fx.invariant_line_decompositions == 0


def test_o2minus_other_field():
    fx = o2minus(7)
    assert fx.order == 16
    assert fx.solvable and fx.irreducible
    assert fx.invariant_line_decompositions == 0


def test_gamma_l1_fixture():
    fx = gamma_l1(3, 3)
    assert fx.order == 78  # (27 - 1) * 3
    assert fx.solvable and fx.irreducible
    assert not fx.has_nondegenerate_invariant_form


def test_char2_rejection():
    assert isinstance(char2_rejection(), CharacteristicTwo)


def test_fixture_bundle():
    from orthomono.wreath import fixtures
    bundle = fixtures()
    assert bundle["o2minus"].order == 12
    assert bundle["gamma_l1"].order == 78
    assert isinstance(bundle["char2_rejection"], CharacteristicTwo)
