import numpy as np
import pytest

from orthomono.errors import TooLarge
from orthomono.field import GF, is_prime
from orthomono.form import QuadraticSpace
from orthomono.group import PermGroup, orthogonal_group
from orthomono.linalg import Matrix
from orthomono.tablegrp import CayleyTable
from orthomono.wreath import wreath_construct

F3, F5 = GF(3), GF(5)


def o3_table(F):
    space = QuadraticSpace(F, Matrix.identity(F, 3))
    G = orthogonal_group(space)
    return G, CayleyTable.from_matrix_group(G)


def test_table_matches_matrix_products():
    G, ct = o3_table(F3)
    els = G.enumerate()
    rng = np.random.RandomState(0)
    for _ in range(50):
        i, j = rng.randint(0, len(els), 2)
        assert els[int(ct.table[i, j])] == els[i] @ els[j]
    for i in range(len(els)):
        assert els[int(ct.inv[i])] == els[i].inverse()
    assert ct.identity == 0


def test_closure_and_generators():
    G, ct = o3_table(F3)
    whole = ct.closure(range(ct.n))
    assert len(whole) == 48
    gens = ct.subgroup_generators(np.arange(ct.n))
    assert len(ct.closure(gens)) == 48
    assert len(gens) <= 6


def test_is_solvable_set_matches_matrix_level():
    G3, ct3 = o3_table(F3)
    assert ct3.is_solvable_set(np.arange(ct3.n))
    G5, ct5 = o3_table(F5)
    assert not ct5.is_solvable_set(np.arange(ct5.n))
    # SO_3(5) inside the table
    so = [i for i, g in enumerate(G5.enumerate()) if g.det().idx == 1]
    assert len(so) == 120
    assert not ct5.is_solvable_set(np.array(so))


def test_normalizer_and_canonical_key():
    G, ct = o3_table(F3)
    x = next(i for i in range(1, ct.n) if ct.element_order(i) == 3)
    H = ct.closure([x])
    nmask = ct.normalizer_mask(H)
    assert nmask[np.asarray(H)].all()
    assert len(ct.closure(np.flatnonzero(nmask))) % len(H) == 0
    # conjugates share the canonical key
    g = next(i for i in range(ct.n) if not nmask[i])
    conj = ct.conjugate_set(H, g)
    assert ct.canonical_key(conj) == ct.canonical_key(H)
    assert not np.array_equal(np.sort(conj), np.sort(H))


def perm_table(P):
    return CayleyTable.from_perm_group(P)


def test_perm_table_s4_subgroup_classes():
    ct = perm_table(PermGroup.symmetric(4))
    assert ct.n == 24
    oracle = ct.all_subgroup_classes()
    assert len(oracle) == 11  # classic count for S4
    solv = ct.solvable_subgroup_classes()
    assert len(solv) == 11    # S4 is solvable, so the lists agree
    assert {ct.canonical_key(H) for H in oracle} == \
           {ct.canonical_key(H) for H in solv}


def test_perm_table_s5_subgroup_classes():
    ct = perm_table(PermGroup.symmetric(5))
    oracle = ct.all_subgroup_classes()
    assert len(oracle) == 19  # classic count for S5
    solv = ct.solvable_subgroup_classes()
    assert len(solv) == 17    # all classes except A5 and S5
    nonsolv = {ct.canonical_key(H) for H in oracle} - \
              {ct.canonical_key(H) for H in solv}
    sizes = sorted(len(H) for H in oracle
                   if ct.canonical_key(H) in nonsolv)
    assert sizes == [60, 120]
    for H in solv:
        assert ct.is_solvable_set(H)


def test_contained_up_to_conjugacy():
    ct = perm_table(PermGroup.symmetric(4))
    classes = ct.all_subgroup_classes()
    whole = classes[-1]
    assert len(whole) == 24
    for H in classes:
        assert ct.contained_up_to_conjugacy(H, whole)
    # C3 never fits in a 2-group
    c3 = next(H for H in classes if len(H) == 3)
    for H in (H for H in classes if len(H) in (4, 8)):
        assert not ct.contained_up_to_conjugacy(c3, H)
    # every order-2 class sits in some order-4 class
    for H in (H for H in classes if len(H) == 2):
        assert any(ct.contained_up_to_conjugacy(H, K)
                   for K in classes if len(K) == 4)


def test_solvable_classes_match_brute_force_o33():
    # O_3(3) is solvable, so the cyclic-extension enumeration must find
    # exactly the classes the brute-force oracle finds
    _, ct = o3_table(F3)
    solv = {ct.canonical_key(H) for H in ct.solvable_subgroup_classes()}
    brute = {ct.canonical_key(H) for H in ct.all_subgroup_classes()}
    assert solv == brute and len(solv) == 33


def test_brute_force_guard():
    ct = perm_table(PermGroup.symmetric(5))
    with pytest.raises(TooLarge):
        ct.all_subgroup_classes(limit=10)


# -- reference implementations: the straightforward versions of the table
# kernel, kept to hold the fast paths to exactly the same results ----------

def ref_matrix_table(G):
    """Every product looked up row by row in a dict: of element codes over
    a prime field, of the matrices themselves otherwise.  Each inverse is
    found by scanning its row for the identity."""
    els = G.enumerate()
    N, n, p = len(els), G.dim, G.field.p
    table = np.empty((N, N), dtype=np.int16)
    if G.field.k == 1:
        stack = np.stack([m.a for m in els]).astype(np.int64)
        powers = p ** np.arange(n * n, dtype=np.int64)
        code_index = {int(c): i for i, c in enumerate(stack.reshape(N, -1)
                                                      @ powers)}
        for i in range(N):
            pc = ((stack[i] @ stack) % p).reshape(N, -1) @ powers
            table[i] = [code_index[int(c)] for c in pc]
    else:
        index = {m: i for i, m in enumerate(els)}
        for i, a in enumerate(els):
            table[i] = [index[a @ b] for b in els]
    e = G.index_of(G.identity)
    inv = np.array([np.flatnonzero(row == e)[0] for row in table],
                   dtype=np.int16)
    return table, inv, e


def ref_perm_table(P):
    """Every product composed and looked up, row by row."""
    els = P.enumerate()
    index = {q: i for i, q in enumerate(els)}
    table = np.array([[index[PermGroup.compose(a, b)] for b in els]
                      for a in els], dtype=np.int16)
    e = index[tuple(range(P.degree))]
    inv = np.array([np.flatnonzero(row == e)[0] for row in table],
                   dtype=np.int16)
    return table, inv, e


def ref_closure(ct, seeds):
    """Frontier kept as np.unique of all products with the generators."""
    seen = np.zeros(ct.n, dtype=bool)
    seen[ct.identity] = True
    gens = sorted({int(s) for s in seeds})
    frontier = [ct.identity]
    while frontier and gens:
        fresh = np.unique(ct.table[np.ix_(gens, frontier)].ravel())
        fresh = fresh[~seen[fresh]]
        seen[fresh] = True
        frontier = fresh.tolist()
    return np.flatnonzero(seen)


def ref_canonical_key(ct, H):
    """Least conjugate recomputed on every call."""
    M = ct.conjugate_rows(H)
    return M[np.lexsort(M.T[::-1])[0]].astype(np.int32).tobytes()


def ref_solvable_subgroup_classes(ct):
    """Cyclic extension by every element of the normalizer."""
    e = ct.identity
    trivial = np.array([e])
    classes = {ref_canonical_key(ct, trivial): trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            mask = np.zeros(ct.n, dtype=bool)
            mask[H] = True
            for x in np.flatnonzero(ct.normalizer_mask(H)):
                if mask[x]:
                    continue
                m, y = 1, int(x)
                while not mask[y]:
                    y = int(ct.table[y, x])
                    m += 1
                if not is_prime(m):
                    continue
                powers = [e]
                y = int(x)
                for _ in range(m - 1):
                    powers.append(y)
                    y = int(ct.table[y, x])
                K = np.unique(ct.table[np.ix_(powers, H)])
                key = ref_canonical_key(ct, K)
                if key not in classes:
                    classes[key] = K
                    fresh.append(K)
        frontier = fresh
    return sorted(classes.values(), key=lambda a: (len(a), a.tobytes()))


def _same_arrays(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.fixture(scope="module", params=["O3(3)", "O3(5)", "S5", "W3(9)"])
def kernel_case(request):
    if request.param == "S5":
        P = PermGroup.symmetric(5)
        return CayleyTable.from_perm_group(P), ref_perm_table(P)
    if request.param == "W3(9)":
        # signed permutations over S_3 in GF(9): the extension-field path
        F9 = GF(3, 2)
        G = wreath_construct(PermGroup.symmetric(3),
                             QuadraticSpace(F9, Matrix.identity(F9, 3))).group
        return CayleyTable.from_matrix_group(G), ref_matrix_table(G)
    G, ct = o3_table(F3 if request.param == "O3(3)" else F5)
    return ct, ref_matrix_table(G)


def test_table_and_inverses_match_reference(kernel_case):
    ct, (table, inv, e) = kernel_case
    assert _same_arrays(ct.table, table)
    assert _same_arrays(ct.inv, inv)
    assert ct.identity == e


def test_closure_matches_reference(kernel_case):
    ct, _ = kernel_case
    rng = np.random.RandomState(1)
    seed_sets = [[], [ct.identity], list(range(ct.n)), range(3)]
    seed_sets += [rng.randint(0, ct.n, k).tolist()
                  for k in (1, 1, 2, 2, 3) for _ in range(10)]
    seed_sets += [rng.randint(0, ct.n, 2).astype(np.int16)]
    for seeds in seed_sets:
        assert _same_arrays(ct.closure(seeds), ref_closure(ct, seeds))


def test_classes_and_keys_match_reference(kernel_case):
    ct, _ = kernel_case
    ref = ref_solvable_subgroup_classes(ct)
    got = ct.solvable_subgroup_classes()
    assert len(got) == len(ref)
    for H, R in zip(got, ref):
        assert _same_arrays(H, R)
        assert ct.canonical_key(H) == ref_canonical_key(ct, H)


def test_canonical_key_memo_ignores_order_and_dtype(kernel_case):
    ct, _ = kernel_case
    for H in ct.solvable_subgroup_classes():
        key = ref_canonical_key(ct, H)
        for variant in (H[::-1], H.astype(np.int64), H.astype(np.int16)):
            assert ct.canonical_key(variant) == key
