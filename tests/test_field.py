import pytest

from orthomono.errors import (
    CharacteristicTwo,
    DivisionByZero,
    FieldMismatch,
    ZeroInput,
)
from orthomono.field import (
    GF,
    FieldSpec,
    Poly,
    embedding,
    frobenius_orbit,
    is_square,
    poly_factor,
    poly_gcd,
    splitting_field,
)


def test_prime_field_basics():
    F3 = GF(3)
    assert (F3.elem(2) + F3.elem(2)).idx == 1
    F7 = GF(7)
    assert F7.elem(2).inverse().idx == 4
    assert (F7.elem(2) * F7.elem(4)).idx == 1


def test_gf9_modulus_and_generator_square():
    F9 = GF(3, 2)
    assert F9.modulus == (1, 0, 1)  # x^2 + 1
    x = F9.elem(F9.encode((0, 1)))
    assert (x * x).idx == 2  # x^2 = -1 = 2


def test_canonical_moduli():
    assert GF(5, 2).modulus == (2, 0, 1)  # -1 is square mod 5, -2 is not
    assert GF(7, 2).modulus == (1, 0, 1)


def test_characteristic_two_rejected():
    with pytest.raises(CharacteristicTwo):
        GF(2)


def test_division_errors():
    F5 = GF(5)
    with pytest.raises(DivisionByZero):
        F5.elem(0).inverse()
    with pytest.raises(FieldMismatch):
        F5.elem(1) + GF(7).elem(1)


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_multiplicative_order_property(p, k):
    F = GF(p, k)
    for a in range(1, F.q):
        assert F.pow(a, F.q - 1) == 1
        assert F.mul(a, F.inv(a)) == 1


def test_vector_ops_match_scalar_ops():
    import numpy as np
    for F in (GF(5), GF(3, 2)):
        A = np.arange(F.q, dtype=np.int32)
        for b in range(F.q):
            B = np.full(F.q, b, dtype=np.int32)
            assert [F.add(a, b) for a in range(F.q)] == list(F.vadd(A, B))
            assert [F.mul(a, b) for a in range(F.q)] == list(F.vmul(A, B))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_scalar_ops_through_tables_match_polynomial_arithmetic(p, k):
    # mul and inv read the lookup tables once they exist; before, they run
    # polynomial arithmetic modulo the field's modulus
    F = FieldSpec(p, k)
    assert F._tables is None
    poly_mul = [[F.mul(a, b) for b in range(F.q)] for a in range(F.q)]
    poly_inv = [F.inv(a) for a in range(1, F.q)]
    assert F._tables is None
    F.tables
    assert [[F.mul(a, b) for b in range(F.q)]
            for a in range(F.q)] == poly_mul
    assert [F.inv(a) for a in range(1, F.q)] == poly_inv
    assert all(type(F.mul(a, a)) is int and type(F.inv(a)) is int
               for a in range(1, F.q))
    with pytest.raises(DivisionByZero):
        F.inv(0)


# --- polynomials ---------------------------------------------------------


def test_factor_cube_roots_mod7():
    F7 = GF(7)
    f = Poly(F7, (6, 0, 0, 1))  # x^3 - 1
    facs = poly_factor(f)
    assert set((g.coeffs, e) for g, e in facs) == {
        ((6, 1), 1), ((5, 1), 1), ((3, 1), 1)}  # (x-1)(x-2)(x-4)


def test_x2_plus_1_irreducible_mod3():
    F3 = GF(3)
    facs = poly_factor(Poly(F3, (1, 0, 1)))
    assert len(facs) == 1 and facs[0][1] == 1
    assert facs[0][0].coeffs == (1, 0, 1)


def test_factor_x4_minus_1_mod5():
    F5 = GF(5)
    facs = poly_factor(Poly(F5, (4, 0, 0, 0, 1)))
    assert all(g.degree == 1 and e == 1 for g, e in facs)
    assert len(facs) == 4


@pytest.mark.parametrize("p,coeffs", [
    (3, (1, 2, 0, 1, 1)),
    (3, (0, 0, 1, 1)),          # x^2 factor
    (5, (1, 2, 3, 4, 1)),
    (7, (2, 0, 2, 0, 1, 1)),
    (3, (1, 0, 0, 0, 0, 0, 1)),  # degree 6
])
def test_factor_remultiplies(p, coeffs):
    F = GF(p)
    f = Poly(F, coeffs)
    prod = Poly.const(F, f.coeffs[-1])
    for g, e in poly_factor(f):
        assert g.is_monic
        assert len(poly_factor(g)) == 1  # irreducible
        for _ in range(e):
            prod = prod * g
    assert prod == f


def test_factor_over_extension_field():
    F9 = GF(3, 2)
    # x^2 + 1 splits over GF(9): roots are x and -x of the power basis
    facs = poly_factor(Poly(F9, (1, 0, 1)))
    assert len(facs) == 2
    assert all(g.degree == 1 for g, _ in facs)


def test_squarefull_factorization():
    F3 = GF(3)
    x = Poly.x(F3)
    one = Poly.const(F3, 1)
    f = (x - one) * (x - one) * (x - one) * (x + one)  # (x-1)^3 (x+1)
    facs = dict((g.coeffs, e) for g, e in poly_factor(f))
    assert facs == {(2, 1): 3, (1, 1): 1}


# --- splitting fields -----------------------------------------------------


def test_splitting_field_x2_plus_1_mod3():
    F3 = GF(3)
    K = splitting_field(Poly(F3, (1, 0, 1)))
    assert (K.p, K.k) == (3, 2)
    # oracle: exhaustive root search
    f = Poly(K, (1, 0, 1))
    roots_in_K = [a for a in range(K.q) if f.eval_idx(a) == 0]
    assert len(roots_in_K) == 2
    assert not [a for a in range(3) if Poly(F3, (1, 0, 1)).eval_idx(a) == 0]


def test_splitting_field_already_split():
    F5 = GF(5)
    assert splitting_field(Poly(F5, (4, 1))) is F5
    F7 = GF(7)
    assert splitting_field(Poly(F7, (6, 0, 0, 1))) is F7


def test_splitting_field_minimality_lcm_case():
    F3 = GF(3)
    g = Poly(F3, (1, 2, 0, 1))  # x^3 + 2x + 1
    assert len(poly_factor(g)) == 1 and poly_factor(g)[0][0].degree == 3
    f = Poly(F3, (1, 0, 1)) * g
    K = splitting_field(f)
    assert (K.p, K.k) == (3, 6)
    # no proper subfield contains all roots: count linear factors there
    for d in (1, 2, 3):
        Kd = GF(3, d)
        fd = Poly(Kd, f.coeffs)  # coefficients are prime-subfield residues
        nlin = sum(e for gg, e in poly_factor(fd) if gg.degree == 1)
        assert nlin < f.degree
    K6 = Poly(K, f.coeffs)
    assert sum(e for gg, e in poly_factor(K6) if gg.degree == 1) == f.degree


# --- Galois orbits ----------------------------------------------------------


def test_frobenius_orbit_base_elements_fixed():
    F3, F9 = GF(3), GF(3, 2)
    emb = embedding(F3, F9)
    for a in range(3):
        orbit = frobenius_orbit(F9.elem(int(emb[a])), F3)
        assert len(orbit) == 1


def test_frobenius_orbit_of_root():
    F3, F9 = GF(3), GF(3, 2)
    r = F9.encode((0, 1))  # r^2 = -1
    orbit = frobenius_orbit(F9.elem(r), F3)
    assert [e.idx for e in orbit] == [r, F9.neg(r)]


def test_frobenius_orbit_identity_galois_group():
    F7 = GF(7)
    assert [e.idx for e in frobenius_orbit(F7.elem(2), F7)] == [2]


def test_orbit_product_is_minimal_polynomial():
    # the product over an orbit of (x - b) has base-field coefficients and
    # its degree equals the orbit length
    F3, K = GF(3), GF(3, 3)
    emb = set(int(v) for v in embedding(F3, K))
    for a in range(K.q):
        orbit = frobenius_orbit(K.elem(a), F3)
        prod = Poly.const(K, 1)
        for b in orbit:
            prod = prod * Poly(K, (K.neg(b.idx), 1))
        assert all(c in emb for c in prod.coeffs)
        assert prod.degree == len(orbit)
        assert len(orbit) in (1, 3)


# --- squares ------------------------------------------------------------------


def test_is_square_examples():
    assert is_square(GF(7).elem(2)) is True
    assert is_square(GF(3).elem(2)) is False
    for q in ((3, 1), (5, 1), (3, 2)):
        assert is_square(GF(*q).elem(1)) is True
    with pytest.raises(ZeroInput):
        is_square(GF(5).elem(0))


def test_is_square_counts():
    # exactly (q-1)/2 nonzero squares
    for F in (GF(7), GF(3, 2), GF(5)):
        n = sum(1 for a in range(1, F.q) if F.is_square(a))
        assert n == (F.q - 1) // 2


# --- embeddings ------------------------------------------------------------------


def test_embedding_is_field_homomorphism():
    F9, F81 = GF(3, 2), GF(3, 4)
    emb = embedding(F9, F81)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(9):
        for b in range(9):
            assert emb[F9.add(a, b)] == F81.add(int(emb[a]), int(emb[b]))
            assert emb[F9.mul(a, b)] == F81.mul(int(emb[a]), int(emb[b]))


def test_poly_gcd_basics():
    F5 = GF(5)
    x = Poly.x(F5)
    one = Poly.const(F5, 1)
    f = (x - one) * (x + one)
    g = (x - one) * x
    assert poly_gcd(f, g) == x - one


def test_splitting_field_relative_base():
    # an irreducible quadratic over GF(9) splits in GF(81); the Galois
    # group over GF(9) has order two
    F9 = GF(3, 2)
    f = None
    for c0 in range(9):
        for c1 in range(9):
            cand = Poly(F9, (c0, c1, 1))
            if len(poly_factor(cand)) == 1 and \
                    poly_factor(cand)[0][0].degree == 2:
                f = cand
                break
        if f:
            break
    K = splitting_field(f)
    assert (K.p, K.k) == (3, 4)
    assert K.base is F9
    roots = [a for a in range(K.q) if _eval_in(K, f, a) == 0]
    assert len(roots) == 2
    for r in roots:
        orbit = frobenius_orbit(K.elem(r), F9)
        assert len(orbit) == 2
        assert {e.idx for e in orbit} == set(roots)


def _eval_in(K, f, a):
    # evaluate a GF(9)-polynomial at a point of GF(81) via the embedding
    emb = embedding(GF(3, 2), K)
    acc = 0
    for c in reversed(f.coeffs):
        acc = K.add(K.mul(acc, a), int(emb[c]))
    return acc


def test_embedding_missing_rejected():
    from orthomono.errors import NoEmbedding
    with pytest.raises(NoEmbedding):
        embedding(GF(3, 2), GF(3, 3))  # 2 does not divide 3


def test_factor_fuzz_extension_fields():
    # seeded polynomials over GF(9) and GF(25): factors re-multiply and are
    # themselves irreducible
    import random
    rng = random.Random(4040)
    for F in (GF(3, 2), GF(5, 2)):
        for _ in range(15):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(F.q) for _ in range(deg)] + [1]
            f = Poly(F, coeffs)
            prod = Poly.const(F, 1)
            for g, e in poly_factor(f):
                assert g.is_monic
                inner = poly_factor(g)
                assert len(inner) == 1 and inner[0][1] == 1
                for _ in range(e):
                    prod = prod * g
            assert prod == f
