import numpy as np
import pytest

from orthomono.errors import (
    AlgebraError,
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
    prime_factors,
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


@pytest.mark.parametrize("p", [3, 7, 46337, 46349, 65521])
def test_prime_field_products_do_not_overflow(p):
    # (p - 1)^2 passes 2^31 above p = 46341; int32 index arrays keep their
    # dtype, and the products agree with Python's integers
    F = GF(p)
    A = np.array([p - 1, p - 2, 1, 0, p // 2], dtype=np.int32)
    B = np.array([p - 1, p - 1, p - 1, p - 1, p - 3], dtype=np.int32)
    want = [int(a) * int(b) % p for a, b in zip(A, B)]
    assert F.vmul(A, B).tolist() == want
    assert F.vmul(A, B).dtype == np.int32
    assert F.vscale(p - 1, B).tolist() == [(p - 1) * int(b) % p for b in B]
    assert F.vscale(p - 1, B).dtype == np.int32
    assert F._wide == (p > 46341)


def test_vscale_over_gf_65521():
    F = GF(65521)
    assert F.vscale(65520, np.array([65520], dtype=np.int32)).tolist() == [1]


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_scalar_ops_through_tables_match_polynomial_arithmetic(p, k):
    # mul and inv read the logarithm tables; the reference field, before its
    # lookup tables exist, runs polynomial arithmetic modulo the modulus
    F, ref = FieldSpec(p, k), TableField(p, k)
    poly_mul = [[ref.mul(a, b) for b in range(F.q)] for a in range(F.q)]
    poly_inv = [ref.inv(a) for a in range(1, F.q)]
    assert ref._tables is None
    assert [[F.mul(a, b) for b in range(F.q)]
            for a in range(F.q)] == poly_mul
    assert [F.inv(a) for a in range(1, F.q)] == poly_inv
    assert all(type(F.mul(a, a)) is int and type(F.inv(a)) is int
               for a in range(1, F.q))
    with pytest.raises(DivisionByZero):
        F.inv(0)


# -- reference: the q x q lookup-table arithmetic this package used for
# k > 1 before digit planes and logarithms, kept verbatim ------------------

TABLE_MAX = 2048


class TableField:
    """GF(p^k) whose arithmetic reads dense add and mul tables; the index
    codec comes from the FieldSpec."""

    def __init__(self, p, k=1):
        self.spec = FieldSpec(p, k)
        self._tables = None

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if self._tables is not None:
            return int(self._tables[1][a, b])
        if a == 0 or b == 0:
            return 0
        return self._mul_ext(a, b)

    def _mul_ext(self, a, b):
        p, k = self.p, self.k
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        mod = self.modulus
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(k):
                    prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
        return self.encode(prod[:k])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        b = a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        if self.k > 1 and self._tables is not None:
            return int(self._tables[3][a])
        return self.pow(a, self.q - 2)

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        digits = np.zeros((q, k), dtype=np.int64)
        idx = np.arange(q)
        for j in range(k):
            digits[:, j] = (idx // p ** j) % p
        place = p ** np.arange(k)
        add_t = np.empty((q, q), dtype=np.int32)
        for i in range(q):
            add_t[i] = ((digits + digits[i]) % p) @ place
        neg_t = (((-digits) % p) @ place).astype(np.int32)
        # multiplication via discrete logs
        g = self._find_generator()
        exp_t = np.empty(2 * (q - 1), dtype=np.int32)
        log_t = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp_t[i] = x
            log_t[x] = i
            x = self._mul_ext(x, g)
        exp_t[q - 1:] = exp_t[:q - 1]
        mul_t = np.zeros((q, q), dtype=np.int32)
        nz = np.arange(1, q)
        mul_t[1:, 1:] = exp_t[log_t[nz][:, None] + log_t[nz][None, :]]
        inv_t = np.zeros(q, dtype=np.int32)
        inv_t[nz] = exp_t[(q - 1 - log_t[nz]) % (q - 1)]
        self._tables = (add_t, mul_t, neg_t, inv_t)

    def _find_generator(self):
        qm1 = self.q - 1
        ells = prime_factors(qm1)
        for g in range(2, self.q):
            if all(self.pow(g, qm1 // ell) != 1 for ell in ells):
                return g
        raise AlgebraError("no multiplicative generator found")

    @property
    def tables(self):
        if self._tables is None:
            if self.q > TABLE_MAX:
                raise AlgebraError(
                    f"lookup tables unsupported for field size {self.q}")
            self._build_tables()
        return self._tables

    def vadd(self, A, B):
        if self.k == 1:
            return (A + B) % self.p
        return self.tables[0][A, B]

    def vsub(self, A, B):
        if self.k == 1:
            return (A - B) % self.p
        return self.tables[0][A, self.tables[2][B]]

    def vneg(self, A):
        if self.k == 1:
            return (-A) % self.p
        return self.tables[2][A]

    def vmul(self, A, B):
        if self.k == 1:
            return (A * B) % self.p
        return self.tables[1][A, B]

    def vscale(self, c, A):
        if self.k == 1:
            return (c * A) % self.p
        return self.tables[1][c, A]

    def mat_mul(self, A, B):
        """Matrix product of 2-D index arrays."""
        if self.k == 1:
            return np.asarray(
                (A.astype(np.int64) @ B.astype(np.int64)) % self.p,
                dtype=np.int32)
        add_t, mul_t = self.tables[0], self.tables[1]
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
        for t in range(A.shape[1]):
            out = add_t[out, mul_t[A[:, t][:, None], B[t, :][None, :]]]
        return out


def _same(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (3, 4), (3, 6)])
def test_arithmetic_matches_the_table_reference(p, k):
    F, ref = GF(p, k), TableField(p, k)
    rng = np.random.default_rng(p ** k)
    A = np.arange(F.q, dtype=np.int32)
    every = (A[:, None], A[None, :])
    assert _same(F.vadd(*every), ref.vadd(*every))
    assert _same(F.vsub(*every), ref.vsub(*every))
    assert _same(F.vmul(*every), ref.vmul(*every))
    assert _same(F.vneg(A), ref.vneg(A))
    for c in (0, 1, *rng.integers(2, F.q, 4)):
        assert _same(F.vscale(int(c), A), ref.vscale(int(c), A))
    mul_t, inv_t = ref.tables[1], ref.tables[3]
    rows = A if F.q <= 81 else rng.integers(0, F.q, 60)
    assert [[F.mul(int(a), b) for b in range(F.q)] for a in rows] == \
        mul_t[rows].tolist()
    assert [F.inv(a) for a in range(1, F.q)] == inv_t[1:].tolist()
    # products with every inner dimension up to 81, and one closure-shaped
    # block; about a third of the entries are zero
    shapes = [((4, n), (n, 3)) for n in range(1, 82)] + \
        [((45, 9), (9, 549)), ((1, 5), (5, 1)), ((0, 3), (3, 2))]
    for sa, sb in shapes:
        X = rng.integers(0, F.q, sa) * (rng.random(sa) > 0.3)
        Y = rng.integers(0, F.q, sb) * (rng.random(sb) > 0.3)
        X, Y = X.astype(np.int32), Y.astype(np.int32)
        assert _same(F.mat_mul(X, Y), ref.mat_mul(X, Y))


@pytest.mark.parametrize("p,k", [(3, 7), (3, 8), (3, 10), (5, 6), (7, 5),
                                 (17, 3), (251, 2)])
def test_fields_over_the_old_table_cap_match_schoolbook_products(p, k):
    # 2048 < q <= 2^16: the dense tables were refused here; schoolbook
    # polynomial products are the oracle
    F, ref = GF(p, k), TableField(p, k)
    assert F.q > TABLE_MAX
    rng = np.random.default_rng(F.q)
    X = rng.integers(0, F.q, (4, 81)).astype(np.int32)
    Y = rng.integers(0, F.q, (81, 3)).astype(np.int32)
    X[0, :5] = Y[:5, 0] = 0
    expect = np.zeros((4, 3), dtype=np.int32)
    for i in range(4):
        for j in range(3):
            for t in range(81):
                expect[i, j] = F.add(int(expect[i, j]),
                                     ref._mul_ext(int(X[i, t]), int(Y[t, j])))
    assert _same(F.mat_mul(X, Y), expect)
    a, b = X[1], Y[:, 2]
    assert F.vmul(a, b).tolist() == \
        [ref._mul_ext(int(x), int(y)) for x, y in zip(a, b)]
    assert F.vadd(a, b).tolist() == [F.add(int(x), int(y)) for x, y in zip(a, b)]
    assert all(ref._mul_ext(int(x), F.inv(int(x))) == 1 for x in a if x)


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_matches_sympy(p):
    # oracle: sympy's finite-field factorization of the same coefficients;
    # products of random factors give repeated factors, and g(x^p) = g(x)^p
    # a factor of zero derivative
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    import random
    rng = random.Random(p)
    F = GF(p)
    for _ in range(25):
        f = Poly.const(F, rng.randrange(1, p))
        for _ in range(rng.randint(1, 3)):
            cs = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            g = Poly(F, cs)
            f = f * g if rng.random() < 0.6 else f * g * g
        if rng.random() < 0.3:
            spread = [0] * (p * (len(cs) - 1) + 1)
            spread[::p] = cs
            f = f * Poly(F, spread)
        lead, factors = galoistools.gf_factor(
            [int(c) for c in reversed(f.coeffs)], p, ZZ)
        assert f.coeffs[-1] == int(lead)
        assert poly_factor(f) and [(g.coeffs, e) for g, e in poly_factor(f)] \
            == sorted(((tuple(int(c) for c in reversed(g)), e)
                       for g, e in factors),
                      key=lambda t: (len(t[0]), t[0]))


@pytest.mark.parametrize("p", [3, 7, 46337, 65521])
def test_prime_field_inverse_matches_fermat(p):
    F = GF(p)
    assert [F.inv(a) for a in range(1, p)] == \
        [pow(a, p - 2, p) for a in range(1, p)]


def berlekamp_every_constant(f):
    """Reference: the Berlekamp split that tries gcd(u, g - c) for every
    constant c of the field, which the quadratic-character split replaced.
    Kept verbatim apart from its name."""
    from orthomono.field import poly_powmod
    from orthomono.linalg import Matrix, kernel
    F = f.field
    n = f.degree
    if n <= 1:
        return [f]
    x = Poly.x(F)
    xq = poly_powmod(x, F.q, f)
    rows = []
    cur = Poly.const(F, 1)
    for i in range(n):
        coef = list(cur.coeffs) + [0] * (n - len(cur.coeffs))
        rows.append(coef)
        cur = (cur * xq) % f
    for i in range(n):
        rows[i][i] = F.sub(rows[i][i], 1)
    fixed = kernel(Matrix(F, rows).T).basis
    r = len(fixed)
    if r == 1:
        return [f]
    factors = [f]
    for vec in fixed:
        g = Poly(F, vec)
        if g.degree <= 0:
            continue
        nxt = []
        for u in factors:
            if u.degree == 1:
                nxt.append(u)
                continue
            rem = u
            pieces = []
            for c in range(F.q):
                if rem.degree <= 0:
                    break
                d = poly_gcd(rem, g - Poly.const(F, c))
                if d.degree > 0:
                    pieces.append(d)
                    rem = rem // d
            nxt.extend(pieces if pieces else [u])
        factors = nxt
        if len(factors) == r:
            break
    if len(factors) != r:
        raise AlgebraError("factor count off after the Berlekamp sweep")
    return factors


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 3)])
def test_factor_matches_the_every_constant_split(p, k, monkeypatch):
    import random
    from orthomono import field
    rng = random.Random(9 * p + k)
    F = GF(p, k)
    polys = []
    for _ in range(40):
        f = Poly.const(F, 1)
        for _ in range(rng.randint(1, 4)):
            f = f * Poly(F, [rng.randrange(F.q)
                             for _ in range(rng.randint(1, 4))] + [1])
        polys.append(f)
    got = [poly_factor(f) for f in polys]
    monkeypatch.setattr(field, "_berlekamp_squarefree",
                        berlekamp_every_constant)
    assert got == [poly_factor(f) for f in polys]
    assert sum(len(fs) > 2 for fs in got) >= 10


def test_factor_over_gf_3_10():
    # the every-constant split took seconds here: 59049 gcds per factor
    F = GF(3, 10)
    f = Poly(F, (1, 1, 1, 1, 1))  # the fifth cyclotomic polynomial
    facs = poly_factor(f)
    assert [(g.degree, e) for g, e in facs] == [(2, 1), (2, 1)]
    assert facs[0][0] * facs[1][0] == f
