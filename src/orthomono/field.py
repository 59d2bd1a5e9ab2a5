"""Exact arithmetic in GF(p^k) for odd p.

Elements of GF(p^k) are stored as integer indices in [0, p^k): the base-p
digits of the index, least significant first, are the coordinates with
respect to the power basis of the field's modulus.  A FieldSpec owns the
arithmetic; FieldElem is a thin operator-overloading wrapper used at API
boundaries.  Polynomials, deterministic Berlekamp factorization, splitting
fields and Frobenius orbits live here as well.

Everything is deterministic: the modulus of GF(p^k) is the lexicographically
least monic irreducible of degree k over GF(p), embeddings pick the smallest
root, and factorization sweeps field elements in index order.
"""

from functools import lru_cache
import math

import numpy as np

from .errors import (
    AlgebraError,
    CharacteristicTwo,
    DivisionByZero,
    FieldMismatch,
    NoEmbedding,
    ZeroInput,
)

# Largest field size for which dense add/mul lookup tables are built.
TABLE_MAX = 2048
# Policy bound: larger fields are refused outright.
POLICY_MAX_Q = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """The field GF(p^k), p an odd prime, with an explicit modulus.

    The modulus is a monic irreducible polynomial of degree k over GF(p),
    given low-to-high as a tuple of residues.  `base` optionally records the
    subfield this field was built as an extension of; the field itself is
    always realized over the prime field.
    """

    __slots__ = ("p", "k", "q", "modulus", "base", "_tables")

    def __init__(self, p, k=1, modulus=None, base=None):
        if not is_prime(p):
            raise AlgebraError(f"p = {p} is not prime")
        if p == 2:
            raise CharacteristicTwo(
                "characteristic 2 rejected: in odd dimension the bilinear "
                "radical of a quadratic form is nonzero")
        if k < 1:
            raise AlgebraError("extension degree must be >= 1")
        if p ** k > POLICY_MAX_Q:
            raise AlgebraError(f"field size {p}^{k} exceeds policy bound 2^16")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = _canonical_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            _validate_modulus(p, k, modulus)
        self.modulus = modulus
        if base is not None and (base.p != p or k % base.k != 0):
            raise NoEmbedding(f"GF({base.q}) does not embed in GF({self.q})")
        self.base = base
        self._tables = None

    # -- identity -------------------------------------------------------

    @property
    def key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- element codec ----------------------------------------------------

    def coeffs(self, a):
        """Base-p digits of index a, low to high, length k."""
        return tuple((a // self.p ** i) % self.p for i in range(self.k))

    def encode(self, coeffs):
        a = 0
        for i, c in enumerate(coeffs):
            a += (int(c) % self.p) * self.p ** i
        return a

    def elem(self, value):
        """Wrap an index (or residue) as a FieldElem."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatch(f"{value} not in {self}")
            return value
        return FieldElem(self, int(value) % self.q if self.k == 1
                         else int(value))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def elements(self):
        return range(self.q)

    # -- scalar arithmetic on indices -------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        s = 0
        pw = 1
        for _ in range(self.k):
            s += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return s

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        s = 0
        pw = 1
        for _ in range(self.k):
            s += ((-a) % p) * pw
            a //= p
            pw *= p
        return s

    def sub(self, a, b):
        return self.add(a, self.neg(b))

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def frob(self, a):
        """Absolute Frobenius x -> x^p."""
        return self.pow(a, self.p)

    def is_square(self, a):
        if a == 0:
            raise ZeroInput("square test of 0")
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a):
        """Some b with b^2 = a, smallest index first; None if a is a
        non-square."""
        if a == 0:
            return 0
        for b in range(1, self.q):
            if self.mul(b, b) == a:
                return b
        return None

    # -- lookup tables and vectorized operations ---------------------------

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

    def mat_vec(self, A, v):
        return self.mat_mul(A, np.asarray(v, dtype=np.int32).reshape(-1, 1)
                            ).reshape(-1)

    def vec_mat(self, v, A):
        return self.mat_mul(np.asarray(v, dtype=np.int32).reshape(1, -1), A
                            ).reshape(-1)


class FieldElem:
    """A field element: a FieldSpec plus an index into it."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        if not 0 <= idx < field.q:
            raise AlgebraError(f"index {idx} out of range for {field}")
        self.field = field
        self.idx = idx

    @property
    def coeffs(self):
        return self.field.coeffs(self.idx)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other.idx
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add(self.idx, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(self.idx, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(b, self.idx))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul(self.idx, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.div(self.idx, b))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.idx))

    def __pow__(self, e):
        return FieldElem(self.field, self.field.pow(self.idx, e))

    def inverse(self):
        return FieldElem(self.field, self.field.inv(self.idx))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == other % self.field.p if self.field.k == 1 \
                else self.idx == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.key, self.idx))

    def __bool__(self):
        return self.idx != 0

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.idx}"
        return f"{self.idx}~{self.coeffs}"


def is_square(a):
    """True iff the nonzero element a is a square, via a^((q-1)/2) = 1."""
    return a.field.is_square(a.idx)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Polynomial over a FieldSpec, coefficients low-to-high as indices,
    no trailing zeros.  The zero polynomial has empty coeffs and degree -1."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    def _chk(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._chk(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._chk(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return Poly(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def __divmod__(self, other):
        self._chk(other)
        F = self.field
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(F, ()), self
        quo = [0] * (dq + 1)
        lead_inv = F.inv(other.coeffs[-1])
        for d in range(dq, -1, -1):
            c = F.mul(rem[d + other.degree], lead_inv)
            quo[d] = c
            if c:
                for j, y in enumerate(other.coeffs):
                    rem[d + j] = F.sub(rem[d + j], F.mul(c, y))
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(i % F.p, self.coeffs[i]))
        return Poly(F, out)

    def eval_idx(self, a):
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def __call__(self, x):
        if isinstance(x, FieldElem):
            return FieldElem(self.field, self.eval_idx(x.idx))
        return self.eval_idx(x)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(reversed(parts))

    def sort_key(self):
        return (self.degree, self.coeffs)


def poly_gcd(f, g):
    """Monic gcd."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def poly_powmod(base, e, mod):
    F = base.field
    r = Poly.const(F, 1)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def _irreducible_by_powers(f):
    """Rabin irreducibility test for monic f of degree >= 1."""
    F = f.field
    n = f.degree
    if n == 1:
        return True
    x = Poly.x(F)
    for ell in prime_factors(n):
        h = poly_powmod(x, F.q ** (n // ell), f) - x
        if poly_gcd(f, h).degree != 0:
            return False
    return poly_powmod(x, F.q ** n, f) == x % f


@lru_cache(maxsize=None)
def _canonical_modulus(p, k):
    """Lexicographically least monic irreducible of degree k over GF(p),
    comparing coefficient vectors (c_{k-1}, ..., c_0)."""
    if k == 1:
        return (0, 1)
    Fp = GF(p)
    # count in base p over (c_{k-1}, ..., c_0)
    for code in range(p ** k):
        tail = []
        c = code
        for _ in range(k):
            tail.append(c % p)
            c //= p
        # tail is (c_0, ..., c_{k-1}) of the code; the code orders by
        # c_{k-1} most significant, which is the required lex order
        f = Poly(Fp, tuple(tail) + (1,))
        if _irreducible_by_powers(f):
            return f.coeffs
    raise AlgebraError("no irreducible polynomial found")  # unreachable


def _validate_modulus(p, k, modulus):
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise AlgebraError("modulus must be monic of degree k")
    if k > 1:
        f = Poly(GF(p), modulus)
        if not _irreducible_by_powers(f):
            raise AlgebraError(f"modulus {f} is reducible over GF({p})")


_FIELD_CACHE = {}


def GF(p, k=1, base=None):
    """Canonical GF(p^k) with the lexicographically least modulus."""
    key = (p, k, None if base is None else base.key)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, k, base=base)
        _FIELD_CACHE[key] = spec
    return spec


# ---------------------------------------------------------------------------
# factorization (deterministic Berlekamp)


def _nullspace(rows, F):
    """Basis (list of row tuples) of {x : M x = 0} for M given as a list of
    row lists over F.  Local elimination, kept here to avoid importing the
    matrix layer."""
    if not rows:
        return []
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg(m[i][fc])
        basis.append(tuple(vec))
    return basis


def _berlekamp_squarefree(f):
    """Irreducible factors of a monic squarefree f, deterministic."""
    F = f.field
    n = f.degree
    if n <= 1:
        return [f]
    x = Poly.x(F)
    xq = poly_powmod(x, F.q, f)
    # rows[i] = coordinates of x^(i*q) mod f
    rows = []
    cur = Poly.const(F, 1)
    for i in range(n):
        coef = list(cur.coeffs) + [0] * (n - len(cur.coeffs))
        rows.append(coef)
        cur = (cur * xq) % f
    # subtract identity: matrix of (Frobenius - id) acting on row vectors
    for i in range(n):
        rows[i][i] = F.sub(rows[i][i], 1)
    # right kernel of the transpose = row vectors fixed by Frobenius
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    kernel = _nullspace(cols, F)
    r = len(kernel)
    if r == 1:
        return [f]
    factors = [f]
    for vec in kernel:
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


def _pth_root_poly(f):
    """For f with zero derivative, the g with g(x)^p = f(x)."""
    F = f.field
    p = F.p
    root = lambda a: F.pow(a, F.q // p)  # a^(p^(k-1)) is the p-th root
    return Poly(F, [root(f.coeffs[i]) for i in range(0, len(f.coeffs), p)])


def poly_factor(f):
    """Factor f into monic irreducibles with multiplicities.

    Returns a list of (Poly, multiplicity) pairs, sorted by (degree,
    coefficients).  The product of factor^mult times the leading coefficient
    of f re-multiplies to f exactly.
    """
    if f.is_zero:
        raise ZeroInput("cannot factor the zero polynomial")
    F = f.field
    out = {}
    work = [(f.monic(), 1)]
    while work:
        g, scale = work.pop()
        if g.degree <= 0:
            continue
        if g.derivative().is_zero:
            work.append((_pth_root_poly(g), scale * F.p))
            continue
        radical = g // poly_gcd(g, g.derivative())
        for q in _berlekamp_squarefree(radical):
            e = 0
            while True:
                quo, rem = divmod(g, q)
                if not rem.is_zero:
                    break
                g = quo
                e += 1
            out[q] = out.get(q, 0) + e * scale
        if g.degree > 0:
            work.append((g, scale))
    return sorted(out.items(), key=lambda t: t[0].sort_key())


def splitting_field(f):
    """Smallest extension of f's field in which f splits into linear factors.

    The result is GF(p^m) realized over the prime field, with `base` set to
    f's field; m is the field degree times the lcm of the irreducible factor
    degrees.  The extension is Galois with cyclic group generated by
    x -> x^|F|.
    """
    F = f.field
    rel = 1
    for g, _ in poly_factor(f):
        rel = math.lcm(rel, g.degree)
    if rel == 1:
        return F
    return GF(F.p, F.k * rel, base=F)


# ---------------------------------------------------------------------------
# embeddings and Galois orbits


_EMBED_CACHE = {}


def embedding(F, K):
    """Index table of the canonical embedding GF(|F|) -> GF(|K|).

    The power-basis generator of F is sent to the smallest root of F's
    modulus in K.  Raises NoEmbedding when F is not a subfield of K.
    """
    if F.p != K.p or K.k % F.k != 0:
        raise NoEmbedding(f"{F} does not embed in {K}")
    key = (F.key, K.key)
    table = _EMBED_CACHE.get(key)
    if table is not None:
        return table
    if F == K:
        table = np.arange(F.q, dtype=np.int64)
        _EMBED_CACHE[key] = table
        return table
    if F.k == 1:
        table = np.arange(F.p, dtype=np.int64)
        _EMBED_CACHE[key] = table
        return table
    modulus = Poly(GF(F.p), F.modulus)
    root = None
    for a in range(K.q):
        acc = 0
        for c in reversed(modulus.coeffs):
            acc = K.add(K.mul(acc, a), c)
        if acc == 0:
            root = a
            break
    if root is None:
        raise NoEmbedding(f"modulus of {F} has no root in {K}")  # unreachable
    powers = [1]
    for _ in range(F.k - 1):
        powers.append(K.mul(powers[-1], root))
    table = np.zeros(F.q, dtype=np.int64)
    for a in range(F.q):
        acc = 0
        for c, pw in zip(F.coeffs(a), powers):
            acc = K.add(acc, K.mul(c, pw))
        table[a] = acc
    _EMBED_CACHE[key] = table
    return table


def embedding_inverse(F, K):
    """Partial inverse of embedding(F, K): K-index -> F-index, -1 outside."""
    table = embedding(F, K)
    inv = np.full(K.q, -1, dtype=np.int64)
    inv[table] = np.arange(F.q)
    return inv


def frobenius_orbit(a, base):
    """Orbit {a, a^|base|, a^(|base|^2), ...} of a FieldElem under the Galois
    group of its field over the base field, without repetition."""
    K = a.field
    if base.p != K.p or K.k % base.k != 0:
        raise FieldMismatch(f"{base} is not a subfield of {K}")
    qb = base.q
    orbit = [a.idx]
    x = K.pow(a.idx, qb)
    while x != a.idx:
        orbit.append(x)
        x = K.pow(x, qb)
    return [FieldElem(K, i) for i in orbit]


def frobenius_orbit_idx(K, a, qbase):
    orbit = [a]
    x = K.pow(a, qbase)
    while x != a:
        orbit.append(x)
        x = K.pow(x, qbase)
    return orbit
